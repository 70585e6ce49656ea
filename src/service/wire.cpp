#include "service/wire.hpp"

#include <concepts>
#include <string>
#include <type_traits>

namespace iscope::service {

namespace {

// Each payload type's one field list: serial::Save runs it to encode the
// payload and serial::Load<ParseError> to parse it, so every refusal sits
// beside its field. `P` is the payload type, const when encoding. The task
// spec and the timeline event are the checkpoint's lists (task_fields,
// timeline_fields).
template <class P, class T>
concept Payload = std::same_as<std::remove_const_t<P>, T>;

/// HELLO: the client's protocol version.
template <class Io, Payload<std::uint32_t> P>
void fields(Io& io, P& version) {
  io(version);
}

/// ADMIT. Only non-finite times and a bad urgency are refused here; the
/// daemon applies the admission rule (DatacenterSim::check_admissible).
template <class Io, Payload<Task> P>
void fields(Io& io, P& task) {
  task_fields(io, task);
}

/// ADVANCE: the one bare-double payload, the slice's end.
template <class Io, Payload<double> P>
void fields(Io& io, P& t_limit) {
  io.finite(t_limit, "advance limit");
  io.check(t_limit >= 0.0, "advance limit must be >= 0");
}

/// ADMIT_OK: the queue position.
template <class Io, Payload<std::uint64_t> P>
void fields(Io& io, P& v) {
  io(v);
}

/// CHECKPOINT, CHECKPOINT_OK, METRICS_TEXT and ERR: one string.
template <class Io, Payload<std::string> P>
void fields(Io& io, P& text) {
  io.text(text, kMaxFrameBody);
}

template <class Io, Payload<HelloOk> P>
void fields(Io& io, P& h) {
  io(h.version);
  io.text(h.scheme, 256);
  io(h.procs);
  io(h.seed);
}

/// DECISION.
template <class Io, Payload<TimelineEvent> P>
void fields(Io& io, P& e) {
  timeline_fields(io, e);
}

template <class Io, Payload<AdvanceDone> P>
void fields(Io& io, P& d) {
  io.finite(d.now_s, "clock");
  io(d.events_run);
}

template <class Io, Payload<DecisionSnapshot> P>
void fields(Io& io, P& s) {
  io.finite(s.now_s, "snapshot clock");
  io.finite(s.demand, "snapshot demand");
  io(s.tasks_admitted);
  io(s.tasks_completed);
  io(s.tasks_failed);
  io(s.waiting);
  io(s.running);
  io(s.idle_procs);
  io(s.events_processed);
  io(s.rematches);
  io(s.rush_mode);
}

template <class Io, Payload<ResultSummary> P>
void fields(Io& io, P& r) {
  io.finite(r.wind_j, "wind energy");
  io.finite(r.utility_j, "utility energy");
  io.finite(r.curtailed_j, "curtailed energy");
  io.finite(r.battery_delivered_j, "battery delivered energy");
  io.finite(r.battery_losses_j, "battery losses");
  io.finite(r.cost_usd, "cost");
  io(r.tasks_completed);
  io(r.deadline_misses);
  io.finite(r.mean_wait_s, "mean wait");
  io.finite(r.makespan_s, "makespan");
  io(r.events_processed);
  io(r.rematches);
  io(r.task_requeues);
  io(r.tasks_failed);
}

template <class T>
std::vector<std::uint8_t> encode(const T& v) {
  serial::Writer w;
  serial::Save io(w);
  fields(io, v);
  return w.take();
}

/// Reads the whole payload: trailing bytes are refused too.
template <class T>
T parse(const std::vector<std::uint8_t>& payload) {
  serial::Reader r(payload.data(), payload.size());
  serial::Load<ParseError> io(r, "wire: ");
  T v{};
  fields(io, v);
  r.expect_done();
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  ISCOPE_CHECK_ARG(payload.size() + 1 <= kMaxFrameBody,
                   "wire: frame payload exceeds the frame cap");
  serial::Writer w;
  w.u32(static_cast<std::uint32_t>(payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameReader::next(Frame& out) {
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow it without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  if (buf_.size() - pos_ < 4) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  // A lying length prefix is rejected *before* waiting for (or buffering)
  // the bytes it claims; zero-length frames have no type byte and are
  // equally malformed.
  if (len == 0) throw ParseError("wire: zero-length frame");
  if (len > kMaxFrameBody) throw ParseError("wire: frame exceeds size cap");
  if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) return false;
  out.type = static_cast<MsgType>(buf_[pos_ + 4]);
  out.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 5),
                     buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
  pos_ += 4 + static_cast<std::size_t>(len);
  return true;
}

std::vector<std::uint8_t> encode_hello() { return encode(kProtoVersion); }

void parse_hello(const std::vector<std::uint8_t>& payload) {
  const std::uint32_t version = parse<std::uint32_t>(payload);
  if (version != kProtoVersion)
    throw ParseError("wire: unsupported protocol version " +
                     std::to_string(version));
}

std::vector<std::uint8_t> encode_admit(const Task& task) {
  return encode(task);
}
Task parse_admit(const std::vector<std::uint8_t>& payload) {
  return parse<Task>(payload);
}

std::vector<std::uint8_t> encode_advance(double t_limit_s) {
  return encode(t_limit_s);
}
double parse_advance(const std::vector<std::uint8_t>& payload) {
  return parse<double>(payload);
}

std::vector<std::uint8_t> encode_hello_ok(const HelloOk& h) {
  return encode(h);
}
HelloOk parse_hello_ok(const std::vector<std::uint8_t>& payload) {
  return parse<HelloOk>(payload);
}

std::vector<std::uint8_t> encode_u64(std::uint64_t v) { return encode(v); }
std::uint64_t parse_u64(const std::vector<std::uint8_t>& payload) {
  return parse<std::uint64_t>(payload);
}

std::vector<std::uint8_t> encode_text(const std::string& text) {
  return encode(text);
}
std::string parse_text(const std::vector<std::uint8_t>& payload) {
  return parse<std::string>(payload);
}

std::vector<std::uint8_t> encode_decision(const TimelineEvent& e) {
  return encode(e);
}
TimelineEvent parse_decision(const std::vector<std::uint8_t>& payload) {
  return parse<TimelineEvent>(payload);
}

std::vector<std::uint8_t> encode_advance_done(const AdvanceDone& d) {
  return encode(d);
}
AdvanceDone parse_advance_done(const std::vector<std::uint8_t>& payload) {
  return parse<AdvanceDone>(payload);
}

std::vector<std::uint8_t> encode_snapshot(const DecisionSnapshot& s) {
  return encode(s);
}
DecisionSnapshot parse_snapshot(const std::vector<std::uint8_t>& payload) {
  return parse<DecisionSnapshot>(payload);
}

std::vector<std::uint8_t> encode_result_summary(const ResultSummary& r) {
  return encode(r);
}
ResultSummary parse_result_summary(const std::vector<std::uint8_t>& payload) {
  return parse<ResultSummary>(payload);
}

}  // namespace iscope::service
