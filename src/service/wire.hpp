// Wire protocol of the iscope_serve daemon (DESIGN.md Sec. 15).
//
// Frames are length-prefixed over a byte stream:
//
//   frame   := u32 length (LE) | u8 type | payload
//   length  := 1 + |payload|, so a frame is never empty; capped at
//              kMaxFrameBody to bound what one message can make the peer
//              buffer.
//
// Payloads are serial.hpp-encoded (fixed little-endian, bit-exact
// doubles). Each payload type has one field list (wire.cpp), which
// serial::Save runs to encode it and serial::Load<ParseError> to parse it;
// the task spec and the timeline event are the checkpoint's own lists
// (task_fields, timeline_fields). Every parse_* function consumes the
// whole payload and throws iscope::ParseError on truncation, trailing
// bytes, out-of-range enums, or a non-finite number (any double but a
// task's gamma, which the admission rule checks) -- a hostile or
// corrupted peer can produce errors, never UB or over-reads
// (tests/test_fuzz_parsers.cpp mutates these paths).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"
#include "workload/task.hpp"

namespace iscope::service {

inline constexpr std::uint32_t kProtoVersion = 1;
/// Cap on the length prefix (type byte + payload). A lying prefix beyond
/// this is rejected before any buffering happens.
inline constexpr std::size_t kMaxFrameBody = std::size_t{1} << 20;

enum class MsgType : std::uint8_t {
  // client -> server
  kHello = 0x01,       ///< { u32 proto_version }
  kAdmit = 0x02,       ///< { task }
  kAdvance = 0x03,     ///< { f64 t_limit } -- inject pending, step_until
  kDrain = 0x04,       ///< {} -- inject pending, run the queue dry
  kDecideNow = 0x05,   ///< {} -- O(1) read-only snapshot
  kMetrics = 0x06,     ///< {} -- Prometheus text over the socket
  kCheckpoint = 0x07,  ///< { str path ("" = server default) }
  kResult = 0x08,      ///< {} -- final SimResult summary (after drain)
  kShutdown = 0x09,    ///< {} -- clean exit, no checkpoint
  // server -> client
  kHelloOk = 0x81,     ///< { u32 version, str scheme, u64 procs, u64 seed }
  kAdmitOk = 0x82,     ///< { u64 queue_position }
  kBusy = 0x83,        ///< admission queue full -- retry after an advance
  kErr = 0x84,         ///< { str message }
  kDecision = 0x85,    ///< { timeline event } -- streamed after advance/drain
  kAdvanceDone = 0x86, ///< { f64 now_s, u64 events_run }
  kDrained = 0x87,     ///< { f64 now_s, u64 events_run }
  kSnapshot = 0x88,    ///< { DecisionSnapshot }
  kMetricsText = 0x89, ///< { str prometheus_text }
  kCheckpointOk = 0x8a,///< { str path }
  kResultSummary = 0x8b,  ///< { ResultSummary }
  kShutdownOk = 0x8c,  ///< {}
};

struct Frame {
  MsgType type = MsgType::kErr;
  std::vector<std::uint8_t> payload;
};

/// Serialize one frame (length prefix + type + payload).
std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload = {});

/// Incremental frame decoder for a nonblocking byte stream: feed() whatever
/// arrived, next() yields complete frames. Throws ParseError on a
/// zero-length or oversize header (the connection should be dropped).
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  bool next(Frame& out);
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted lazily
};

/// The wire subset of SimResult (vectors stay on the server; the scalar
/// aggregates are what the e2e harness cross-checks against a batch run).
struct ResultSummary {
  double wind_j = 0.0;
  double utility_j = 0.0;
  double curtailed_j = 0.0;
  double battery_delivered_j = 0.0;
  double battery_losses_j = 0.0;
  double cost_usd = 0.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t deadline_misses = 0;
  double mean_wait_s = 0.0;
  double makespan_s = 0.0;
  std::uint64_t events_processed = 0;
  std::uint64_t rematches = 0;
  std::uint64_t task_requeues = 0;
  std::uint64_t tasks_failed = 0;
};

struct HelloOk {
  std::uint32_t version = 0;
  std::string scheme;
  std::uint64_t procs = 0;
  std::uint64_t seed = 0;
};

struct AdvanceDone {
  double now_s = 0.0;
  std::uint64_t events_run = 0;
};

// --- payload codecs -------------------------------------------------------
// parse_* throws iscope::ParseError on any malformed payload. parse_admit
// decodes only: the daemon admits by DatacenterSim::check_admissible.

std::vector<std::uint8_t> encode_hello();
void parse_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_admit(const Task& task);
Task parse_admit(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_advance(double t_limit_s);
double parse_advance(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_hello_ok(const HelloOk& h);
HelloOk parse_hello_ok(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_u64(std::uint64_t v);
std::uint64_t parse_u64(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_text(const std::string& text);
std::string parse_text(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_decision(const TimelineEvent& e);
TimelineEvent parse_decision(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_advance_done(const AdvanceDone& d);
AdvanceDone parse_advance_done(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_snapshot(const DecisionSnapshot& s);
DecisionSnapshot parse_snapshot(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_result_summary(const ResultSummary& r);
ResultSummary parse_result_summary(const std::vector<std::uint8_t>& payload);

}  // namespace iscope::service
