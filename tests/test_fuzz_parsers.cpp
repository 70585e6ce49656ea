// Fuzz-style robustness tests for the external-input parsers: SWF
// workload traces, supply CSVs, the iscope_serve wire protocol and
// command-line flags, and the checkpoint codec. Two layers:
//
//  1. a seed corpus (tests/data/fuzz/) of hand-written hostile inputs --
//     truncated lines, NaN/negative values, CRLF endings, embedded NULs,
//     lying length prefixes, oversize frame headers -- with pinned
//     expected outcomes. The service_* binaries double as wire-format
//     pins: they were emitted by the production codec, so a layout change
//     that breaks old peers or old checkpoints fails here first;
//  2. deterministic mutation fuzzing: a seeded Rng mauls valid inputs a
//     few hundred ways and every outcome must be either a clean
//     ParseError / CheckpointError or a successful parse with sane,
//     finite contents. Any other exception (or a crash/UB under the
//     sanitizer stages of tools/check.sh) is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "checkpoint_seal.hpp"
#include "common/rng.hpp"
#include "energy/supply_trace.hpp"
#include "service/checkpoint.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "workload/swf.hpp"

namespace iscope {
namespace {

std::string data_path(const std::string& name) {
  return std::string(ISCOPE_TEST_DATA_DIR) + "/fuzz/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------- corpus: SWF

TEST(FuzzCorpusSwf, ValidFileParses) {
  const auto jobs = parse_swf(slurp(data_path("swf_valid.swf")));
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].job_id, 1);
  EXPECT_DOUBLE_EQ(jobs[0].runtime_s, 3600.0);
  EXPECT_EQ(jobs[0].requested_procs, 4);
  EXPECT_DOUBLE_EQ(jobs[2].submit_s, 600.0);
}

TEST(FuzzCorpusSwf, CrlfEndingsAreTolerated) {
  const auto jobs = parse_swf(slurp(data_path("swf_crlf.swf")));
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[1].runtime_s, 1800.0);
}

TEST(FuzzCorpusSwf, HostileFilesThrowParseError) {
  for (const char* name :
       {"swf_truncated.swf", "swf_nan.swf", "swf_text.swf", "swf_nul.swf"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW(parse_swf(slurp(data_path(name))), ParseError);
  }
}

TEST(FuzzCorpusSwf, MissingFileThrows) {
  EXPECT_THROW(read_swf_file(data_path("does_not_exist.swf")), ParseError);
}

// ------------------------------------------------ corpus: supply CSV

TEST(FuzzCorpusSupply, ValidFileLoads) {
  const SupplyTrace trace = SupplyTrace::load_csv(data_path("supply_valid.csv"));
  ASSERT_EQ(trace.samples(), 4u);
  EXPECT_DOUBLE_EQ(trace.step().seconds(), 600.0);
  EXPECT_DOUBLE_EQ(trace.sample(1).watts(), 650.0);
  EXPECT_DOUBLE_EQ(trace.sample(3).watts(), 0.0);
}

TEST(FuzzCorpusSupply, HostileFilesThrowParseError) {
  for (const char* name :
       {"supply_nan.csv", "supply_nan_time.csv", "supply_negative.csv",
        "supply_nonuniform.csv", "supply_empty.csv",
        "supply_truncated_row.csv"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW(SupplyTrace::load_csv(data_path(name)), ParseError);
  }
}

// -------------------------------------------------- mutation fuzzing

/// Apply one seeded mutation to `text`: byte flip, truncation, chunk
/// duplication, or hostile-token splice.
std::string mutate(const std::string& text, Rng& rng) {
  std::string s = text;
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // flip a byte to an arbitrary value (NULs included)
      if (s.empty()) break;
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
      s[pos] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    }
    case 1: {  // truncate mid-stream
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
      s.resize(pos);
      break;
    }
    case 2: {  // duplicate a random chunk somewhere else
      if (s.size() < 4) break;
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
      const auto from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 2));
      const auto to = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
      s.insert(to, s.substr(from, std::min(n, s.size() - from)));
      break;
    }
    default: {  // splice in a token parsers must not choke on
      static const std::string kTokens[] = {
          "nan", "-inf", "1e999", "--", std::string(1, '\0'),
          "\r",  "9.9.9", "0x1p4"};
      const std::string& tok = kTokens[rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kTokens)) - 1)];
      const auto to = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
      s.insert(to, tok);
      break;
    }
  }
  return s;
}

TEST(FuzzMutation, SwfParserNeverMisbehaves) {
  const std::string base = slurp(data_path("swf_valid.swf"));
  Rng rng(0xf0221);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string input = base;
    const int rounds = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < rounds; ++m) input = mutate(input, rng);
    try {
      const auto jobs = parse_swf(input);
      ++parsed;
      // A successful parse must yield only finite, plausible fields.
      for (const SwfJob& j : jobs) {
        EXPECT_TRUE(std::isfinite(j.submit_s));
        EXPECT_TRUE(std::isfinite(j.runtime_s));
        EXPECT_TRUE(std::isfinite(j.wait_s));
        EXPECT_TRUE(std::isfinite(j.requested_time_s));
      }
      // And conversion downstream must not blow up either.
      const auto tasks = swf_to_tasks(jobs);
      for (const Task& t : tasks) {
        EXPECT_GT(t.runtime_s, 0.0);
        EXPECT_GT(t.cpus, 0u);
        EXPECT_GE(t.submit_s, 0.0);
      }
    } catch (const ParseError&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  // The mutator must actually exercise both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzMutation, SupplyCsvLoaderNeverMisbehaves) {
  const std::string base = slurp(data_path("supply_valid.csv"));
  const std::string tmp = testing::TempDir() + "iscope_fuzz_supply.csv";
  Rng rng(0xf0222);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string input = base;
    const int rounds = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < rounds; ++m) input = mutate(input, rng);
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good());
      out.write(input.data(),
                static_cast<std::streamsize>(input.size()));
    }
    try {
      const SupplyTrace trace = SupplyTrace::load_csv(tmp);
      ++parsed;
      EXPECT_GT(trace.step().seconds(), 0.0);
      for (std::size_t i = 0; i < trace.samples(); ++i) {
        EXPECT_TRUE(std::isfinite(trace.sample(i).watts()));
        EXPECT_GE(trace.sample(i).watts(), 0.0);
      }
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  std::remove(tmp.c_str());
}

// ----------------------------------------------- corpus: wire frames

std::vector<std::uint8_t> slurp_bytes(const std::string& path) {
  const std::string s = slurp(path);
  return {s.begin(), s.end()};
}

/// Feed a whole byte blob to a fresh FrameReader and collect every
/// complete frame (throws ParseError exactly where the daemon would).
std::vector<service::Frame> frames_of(const std::vector<std::uint8_t>& blob) {
  service::FrameReader reader;
  reader.feed(blob.data(), blob.size());
  std::vector<service::Frame> out;
  service::Frame f;
  while (reader.next(f)) out.push_back(f);
  return out;
}

/// The pinned task the corpus generator encoded into service_admit_*.bin.
Task corpus_task() {
  Task t;
  t.id = 42;
  t.submit_s = 120.5;
  t.cpus = 4;
  t.runtime_s = 300.0;
  t.gamma = 0.75;
  t.deadline_s = 1800.0;
  t.urgency = Urgency::kHigh;
  return t;
}

TEST(FuzzCorpusService, ValidAdmitFrameIsWireFormatPin) {
  const auto frames = frames_of(slurp_bytes(data_path("service_admit_valid.bin")));
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, service::MsgType::kAdmit);
  const Task t = service::parse_admit(frames[0].payload);
  const Task want = corpus_task();
  EXPECT_EQ(t.id, want.id);
  EXPECT_EQ(t.submit_s, want.submit_s);
  EXPECT_EQ(t.cpus, want.cpus);
  EXPECT_EQ(t.runtime_s, want.runtime_s);
  EXPECT_EQ(t.gamma, want.gamma);
  EXPECT_EQ(t.deadline_s, want.deadline_s);
  EXPECT_EQ(t.urgency, want.urgency);
  // Byte-for-byte: re-encoding must reproduce the committed file, so any
  // codec layout change is caught as a compatibility break, not silently.
  EXPECT_EQ(service::encode_frame(service::MsgType::kAdmit,
                                  service::encode_admit(want)),
            slurp_bytes(data_path("service_admit_valid.bin")));
}

TEST(FuzzCorpusService, NanPayloadIsRejected) {
  const auto frames = frames_of(slurp_bytes(data_path("service_admit_nan.bin")));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_THROW(service::parse_admit(frames[0].payload), ParseError);
}

TEST(FuzzCorpusService, TruncatedFrameParksWithoutError) {
  const auto blob = slurp_bytes(data_path("service_frame_truncated.bin"));
  service::FrameReader reader;
  reader.feed(blob.data(), blob.size());
  service::Frame f;
  EXPECT_FALSE(reader.next(f));          // incomplete, waits for more bytes
  EXPECT_EQ(reader.buffered(), blob.size());
}

TEST(FuzzCorpusService, LyingLengthPrefixTruncatesPayload) {
  // The prefix claims 8 bytes fewer than the admit codec wrote: the frame
  // completes, but the payload parser must reject the short body.
  const auto frames = frames_of(slurp_bytes(data_path("service_len_lie.bin")));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_THROW(service::parse_admit(frames[0].payload), ParseError);
}

TEST(FuzzCorpusService, OversizeAndZeroHeadersThrowBeforeBuffering) {
  // The reader rejects a hostile prefix the moment the 4-byte header is
  // decodable -- before waiting for (or allocating) the bytes it claims.
  for (const char* name :
       {"service_frame_oversize.bin", "service_frame_zero.bin"}) {
    SCOPED_TRACE(name);
    const auto blob = slurp_bytes(data_path(name));
    service::FrameReader reader;
    reader.feed(blob.data(), blob.size());
    service::Frame f;
    EXPECT_THROW(reader.next(f), ParseError);
  }
}

// ----------------------------------------------- wire payload codecs

/// `what` of the ParseError `parse` throws, or "" when it returns.
template <class Parse>
std::string refusal(Parse&& parse) {
  try {
    parse();
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(WireCodec, EveryPayloadRoundTrips) {
  using namespace service;
  EXPECT_EQ(encode_hello().size(), 4u);  // u32 version
  parse_hello(encode_hello());
  EXPECT_EQ(parse_advance(encode_advance(5000.25)), 5000.25);
  EXPECT_EQ(parse_u64(encode_u64(17)), 17u);
  EXPECT_EQ(parse_text(encode_text("iscope_sim_events_total 9")),
            "iscope_sim_events_total 9");

  HelloOk h;
  h.version = kProtoVersion;
  h.scheme = "ScanTherm";
  h.procs = 480;
  h.seed = 11;
  const std::vector<std::uint8_t> hello_ok = encode_hello_ok(h);
  // u32 version, length-prefixed scheme, u64 procs, u64 seed.
  EXPECT_EQ(hello_ok.size(), 4u + 8u + h.scheme.size() + 8u + 8u);
  const HelloOk h2 = parse_hello_ok(hello_ok);
  EXPECT_EQ(h2.version, h.version);
  EXPECT_EQ(h2.scheme, h.scheme);
  EXPECT_EQ(h2.procs, h.procs);
  EXPECT_EQ(h2.seed, h.seed);

  const TimelineEvent e{812.5, TimelineKind::kTaskWaking, 33, 0.004};
  const TimelineEvent e2 = parse_decision(encode_decision(e));
  EXPECT_EQ(e2.time_s, e.time_s);
  EXPECT_EQ(e2.kind, e.kind);
  EXPECT_EQ(e2.task_id, e.task_id);
  EXPECT_EQ(e2.value, e.value);

  const AdvanceDone d = parse_advance_done(encode_advance_done({4000.5, 123}));
  EXPECT_EQ(d.now_s, 4000.5);
  EXPECT_EQ(d.events_run, 123u);

  DecisionSnapshot s;
  s.now_s = 99.5;
  s.demand = Watts{1234.5};
  s.tasks_admitted = 1;
  s.tasks_completed = 2;
  s.tasks_failed = 3;
  s.waiting = 4;
  s.running = 5;
  s.idle_procs = 6;
  s.events_processed = 7;
  s.rematches = 8;
  s.rush_mode = true;
  const DecisionSnapshot s2 = parse_snapshot(encode_snapshot(s));
  EXPECT_EQ(s2.now_s, s.now_s);
  EXPECT_EQ(s2.demand, s.demand);
  EXPECT_EQ(s2.tasks_admitted, s.tasks_admitted);
  EXPECT_EQ(s2.tasks_completed, s.tasks_completed);
  EXPECT_EQ(s2.tasks_failed, s.tasks_failed);
  EXPECT_EQ(s2.waiting, s.waiting);
  EXPECT_EQ(s2.running, s.running);
  EXPECT_EQ(s2.idle_procs, s.idle_procs);
  EXPECT_EQ(s2.events_processed, s.events_processed);
  EXPECT_EQ(s2.rematches, s.rematches);
  EXPECT_EQ(s2.rush_mode, s.rush_mode);

  ResultSummary r;
  r.wind_j = 1.0;
  r.utility_j = 2.0;
  r.curtailed_j = 3.0;
  r.battery_delivered_j = 4.0;
  r.battery_losses_j = 5.0;
  r.cost_usd = 6.0;
  r.tasks_completed = 7;
  r.deadline_misses = 8;
  r.mean_wait_s = 9.0;
  r.makespan_s = 10.0;
  r.events_processed = 11;
  r.rematches = 12;
  r.task_requeues = 13;
  r.tasks_failed = 14;
  const ResultSummary r2 = parse_result_summary(encode_result_summary(r));
  EXPECT_EQ(r2.wind_j, r.wind_j);
  EXPECT_EQ(r2.utility_j, r.utility_j);
  EXPECT_EQ(r2.curtailed_j, r.curtailed_j);
  EXPECT_EQ(r2.battery_delivered_j, r.battery_delivered_j);
  EXPECT_EQ(r2.battery_losses_j, r.battery_losses_j);
  EXPECT_EQ(r2.cost_usd, r.cost_usd);
  EXPECT_EQ(r2.tasks_completed, r.tasks_completed);
  EXPECT_EQ(r2.deadline_misses, r.deadline_misses);
  EXPECT_EQ(r2.mean_wait_s, r.mean_wait_s);
  EXPECT_EQ(r2.makespan_s, r.makespan_s);
  EXPECT_EQ(r2.events_processed, r.events_processed);
  EXPECT_EQ(r2.rematches, r.rematches);
  EXPECT_EQ(r2.task_requeues, r.task_requeues);
  EXPECT_EQ(r2.tasks_failed, r.tasks_failed);
}

TEST(WireCodec, ReplyDecodersRefuseNonFiniteNumbers) {
  using namespace service;
  const double inf = std::numeric_limits<double>::infinity();
  TimelineEvent e;
  e.time_s = std::nan("");
  EXPECT_THROW(parse_decision(encode_decision(e)), ParseError);
  e.time_s = 1.0;
  e.value = -inf;
  EXPECT_THROW(parse_decision(encode_decision(e)), ParseError);
  DecisionSnapshot s;
  s.now_s = -inf;
  EXPECT_THROW(parse_snapshot(encode_snapshot(s)), ParseError);
  s.now_s = 0.0;
  s.demand = Watts{std::nan("")};
  EXPECT_THROW(parse_snapshot(encode_snapshot(s)), ParseError);
  EXPECT_THROW(parse_advance_done(encode_advance_done({inf, 1})), ParseError);
  ResultSummary r;
  r.cost_usd = inf;
  EXPECT_EQ(refusal([&] { parse_result_summary(encode_result_summary(r)); }),
            "wire: non-finite cost");
}

TEST(WireCodec, DecodersRefuseWhatTheProtocolForbids) {
  using namespace service;
  serial::Writer v2;
  v2.u32(kProtoVersion + 1);
  EXPECT_EQ(refusal([&] { parse_hello(v2.take()); }),
            "wire: unsupported protocol version " +
                std::to_string(kProtoVersion + 1));
  EXPECT_EQ(refusal([] { parse_advance(encode_advance(-1.0)); }),
            "wire: advance limit must be >= 0");
  EXPECT_EQ(refusal([] {
              parse_advance(
                  encode_advance(std::numeric_limits<double>::infinity()));
            }),
            "wire: non-finite advance limit");
  HelloOk h;
  h.scheme.assign(257, 'x');
  EXPECT_EQ(refusal([&] { parse_hello_ok(encode_hello_ok(h)); }),
            "serial: string length exceeds cap");
  std::vector<std::uint8_t> admit = encode_admit(corpus_task());
  admit.back() = 2;  // the urgency byte
  EXPECT_EQ(refusal([&] { parse_admit(admit); }),
            "wire: task urgency out of range");
  std::vector<std::uint8_t> decision = encode_decision(TimelineEvent{});
  decision[8] = 0xff;  // the kind byte, after the f64 time
  EXPECT_EQ(refusal([&] { parse_decision(decision); }),
            "wire: timeline kind out of range");
  std::vector<std::uint8_t> long_u64 = encode_u64(1);
  long_u64.push_back(0);
  EXPECT_EQ(refusal([&] { parse_u64(long_u64); }),
            "serial: trailing bytes after payload");

  // ADMIT refuses non-finite times; the admission rule itself (width,
  // runtime, gamma, deadline, clock) is the daemon's, against its
  // simulator (DatacenterSim::check_admissible).
  for (double Task::*field :
       {&Task::submit_s, &Task::runtime_s, &Task::deadline_s}) {
    Task t = corpus_task();
    t.*field = std::nan("");
    EXPECT_NE(refusal([&] { parse_admit(encode_admit(t)); }), "");
  }
  Task odd = corpus_task();
  odd.cpus = 0;
  odd.runtime_s = -1.0;
  odd.gamma = std::nan("");
  const Task back = parse_admit(encode_admit(odd));
  EXPECT_EQ(back.cpus, 0u);
  EXPECT_EQ(back.runtime_s, -1.0);
  EXPECT_TRUE(std::isnan(back.gamma));
}

TEST(FuzzCorpusService, HostileCheckpointsAreRejected) {
  service::ServiceOptions opt;
  opt.scale = 0.05;
  opt.seed = 9;
  service::SimHost host(opt);
  host.sim().prepare({}, {});
  const std::vector<std::uint8_t> own = checkpoint_bytes(host.sim());
  // Each blob with the reason it must be refused for: the blob reaches the
  // check it is named after, not an earlier one. The blobs that carry a
  // payload past the envelope are v3 blobs re-sealed (checkpoint_seal.hpp)
  // after their edit, so the edit -- not the CRC -- is what is refused.
  const std::pair<const char*, const char*> corpus[] = {
      {"service_ckpt_badmagic.bin", "bad magic"},
      // Format-v1 envelope: the reader must refuse old blobs with a version
      // error, never misparse them.
      {"service_ckpt_v1_version.bin", "format version 1 is not supported"},
      // The test host's own blob with one payload bit flipped (byte 3 798,
      // bit 2) and the trailer left as written: refused before any field
      // past the version is read.
      {"service_ckpt_bitflip.bin", "checksum mismatch"},
      // The test host's own payload cut in half (3 796 of 7 593 bytes,
      // inside the placement RNG string) and re-sealed.
      {"service_ckpt_truncated.bin", "read past end of buffer"},
      // The test host's own payload cut at byte 74, inside the thermal/
      // sleep identity section (in the supply ceiling at 70..77, after the
      // thermal mode byte at 53 and the red line and supply floor), and
      // re-sealed.
      {"service_ckpt_truncated_thermal.bin", "read past end of buffer"},
      // The rest come from the host's scheme run on make_tasks(0.3) up to
      // t = 45 000 s (18 tasks done, tasks 20 and 21 running in rows 0 and
      // 1, one waiting), edited and re-sealed. Task 1, done, rewritten as
      // waiting: a waiting task missing from the waiting list.
      {"service_ckpt_done_as_waiting.bin", "waiting list disagrees"},
      // Task 1 rewritten as running, with a processor list of its width
      // (processors 0..width-1) inserted after its state byte: a running
      // task missing from the rows.
      {"service_ckpt_done_as_running.bin",
       "a running task is missing from the rows"},
      // Row 0 names task 1, which is done.
      {"service_ckpt_row_not_running.bin",
       "a row holds a task that is not running"},
      // Row 1 names row 0's task.
      {"service_ckpt_task_in_two_rows.bin", "a task is in two rows"},
      // Task 21's first processor rewritten as task 20's first: refused by
      // the derivation of the processor->task map on load.
      {"service_ckpt_proc_two_tasks.bin",
       "a processor is held by two tasks"},
      // The fault driver's failed flag of processor 13, which task 20
      // holds, set to 1: refused by the same derivation.
      {"service_ckpt_failed_proc_held.bin",
       "a failed processor is held by a task"},
      // The same cut, unedited but for one double: the gamma of task 22
      // (index 21, submitted at 45 097.7 s, still pending) set to a quiet
      // NaN (blob bytes 2 990..2 997). Refused by validate_task, the rule a
      // task meets at prepare() and admit(); restored, the run would throw
      // when the task arrived.
      {"service_ckpt_pending_gamma_nan.bin", "gamma must be in [0,1]"}};
  for (const auto& [name, reason] : corpus) {
    SCOPED_TRACE(name);
    const auto blob = slurp_bytes(data_path(name));
    try {
      restore_from_bytes(host.sim(), blob.data(), blob.size());
      ADD_FAILURE() << "restored";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
    // A refusal leaves the host as it was, so each blob meets the same
    // simulator.
    EXPECT_EQ(checkpoint_bytes(host.sim()), own);
  }
  // Both truncated blobs' payloads are strict prefixes of the host's own,
  // so every field before the cut passes its check.
  for (const char* name :
       {"service_ckpt_truncated.bin", "service_ckpt_truncated_thermal.bin"}) {
    SCOPED_TRACE(name);
    const auto blob = slurp_bytes(data_path(name));
    ASSERT_LT(blob.size(), own.size());
    EXPECT_TRUE(std::equal(blob.begin(), blob.end() - 4, own.begin()));
  }
  // A torn write that kept a prefix of the host's own blob, unsealed.
  const std::vector<std::uint8_t> torn(own.begin(),
                                       own.begin() + own.size() / 2);
  try {
    restore_from_bytes(host.sim(), torn.data(), torn.size());
    ADD_FAILURE() << "restored a torn prefix";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------- iscope_serve flags

/// The flags perfbench's serve_stream and the service e2e/chaos suites
/// pass, plus a metrics port.
TEST(ServiceArgs, AcceptsTheValuesTheSuitesPass) {
  const service::ServiceOptions a = service::parse_service_args(
      {"--socket", "s.sock", "--scheme", "ScanFair", "--scale", "0.05",
       "--seed", "77", "--faults", "mtbf=180000,repair=1800",
       "--admit-capacity", "4", "--metrics-port", "9100"});
  EXPECT_EQ(a.scale, 0.05);
  EXPECT_EQ(a.seed, 77u);
  EXPECT_EQ(a.admit_capacity, 4u);
  EXPECT_EQ(a.metrics_port, 9100u);
  EXPECT_EQ(a.fault_spec, "mtbf=180000,repair=1800");
  const service::ServiceOptions b = service::parse_service_args(
      {"--socket", "s.sock", "--scheme", "ScanFair", "--scale", "8",
       "--thermal", "--sleep-policy", "timeout", "--checkpoint", "c.bin",
       "--seed", "18446744073709551615"});
  EXPECT_EQ(b.scale, 8.0);
  EXPECT_TRUE(b.thermal);
  EXPECT_EQ(b.sleep_policy, SleepPolicy::kTimeout);
  EXPECT_EQ(b.checkpoint_path, "c.bin");
  EXPECT_EQ(b.seed, ~std::uint64_t{0});
}

/// Negative, signed, padded, hex, non-finite and out-of-range numbers are
/// refused, and each error names its flag.
TEST(ServiceArgs, RejectsMalformedNumbersNamingTheFlag) {
  const std::pair<const char*, const char*> bad[] = {
      {"--seed", "-1"},           {"--admit-capacity", "-1"},
      {"--scale", "inf"},         {"--seed", "+7"},
      {"--metrics-port", " 80"},  {"--scale", "0x1p-1"},
      {"--scale", "nan"},         {"--scale", "1e999"},
      {"--seed", "7 "},           {"--seed", "18446744073709551616"},
      {"--admit-capacity", "4x"}, {"--metrics-port", ""},
      {"--scale", "0"},           {"--admit-capacity", "0"},
      {"--metrics-port", "65536"}};
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(std::string(flag) + " '" + value + "'");
    try {
      service::parse_service_args({"--socket", "s.sock", flag, value});
      ADD_FAILURE() << "accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------- mutation fuzzing: wire frames

/// A plausible client session as one byte stream: the daemon's inbound
/// surface is exactly this concatenation shape.
std::string wire_session_bytes() {
  using service::MsgType;
  std::vector<std::uint8_t> stream;
  const auto append = [&stream](MsgType type,
                                const std::vector<std::uint8_t>& payload) {
    const auto f = service::encode_frame(type, payload);
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(MsgType::kHello, service::encode_hello());
  append(MsgType::kAdmit, service::encode_admit(corpus_task()));
  append(MsgType::kAdvance, service::encode_advance(5000.0));
  append(MsgType::kDecideNow, {});
  append(MsgType::kCheckpoint, service::encode_text("/tmp/ckpt.bin"));
  append(MsgType::kDrain, {});
  return {stream.begin(), stream.end()};
}

/// Parse one inbound frame the way ServiceServer::handle_frame does;
/// throws ParseError on malformed payloads, returns false for types that
/// carry no client payload codec.
bool dispatch_client_frame(const service::Frame& f) {
  using service::MsgType;
  switch (f.type) {
    case MsgType::kHello:
      service::parse_hello(f.payload);
      return true;
    case MsgType::kAdmit: {
      const Task t = service::parse_admit(f.payload);
      EXPECT_TRUE(std::isfinite(t.submit_s));
      EXPECT_TRUE(std::isfinite(t.runtime_s));
      EXPECT_TRUE(std::isfinite(t.deadline_s));
      return true;
    }
    case MsgType::kAdvance: {
      const double t = service::parse_advance(f.payload);
      EXPECT_TRUE(!std::isnan(t));
      return true;
    }
    case MsgType::kCheckpoint:
      service::parse_text(f.payload);
      return true;
    default:
      return false;  // payloadless or unknown type -- nothing to parse
  }
}

TEST(FuzzMutationService, FrameStreamNeverMisbehaves) {
  const std::string base = wire_session_bytes();
  Rng rng(0xf0223);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string input = base;
    const int rounds = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < rounds; ++m) input = mutate(input, rng);
    service::FrameReader reader;
    std::size_t off = 0;
    try {
      // Deliver in random-size chunks: reassembly must not depend on read
      // boundaries, exactly as with a trickling socket peer.
      while (off < input.size()) {
        const auto chunk = static_cast<std::size_t>(rng.uniform_int(
            1, std::min<std::int64_t>(
                   97, static_cast<std::int64_t>(input.size() - off))));
        reader.feed(reinterpret_cast<const std::uint8_t*>(input.data()) + off,
                    chunk);
        off += chunk;
        service::Frame f;
        while (reader.next(f)) {
          if (dispatch_client_frame(f)) ++parsed;
        }
      }
    } catch (const ParseError&) {
      ++rejected;  // the daemon answers kErr / drops the connection
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzMutationService, ReplyCodecsNeverMisbehave) {
  using service::MsgType;
  // Server->client payloads, mutated as a hostile daemon a client talks to.
  service::HelloOk hello;
  hello.version = service::kProtoVersion;
  hello.scheme = "ScanFair";
  hello.procs = 24;
  hello.seed = 7;
  TimelineEvent ev;
  ev.time_s = 123.0;
  ev.kind = TimelineKind::kArrival;
  ev.task_id = 5;
  ev.value = 4.0;
  DecisionSnapshot snap;
  snap.now_s = 99.5;
  snap.tasks_admitted = 3;
  service::ResultSummary sum;
  sum.wind_j = 1.5e6;
  sum.tasks_completed = 40;
  const struct {
    const char* name;
    std::vector<std::uint8_t> payload;
    void (*parse)(const std::vector<std::uint8_t>&);
  } cases[] = {
      {"hello_ok", service::encode_hello_ok(hello),
       [](const std::vector<std::uint8_t>& p) {
         const auto h = service::parse_hello_ok(p);
         EXPECT_LE(h.scheme.size(), 1u << 20);
       }},
      {"decision", service::encode_decision(ev),
       [](const std::vector<std::uint8_t>& p) {
         const auto e = service::parse_decision(p);
         EXPECT_TRUE(std::isfinite(e.time_s));
         EXPECT_TRUE(std::isfinite(e.value));
       }},
      {"advance_done",
       service::encode_advance_done({4000.0, 123}),
       [](const std::vector<std::uint8_t>& p) {
         const auto d = service::parse_advance_done(p);
         EXPECT_TRUE(!std::isnan(d.now_s));
       }},
      {"snapshot", service::encode_snapshot(snap),
       [](const std::vector<std::uint8_t>& p) {
         const auto s = service::parse_snapshot(p);
         EXPECT_TRUE(std::isfinite(s.now_s));
       }},
      {"result_summary", service::encode_result_summary(sum),
       [](const std::vector<std::uint8_t>& p) {
         const auto r = service::parse_result_summary(p);
         EXPECT_TRUE(std::isfinite(r.wind_j));
         EXPECT_TRUE(std::isfinite(r.cost_usd));
       }},
  };
  Rng rng(0xf0224);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string base(c.payload.begin(), c.payload.end());
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 200; ++iter) {
      std::string input = base;
      const int rounds = static_cast<int>(rng.uniform_int(1, 3));
      for (int m = 0; m < rounds; ++m) input = mutate(input, rng);
      const std::vector<std::uint8_t> bytes(input.begin(), input.end());
      try {
        c.parse(bytes);
        ++parsed;
      } catch (const ParseError&) {
        ++rejected;
      }
    }
    EXPECT_GT(parsed + rejected, 0);
    EXPECT_GT(rejected, 0);
  }
}

// --------------------------------- mutation fuzzing: checkpoint blobs

TEST(FuzzMutationService, CheckpointRestoreNeverMisbehaves) {
  service::ServiceOptions opt;
  opt.scale = 0.05;
  opt.seed = 9;
  service::SimHost source(opt);
  std::vector<Task> tasks = source.context().make_tasks(0.3);
  source.sim().prepare(tasks);
  source.sim().step_until(3000.0);
  const std::vector<std::uint8_t> blob =
      checkpoint_bytes(source.sim());

  service::SimHost target(opt);
  const std::string base(blob.begin(), blob.end());
  Rng rng(0xf0225);
  // Raw mutants meet the CRC trailer; re-sealed ones (the same mutation
  // plus a trailer rewritten over it) carry hostile payloads past it into
  // the parser and the load-time derivation.
  for (const bool sealed : {false, true}) {
    SCOPED_TRACE(sealed ? "re-sealed mutants" : "raw mutants");
    int restored = 0, rejected = 0, past_checksum = 0;
    for (int iter = 0; iter < 150; ++iter) {
      std::string input = base;
      const int rounds = static_cast<int>(rng.uniform_int(1, 3));
      for (int m = 0; m < rounds; ++m) input = mutate(input, rng);
      std::vector<std::uint8_t> bytes(input.begin(), input.end());
      if (sealed) reseal(bytes);
      // prepare() resets the sim wholesale, so a mutant an earlier attempt
      // restored cannot leak state into the next one.
      target.sim().prepare({}, {});
      try {
        restore_from_bytes(target.sim(), bytes.data(), bytes.size());
        ++restored;
      } catch (const CheckpointError& e) {
        ++rejected;
        if (std::string(e.what()).find("checksum mismatch") ==
            std::string::npos)
          ++past_checksum;
      }
    }
    // Identity mutations (chunk duplication past the end, truncation at
    // the exact boundary) restore; everything else must reject cleanly.
    EXPECT_GT(restored + rejected, 0);
    EXPECT_GT(rejected, 0);
    if (sealed) {
      EXPECT_GT(past_checksum, 0);
    }
  }
}

}  // namespace
}  // namespace iscope
