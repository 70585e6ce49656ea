// Telemetry subsystem suite (DESIGN.md Sec. 11): registry semantics,
// histogram bucketing, span rings, Chrome trace export, sample sinks, the
// run-report bundle, and multi-threaded counter hammering.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace iscope::telemetry {
namespace {

// Tests below share the process-global registry/trace/sample singletons
// with the instrumented library code; isolate every test.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset_global_telemetry();
  }
  void TearDown() override {
    set_enabled(false);
    reset_global_telemetry();
  }
};

TEST(TelemetryCounter, SingleWriterAndConcurrentIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc_concurrent();
  c.inc_concurrent(41);
  EXPECT_EQ(c.value(), 42u);
  c.inc_concurrent();
  c.inc_concurrent(7);
  EXPECT_EQ(c.value(), 50u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryGauge, SetAddAndMaxVariants) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add_concurrent(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max_concurrent(4.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max_concurrent(6.0);
  EXPECT_DOUBLE_EQ(g.value(), 6.0);
  g.add_concurrent(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set_max_concurrent(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set_max_concurrent(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TelemetryHistogram, LogLinearBucketGrid) {
  // [1, 1000] at 3 bounds per decade: exact-decimal boundaries.
  const HistogramBuckets b = HistogramBuckets::log_linear(1.0, 1000.0, 3);
  const std::vector<double> want = {4.0,   7.0,   10.0,  40.0, 70.0,
                                    100.0, 400.0, 700.0, 1000.0};
  ASSERT_EQ(b.bounds.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_DOUBLE_EQ(b.bounds[i], want[i]) << "bound " << i;

  // Prometheus `le` semantics: a value on a bound lands in that bucket;
  // past the last bound is the +Inf bucket (index == bounds.size()).
  EXPECT_EQ(b.index(0.5), 0u);
  EXPECT_EQ(b.index(4.0), 0u);
  EXPECT_EQ(b.index(4.0000001), 1u);
  EXPECT_EQ(b.index(100.0), 5u);
  EXPECT_EQ(b.index(1000.0), 8u);
  EXPECT_EQ(b.index(1000.5), 9u);

  EXPECT_THROW(HistogramBuckets::log_linear(0.0, 1.0, 3), InvalidArgument);
  EXPECT_THROW(HistogramBuckets::log_linear(2.0, 1.0, 3), InvalidArgument);
  EXPECT_THROW(HistogramBuckets::log_linear(1.0, 10.0, 0), InvalidArgument);
}

TEST(TelemetryHistogram, ObserveFillsBucketsSumAndCount) {
  const HistogramBuckets buckets =
      HistogramBuckets::log_linear(1.0, 1000.0, 3);
  Histogram h(&buckets);
  h.observe_concurrent(2.0);   // bucket 0 (le 4)
  h.observe_concurrent(4.0);   // bucket 0 (on the bound)
  h.observe_concurrent(50.0);  // bucket 4 (le 70)
  h.observe_concurrent(5000.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.0 + 4.0 + 50.0 + 5000.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(4), 1u);
  EXPECT_EQ(h.bucket_count(buckets.bounds.size()), 1u);  // +Inf
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(TelemetryFamily, CellsDedupAndLabelArityIsChecked) {
  Registry reg;
  CounterFamily& fam = reg.counter("iscope_test_total", "help", {"scheme"});
  Counter& a = fam.with({"ScanEffi"});
  Counter& b = fam.with({"ScanEffi"});
  Counter& c = fam.with({"BinRan"});
  EXPECT_EQ(&a, &b);  // dedup: stable cell per label tuple
  EXPECT_NE(&a, &c);
  a.inc_concurrent(3);
  EXPECT_EQ(b.value(), 3u);

  EXPECT_THROW(fam.with({}), InvalidArgument);
  EXPECT_THROW(fam.with({"x", "y"}), InvalidArgument);

  HistogramFamily& hist = reg.histogram(
      "iscope_test_seconds", "help",
      HistogramBuckets::log_linear(1e-3, 10.0, 3), {"stage"});
  EXPECT_THROW(hist.with({}), InvalidArgument);
  EXPECT_EQ(&hist.with({"match"}), &hist.with({"match"}));
}

TEST(TelemetryFamily, ReRegistrationMustAgree) {
  Registry reg;
  CounterFamily& fam = reg.counter("iscope_redo_total", "help", {"run"});
  // Same name/kind/keys: the same family comes back.
  EXPECT_EQ(&fam, &reg.counter("iscope_redo_total", "help", {"run"}));
  // Different kind or different label keys: caller bug.
  EXPECT_THROW(reg.gauge("iscope_redo_total", "help", {"run"}),
               InvalidArgument);
  EXPECT_THROW(reg.counter("iscope_redo_total", "help", {"other"}),
               InvalidArgument);
  EXPECT_THROW(
      reg.histogram("iscope_redo_total", "help",
                    HistogramBuckets::log_linear(1.0, 10.0, 3), {"run"}),
      InvalidArgument);
}

TEST(TelemetryRegistry, SnapshotRendersPrometheusAndJson) {
  Registry reg;
  reg.counter("iscope_events_total", "processed events", {"run"})
      .with({"ScanEffi"})
      .inc_concurrent(123);
  reg.gauge("iscope_depth", "queue depth").get().set(7.5);
  Histogram& h =
      reg.histogram("iscope_wait_seconds", "queue wait",
                    HistogramBuckets::log_linear(1.0, 1000.0, 3))
          .get();
  h.observe_concurrent(2.0);
  h.observe_concurrent(5000.0);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_DOUBLE_EQ(
      snapshot_value(snap, "iscope_events_total", {"ScanEffi"}), 123.0);
  EXPECT_DOUBLE_EQ(snapshot_value(snap, "iscope_depth"), 7.5);
  EXPECT_DOUBLE_EQ(snapshot_value(snap, "iscope_no_such", {}, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(snapshot_histogram_sum(snap, "iscope_wait_seconds"),
                   5002.0);
  EXPECT_DOUBLE_EQ(snapshot_histogram_sum(snap, "iscope_depth", -2.0), -2.0);

  const std::string prom = to_prometheus(snap);
  EXPECT_EQ(validate_prometheus_text(prom), "") << prom;
  EXPECT_NE(prom.find("iscope_events_total{run=\"ScanEffi\"} 123"),
            std::string::npos);
  // Cumulative buckets with the implicit +Inf terminator.
  EXPECT_NE(prom.find("iscope_wait_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("iscope_wait_seconds_count 2"), std::string::npos);

  const json::Value doc = json::parse(to_json(snap));
  ASSERT_TRUE(doc.is(json::Value::Kind::kObject));
  const json::Value* metrics = json::find(doc, "metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is(json::Value::Kind::kArray));
  EXPECT_EQ(metrics->array.size(), 3u);
}

TEST(TelemetryRegistry, ResetZeroesCellsButKeepsReferences) {
  Registry reg;
  Counter& c = reg.counter("iscope_keep_total", "help").get();
  c.inc_concurrent(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // cached reference survives reset
  c.inc_concurrent(2);
  EXPECT_DOUBLE_EQ(snapshot_value(reg.snapshot(), "iscope_keep_total"), 2.0);
}

TEST(TelemetryValidator, RejectsMalformedPrometheusText) {
  EXPECT_EQ(validate_prometheus_text(""), "");
  EXPECT_EQ(validate_prometheus_text("# just a comment\n"), "");
  EXPECT_EQ(validate_prometheus_text("x_total 1\ny{le=\"+Inf\"} +Inf\n"), "");
  EXPECT_NE(validate_prometheus_text("missing_value\n"), "");
  EXPECT_NE(validate_prometheus_text("name{unterminated=\"x\" 1\n"), "");
  EXPECT_NE(validate_prometheus_text("name not-a-number\n"), "");
  EXPECT_NE(validate_prometheus_text("name 1 trailing\n"), "");
  EXPECT_NE(validate_prometheus_text("{\"no\": \"name\"} 1\n"), "");
}

// The JSON reader behind the snapshot, trace and sample checks must
// diagnose malformed documents rather than return a partial value.
TEST(TelemetryJson, ParseRejectsMalformedDocuments) {
  const std::string doc =
      R"({"metrics": [{"name": "iscope_events_total", "value": 123}],)"
      R"( "ok": true, "label": null})";
  ASSERT_NO_THROW(json::parse(doc));
  EXPECT_THROW(json::parse(""), ParseError);
  EXPECT_THROW(json::parse("not json at all"), ParseError);
  EXPECT_THROW(json::parse(doc.substr(0, doc.size() / 2)), ParseError);
  EXPECT_THROW(json::parse(doc + " {}"), ParseError);
}

TEST_F(TelemetryTest, SpansNestAndRecordBothClocks) {
#ifdef ISCOPE_TELEMETRY_OFF
  GTEST_SKIP() << "span macros compile to nothing under ISCOPE_TELEMETRY_OFF";
#endif
  set_enabled(true);
  TraceLog::global().set_thread_name("test-main");
  {
    ISCOPE_SPAN_SIM("outer", 600.0);
    {
      ISCOPE_SPAN("inner");
    }
    {
      ISCOPE_SPAN("inner");
    }
  }
  set_enabled(false);

  const std::vector<SpanEvent> events = TraceLog::global().local().events();
  ASSERT_EQ(events.size(), 3u);
  // Rings record spans in completion order: both inners close before the
  // outer does.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_DOUBLE_EQ(events[0].sim_s, -1.0);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_DOUBLE_EQ(events[2].sim_s, 600.0);
  // The outer span covers its children.
  EXPECT_LE(events[2].start_ns, events[0].start_ns);
  EXPECT_GE(events[2].start_ns + events[2].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST(TelemetrySpanRing, OverflowDropsOldestAndCounts) {
  SpanRing ring(0, "ring-test", 4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    SpanEvent e;
    e.name = "s";
    e.start_ns = i * 100;
    e.dur_ns = 10;
    ring.push(e);
  }
  EXPECT_EQ(ring.dropped(), 3u);
  const std::vector<SpanEvent> events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // A trace is a tail window: the oldest three events are gone.
  EXPECT_EQ(events.front().start_ns, 300u);
  EXPECT_EQ(events.back().start_ns, 600u);
  ring.clear();
  EXPECT_EQ(ring.events().size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST_F(TelemetryTest, ChromeTraceExportIsWellFormed) {
  // Direct ScopedSpan construction: stays compiled (and testable) even
  // under ISCOPE_TELEMETRY_OFF, where the macros expand to nothing.
  TraceLog::global().set_thread_name("chrome-test");
  {
    // iscope-lint: allow(telemetry) this test exercises the span
    // machinery itself; production code must use ISCOPE_SPAN.
    const ScopedSpan match("match", 1200.0, /*active=*/true);
  }
  {
    // iscope-lint: allow(telemetry) direct construction under test again.
    const ScopedSpan rematch("rematch", -1.0, /*active=*/true);
  }

  const json::Value doc = json::parse(TraceLog::global().to_chrome_json());
  ASSERT_TRUE(doc.is(json::Value::Kind::kObject));
  const json::Value* events = json::find(doc, "traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(json::Value::Kind::kArray));

  bool saw_meta = false, saw_match = false, saw_rematch = false;
  for (const json::Value& e : events->array) {
    ASSERT_TRUE(e.is(json::Value::Kind::kObject));
    const json::Value* ph = json::find(e, "ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      const json::Value* name = json::find(e, "name");
      ASSERT_NE(name, nullptr);
      if (name->string == "thread_name") saw_meta = true;
      continue;
    }
    ASSERT_EQ(ph->string, "X");
    EXPECT_EQ(json::check_key(e, "ts", json::Value::Kind::kNumber), "");
    EXPECT_EQ(json::check_key(e, "dur", json::Value::Kind::kNumber), "");
    const json::Value* name = json::find(e, "name");
    ASSERT_NE(name, nullptr);
    if (name->string == "match") {
      saw_match = true;
      const json::Value* args = json::find(e, "args");
      ASSERT_NE(args, nullptr);
      const json::Value* sim = json::find(*args, "sim_s");
      ASSERT_NE(sim, nullptr);
      EXPECT_DOUBLE_EQ(sim->number, 1200.0);
    }
    if (name->string == "rematch") saw_rematch = true;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_match);
  EXPECT_TRUE(saw_rematch);
}

TEST_F(TelemetryTest, SampleLogRoundTripsThroughCsvAndJson) {
  SampleLog log;
  SampleRow r;
  r.label = "ScanEffi";
  r.time_s = 600.0;
  r.demand_w = 1234.5;
  r.wind_avail_w = 900.0;
  r.wind_w = 800.0;
  r.battery_w = 50.0;
  r.utility_w = 384.5;
  r.queue_depth = 12;
  r.waiting_tasks = 3;
  r.running_tasks = 8;
  r.idle_procs = 4;
  log.append(r);
  r.label = "needs,quoting";
  r.time_s = 1200.0;
  log.append(r);
  EXPECT_EQ(log.size(), 2u);

  const CsvDocument doc = parse_csv(log.to_csv(), /*has_header=*/true);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][doc.column("label")], "ScanEffi");
  EXPECT_EQ(doc.rows[1][doc.column("label")], "needs,quoting");
  EXPECT_DOUBLE_EQ(parse_double(doc.rows[0][doc.column("demand_w")]), 1234.5);
  EXPECT_EQ(parse_int(doc.rows[0][doc.column("queue_depth")]), 12);
  EXPECT_DOUBLE_EQ(parse_double(doc.rows[1][doc.column("time_s")]), 1200.0);

  const json::Value arr = json::parse(log.to_json());
  ASSERT_TRUE(arr.is(json::Value::Kind::kArray));
  ASSERT_EQ(arr.array.size(), 2u);
  const json::Value* label = json::find(arr.array[0], "label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string, "ScanEffi");
  EXPECT_EQ(json::check_key(arr.array[0], "utility_w",
                            json::Value::Kind::kNumber),
            "");

  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST_F(TelemetryTest, WriteRunReportDropsTheFullBundle) {
  set_enabled(true);
  Registry::global()
      .counter("iscope_report_total", "help")
      .get()
      .inc_concurrent(5);
  {
    ISCOPE_SPAN("report_span");
  }
  SampleRow row;
  row.label = "report";
  row.time_s = 600.0;
  SampleLog::global().append(row);
  set_enabled(false);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "iscope_telemetry_report")
          .string();
  std::filesystem::remove_all(dir);
  const RunReportPaths paths = write_run_report(dir);
  for (const std::string& p :
       {paths.metrics_prom, paths.metrics_json, paths.samples_csv,
        paths.trace_json}) {
    ASSERT_TRUE(std::filesystem::exists(p)) << p;
    EXPECT_GT(std::filesystem::file_size(p), 0u) << p;
  }
  std::filesystem::remove_all(dir);

  EXPECT_THROW(write_run_report(""), InvalidArgument);
}

TEST_F(TelemetryTest, ResetGlobalTelemetryZeroesEverything) {
  set_enabled(true);
  Counter& c = Registry::global().counter("iscope_reset_total", "help").get();
  c.inc_concurrent(4);
  {
    ISCOPE_SPAN("reset_span");
  }
  SampleLog::global().append(SampleRow{});
  set_enabled(false);

  reset_global_telemetry();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(TraceLog::global().total_events(), 0u);
  EXPECT_EQ(SampleLog::global().size(), 0u);
}

TEST(TelemetryRegistry, ConcurrentHammeringKeepsExactTotals) {
  // Exact totals after join: the *_concurrent variants are real RMWs, so
  // no increment may be lost even with every thread on one family.
  Registry reg;
  CounterFamily& counters = reg.counter("iscope_hammer_total", "h", {"t"});
  GaugeFamily& gauges = reg.gauge("iscope_hammer_gauge", "h");
  HistogramFamily& hists =
      reg.histogram("iscope_hammer_seconds", "h",
                    HistogramBuckets::log_linear(1.0, 1000.0, 3));
  Gauge& peak = reg.gauge("iscope_hammer_peak", "h").get();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Shared cell hammered by everyone + one private cell per thread.
      Counter& shared = counters.with({"shared"});
      Counter& mine = counters.with({std::to_string(t)});
      Gauge& g = gauges.get();
      Histogram& h = hists.get();
      for (std::size_t i = 0; i < kIters; ++i) {
        shared.inc_concurrent();
        mine.inc_concurrent();
        g.add_concurrent(1.0);
        h.observe_concurrent(static_cast<double>(i % 1500));
        peak.set_max_concurrent(static_cast<double>(t * kIters + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counters.with({"shared"}).value(), kThreads * kIters);
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(counters.with({std::to_string(t)}).value(), kIters);
  EXPECT_DOUBLE_EQ(gauges.get().value(),
                   static_cast<double>(kThreads * kIters));
  EXPECT_EQ(hists.get().count(), kThreads * kIters);
  EXPECT_DOUBLE_EQ(peak.value(),
                   static_cast<double>((kThreads - 1) * kIters + kIters - 1));
  // Bucket counts add up to the observation count.
  std::uint64_t bucket_total = 0;
  const std::size_t num_buckets = hists.buckets().bounds.size() + 1;
  for (std::size_t i = 0; i < num_buckets; ++i)
    bucket_total += hists.get().bucket_count(i);
  EXPECT_EQ(bucket_total, kThreads * kIters);
}

}  // namespace
}  // namespace iscope::telemetry
