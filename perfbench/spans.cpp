#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "profiling/scanner.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

/// Program spans that belong to the scheduler layer: `match` wraps
/// schedule_pass (placement), `start_task` nests in it, and `rematch`
/// (energy accrual plus the power matcher) nests in both.
const std::set<std::string>& sched_span_names() {
  static const std::set<std::string> names = {"match", "start_task",
                                              "rematch"};
  return names;
}

struct Span {
  const std::string* name;  ///< interned
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Value after `key` on `line`, or nullptr.
const char* after(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos ? nullptr : line.c_str() + at + std::strlen(key);
}

std::uint64_t us_to_ns(const char* p) {
  return static_cast<std::uint64_t>(std::llround(std::strtod(p, nullptr) * 1e3));
}

}  // namespace

std::size_t trace_setup_layers(const iscope::ExperimentConfig& cfg,
                               const iscope::ExperimentContext& ctx,
                               Report& report) {
  using namespace iscope;
  Cluster cluster = [&] {
    ISCOPE_SPAN("bench.build_cluster");
    return build_cluster(cfg.cluster);
  }();
  ProfileDb db(cluster.size());
  std::vector<std::size_t> all(cluster.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng scan_rng = Rng(cfg.seed).fork("scan");
  {
    ISCOPE_SPAN("bench.scan_domain");
    Scanner(&cluster, cfg.scan).scan_domain(all, 0.0, scan_rng, db);
  }
  report.attempt(1);
  report.check(cluster.size() == ctx.cluster().size() &&
                   db.total_trials() == ctx.profile_db().total_trials(),
               "direct build_cluster + scan_domain differ from the context's");
  return db.total_trials();
}

void SpanHarvest::enable() {
  iscope::telemetry::TraceLog& log = iscope::telemetry::TraceLog::global();
  log.set_capacity(std::size_t{1} << 28);
  log.clear();
  iscope::telemetry::Registry::global().reset();
  iscope::telemetry::set_enabled(true);
}

void SpanHarvest::disable() { iscope::telemetry::set_enabled(false); }

void SpanHarvest::harvest(const std::string& group) {
  iscope::telemetry::TraceLog& log = iscope::telemetry::TraceLog::global();
  dropped_ += log.total_dropped();
  // The trace log exposes its rings through the Chrome trace export only:
  // one complete ("X") event per line with tid, ts and dur in microseconds
  // printed to the nanosecond.
  const std::string json = log.to_chrome_json();
  log.clear();

  static std::set<std::string> interned;
  std::map<long, std::vector<Span>> by_thread;
  std::size_t pos = 0;
  std::string line;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    line.assign(json, pos, end - pos);
    pos = end + 1;
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const char* name = after(line, "{\"name\": \"");
    const char* tid = after(line, "\"tid\": ");
    const char* ts = after(line, "\"ts\": ");
    const char* dur = after(line, "\"dur\": ");
    if (!name || !tid || !ts || !dur) continue;
    const std::string n(name, std::strchr(name, '"'));
    const std::uint64_t start = us_to_ns(ts);
    by_thread[std::strtol(tid, nullptr, 10)].push_back(
        Span{&*interned.insert(n).first, start, start + us_to_ns(dur)});
  }

  const std::set<std::string>& sched = sched_span_names();
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, and on a tie the longer span.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.end_ns > b.end_ns;
    });
    struct Open {
      const Span* span;
      std::uint64_t child_ns;
    };
    std::vector<Open> stack;
    std::size_t slices_open = 0;  // slice spans on the stack
    std::size_t roots_open = 0;   // benchmark spans and pool jobs on it
    auto is_root = [](const std::string& n) {
      return n.rfind("bench.", 0) == 0 || n == "pool_job";
    };
    auto close = [&]() {
      const Open o = stack.back();
      stack.pop_back();
      const std::string& n = *o.span->name;
      const bool slice = slice_names_.count(n) != 0;
      if (slice) --slices_open;
      if (is_root(n)) --roots_open;
      const double dur_s = static_cast<double>(o.span->end_ns - o.span->start_ns) * 1e-9;
      const double self_s = dur_s - static_cast<double>(o.child_ns) * 1e-9;
      SpanTotals& t = totals_[{group, n}];
      ++t.count;
      t.total_s += dur_s;
      t.self_s += self_s;
      if (is_root(n)) t.durations_s.add(dur_s);
      if (slice) slice_s_ += dur_s;
      if (sched.count(n) != 0) {
        if (roots_open == 0) ++orphans_;
        if (slices_open > 0) sched_in_slices_s_ += self_s;
      }
    };
    for (const Span& s : spans) {
      while (!stack.empty() && s.end_ns > stack.back().span->end_ns) close();
      if (!stack.empty()) stack.back().child_ns += s.end_ns - s.start_ns;
      stack.push_back(Open{&s, 0});
      if (slice_names_.count(*s.name) != 0) ++slices_open;
      if (is_root(*s.name)) ++roots_open;
    }
    while (!stack.empty()) close();
  }
}

const SpanTotals& SpanHarvest::get(const std::string& name,
                                   const std::string& group) const {
  static const SpanTotals empty;
  const auto it = totals_.find({group, name});
  return it == totals_.end() ? empty : it->second;
}

SpanTotals SpanHarvest::all(const std::string& name) const {
  SpanTotals sum;
  for (const auto& [key, t] : totals_) {
    if (key.second != name) continue;
    sum.count += t.count;
    sum.total_s += t.total_s;
    sum.self_s += t.self_s;
    sum.durations_s.add_all(t.durations_s);
  }
  return sum;
}

void set_shared_layers(const SpanHarvest& harvest, const TracedTotals& t,
                       Report& report, Layers& l) {
  report.check(harvest.dropped() == 0,
               "trace dropped " + std::to_string(harvest.dropped()) + " spans");
  report.check(harvest.orphans() == 0,
               std::to_string(harvest.orphans()) +
                   " scheduler spans outside the benchmark's simulation calls");
  report.check(harvest.sched_in_slices_s() <= harvest.slice_s(),
               "scheduler self time exceeds the traced slice time");
  l.set("variation.build_cluster_s", harvest.get("bench.build_cluster", "setup").total_s);
  l.set("profiling.scan_s", harvest.get("bench.scan_domain", "setup").total_s);
  l.set("profiling.trials", static_cast<double>(t.trials));
  l.set("workload.make_tasks_s", harvest.get("bench.make_tasks", "setup").total_s);
  l.set("sim.events", t.events);
  l.set("sim.events_per_s", t.events / t.untraced_run_s);
  l.set("sim.unattributed_s", harvest.slice_s() - harvest.sched_in_slices_s());
  l.set("sched.placement_self_s", harvest.all("match").self_s);
  l.set("sched.start_task_self_s", harvest.all("start_task").self_s);
  l.set("sched.rematch_self_s", harvest.all("rematch").self_s);
  l.set("sched.rematches", t.rematches);
  l.set("sched.rematch_per_event", t.rematches / t.events);
  l.set("telemetry.overhead_frac", t.traced_run_s / t.untraced_run_s - 1.0);
  l.set("telemetry.spans_dropped", static_cast<double>(harvest.dropped()));
}

}  // namespace perfbench
