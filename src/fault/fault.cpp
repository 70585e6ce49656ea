#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace iscope {
namespace {

void check_finite_nonneg(double v, const char* name) {
  ISCOPE_CHECK_ARG(std::isfinite(v) && v >= 0.0, std::string("FaultSpec.") +
                                                     name +
                                                     " must be finite and >= 0");
}

}  // namespace

bool FaultSpec::any() const {
  return misprofile_prob > 0.0 || crash_mtbf_s > 0.0 || forecast_error > 0.0 ||
         dropouts_per_day > 0.0 || crac_derate > 0.0;
}

void FaultSpec::validate() const {
  check_finite_nonneg(misprofile_prob, "misprofile_prob");
  ISCOPE_CHECK_ARG(misprofile_prob <= 1.0,
                   "FaultSpec.misprofile_prob must be <= 1");
  check_finite_nonneg(misprofile_latency_mean_s, "misprofile_latency_mean_s");
  check_finite_nonneg(crash_mtbf_s, "crash_mtbf_s");
  check_finite_nonneg(repair_mean_s, "repair_mean_s");
  check_finite_nonneg(forecast_error, "forecast_error");
  ISCOPE_CHECK_ARG(forecast_error < 1.0, "FaultSpec.forecast_error must be < 1");
  check_finite_nonneg(dropouts_per_day, "dropouts_per_day");
  check_finite_nonneg(dropout_mean_s, "dropout_mean_s");
  ISCOPE_CHECK_ARG(std::isfinite(horizon_s) && horizon_s > 0.0,
                   "FaultSpec.horizon_s must be finite and > 0");
  ISCOPE_CHECK_ARG(misprofile_prob == 0.0 || misprofile_latency_mean_s > 0.0,
                   "misprofile_latency_mean_s must be > 0 when misprofiling "
                   "is enabled");
  ISCOPE_CHECK_ARG((crash_mtbf_s == 0.0 && misprofile_prob == 0.0) ||
                       repair_mean_s > 0.0,
                   "repair_mean_s must be > 0 when CPU faults are enabled");
  ISCOPE_CHECK_ARG(dropouts_per_day == 0.0 || dropout_mean_s > 0.0,
                   "dropout_mean_s must be > 0 when dropouts are enabled");
  check_finite_nonneg(crac_derate, "crac_derate");
  ISCOPE_CHECK_ARG(crac_derate < 1.0, "FaultSpec.crac_derate must be < 1");
  check_finite_nonneg(crac_start_s, "crac_start_s");
  check_finite_nonneg(crac_duration_s, "crac_duration_s");
  ISCOPE_CHECK_ARG(crac_derate == 0.0 || crac_duration_s > 0.0,
                   "crac_duration_s must be > 0 when CRAC derating is enabled");
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    // Trim surrounding whitespace so "mtbf=9000, repair=600" parses.
    const auto first = item.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = item.find_last_not_of(" \t");
    item = item.substr(first, last - first + 1);

    const auto eq = item.find('=');
    ISCOPE_CHECK_ARG(eq != std::string::npos && eq > 0,
                     "fault spec item '" + item + "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    ISCOPE_CHECK_ARG(end != value.c_str() && *end == '\0' && std::isfinite(v),
                     "fault spec value '" + value + "' for key '" + key +
                         "' is not a finite number");

    if (key == "mtbf") {
      spec.crash_mtbf_s = v;
    } else if (key == "repair") {
      spec.repair_mean_s = v;
    } else if (key == "misprofile") {
      spec.misprofile_prob = v;
    } else if (key == "misprofile-latency") {
      spec.misprofile_latency_mean_s = v;
    } else if (key == "forecast") {
      spec.forecast_error = v;
    } else if (key == "dropouts") {
      spec.dropouts_per_day = v;
    } else if (key == "dropout-mean") {
      spec.dropout_mean_s = v;
    } else if (key == "retries") {
      // 2^64 is the first double a std::size_t cannot hold; casting it or
      // anything above is undefined.
      ISCOPE_CHECK_ARG(v >= 0.0 && v == std::floor(v) && v < 0x1p64,
                       "fault spec 'retries' must be a non-negative integer "
                       "below 2^64");
      spec.max_retries = static_cast<std::size_t>(v);
    } else if (key == "horizon") {
      spec.horizon_s = v;
    } else if (key == "crac") {
      spec.crac_derate = v;
    } else if (key == "crac-start") {
      spec.crac_start_s = v;
    } else if (key == "crac-duration") {
      spec.crac_duration_s = v;
    } else {
      throw InvalidArgument("unknown fault spec key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

FaultPlan FaultPlan::build(const FaultSpec& spec, std::uint64_t seed,
                           std::size_t procs) {
  spec.validate();
  FaultPlan plan;
  plan.max_retries_ = spec.max_retries;
  plan.forecast_error_ = spec.forecast_error;
  plan.forecast_seed_ = splitmix64(seed ^ 0x77696e64ULL);  // "wind"
  plan.crac_derate_ = spec.crac_derate;
  plan.crac_start_s_ = spec.crac_start_s;
  plan.crac_duration_s_ = spec.crac_duration_s;
  Rng root(seed);

  if (spec.crash_mtbf_s > 0.0 && procs > 0) {
    auto streams = std::make_shared<Streams>();
    // Reserve the expected count plus a pair per processor, so a large
    // facility's array is written once, not regrown through a copy.
    const double expected =
        2.0 * static_cast<double>(procs) *
        (spec.horizon_s / (spec.crash_mtbf_s + spec.repair_mean_s) + 1.0);
    if (expected < static_cast<double>(streams->events.max_size()))
      streams->events.reserve(static_cast<std::size_t>(expected));
    streams->offsets.reserve(procs + 1);
    streams->offsets.push_back(0);
    for (std::size_t p = 0; p < procs; ++p) {
      Rng rng = root.fork("crash/" + std::to_string(p));
      double t = rng.exponential(1.0 / spec.crash_mtbf_s);
      while (t < spec.horizon_s) {
        const double repair = rng.exponential(1.0 / spec.repair_mean_s);
        streams->events.push_back({t, FaultKind::kCrash});
        // Always emit the matching repair, even past the horizon, so no
        // processor stays down forever.
        streams->events.push_back({t + repair, FaultKind::kRepair});
        t += repair + rng.exponential(1.0 / spec.crash_mtbf_s);
      }
      // Times never decrease along a stream, but a repair can round onto
      // the next crash's instant; (time, kind) puts that crash first.
      const auto first = streams->events.begin() +
                         static_cast<std::ptrdiff_t>(streams->offsets.back());
      const auto by_time_kind = [](const StreamEvent& a, const StreamEvent& b) {
        return a.time_s != b.time_s ? a.time_s < b.time_s : a.kind < b.kind;
      };
      if (!std::is_sorted(first, streams->events.end(), by_time_kind))
        std::sort(first, streams->events.end(), by_time_kind);
      streams->offsets.push_back(streams->events.size());
    }
    plan.event_count_ = streams->events.size();
    plan.stream_count_ = procs;
    plan.streams_ = std::move(streams);
  }

  if (spec.misprofile_prob > 0.0 && procs > 0) {
    Rng rng = root.fork("misprofile");
    plan.misprofile_latency_s_.assign(procs, -1.0);
    plan.misprofile_repair_s_.assign(procs, 0.0);
    for (std::size_t p = 0; p < procs; ++p) {
      // Draw all values unconditionally so each processor's outcome is
      // independent of how many predecessors were mis-profiled.
      const double u = rng.uniform();
      const double latency =
          rng.exponential(1.0 / spec.misprofile_latency_mean_s);
      const double repair = rng.exponential(1.0 / spec.repair_mean_s);
      if (u < spec.misprofile_prob) {
        plan.misprofile_latency_s_[p] = latency;
        plan.misprofile_repair_s_[p] = repair;
        ++plan.misprofile_count_;
      }
    }
    if (plan.misprofile_count_ == 0) {
      plan.misprofile_latency_s_.clear();
      plan.misprofile_repair_s_.clear();
    }
  }

  if (spec.dropouts_per_day > 0.0) {
    Rng rng = root.fork("dropout");
    const double mean_gap_s = 86400.0 / spec.dropouts_per_day;
    double t = rng.exponential(1.0 / mean_gap_s);
    while (t < spec.horizon_s) {
      const double len = rng.exponential(1.0 / spec.dropout_mean_s);
      plan.dropouts_.push_back({t, t + len});
      t += len + rng.exponential(1.0 / mean_gap_s);
    }
  }

  return plan;
}

FaultPlan FaultPlan::scripted(std::vector<FaultEvent> events,
                              std::size_t max_retries) {
  for (const FaultEvent& e : events)
    ISCOPE_CHECK_ARG(std::isfinite(e.time_s) && e.time_s >= 0.0,
                     "scripted fault event time must be finite and >= 0");
  // Group by processor, each in time order with same-instant events as
  // given: the order a stable (time, proc) sort gives each processor.
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.proc != b.proc) return a.proc < b.proc;
                     return a.time_s < b.time_s;
                   });
  FaultPlan plan;
  plan.max_retries_ = max_retries;
  if (events.empty()) return plan;
  auto streams = std::make_shared<Streams>();
  const std::size_t procs = events.back().proc + 1;
  streams->events.reserve(events.size());
  streams->offsets.assign(procs + 1, 0);
  FaultKind expect = FaultKind::kCrash;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (i == 0 || e.proc != events[i - 1].proc) expect = FaultKind::kCrash;
    // Crash/repair must alternate, starting with a crash, so the simulator
    // never sees a repair of a healthy CPU or a double crash.
    ISCOPE_CHECK_ARG(e.kind == expect,
                     "scripted fault events for proc " +
                         std::to_string(e.proc) +
                         " must alternate crash/repair starting with crash");
    expect = expect == FaultKind::kCrash ? FaultKind::kRepair
                                         : FaultKind::kCrash;
    streams->events.push_back({e.time_s, e.kind});
    ++streams->offsets[e.proc + 1];
  }
  for (std::size_t p = 0; p < procs; ++p)
    streams->offsets[p + 1] += streams->offsets[p];
  plan.event_count_ = events.size();
  plan.stream_count_ = procs;
  plan.streams_ = std::move(streams);
  return plan;
}

SupplyTrace FaultPlan::apply_dropouts(const SupplyTrace& trace) const {
  if (dropouts_.empty()) return trace;
  std::vector<double> power = trace.raw();
  const double step = trace.step().raw();
  for (const DropoutWindow& w : dropouts_) {
    const auto lo = static_cast<std::size_t>(
        std::max(0.0, std::ceil(w.start_s / step - 1e-9)));
    for (std::size_t i = lo; i < power.size(); ++i) {
      if (static_cast<double>(i) * step >= w.end_s) break;
      power[i] = 0.0;
    }
  }
  return SupplyTrace(trace.step(), std::move(power));
}

std::size_t FaultPlan::procs_referenced() const {
  std::size_t n = stream_count_;
  while (n > 0 && stream(n - 1).empty()) --n;
  return std::max(n, misprofile_latency_s_.size());
}

FaultPlan FaultPlan::slice(std::size_t proc_lo, std::size_t proc_count) const {
  FaultPlan out;
  if (proc_lo < stream_count_ && proc_count > 0) {
    const std::size_t count = std::min(proc_count, stream_count_ - proc_lo);
    const std::vector<std::size_t>& at = streams_->offsets;
    out.streams_ = streams_;
    out.stream_lo_ = stream_lo_ + proc_lo;
    out.stream_count_ = count;
    out.event_count_ = at[out.stream_lo_ + count] - at[out.stream_lo_];
  }
  // The per-processor arrays are sparse tails: only populate them when the
  // slice actually contains a mis-profiled chip, so a clean slice stays
  // sim_empty() and its shard takes no fault branch at all.
  for (std::size_t i = 0; i < proc_count; ++i) {
    const std::size_t g = proc_lo + i;
    if (g >= misprofile_latency_s_.size() || misprofile_latency_s_[g] < 0.0)
      continue;
    if (out.misprofile_latency_s_.empty()) {
      out.misprofile_latency_s_.assign(proc_count, -1.0);
      out.misprofile_repair_s_.assign(proc_count, 0.0);
    }
    out.misprofile_latency_s_[i] = misprofile_latency_s_[g];
    out.misprofile_repair_s_[i] =
        g < misprofile_repair_s_.size() ? misprofile_repair_s_[g] : 0.0;
    ++out.misprofile_count_;
  }
  out.dropouts_ = dropouts_;
  out.forecast_error_ = forecast_error_;
  out.forecast_seed_ = forecast_seed_;
  out.crac_derate_ = crac_derate_;
  out.crac_start_s_ = crac_start_s_;
  out.crac_duration_s_ = crac_duration_s_;
  out.max_retries_ = max_retries_;
  return out;
}

namespace {

/// std::push_heap / std::pop_heap order of a min-heap on (time, proc).
template <class Head>
bool after(const Head& a, const Head& b) {
  return a.time_s != b.time_s ? a.time_s > b.time_s : a.proc > b.proc;
}

}  // namespace

FaultCursor::FaultCursor(const FaultPlan& plan) : plan_(&plan) { rewind(); }

void FaultCursor::rewind() {
  heap_.clear();
  for (std::size_t p = 0; p < plan_->stream_count(); ++p) {
    const std::span<const StreamEvent> s = plan_->stream(p);
    if (!s.empty()) heap_.push_back({s.front().time_s, p, 0});
  }
  std::make_heap(heap_.begin(), heap_.end(), after<Head>);
  pos_ = 0;
}

FaultEvent FaultCursor::event(std::size_t i) {
  ISCOPE_CHECK(i < size(), "FaultCursor: event index out of range");
  if (i < pos_) rewind();
  for (; pos_ < i; ++pos_) {
    std::pop_heap(heap_.begin(), heap_.end(), after<Head>);
    Head& h = heap_.back();
    const std::span<const StreamEvent> s = plan_->stream(h.proc);
    if (++h.next < s.size()) {
      h.time_s = s[h.next].time_s;
      std::push_heap(heap_.begin(), heap_.end(), after<Head>);
    } else {
      heap_.pop_back();
    }
  }
  const Head& h = heap_.front();
  return {h.time_s, plan_->stream(h.proc)[h.next].kind, h.proc};
}

}  // namespace iscope
