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
      ISCOPE_CHECK_ARG(v >= 0.0 && v == std::floor(v),
                       "fault spec 'retries' must be a non-negative integer");
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
    for (std::size_t p = 0; p < procs; ++p) {
      Rng rng = root.fork("crash/" + std::to_string(p));
      double t = rng.exponential(1.0 / spec.crash_mtbf_s);
      while (t < spec.horizon_s) {
        const double repair = rng.exponential(1.0 / spec.repair_mean_s);
        plan.events_.push_back({t, FaultKind::kCrash, p});
        // Always emit the matching repair, even past the horizon, so no
        // processor stays down forever.
        plan.events_.push_back({t + repair, FaultKind::kRepair, p});
        t += repair + rng.exponential(1.0 / spec.crash_mtbf_s);
      }
    }
    std::sort(plan.events_.begin(), plan.events_.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                if (a.time_s != b.time_s) return a.time_s < b.time_s;
                if (a.proc != b.proc) return a.proc < b.proc;
                return a.kind < b.kind;
              });
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
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.proc < b.proc;
                   });
  // Per processor: crash/repair must alternate, starting with a crash, so
  // the simulator never sees a repair of a healthy CPU or a double crash.
  std::vector<std::size_t> procs;
  for (const FaultEvent& e : events) {
    ISCOPE_CHECK_ARG(std::isfinite(e.time_s) && e.time_s >= 0.0,
                     "scripted fault event time must be finite and >= 0");
    procs.push_back(e.proc);
  }
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  for (std::size_t p : procs) {
    FaultKind expect = FaultKind::kCrash;
    for (const FaultEvent& e : events) {
      if (e.proc != p) continue;
      ISCOPE_CHECK_ARG(e.kind == expect,
                       "scripted fault events for proc " + std::to_string(p) +
                           " must alternate crash/repair starting with crash");
      expect = expect == FaultKind::kCrash ? FaultKind::kRepair
                                           : FaultKind::kCrash;
    }
  }
  FaultPlan plan;
  plan.events_ = std::move(events);
  plan.max_retries_ = max_retries;
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
  std::size_t n = misprofile_latency_s_.size();
  for (const FaultEvent& e : events_) n = std::max(n, e.proc + 1);
  return n;
}

FaultPlan FaultPlan::slice(std::size_t proc_lo, std::size_t proc_count) const {
  FaultPlan out;
  out.events_.reserve(events_.size());
  for (const FaultEvent& e : events_) {
    if (e.proc < proc_lo || e.proc >= proc_lo + proc_count) continue;
    FaultEvent local = e;
    local.proc = e.proc - proc_lo;
    out.events_.push_back(local);
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

}  // namespace iscope
