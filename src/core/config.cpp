#include "core/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/error.hpp"
#include "power/cooling.hpp"

namespace iscope {

void ExperimentConfig::validate() const {
  cluster.validate();
  workload.validate();
  urgency.validate();
  wind.validate();
  scan.validate();
  sim.validate();
  ISCOPE_CHECK_ARG(wind_mean_fraction_of_peak >= 0.0,
                   "ExperimentConfig: negative wind fraction");
}

ExperimentConfig ExperimentConfig::paper_small() {
  ExperimentConfig cfg;
  cfg.cluster.num_processors = 480;
  cfg.workload.num_jobs = 800;
  // Keep per-CPU load comparable to the paper: widths capped to a modest
  // fraction of the cluster so gang tasks do not serialize the facility.
  cfg.workload.max_cpus = cfg.cluster.num_processors / 8;
  // Calibrated so offered load stays in the "adequate processors for the
  // incoming jobs" regime the paper assumes: mean width ~8, mean runtime
  // ~23 min, DVFS stretching included, gives ~40% average utilization on
  // 480 CPUs with a pronounced diurnal swing (needed for Fig. 10).
  cfg.workload.runtime_log_mu = 6.5;
  cfg.workload.runtime_log_sigma = 1.2;
  cfg.workload.pow2_fraction = 0.85;
  cfg.workload.mean_interarrival_s = 85.0;
  cfg.workload.diurnal_amplitude = 0.6;
  cfg.urgency.hu_fraction = 0.3;
  cfg.scan.kind = TestKind::kFunctionalFailing;
  // Fine grid + bisection: same trial count as the paper's 10-point linear
  // sweep, a third of the quantization error.
  cfg.scan.voltage_points = 30;
  cfg.scan.strategy = SearchStrategy::kBinarySearch;
  return cfg;
}

ExperimentConfig ExperimentConfig::paper_full() {
  ExperimentConfig cfg = paper_small();
  cfg.cluster.num_processors = 4800;
  cfg.workload.num_jobs = 8000;
  cfg.workload.max_cpus = 1200;
  cfg.workload.mean_interarrival_s = 10.0;
  return cfg;
}

ExperimentConfig ExperimentConfig::hyperscale(std::size_t procs) {
  ISCOPE_CHECK_ARG(procs >= 1024, "hyperscale: needs at least 1024 CPUs");
  ExperimentConfig cfg = paper_small();
  // Same jobs-per-CPU and arrival-rate-per-CPU as paper_small (480 CPUs,
  // 800 jobs, 85 s inter-arrival), so utilization stays in the paper's
  // "adequate processors" regime at any facility size.
  const double factor = static_cast<double>(procs) /
                        static_cast<double>(cfg.cluster.num_processors);
  cfg.workload.num_jobs = static_cast<std::size_t>(
      static_cast<double>(cfg.workload.num_jobs) * factor);
  cfg.workload.mean_interarrival_s = cfg.workload.mean_interarrival_s / factor;
  cfg.cluster.num_processors = procs;
  // Widths capped so any task fits a rack-aligned shard slice even at 64
  // shards of a 100k facility.
  cfg.workload.max_cpus = std::min<std::size_t>(1024, procs / 8);
  // Throughput preset: no deadline-rush pressure.
  cfg.urgency.hu_fraction = 0.0;
  return cfg;
}

ExperimentConfig ExperimentConfig::scaled(double factor) const {
  ISCOPE_CHECK_ARG(factor > 0.0, "ExperimentConfig: scale must be > 0");
  ExperimentConfig cfg = *this;
  const auto scale_sz = [&](std::size_t v) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        static_cast<double>(v) * factor));
  };
  cfg.cluster.num_processors = scale_sz(cluster.num_processors);
  cfg.workload.num_jobs = scale_sz(workload.num_jobs);
  cfg.workload.max_cpus = std::max<std::size_t>(
      1, cfg.cluster.num_processors / 4);
  // More CPUs absorb a faster stream; keep utilization roughly constant.
  cfg.workload.mean_interarrival_s = workload.mean_interarrival_s / factor;
  return cfg;
}

template <class T>
T parse_number(std::string_view text, std::string_view name) {
  const char* last = text.data() + text.size();
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  bool ok = ec == std::errc{} && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  ISCOPE_CHECK_ARG(ok, std::string(name) + ": '" + std::string(text) +
                           "' is not " +
                           (std::is_floating_point_v<T>
                                ? "a finite number"
                                : "an unsigned decimal integer"));
  return v;
}
template std::uint64_t parse_number(std::string_view, std::string_view);
template double parse_number(std::string_view, std::string_view);

template <class T>
std::optional<T> env_number(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return std::nullopt;
  return parse_number<T>(s, name);
}
template std::optional<std::uint64_t> env_number(const char*);
template std::optional<double> env_number(const char*);

double env_scale() {
  const double v = env_number<double>("ISCOPE_SCALE").value_or(1.0);
  ISCOPE_CHECK_ARG(v > 0.0, "ISCOPE_SCALE: must be > 0");
  return std::clamp(v, 0.1, 20.0);
}

std::size_t env_parallelism() {
  return env_number<std::uint64_t>("ISCOPE_PARALLEL").value_or(0);
}

FaultSpec env_fault_spec() {
  const char* s = std::getenv("ISCOPE_FAULTS");
  if (s == nullptr || *s == '\0') return FaultSpec{};
  return parse_fault_spec(s);
}

std::uint64_t env_fault_seed() {
  return env_number<std::uint64_t>("ISCOPE_FAULT_SEED").value_or(0);
}

std::size_t env_shards() {
  const std::uint64_t v =
      env_number<std::uint64_t>("ISCOPE_SHARDS").value_or(1);
  ISCOPE_CHECK_ARG(v >= 1, "ISCOPE_SHARDS: must be >= 1");
  return v;
}

bool env_thermal() {
  const char* s = std::getenv("ISCOPE_THERMAL");
  if (s == nullptr || *s == '\0') return false;
  const std::string v{s};
  if (v == "0" || v == "off" || v == "false") return false;
  ISCOPE_CHECK_ARG(v == "1" || v == "on" || v == "true",
                   "ISCOPE_THERMAL: expected 0/1/on/off/true/false");
  return true;
}

SleepPolicy env_sleep_policy() {
  const char* s = std::getenv("ISCOPE_SLEEP_POLICY");
  if (s == nullptr || *s == '\0') return SleepPolicy::kNone;
  return parse_sleep_policy(s);
}

std::size_t env_shard_workers() {
  return env_number<std::uint64_t>("ISCOPE_SHARD_WORKERS").value_or(1);
}

Watts estimated_peak_demand(const ClusterConfig& cluster, double cop) {
  const Gigahertz f_top{cluster.levels.freq_ghz.back()};
  const Watts per_cpu =
      WattsPerCubicGigahertz{cluster.power.alpha_mean} * f_top * f_top * f_top +
      Watts{cluster.power.beta_mean};
  return per_cpu * static_cast<double>(cluster.num_processors) *
         CoolingModel(cop).overhead_factor();
}

}  // namespace iscope
