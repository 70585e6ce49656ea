#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "workload/synthetic.hpp"
#include "workload/urgency.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::mean() const {
  if (v_.empty()) return 0.0;
  return std::accumulate(v_.begin(), v_.end(), 0.0) / static_cast<double>(v_.size());
}

double Samples::max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

std::uint64_t fault_seed(std::uint64_t seed) {
  return iscope::Rng(seed).fork("faults").seed();
}

std::vector<iscope::Task> make_tasks(const iscope::ExperimentConfig& cfg,
                                     std::size_t procs, std::uint64_t seed,
                                     double hu_fraction, double arrival_rate) {
  using namespace iscope;
  SyntheticWorkloadConfig wl = cfg.workload;
  wl.max_cpus = std::min(wl.max_cpus, procs);
  std::vector<Task> tasks = generate_workload(wl);
  const std::vector<Task> jobs = tasks;
  Rng deal = Rng(seed).fork("arrivals");
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(deal.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].cpus = jobs[order[i]].cpus;
    tasks[i].runtime_s = jobs[order[i]].runtime_s;
    tasks[i].gamma = jobs[order[i]].gamma;
  }
  UrgencyConfig urgency = cfg.urgency;
  urgency.hu_fraction = hu_fraction;
  urgency.seed = Rng(seed).fork("urgency").seed();
  assign_deadlines(tasks, urgency);
  if (arrival_rate != 1.0)
    tasks = scale_arrival_rate(std::move(tasks), arrival_rate);
  return tasks;
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void f(double v) { bytes(&v, sizeof v); }
  void u(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t digest(const iscope::SimResult& r) {
  Fnv h;
  h.f(r.energy.wind.raw());
  h.f(r.energy.utility.raw());
  h.f(r.cost.raw());
  h.f(r.wind_curtailed.raw());
  h.f(r.battery_delivered.raw());
  h.f(r.battery_losses.raw());
  h.f(r.cooling_energy.raw());
  h.f(r.idle_energy.raw());
  h.f(r.peak_inlet_c);
  h.u(r.sleep_enters);
  h.u(r.sleep_wakes);
  h.u(r.tasks_completed);
  h.u(r.deadline_misses);
  h.f(r.mean_wait.raw());
  h.f(r.makespan.raw());
  h.u(r.busy_time_s.size());
  for (const double b : r.busy_time_s) h.f(b);
  h.f(r.busy_variance_h2);
  h.f(r.procs_used_fraction);
  h.u(r.trace.size());
  for (const iscope::PowerSample& s : r.trace) {
    h.f(s.time.raw());
    h.f(s.demand.raw());
    h.f(s.wind.raw());
    h.f(s.utility.raw());
    h.f(s.wind_avail.raw());
    h.f(s.battery.raw());
  }
  h.u(r.timeline.size());
  for (const iscope::TimelineEvent& e : r.timeline) {
    h.f(e.time_s);
    h.u(static_cast<std::uint64_t>(e.kind));
    h.u(static_cast<std::uint64_t>(e.task_id));
    h.f(e.value);
  }
  h.u(r.profiling_procs_scanned);
  h.u(r.profiling_procs_skipped);
  h.f(r.profiling_proc_seconds);
  h.u(r.faults.cpu_failures);
  h.u(r.faults.cpu_repairs);
  h.u(r.faults.misprofile_failures);
  h.u(r.faults.task_requeues);
  h.u(r.faults.tasks_failed);
  h.f(r.faults.lost_cpu_seconds);
  h.u(r.faults.fault_deadline_misses);
  h.u(r.dvfs_rematch_count);
  h.u(r.events_processed);
  return h.value();
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_vm_hwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/schedstat");
  double ns = -1.0;
  if (!(in >> ns)) return -1.0;
  return ns * 1e-9;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& comment) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-18s %-30s %16.6g %-6s", workload_.c_str(),
                name.c_str(), value, unit.c_str());
  lines_.push_back(std::string(buf) + (comment.empty() ? "" : "  " + comment));
}

void Report::text(const std::string& line) { lines_.push_back(line); }

void Report::check(bool ok, const std::string& what, std::size_t ops) {
  if (ok) return;
  failed_ += std::max<std::size_t>(ops, 1);
  lines_.push_back("CHECK FAILED: " + what);
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Report::print(std::ostream& out) const {
  for (const std::string& line : lines_) out << line << "\n";
  char frac[160];
  std::snprintf(frac, sizeof frac, "%-18s %-30s %16.6g %-6s  %zu of %zu operations",
                workload_.c_str(), "failed_frac",
                attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_),
                "ratio", failed_, attempted_);
  out << frac << "\n";
  for (const Entry& e : metrics_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-18s %-30s %16.6g %s", workload_.c_str(),
                  e.name.c_str(), e.value, e.unit.c_str());
    out << buf << "\n";
  }
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out << ", ";
    out << json_string(metrics_[i].name) << ": {\"value\": "
        << number(metrics_[i].value)
        << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  }
  out << "}}" << std::endl;
}

}  // namespace perfbench
