#include "workload/task.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace iscope {

double Task::slowdown(double f_ghz, double fmax_ghz) const {
  ISCOPE_CHECK_ARG(f_ghz > 0.0 && fmax_ghz > 0.0,
                   "slowdown: frequencies must be > 0");
  ISCOPE_CHECK_ARG(f_ghz <= fmax_ghz + 1e-12,
                   "slowdown: f must not exceed fmax");
  return gamma * (fmax_ghz / f_ghz - 1.0) + 1.0;
}

double Task::exec_time_s(double f_ghz, double fmax_ghz) const {
  return runtime_s * slowdown(f_ghz, fmax_ghz);
}

double Task::latest_start_s(double f_ghz, double fmax_ghz) const {
  return deadline_s - exec_time_s(f_ghz, fmax_ghz);
}

void validate_task(const Task& t, std::size_t max_cpus) {
  // An infinite deadline or runtime would schedule the task's wakeup or
  // completion at +inf, which no slice of a run ever reaches.
  ISCOPE_CHECK_ARG(std::isfinite(t.submit_s) && std::isfinite(t.runtime_s) &&
                       std::isfinite(t.deadline_s),
                   "task: submit, runtime and deadline must be finite");
  ISCOPE_CHECK_ARG(t.runtime_s > 0.0, "task: runtime must be > 0");
  ISCOPE_CHECK_ARG(t.cpus > 0, "task: must request at least one CPU");
  ISCOPE_CHECK_ARG(t.cpus <= max_cpus, "task: wider than the cluster");
  ISCOPE_CHECK_ARG(t.submit_s >= 0.0, "task: negative submit time");
  ISCOPE_CHECK_ARG(t.deadline_s > t.submit_s,
                   "task: deadline must follow submission");
  ISCOPE_CHECK_ARG(t.gamma >= 0.0 && t.gamma <= 1.0,
                   "task: gamma must be in [0,1]");
}

void validate_tasks(const std::vector<Task>& tasks, std::size_t max_cpus) {
  for (const Task& t : tasks) validate_task(t, max_cpus);
}

void sort_by_submit(std::vector<Task>& tasks) {
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) {
                     return a.submit_s < b.submit_s;
                   });
}

std::vector<Task> scale_arrival_rate(std::vector<Task> tasks, double rate) {
  ISCOPE_CHECK_ARG(rate > 0.0, "scale_arrival_rate: rate must be > 0");
  for (Task& t : tasks) {
    const double slack = t.deadline_s - t.submit_s;
    t.submit_s /= rate;
    t.deadline_s = t.submit_s + slack;
  }
  return tasks;
}

std::vector<Task> clamp_widths(std::vector<Task> tasks, std::size_t max_cpus) {
  ISCOPE_CHECK_ARG(max_cpus > 0, "clamp_widths: max_cpus must be > 0");
  for (Task& t : tasks) t.cpus = std::min(t.cpus, max_cpus);
  return tasks;
}

}  // namespace iscope
