// Bit-identity of simulation results, shared by every suite that compares
// two runs or pins one run against a committed digest.
//
// A SimResult is flattened through one field list (flatten_result): every
// scalar, every per-processor busy time, every trace sample and every
// timeline event, in a fixed order, each sequence preceded by its length.
// expect_identical compares two flattenings value by value; result_digest
// hashes one with 64-bit FNV-1a. A field is therefore either compared and
// hashed, or neither. Doubles are compared by their IEEE bits, so "equal"
// here means bit-identical.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace iscope {

/// One flattened value of a SimResult.
struct ResultField {
  enum class Kind : std::uint8_t { kReal, kCount, kLength };
  const char* name;
  std::size_t index;   ///< element index for sequence members, else 0
  std::uint64_t bits;  ///< the double's IEEE bits, or the integer
  Kind kind;
};

/// The one field list. A new SimResult member goes here, and nowhere else.
inline std::vector<ResultField> flatten_result(const SimResult& r) {
  using Kind = ResultField::Kind;
  std::vector<ResultField> out;
  out.reserve(40 + r.busy_time_s.size() + 6 * r.trace.size() +
              4 * r.timeline.size());
  auto real = [&out](const char* name, double v, std::size_t i = 0) {
    out.push_back({name, i, std::bit_cast<std::uint64_t>(v), Kind::kReal});
  };
  auto count = [&out](const char* name, std::uint64_t v, std::size_t i = 0) {
    out.push_back({name, i, v, Kind::kCount});
  };
  auto length = [&out](const char* name, std::size_t n) {
    out.push_back({name, 0, n, Kind::kLength});
  };

  real("energy.wind", r.energy.wind.joules());
  real("energy.utility", r.energy.utility.joules());
  real("cost", r.cost.dollars());
  real("wind_curtailed", r.wind_curtailed.joules());
  real("battery_delivered", r.battery_delivered.joules());
  real("battery_losses", r.battery_losses.joules());
  real("cooling_energy", r.cooling_energy.joules());
  real("idle_energy", r.idle_energy.joules());
  real("peak_inlet_c", r.peak_inlet_c);
  count("sleep_enters", r.sleep_enters);
  count("sleep_wakes", r.sleep_wakes);
  count("tasks_completed", r.tasks_completed);
  count("deadline_misses", r.deadline_misses);
  real("mean_wait", r.mean_wait.seconds());
  real("makespan", r.makespan.seconds());
  real("busy_variance_h2", r.busy_variance_h2);
  real("procs_used_fraction", r.procs_used_fraction);
  count("profiling_procs_scanned", r.profiling_procs_scanned);
  count("profiling_procs_skipped", r.profiling_procs_skipped);
  real("profiling_proc_seconds", r.profiling_proc_seconds);
  count("faults.cpu_failures", r.faults.cpu_failures);
  count("faults.cpu_repairs", r.faults.cpu_repairs);
  count("faults.misprofile_failures", r.faults.misprofile_failures);
  count("faults.task_requeues", r.faults.task_requeues);
  count("faults.tasks_failed", r.faults.tasks_failed);
  real("faults.lost_cpu_seconds", r.faults.lost_cpu_seconds);
  count("faults.fault_deadline_misses", r.faults.fault_deadline_misses);
  count("dvfs_rematch_count", r.dvfs_rematch_count);
  count("events_processed", r.events_processed);

  length("busy_time_s", r.busy_time_s.size());
  for (std::size_t i = 0; i < r.busy_time_s.size(); ++i)
    real("busy_time_s", r.busy_time_s[i], i);

  length("trace", r.trace.size());
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const PowerSample& s = r.trace[i];
    real("trace.time", s.time.seconds(), i);
    real("trace.demand", s.demand.watts(), i);
    real("trace.wind", s.wind.watts(), i);
    real("trace.utility", s.utility.watts(), i);
    real("trace.wind_avail", s.wind_avail.watts(), i);
    real("trace.battery", s.battery.watts(), i);
  }

  length("timeline", r.timeline.size());
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    const TimelineEvent& e = r.timeline[i];
    real("timeline.time_s", e.time_s, i);
    count("timeline.kind", static_cast<std::uint64_t>(e.kind), i);
    count("timeline.task_id", static_cast<std::uint64_t>(e.task_id), i);
    real("timeline.value", e.value, i);
  }
  return out;
}

inline std::string format_field_value(const ResultField& f) {
  char buf[40];
  if (f.kind == ResultField::Kind::kReal)
    std::snprintf(buf, sizeof buf, "%.17g", std::bit_cast<double>(f.bits));
  else
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(f.bits));
  return buf;
}

/// Every field of `a` and `b` must be bit-identical. Reports up to 20
/// differing fields by name; a differing sequence length ends the walk
/// (the elements after it no longer line up).
inline void expect_identical(const SimResult& a, const SimResult& b) {
  const std::vector<ResultField> fa = flatten_result(a);
  const std::vector<ResultField> fb = flatten_result(b);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < fa.size() && i < fb.size(); ++i) {
    const ResultField& x = fa[i];
    const ResultField& y = fb[i];
    if (x.bits == y.bits) continue;
    if (++differing <= 20) {
      ADD_FAILURE() << x.name << "[" << x.index
                    << "] differs: " << format_field_value(x) << " vs "
                    << format_field_value(y);
    }
    if (x.kind == ResultField::Kind::kLength) break;
  }
  EXPECT_EQ(differing, 0u) << "fields differ between the two results";
}

/// The 64-bit FNV-1a offset basis: the digest of nothing.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/// Fold one value into a 64-bit FNV-1a digest as 8 little-endian bytes.
inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// 64-bit FNV-1a over the flattened fields, each as 8 little-endian bytes.
inline std::uint64_t result_digest(const SimResult& r) {
  std::uint64_t h = kFnv1aBasis;
  for (const ResultField& f : flatten_result(r)) h = fnv1a_mix(h, f.bits);
  return h;
}

/// A digest as the 16 lowercase hex digits the golden file stores.
inline std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// The rows of a committed golden file: one `<row> <digest>` per line,
/// blank lines ignored. An unreadable file, a malformed line or a
/// duplicate row fails the calling test. Nothing writes these files: a
/// suite that finds a row missing or moved prints a ready-to-paste line.
inline std::map<std::string, std::string> read_golden_rows(
    const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::map<std::string, std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string row;
    std::string digest;
    std::string extra;
    fields >> row >> digest;
    EXPECT_TRUE(digest.size() == 16 && !(fields >> extra))
        << "malformed golden line: " << line;
    EXPECT_TRUE(golden.emplace(row, digest).second) << "duplicate row " << row;
  }
  return golden;
}

}  // namespace iscope
