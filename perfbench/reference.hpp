// The benchmark's yardstick for host speed. The machines the benchmark runs
// on are shared: how fast the same code runs drifts by a fifth or more from
// minute to minute with other tenants' load, and every core slows together.
// A fixed unit of work, timed in the same run as the program and
// interleaved with it, measures that drift, so `run_vs_ref` (the program's
// host time over one unit's) compares runs made at different moments.
//
// The unit is a small discrete-event loop, because that is what the
// simulator spends its time on: pop the earliest event from a binary heap,
// update a scattered state slot, push the event back later. Host load that
// slows the simulator slows the unit alike; a pure arithmetic or pure
// memory-latency unit tracked the simulator less well. The unit is the
// benchmark's own code, never the program's: a change to the program moves
// the numerator only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

class ReferenceKernel {
 public:
  /// `lanes` copies of the unit run at once, one per thread, for a program
  /// whose threads contend with one another as well as with other tenants.
  /// Fills every lane's event heap and state table, so no sample pays for it.
  explicit ReferenceKernel(std::size_t lanes = 1);

  /// Runs `units` units of reference work on every lane, timing each.
  void sample(std::size_t units = 1);

  /// Median host seconds of one unit over every sample so far.
  double unit_s() const { return unit_s_.median(); }
  /// Median on-CPU seconds of one unit (its thread's CPU clock), for
  /// workloads whose run_s is on-CPU time.
  double unit_cpu_s() const { return unit_cpu_s_.median(); }
  std::size_t samples() const { return unit_s_.size(); }

 private:
  struct Lane {
    std::vector<std::pair<double, std::uint32_t>> heap;  ///< min-heap on time
    std::vector<double> state;
    std::uint64_t rng = 0;
    double sink = 0.0;  ///< the units' result, so no unit is optimized away
    Samples unit_s, unit_cpu_s;

    explicit Lane(std::uint64_t seed);
    double uniform();
    void run(std::size_t units);
  };

  std::vector<Lane> lanes_;
  Samples unit_s_;
  Samples unit_cpu_s_;
};

}  // namespace perfbench
