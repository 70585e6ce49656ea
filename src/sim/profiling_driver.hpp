// ProfilingDriver: in-band opportunistic profiling inside the simulator
// (paper Sec. III-C). It owns the run's windows, one slot per scan that
// went live, the per-processor reserved flags (derived from the live
// scans) with the scan watts they draw, and the scanned / skipped /
// processor-second counters. Window begin and end stay in the simulator
// core, which moves processors between the idle pool and the scans.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/quantity.hpp"
#include "profiling/opportunistic.hpp"

namespace iscope {

class ProfilingDriver {
 public:
  explicit ProfilingDriver(std::size_t nprocs) : nprocs_(nprocs) {}

  /// Throws InvalidArgument unless every window starts at t >= 0, lasts
  /// a positive time and names only processors below `nprocs`.
  static void validate(const std::vector<ProfilingWindow>& windows,
                       std::size_t nprocs) {
    for (const ProfilingWindow& w : windows) {
      ISCOPE_CHECK_ARG(w.start_s >= 0.0 && w.duration_s > 0.0,
                       "profiling window: bad timing");
      for (const std::size_t p : w.proc_ids)
        ISCOPE_CHECK_ARG(p < nprocs,
                         "profiling window: processor out of range");
    }
  }
  void reset(const std::vector<ProfilingWindow>& windows) {
    windows_ = windows;
    scans_.clear();
    power_ = Watts{};
    proc_seconds_ = 0.0;
    scanned_ = 0;
    skipped_ = 0;
  }

  const std::vector<ProfilingWindow>& windows() const { return windows_; }
  bool reserved(std::size_t p) const { return reserved_[p] != 0; }
  /// IT power of the live scans.
  Watts power() const { return power_; }
  bool live(std::size_t slot) const {
    return slot < scans_.size() && scans_[slot].live;
  }
  void skip() { ++skipped_; }
  /// Isolate idle `p`, which runs at its stock point until the scan ends.
  void reserve(std::size_t p, Watts stock) {
    reserved_[p] = 1;
    power_ += stock;
  }
  /// Park the processors a window reserved in a new scan slot, so the end
  /// event carries only the slot index. Returns the slot.
  std::size_t open(std::vector<std::size_t> procs, double now) {
    scanned_ += procs.size();
    scans_.push_back(Scan{std::move(procs), now, true});
    return scans_.size() - 1;
  }
  /// End the scan in `slot`, releasing its processors (stock watts in
  /// `stock_w`); returns them for the caller to put back in service.
  std::vector<std::size_t> close(std::size_t slot, double now,
                                 const std::vector<double>& stock_w) {
    Scan& scan = scans_[slot];
    for (const std::size_t p : scan.procs) {
      reserved_[p] = 0;
      power_ -= Watts{stock_w[p]};
      proc_seconds_ += now - scan.started_s;
    }
    power_ = std::max(Watts{}, power_);
    scan.live = false;
    return std::exchange(scan.procs, {});
  }

  std::size_t scanned() const { return scanned_; }
  std::size_t skipped() const { return skipped_; }
  double proc_seconds() const { return proc_seconds_; }

  /// Reserved = listed by a live scan (derived after prepare and restore).
  void rebuild_reserved() {
    reserved_.assign(nprocs_, 0);
    for (const Scan& scan : scans_)
      if (scan.live)
        for (const std::size_t p : scan.procs) reserved_[p] = 1;
  }
  const std::vector<std::uint8_t>& reserved_flags() const { return reserved_; }

  /// This type's slice of the checkpoint (service/checkpoint.hpp).
  template <class Io>
  void io(Io& io) {
    const auto procs = [&](auto& v, const char* what) {
      io.vec(v, nprocs_, [&](auto& p) { io.index(p, nprocs_, what); });
    };
    io(power_);
    io(proc_seconds_);
    io(scanned_);
    io(skipped_);
    io.vec(windows_, [&](auto& window) {
      io(window.start_s);
      io(window.duration_s);
      procs(window.proc_ids, "profiling processor");
    });
    io.vec(scans_, [&](auto& scan) {
      procs(scan.procs, "scan processor");
      io(scan.started_s);
      io(scan.live);
    });
  }

 private:
  /// Live scans own reserved processors and have a pending kProfilingEnd
  /// event. Slots are never reused: their count is bounded by the plan.
  struct Scan {
    std::vector<std::size_t> procs;
    double started_s = 0.0;
    bool live = false;
  };

  std::size_t nprocs_;
  std::vector<ProfilingWindow> windows_;
  std::vector<Scan> scans_;
  std::vector<std::uint8_t> reserved_;
  Watts power_;
  double proc_seconds_ = 0.0;
  std::size_t scanned_ = 0;
  std::size_t skipped_ = 0;
};

}  // namespace iscope
