// FaultDriver: the simulator's fault-injection state (src/fault/). It
// resolves the run's plan -- an explicit override, one built from the
// spec, or the empty plan, whose run takes no fault branch -- and puts the
// plan's noise in front of the wind forecaster. It owns the cursor that
// merges the plan's per-processor crash/repair streams for this simulator
// alone (the plan itself is shared and immutable), the per-processor
// failed, armed and token arrays, and the counters; the simulator derives
// counters().tasks_failed from the task states. The failed flags are the
// one record of which processors are down:
// the handlers that requeue tasks and move processors between pools stay
// in the simulator core and consult them, so a failed processor never
// re-enters the idle pool until it is repaired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "energy/forecast.hpp"
#include "fault/fault.hpp"
#include "fault/noisy_forecast.hpp"
#include "sched/knowledge.hpp"

namespace iscope {

class FaultDriver {
 public:
  /// `plan` wins when set; otherwise the plan is built from `spec` and
  /// `seed` over the view's processors.
  FaultDriver(std::shared_ptr<const FaultPlan> plan, const FaultSpec& spec,
              std::uint64_t seed, const Knowledge& knowledge,
              const WindForecaster* forecaster)
      : plan_(plan != nullptr
                  ? std::move(plan)
                  : std::make_shared<const FaultPlan>(
                        spec.any() ? FaultPlan::build(spec, seed,
                                                      knowledge.procs())
                                   : FaultPlan{})),
        cursor_(*plan_),
        knowledge_(&knowledge),
        forecaster_(forecaster),
        nprocs_(knowledge.procs()) {
    active_ = !plan_->sim_empty();
    if (active_)
      ISCOPE_CHECK_ARG(plan_->procs_referenced() <= nprocs_,
                       "DatacenterSim: fault plan references processors "
                       "beyond the cluster");
    if (plan_->forecast_error() > 0.0 && forecaster_ != nullptr) {
      noisy_ = std::make_unique<NoisyForecaster>(
          forecaster_, plan_->forecast_error(), plan_->forecast_seed());
      forecaster_ = noisy_.get();
    }
  }

  const FaultPlan& plan() const { return *plan_; }
  bool active() const { return active_; }
  /// The plan's crash/repair events, and event `i` of their merged (time,
  /// proc) order: `i` is the payload of the pending kFault event. Reading
  /// i+1 after i is a heap step; an `i` behind the cursor (a restored
  /// checkpoint) rewinds it.
  std::size_t event_count() const { return cursor_.size(); }
  FaultEvent event(std::size_t i) { return cursor_.event(i); }
  /// The forecaster placement consults (may be null).
  const WindForecaster* forecaster() const { return forecaster_; }

  /// prepare(): nothing is down, and a latent mis-profile is armed on each
  /// mis-profiled chip the view runs at its own scanned point (under the
  /// Bin view the plan's mis-profiles are inert).
  void reset() {
    failed_.assign(nprocs_, 0);
    token_.assign(nprocs_, 0);
    armed_.assign(nprocs_, 0);
    if (active_)
      for (std::size_t p = 0; p < nprocs_; ++p)
        armed_[p] = plan_->misprofiled(p) && knowledge_->scanned(p);
    counters_ = FaultCounters{};
  }
  bool failed(std::size_t p) const { return failed_[p] != 0; }
  /// Fail-stop `p`; false when it was already down.
  bool fail(std::size_t p, bool misprofile) {
    if (failed_[p] != 0) return false;
    failed_[p] = 1;
    ++counters_.cpu_failures;
    if (misprofile) ++counters_.misprofile_failures;
    ++token_[p];
    return true;
  }
  /// Return `p` to service; false when it was already up.
  bool repair(std::size_t p) {
    if (failed_[p] == 0) return false;
    failed_[p] = 0;
    ++counters_.cpu_repairs;
    return true;
  }
  bool armed(std::size_t p) const { return armed_[p] != 0; }
  /// `p` stopped or started running: stale any pending mis-profile timer
  /// from the previous occupancy. Returns the new token.
  std::uint64_t next_token(std::size_t p) { return ++token_[p]; }
  /// A mis-profile timer of `p` fired. True when `token` is current and
  /// `p` is up: the latent fault then fires, exactly once.
  bool misprofile_fires(std::size_t p, std::uint64_t token) {
    if (token_[p] != token || failed_[p] != 0) return false;
    armed_[p] = 0;
    return true;
  }
  /// A task exhausted the plan's retry budget.
  void abandon() { ++counters_.tasks_failed; }
  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }

  /// This type's slice of the checkpoint (service/checkpoint.hpp). The
  /// plan is rebuilt from the config, and the pending kFault event carries
  /// the merged index the cursor seeks to. counters().tasks_failed is the
  /// caller's to derive.
  template <class Io>
  void io(Io& io) {
    const auto flags = [&](auto& v, const char* what) {
      io.fixed(v, nprocs_, [&](auto& f) {
        io.in(f, std::uint8_t{0}, std::uint8_t{1}, what);
      });
    };
    flags(failed_, "failed flag");
    flags(armed_, "misprofile flag");
    io.fixed(token_, nprocs_, io);
    io(counters_.cpu_failures);
    io(counters_.cpu_repairs);
    io(counters_.misprofile_failures);
    io(counters_.task_requeues);
    io(counters_.lost_cpu_seconds);
    io(counters_.fault_deadline_misses);
  }

 private:
  std::shared_ptr<const FaultPlan> plan_;
  FaultCursor cursor_;   ///< reads *plan_, which lives as long as the driver
  bool active_ = false;  ///< the plan has processor events or mis-profiles
  const Knowledge* knowledge_;
  std::unique_ptr<NoisyForecaster> noisy_;
  const WindForecaster* forecaster_;
  std::size_t nprocs_;
  std::vector<std::uint8_t> failed_;  ///< currently fail-stopped
  std::vector<std::uint8_t> armed_;   ///< latent mis-profile still live
  /// Bumped whenever the processor stops running, so a pending
  /// mis-profile timer from an earlier occupancy is stale.
  std::vector<std::uint64_t> token_;
  FaultCounters counters_;
};

}  // namespace iscope
