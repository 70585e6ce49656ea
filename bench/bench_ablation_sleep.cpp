// Ablation: C-state sleep management (DESIGN.md Sec. 16).
//
// The paper's simulator treats idle CPUs as free, which hides the half of
// the bill sleep management recovers. This sweep bills idle power honestly
// in both columns and isolates the governor: each paper scheme runs once
// under `active-idle` (awake processors pay ~30% of stock power, never
// sleep -- the honest no-management baseline) and once as its *Sleep
// variant (the timeout governor descending the C3/C6/power-down ladder).
// The delta is the fig8 cost the governor saves, bought with wake-latency
// delayed starts; sleep residency shows up as the idle-kWh drop.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace iscope;
  bench::print_banner("Ablation (sleep)",
                      "fig8 cost of sleep-enabled scheme variants");

  const ExperimentContext ctx(bench::bench_config());
  const std::vector<Task> tasks =
      ctx.make_tasks(ctx.config().urgency.hu_fraction);
  const HybridSupply supply = ctx.make_supply(true);

  return bench::run_bench([&] {
    TextTable table;
    table.set_header({"scheme", "active-idle USD", "sleep USD", "saving",
                      "idle kWh", "sleep kWh", "enters", "delayed starts"});
    for (const Scheme base : kAllSchemes) {
      SimConfig awake = ctx.config().sim;
      awake.sleep.policy = SleepPolicy::kActiveIdle;
      const SimResult plain = run_scheme(ctx.cluster(), base,
                                         &ctx.profile_db(), supply, tasks,
                                         awake);
      // The *Sleep variant forces the timeout governor via run_scheme.
      const Scheme variant =
          scheme_from_name(std::string(scheme_name(base)) + "Sleep");
      const SimResult slept = run_scheme(ctx.cluster(), variant,
                                         &ctx.profile_db(), supply, tasks,
                                         ctx.config().sim);
      table.add_row({scheme_name(base),
                     TextTable::num(plain.cost.dollars(), 2),
                     TextTable::num(slept.cost.dollars(), 2),
                     TextTable::pct(1.0 - slept.cost.dollars() /
                                              plain.cost.dollars()),
                     TextTable::num(plain.idle_energy.joules() / 3.6e6, 1),
                     TextTable::num(slept.idle_energy.joules() / 3.6e6, 1),
                     std::to_string(slept.sleep_enters),
                     std::to_string(slept.sleep_wakes)});
    }
    table.print(std::cout);
    std::cout << "\nReading: the timeout governor recovers most of the\n"
                 "active-idle bill during diurnal troughs; the price is\n"
                 "wake-latency delayed starts, so heavily loaded schemes\n"
                 "keep more processors awake and save less.\n";
  });
}
