// paper_sweep: the grids researchers run. Figs. 5 (utility only) and 6
// (with wind) sweep %HU 0..1 and the arrival rate 1..5x over the five paper
// schemes; Fig. 8 prices all five with and without wind. 120 simulations
// at ISCOPE_SCALE=5 (2 400 CPUs), run serially through the sweep engine
// (SweepRunner), as sweep_hu, sweep_arrival and energy_costs run them.
//
// The traced run replays every scenario through the public DatacenterSim
// API instead -- the engine's own knowledge view, seed and config, with
// the drain cut at supply epochs -- so the benchmark's spans can time
// prepare, each epoch's slice and finish. The replay must reproduce the
// engine's results exactly.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "sched/knowledge.hpp"
#include "sched/policy.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace iscope;

constexpr double kScale = 5.0;
constexpr std::size_t kSetups = 5;  // set-up repeats per run (median)
const std::vector<double> kHuPoints = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
const std::vector<double> kRates = {1.0, 2.0, 3.0, 4.0, 5.0};

enum class Grid { kHu, kRate, kCost };

struct Scenario {
  Grid grid;
  double x;  ///< %HU, arrival rate, or 1 for the Fig. 8 point
  bool wind;
};

/// What the sweep functions build before simulating, as engine specs.
struct Setup {
  std::unique_ptr<ExperimentContext> ctx;
  std::vector<Scenario> scenarios;
  std::vector<ScenarioSpec> specs;  ///< one per scenario
};

struct Pass {
  double run_s = 0.0;
  std::vector<double> scenario_s;  ///< host time of each simulation
  Samples slices_s;  ///< replayed supply-epoch slices that decided something
  bool threw = false;
  std::vector<SimResult> results;
  std::vector<std::uint64_t> digests;
};

ExperimentConfig make_config() {
  ExperimentConfig cfg = ExperimentConfig::paper_small().scaled(kScale);
  cfg.parallelism = 1;
  return cfg;
}

Setup make_setup(const ExperimentConfig& cfg, std::uint64_t seed) {
  Setup s;
  s.ctx = std::make_unique<ExperimentContext>(cfg);
  const auto no_wind = std::make_shared<const HybridSupply>(s.ctx->make_supply(false));
  const auto wind = std::make_shared<const HybridSupply>(s.ctx->make_supply(true));
  // Each grid point deals its own arrival order, so one run averages over
  // twelve independent traces rather than one.
  auto tasks_for = [&](double hu, double rate) {
    ISCOPE_SPAN("bench.make_tasks");
    const std::uint64_t point =
        Rng(seed).fork("hu=" + std::to_string(hu) + ",rate=" + std::to_string(rate)).seed();
    return std::make_shared<const std::vector<Task>>(
        make_tasks(cfg, s.ctx->cluster().size(), point, hu, rate));
  };
  // With and without wind share each point's trace, as the paper's
  // figures compare them on one trace.
  auto add = [&](Grid grid, double x,
                 const std::shared_ptr<const std::vector<Task>>& tasks) {
    for (const bool with_wind : {false, true})
      for (const Scheme scheme : kAllSchemes) {
        s.scenarios.push_back(Scenario{grid, x, with_wind});
        ScenarioSpec spec;
        spec.scheme = scheme;
        spec.tasks = tasks;
        spec.supply = with_wind ? wind : no_wind;
        spec.x = x;
        s.specs.push_back(std::move(spec));
      }
  };
  const double hu0 = cfg.urgency.hu_fraction;
  for (const double hu : kHuPoints) add(Grid::kHu, hu, tasks_for(hu, 1.0));
  for (const double rate : kRates) add(Grid::kRate, rate, tasks_for(hu0, rate));
  add(Grid::kCost, 1.0, tasks_for(hu0, 1.0));
  return s;
}

void finish_pass(Pass& p) {
  for (const SimResult& r : p.results) p.digests.push_back(digest(r));
}

/// One pass over the grid through the program's sweep engine, one spec at
/// a time (SweepRunner::run's serial path) so each simulation is timed.
/// With `ref`, one reference unit runs after each simulation, so the
/// yardstick sees the host as the simulations did.
Pass engine_pass(const Setup& s, ReferenceKernel* ref = nullptr) {
  Pass p;
  const SweepRunner runner(*s.ctx, 1);
  for (const ScenarioSpec& spec : s.specs) {
    const Clock::time_point t0 = Clock::now();
    try {
      p.results.push_back(runner.run_one(spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: sweep threw: %s\n", e.what());
      p.threw = true;
      p.results.emplace_back();
    }
    p.scenario_s.push_back(seconds_since(t0));
    p.run_s += p.scenario_s.back();
    if (ref != nullptr) ref->sample();
  }
  finish_pass(p);
  return p;
}

/// SweepRunner::run_one -> run_scheme()'s single-loop path, through
/// DatacenterSim's public calls with the drain cut at supply epochs
/// (advance_before leaves the clock at the last event, where one batch
/// drain leaves it, so finish() prices the same run).
SimResult replay_scenario(const Setup& s, const ScenarioSpec& spec,
                          Samples& slices) {
  const ExperimentContext& ctx = *s.ctx;
  SimConfig config = ctx.config().sim;
  config.seed = Rng(ctx.config().seed)
                    .fork(placement_rule_name(scheme_rule(spec.scheme)))
                    .seed();
  config.telemetry_label = scheme_name(spec.scheme);
  Knowledge knowledge(&ctx.cluster(), scheme_knowledge(spec.scheme),
                      scheme_uses_scan(spec.scheme) ? &ctx.profile_db() : nullptr);
  DatacenterSim sim(&knowledge, scheme_rule(spec.scheme), spec.supply.get(), config);
  {
    ISCOPE_SPAN("bench.prepare");
    sim.prepare(*spec.tasks);
  }
  std::vector<double> slice_s;
  for (double t = config.epoch_s; !sim.drained(); t += config.epoch_s) {
    const Clock::time_point t0 = Clock::now();
    std::size_t events = 0;
    {
      ISCOPE_SPAN("bench.step");
      events = sim.advance_before(t);
    }
    slice_s.push_back(events == 0 ? -1.0 : seconds_since(t0));
  }
  SimResult r = [&] {
    ISCOPE_SPAN("bench.finish");
    return sim.finish();
  }();
  // Slice samples are the epochs up to the makespan that ran an event.
  // Past the makespan the queue only pops completion events that later
  // rematches superseded; utility-only runs have empty epochs too.
  for (std::size_t i = 0; i < slice_s.size(); ++i)
    if (slice_s[i] >= 0.0 &&
        static_cast<double>(i) * config.epoch_s < r.makespan.seconds())
      slices.add(slice_s[i]);
  return r;
}

/// The traced pass: every scenario replayed under the benchmark's spans,
/// harvested per scenario so the trace stays small.
Pass replay_pass(const Setup& s, SpanHarvest& harvest) {
  Pass p;
  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    try {
      ISCOPE_SPAN("bench.scenario");
      p.results.push_back(replay_scenario(s, s.specs[i], p.slices_s));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: scenario %zu threw: %s\n", i, e.what());
      p.threw = true;
      p.results.emplace_back();
    }
    p.run_s += seconds_since(t0);
    harvest.harvest(s.scenarios[i].wind ? "wind" : "nowind");
  }
  finish_pass(p);
  return p;
}

void check_pass(const Setup& s, const Pass& p, const Pass* reference,
                const std::string& label, Report& report) {
  report.attempt(p.results.size());
  if (p.threw) {
    report.check(false, label + ": a simulation threw", p.results.size());
    return;
  }
  std::size_t lost = 0, diverged = 0;
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    const SimResult& r = p.results[i];
    if (r.tasks_completed + r.faults.tasks_failed != s.specs[i].tasks->size()) ++lost;
    if (reference != nullptr && p.digests[i] != reference->digests[i]) ++diverged;
  }
  report.check(lost == 0, label + ": completed + abandoned != submitted in " +
                              std::to_string(lost) + " simulations", lost);
  report.check(diverged == 0, label + ": SimResult digest differs from the "
                                      "reference pass in " +
                                  std::to_string(diverged) + " simulations",
               diverged);
}

/// The paper's headline ratios next to what this grid computes.
void paper_reference(const Setup& s, const Pass& p, Report& report) {
  auto find = [&](Grid grid, double x, bool wind, Scheme scheme) -> const SimResult& {
    for (std::size_t i = 0; i < s.specs.size(); ++i) {
      const Scenario& sc = s.scenarios[i];
      if (sc.grid == grid && sc.x == x && sc.wind == wind && s.specs[i].scheme == scheme)
        return p.results[i];
    }
    throw std::logic_error("paper_reference: scenario missing");
  };
  double scan_u = 0.0, bin_u = 0.0, best_cut = 0.0;
  for (const double hu : kHuPoints) {
    scan_u += find(Grid::kHu, hu, false, Scheme::kScanEffi).energy.utility.kwh();
    bin_u += find(Grid::kHu, hu, false, Scheme::kBinEffi).energy.utility.kwh();
  }
  for (const Grid grid : {Grid::kHu, Grid::kRate})
    for (const double x : grid == Grid::kHu ? kHuPoints : kRates) {
      const double fair = find(grid, x, true, Scheme::kScanFair).cost.dollars();
      const double ran = find(grid, x, true, Scheme::kBinRan).cost.dollars();
      best_cut = std::max(best_cut, 1.0 - fair / ran);
    }
  const double fig8_cut =
      1.0 - find(Grid::kCost, 1.0, true, Scheme::kScanFair).cost.dollars() /
                find(Grid::kCost, 1.0, true, Scheme::kBinRan).cost.dollars();
  report.text("paper reference (simulated; the model is otherwise unvalidated: "
              "its chips, wind and jobs are synthetic stand-ins for the real "
              "hardware, NREL wind and LLNL Thunder traces, DESIGN.md Sec. 2)");
  report.note("ScanEffi_vs_BinEffi_utility", 1.0 - scan_u / bin_u, "ratio",
              "utility energy saved, no wind, mean over %HU; paper ~0.10");
  report.note("ScanFair_vs_BinRan_cost_fig8", fig8_cut, "ratio",
              "total cost saved with wind, Fig. 8; paper 0.307");
  report.note("ScanFair_vs_BinRan_cost_max", best_cut, "ratio",
              "largest cost cut over the wind grids; paper up to 0.54");
}

void end_to_end(const Options& opts, const ExperimentConfig& cfg,
                Report& report) {
  Samples setup_s;
  Setup s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    s = Setup{};  // release the previous context before building the next
    const Clock::time_point t0 = Clock::now();
    s = make_setup(cfg, opts.seed);
    setup_s.add(seconds_since(t0));
  }

  // Whole passes over the grid until the budget is spent (at least two,
  // so the digest check has a repeat to compare).
  // Only the first pass keeps its results: the benchmark's own bookkeeping
  // must not grow peak_rss_mb with the number of passes.
  ReferenceKernel ref;
  std::vector<Pass> passes;
  double pass_wall_s = 0.0;
  const Clock::time_point start = Clock::now();
  while (passes.size() < 2 || seconds_since(start) + pass_wall_s <= opts.seconds) {
    const Clock::time_point p0 = Clock::now();
    Pass p = engine_pass(s, &ref);
    pass_wall_s = seconds_since(p0);
    check_pass(s, p, passes.empty() ? nullptr : &passes[0],
               "pass " + std::to_string(passes.size()), report);
    if (!passes.empty()) p.results = {};
    passes.push_back(std::move(p));
  }

  // run_s sums each simulation's median over the passes, so a burst of
  // host load during one pass moves it by one rank per simulation hit.
  // The bounded metric divides it by the reference unit's median over the
  // same passes, which cancels most of the host's drift between runs.
  double run_s = 0.0;
  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    Samples t;
    for (const Pass& p : passes) t.add(p.scenario_s[i]);
    run_s += t.median();
  }
  double cost = 0.0, missed = 0.0, waited = 0.0, submitted = 0.0, events = 0.0;
  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    const SimResult& r = passes[0].results[i];
    const double tasks = static_cast<double>(s.specs[i].tasks->size());
    cost += r.cost.dollars();
    missed += static_cast<double>(missed_tasks(r));
    waited += r.mean_wait.seconds() * tasks;
    submitted += tasks;
    events += static_cast<double>(r.events_processed);
  }
  if (!passes[0].threw) paper_reference(s, passes[0], report);
  report.note(metric::kRun, run_s, "s", "host time of the grid");
  report.note("reference_unit_ms", ref.unit_s() * 1e3, "ms",
              "median of " + std::to_string(ref.samples()) + " units");
  report.note("passes", static_cast<double>(passes.size()), "count");
  report.note("simulations_per_pass", static_cast<double>(s.specs.size()), "count");
  report.note("events_per_pass", events, "count");
  report.note("mean_wait_s", waited / submitted, "s",
              "simulated submit -> start, task-weighted over the grid");
  report.note("deadline_miss_frac", missed / submitted, "ratio",
              "misses + abandoned over submitted (simulated)");

  report.metric(metric::kSetup, setup_s.median(), "s");
  report.metric(metric::kRunVsRef, run_s / ref.unit_s(), "ratio");
  report.metric(metric::kRss, vm_hwm_mb(::getpid()), "MB");
  report.metric(metric::kCost, cost, "USD");
}

void traced(const ExperimentConfig& cfg, std::uint64_t seed, Report& report) {
  SpanHarvest harvest({"bench.step"});
  SpanHarvest::enable();
  const Setup s = make_setup(cfg, seed);
  const std::size_t trials = trace_setup_layers(cfg, *s.ctx, report);
  harvest.harvest("setup");

  SpanHarvest::disable();
  const Pass plain = engine_pass(s);
  telemetry::set_enabled(true);
  const Pass replayed = replay_pass(s, harvest);
  SpanHarvest::disable();

  check_pass(s, plain, nullptr, "engine pass", report);
  check_pass(s, replayed, &plain, "traced replay", report);

  TracedTotals t;
  t.trials = trials;
  t.untraced_run_s = plain.run_s;
  t.traced_run_s = replayed.run_s;
  for (const SimResult& r : replayed.results) {
    t.events += static_cast<double>(r.events_processed);
    t.rematches += static_cast<double>(r.dvfs_rematch_count);
  }
  const SpanTotals scenario = harvest.all("bench.scenario");
  Layers l;
  set_shared_layers(harvest, t, report, l);
  l.set("sweep.scenarios", static_cast<double>(s.specs.size()));
  l.set("sweep.scenario_p50_s", scenario.durations_s.median());
  l.set("sweep.scenario_max_s", scenario.durations_s.max());
  l.set("sim.slice_p50_us", replayed.slices_s.median() * 1e6);
  l.set("sim.slice_p99_us", replayed.slices_s.quantile(0.99) * 1e6);
  l.set("sched.rematch_self_s.wind", harvest.get("rematch", "wind").self_s);
  l.set("sched.rematch_self_s.nowind", harvest.get("rematch", "nowind").self_s);
  l.emit(report);
}

}  // namespace

void run_paper_sweep(const Options& opts, Report& report) {
  const ExperimentConfig cfg = make_config();
  if (opts.trace)
    traced(cfg, opts.seed, report);
  else
    end_to_end(opts, cfg, report);
}

}  // namespace perfbench
