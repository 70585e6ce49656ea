// iscope_cli -- command-line driver for the iScope toolkit.
//
// Subcommands:
//   wind      --days N [--seed S] [--mean-kw X] --out trace.csv
//   solar     --days N [--seed S] [--peak-kw X] --out trace.csv
//   workload  --jobs N [--seed S] [--max-cpus N] [--hu F] --out trace.swf
//   stats     --swf trace.swf [--cpus N]
//   scan      --procs N [--seed S] --out profiles.csv
//   simulate  --scheme NAME [--procs N] [--jobs N] [--hu F] [--rate R]
//             [--wind trace.csv | --no-wind] [--battery-kwh X]
//             [--faults "mtbf=...,misprofile=..."] [--fault-seed N]
//             [--thermal] [--sleep-policy none|active-idle|immediate|timeout]
//             [--timeline out.csv] [--telemetry DIR] [--trace-out F]
//   sweep     --fig hu|arrival|wind [--points "a,b,c"] [--no-wind]
//             [--parallel N] [--scale F]
//
// Every subcommand is a thin shell over the public library API -- simulate
// and sweep route through the scenario-sweep engine (core/sweep.hpp); exit
// code 0 on success, 1 on usage errors (message on stderr).
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "core/sweep.hpp"
#include "energy/solar_model.hpp"
#include "profiling/scanner.hpp"
#include "sim/timeline.hpp"
#include "workload/swf.hpp"
#include "workload/trace_stats.hpp"
#include "workload/urgency.hpp"

namespace {

using namespace iscope;

/// Minimal flag parser. Accepts `--flag value`, `--flag=value`, and bare
/// boolean flags (`--no-wind`) anywhere in the argument list.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0)
        throw InvalidArgument(std::string("expected a --flag, got ") + arg);
      if (const char* eq = std::strchr(arg + 2, '=')) {
        values_[std::string(arg + 2, eq)] = eq + 1;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[arg + 2] = argv[i + 1];
        ++i;
      } else {
        values_[arg + 2] = "true";  // boolean-style flag
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw InvalidArgument("missing required flag --" + key);
    return *v;
  }
  double number(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? parse_number<double>(*v, "--" + key) : fallback;
  }
  std::uint64_t integer(const std::string& key, std::uint64_t fallback) const {
    const auto v = get(key);
    return v ? parse_number<std::uint64_t>(*v, "--" + key) : fallback;
  }
  bool flag(const std::string& key) const { return get(key).has_value(); }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_wind(const Args& args) {
  WindFarmConfig cfg;
  cfg.seed = args.integer("seed", cfg.seed);
  SupplyTrace trace = generate_wind_days(cfg, args.number("days", 7.0));
  if (args.get("mean-kw"))
    trace = trace.scaled_to_mean(Watts{args.number("mean-kw", 0.0) * 1e3});
  trace.save_csv(args.require("out"));
  std::cout << "wrote " << trace.samples() << " samples (mean "
            << TextTable::num(trace.mean_power().watts() / 1e3, 1) << " kW) to "
            << args.require("out") << "\n";
  return 0;
}

int cmd_solar(const Args& args) {
  SolarFarmConfig cfg;
  cfg.seed = args.integer("seed", cfg.seed);
  cfg.peak = Watts{args.number("peak-kw", cfg.peak.watts() / 1e3) * 1e3};
  const SupplyTrace trace =
      generate_solar_days(cfg, args.number("days", 7.0));
  trace.save_csv(args.require("out"));
  std::cout << "wrote " << trace.samples() << " samples (mean "
            << TextTable::num(trace.mean_power().watts() / 1e3, 1) << " kW) to "
            << args.require("out") << "\n";
  return 0;
}

int cmd_workload(const Args& args) {
  SyntheticWorkloadConfig cfg;
  cfg.num_jobs = static_cast<std::size_t>(args.integer("jobs", 1000));
  cfg.max_cpus = static_cast<std::size_t>(args.integer("max-cpus", 512));
  cfg.seed = args.integer("seed", cfg.seed);
  std::vector<Task> tasks = generate_workload(cfg);
  UrgencyConfig urgency;
  urgency.hu_fraction = args.number("hu", 0.3);
  assign_deadlines(tasks, urgency);
  std::ofstream(args.require("out")) << tasks_to_swf(tasks);
  std::cout << "wrote " << tasks.size() << " jobs to " << args.require("out")
            << "\n"
            << compute_trace_stats(tasks).summary();
  return 0;
}

int cmd_stats(const Args& args) {
  const auto jobs = read_swf_file(args.require("swf"));
  const auto tasks = swf_to_tasks(jobs);
  const TraceStats stats = compute_trace_stats(tasks);
  std::cout << stats.summary();
  if (args.get("cpus")) {
    const auto cpus = static_cast<std::size_t>(args.integer("cpus", 1));
    std::cout << "offered utilization on " << cpus << " CPUs: "
              << TextTable::pct(offered_utilization(stats, cpus)) << "\n";
  }
  return 0;
}

int cmd_scan(const Args& args) {
  ClusterConfig cfg;
  cfg.num_processors = static_cast<std::size_t>(args.integer("procs", 64));
  cfg.seed = args.integer("seed", cfg.seed);
  const Cluster cluster = build_cluster(cfg);
  const Scanner scanner(&cluster, ScanConfig{});
  ProfileDb db(cluster.size());
  Rng rng(cfg.seed + 1);
  std::vector<std::size_t> all(cluster.size());
  std::iota(all.begin(), all.end(), 0);
  scanner.scan_domain(all, 0.0, rng, db);
  db.save_csv(args.require("out"));
  std::cout << "scanned " << db.profiled_count() << " chips ("
            << db.total_trials() << " trials, "
            << TextTable::num(db.total_scan_energy_j() / 3.6e6, 2)
            << " kWh) -> " << args.require("out") << "\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const Scheme scheme = scheme_from_name(args.get("scheme").value_or(
      "ScanFair"));

  // --hyperscale [PROCS] starts from the hyperscale preset (proportional
  // job count and arrival rate, throughput regime) instead of the paper
  // facility; --procs/--jobs still override individual knobs afterwards.
  const std::optional<std::string> hyper_arg = args.get("hyperscale");
  const bool hyper = hyper_arg.has_value();
  ExperimentConfig config =
      hyper ? ExperimentConfig::hyperscale(
                  *hyper_arg == "true"  // bare flag, no CPU count given
                      ? 102'400
                      : static_cast<std::size_t>(parse_number<std::uint64_t>(
                            *hyper_arg, "--hyperscale")))
            : ExperimentConfig::paper_small();
  if (args.get("procs"))
    config.cluster.num_processors =
        static_cast<std::size_t>(args.integer("procs", 480));
  if (args.get("jobs"))
    config.workload.num_jobs = static_cast<std::size_t>(
        args.integer("jobs", 800));
  if (!hyper) config.workload.max_cpus = config.cluster.num_processors / 4;
  if (args.get("battery-kwh")) {
    const double peak_kw =
        estimated_peak_demand(config.cluster, config.sim.cooling_cop).watts() / 1e3;
    config.sim.battery =
        BatteryConfig::make(args.number("battery-kwh", 0.0), peak_kw);
  }
  config.sim.record_timeline = args.flag("timeline");
  // Fault injection: --faults takes a parse_fault_spec string; the seed
  // falls back to the ISCOPE_FAULT_SEED environment knob (default 0).
  config.sim.faults = args.get("faults")
                          ? parse_fault_spec(args.require("faults"))
                          : env_fault_spec();
  config.sim.fault_seed = args.integer("fault-seed", env_fault_seed());
  // Thermal/CRAC model and C-state sleep (DESIGN.md Sec. 16): --thermal
  // arms recirculation-aware cooling, --sleep-policy picks the idle
  // governor. Defaults come from ISCOPE_THERMAL / ISCOPE_SLEEP_POLICY;
  // ScanTherm and the *Sleep schemes switch their half on regardless.
  if (args.flag("thermal") || env_thermal()) config.sim.thermal.enabled = true;
  config.sim.sleep.policy =
      args.get("sleep-policy")
          ? parse_sleep_policy(args.require("sleep-policy"))
          : env_sleep_policy();
  config.sim = apply_scheme_requests(scheme, config.sim);
  // Shard partition: --shards N routes the run through the sharded
  // coordinator (rack-aligned shards, epoch-barrier wind reconciliation);
  // --shard-workers W fans shard advances over a pool (0 = hw threads).
  // Defaults come from ISCOPE_SHARDS / ISCOPE_SHARD_WORKERS; 1 shard is
  // bit-identical to the single-event-loop simulator.
  config.sim.topology.shards =
      static_cast<std::size_t>(args.integer("shards", env_shards()));
  config.sim.shard_workers = static_cast<std::size_t>(
      args.integer("shard-workers", env_shard_workers()));

  const ExperimentContext ctx(config);

  // One ScenarioSpec through the sweep engine: the recorded timeline comes
  // back with the result, so no second low-level rerun is needed.
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.tasks = std::make_shared<const std::vector<Task>>(
      ctx.make_tasks(args.number("hu", 0.3), args.number("rate", 1.0)));
  if (args.get("wind")) {
    // A user-supplied trace gets the same dropout treatment as the
    // synthesized one (make_supply applies them internally).
    SupplyTrace trace = SupplyTrace::load_csv(args.require("wind"));
    if (config.sim.faults.dropouts_per_day > 0.0)
      trace = FaultPlan::build(config.sim.faults, config.sim.fault_seed, 0)
                  .apply_dropouts(trace);
    spec.supply = std::make_shared<const HybridSupply>(std::move(trace));
  } else if (args.flag("no-wind")) {
    spec.supply = std::make_shared<const HybridSupply>();
  } else {
    spec.supply = std::make_shared<const HybridSupply>(ctx.make_supply(true));
  }
  spec.label = std::string("simulate ") + scheme_name(scheme);

  // Observability: --telemetry DIR writes the full report bundle
  // (metrics.prom, metrics.json, samples.csv, trace.json); --trace-out F
  // writes just the Chrome trace. Either flag arms the subsystem.
  const bool telemetry_on = args.flag("telemetry") || args.flag("trace-out");
  if (telemetry_on) {
    telemetry::reset_global_telemetry();
    telemetry::set_enabled(true);
  }

  const SimResult r = SweepRunner(ctx, 1).run_one(spec);
  TextTable out;
  out.set_title(spec.label);
  out.set_header({"metric", "value"});
  out.add_row({"tasks completed", std::to_string(r.tasks_completed)});
  out.add_row({"deadline misses", std::to_string(r.deadline_misses)});
  out.add_row({"wind energy", TextTable::num(r.energy.wind_kwh(), 1) + " kWh"});
  out.add_row({"utility energy",
               TextTable::num(r.energy.utility_kwh(), 1) + " kWh"});
  out.add_row({"energy cost", TextTable::num(r.cost.dollars(), 2) + " USD"});
  out.add_row({"busy-time variance",
               TextTable::num(r.busy_variance_h2, 2) + " h^2"});
  out.add_row({"mean wait", TextTable::num(r.mean_wait.seconds() / 60.0, 1) + " min"});
  if (config.sim.faults.any()) {
    out.add_row({"cpu failures", std::to_string(r.faults.cpu_failures)});
    out.add_row({"  from mis-profiling",
                 std::to_string(r.faults.misprofile_failures)});
    out.add_row({"cpu repairs", std::to_string(r.faults.cpu_repairs)});
    out.add_row({"task requeues", std::to_string(r.faults.task_requeues)});
    out.add_row({"tasks failed", std::to_string(r.faults.tasks_failed)});
    out.add_row({"lost CPU-hours",
                 TextTable::num(r.faults.lost_cpu_seconds / 3600.0, 2)});
    out.add_row({"fault-driven misses",
                 std::to_string(r.faults.fault_deadline_misses)});
  }
  if (config.sim.thermal.enabled) {
    out.add_row({"cooling energy",
                 TextTable::num(r.cooling_energy.joules() / 3.6e6, 1) + " kWh"});
    out.add_row({"peak inlet", TextTable::num(r.peak_inlet_c, 1) + " C"});
  }
  if (config.sim.sleep.enabled()) {
    out.add_row({"idle energy",
                 TextTable::num(r.idle_energy.joules() / 3.6e6, 1) + " kWh"});
    out.add_row({"sleep enters", std::to_string(r.sleep_enters)});
    out.add_row({"wake-delayed starts", std::to_string(r.sleep_wakes)});
  }
  out.print(std::cout);

  if (args.flag("timeline")) {
    save_timeline_csv(args.require("timeline"), r.timeline);
    std::cout << "timeline (" << r.timeline.size() << " events) -> "
              << args.require("timeline") << "\n";
  }

  if (telemetry_on) {
    telemetry::set_enabled(false);
    // Cross-check the registry against the result the simulation itself
    // reported: the two are independent tallies of the same run.
    const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
    // A 1-shard run publishes its counters under the scheme label; a
    // sharded run under "<scheme>/shard<i>" per shard. Either way the
    // per-cell tallies must sum to what SimResult reported.
    const std::string base = scheme_name(scheme);
    const auto tally = [&](const char* family) {
      double sum = -1.0;
      for (const auto& fam : snap) {
        if (fam.name != family) continue;
        for (const auto& cell : fam.cells) {
          if (cell.labels.empty()) continue;
          const std::string& run_label = cell.labels.front();
          if (run_label != base && run_label.rfind(base + "/shard", 0) != 0)
            continue;
          if (sum < 0.0) sum = 0.0;
          sum += cell.value;
        }
      }
      return sum;
    };
    const struct {
      const char* family;
      double expected;
    } checks[] = {
        {"iscope_sim_events_total",
         static_cast<double>(r.events_processed)},
        {"iscope_sim_rematches_total",
         static_cast<double>(r.dvfs_rematch_count)},
        {"iscope_sim_tasks_completed_total",
         static_cast<double>(r.tasks_completed)},
        {"iscope_sim_deadline_misses_total",
         static_cast<double>(r.deadline_misses)},
    };
    for (const auto& c : checks) {
      const double got = tally(c.family);
      if (got != c.expected) {
        std::cerr << "telemetry cross-check FAILED: " << c.family << " = "
                  << got << ", SimResult says " << c.expected << "\n";
        return 1;
      }
    }
    // Self-validate the rendered documents before handing them over.
    const std::string prom_err = telemetry::validate_prometheus_text(
        telemetry::to_prometheus(snap));
    if (!prom_err.empty()) {
      std::cerr << "telemetry cross-check FAILED: bad prometheus text: "
                << prom_err << "\n";
      return 1;
    }
    json::parse(telemetry::TraceLog::global().to_chrome_json());
    json::parse(telemetry::to_json(snap));
    std::cout << "telemetry cross-check ok (" << r.events_processed
              << " events, " << telemetry::TraceLog::global().total_events()
              << " spans, " << telemetry::SampleLog::global().size()
              << " sample rows)\n";

    if (args.flag("telemetry")) {
      const telemetry::RunReportPaths paths =
          telemetry::write_run_report(args.require("telemetry"));
      std::cout << "telemetry report -> " << paths.metrics_prom << ", "
                << paths.metrics_json << ", " << paths.samples_csv << ", "
                << paths.trace_json << "\n";
    }
    if (args.flag("trace-out")) {
      telemetry::write_chrome_trace(args.require("trace-out"));
      std::cout << "chrome trace -> " << args.require("trace-out")
                << " (load in ui.perfetto.dev)\n";
    }
  }
  return 0;
}

std::vector<double> parse_points(const std::string& csv) {
  std::vector<double> points;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    points.push_back(parse_number<double>(
        std::string_view(csv).substr(pos, next - pos), "--points"));
    pos = next + 1;
  }
  if (points.empty()) throw InvalidArgument("sweep: empty --points list");
  return points;
}

int cmd_sweep(const Args& args) {
  const std::string fig = args.get("fig").value_or("hu");
  const bool with_wind = !args.flag("no-wind");

  ExperimentConfig config =
      ExperimentConfig::paper_small().scaled(args.number("scale", 1.0));
  config.parallelism =
      static_cast<std::size_t>(args.integer("parallel", env_parallelism()));
  const ExperimentContext ctx(config);

  std::vector<SweepPoint> points;
  const char* x_name = nullptr;
  if (fig == "hu") {
    points = sweep_hu(ctx, parse_points(args.get("points").value_or(
                               "0.0,0.2,0.4,0.6,0.8,1.0")),
                      with_wind);
    x_name = "HU frac";
  } else if (fig == "arrival") {
    points = sweep_arrival(ctx, parse_points(args.get("points").value_or(
                                    "1.0,2.0,3.0,4.0,5.0")),
                           with_wind);
    x_name = "rate";
  } else if (fig == "wind") {
    points = sweep_wind_strength(ctx, parse_points(args.get("points").value_or(
                                          "1.0,1.2,1.4,1.6,1.8")));
    x_name = "SWP";
  } else {
    throw InvalidArgument("sweep: --fig must be hu, arrival or wind");
  }

  // Pivot: one row per swept value, one column pair per scheme.
  TextTable table;
  table.set_title(std::string("sweep ") + fig + " (" +
                  std::to_string(SweepRunner(ctx).parallelism()) +
                  " workers)");
  std::vector<std::string> header = {x_name};
  for (const Scheme s : kAllSchemes)
    header.push_back(std::string(scheme_name(s)) + " kWh");
  table.set_header(header);
  std::vector<double> xs;
  for (const SweepPoint& p : points)
    if (xs.empty() || xs.back() != p.x) xs.push_back(p.x);
  for (const double x : xs) {
    std::vector<std::string> row = {TextTable::num(x, 2)};
    for (const Scheme s : kAllSchemes)
      for (const SweepPoint& p : points)
        if (p.x == x && p.scheme == s) {
          row.push_back(TextTable::num(p.result.energy.total_kwh(), 1));
          break;
        }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}

int usage() {
  std::cerr <<
      "usage: iscope_cli <command> [--flag value ...]\n"
      "  wind      --days N [--seed S] [--mean-kw X] --out trace.csv\n"
      "  solar     --days N [--seed S] [--peak-kw X] --out trace.csv\n"
      "  workload  --jobs N [--seed S] [--max-cpus N] [--hu F] --out t.swf\n"
      "  stats     --swf trace.swf [--cpus N]\n"
      "  scan      --procs N [--seed S] --out profiles.csv\n"
      "  simulate  [--scheme ScanFair] [--procs N] [--jobs N] [--hu F]\n"
      "            [--hyperscale [PROCS]]   (hyperscale preset, >=1024\n"
      "              CPUs, proportional jobs/arrival; default 102400)\n"
      "            [--rate R] [--wind trace.csv | --no-wind]\n"
      "            [--battery-kwh X] [--timeline out.csv]\n"
      "            [--telemetry DIR] [--trace-out trace.json]\n"
      "            [--faults \"mtbf=S,repair=S,misprofile=P,forecast=E,\n"
      "              dropouts=N,retries=K\"] [--fault-seed N]\n"
      "            [--shards N] [--shard-workers W]   (sharded simulator;\n"
      "              defaults ISCOPE_SHARDS / ISCOPE_SHARD_WORKERS)\n"
      "            [--thermal] [--sleep-policy none|active-idle|immediate|\n"
      "              timeout]   (thermal/CRAC model + C-state sleep;\n"
      "              defaults ISCOPE_THERMAL / ISCOPE_SLEEP_POLICY)\n"
      "  sweep     [--fig hu|arrival|wind] [--points \"a,b,c\"] [--no-wind]\n"
      "            [--parallel N] [--scale F]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "wind") return cmd_wind(args);
    if (cmd == "solar") return cmd_solar(args);
    if (cmd == "workload") return cmd_workload(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "scan") return cmd_scan(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "sweep") return cmd_sweep(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
