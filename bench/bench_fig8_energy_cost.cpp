// Figure 8: energy cost of the five schemes, without and with wind energy
// (0.13 USD/kWh utility, 0.05 USD/kWh wind).
//
// Paper shapes: variation-aware schemes (BinEffi/ScanEffi/ScanFair) cost
// less than the Ran schemes; ScanEffi ~9% below BinEffi (profiling payoff);
// ScanFair achieves large savings over BinRan (paper: up to 54% on
// utility-dominated cost, 30.7% on total wind+utility cost); ScanEffi is
// the outright cheapest thanks to its green-energy utilization.
#include "bench_util.hpp"

int main() {
  using namespace iscope;
  bench::print_banner("Fig.8", "energy cost per scheme, with/without wind");

  const ExperimentContext ctx(bench::bench_config());
  return bench::run_bench([&] {
    const auto rows = energy_costs(ctx);

    TextTable table;
    table.set_header(
        {"scheme", "wind?", "utility kWh", "wind kWh", "cost USD"});
    for (const CostRow& r : rows) {
      table.add_row({scheme_name(r.scheme), r.with_wind ? "yes" : "no",
                     TextTable::num(r.utility.kwh(), 1),
                     TextTable::num(r.wind.kwh(), 1),
                     TextTable::num(r.cost.dollars(), 2)});
    }
    table.print(std::cout);

    auto cost_of = [&](Scheme s, bool wind) {
      for (const CostRow& r : rows)
        if (r.scheme == s && r.with_wind == wind) return r.cost.dollars();
      return 0.0;
    };
    const double binran_w = cost_of(Scheme::kBinRan, true);
    const double bineffi_w = cost_of(Scheme::kBinEffi, true);
    std::cout
        << "\nWith wind:\n"
        << "  ScanEffi vs BinEffi: "
        << TextTable::pct(1.0 - cost_of(Scheme::kScanEffi, true) / bineffi_w)
        << " cheaper (paper: ~9%)\n"
        << "  ScanFair vs BinRan:  "
        << TextTable::pct(1.0 - cost_of(Scheme::kScanFair, true) / binran_w)
        << " cheaper (paper: up to 54% / 30.7% total-cost)\n"
        << "No wind:\n"
        << "  ScanEffi vs BinEffi: "
        << TextTable::pct(1.0 - cost_of(Scheme::kScanEffi, false) /
                                    cost_of(Scheme::kBinEffi, false))
        << " cheaper\n"
        << "  ScanFair vs BinRan:  "
        << TextTable::pct(1.0 - cost_of(Scheme::kScanFair, false) /
                                    cost_of(Scheme::kBinRan, false))
        << " cheaper\n";
    // Thermal runs (ISCOPE_THERMAL=1) carry the heat-aware sixth scheme:
    // recirculation-sorted placement must pay off on the total
    // compute+cooling bill versus the paper's best.
    if (ctx.config().sim.thermal.enabled) {
      std::cout << "Thermal (compute + CRAC cooling):\n"
                << "  ScanTherm vs ScanFair: "
                << TextTable::pct(1.0 - cost_of(Scheme::kScanTherm, true) /
                                            cost_of(Scheme::kScanFair, true))
                << " cheaper (with wind)\n"
                << "  ScanTherm vs ScanFair: "
                << TextTable::pct(1.0 - cost_of(Scheme::kScanTherm, false) /
                                            cost_of(Scheme::kScanFair, false))
                << " cheaper (no wind)\n";
    }
  });
}
