// Fault-injection layer (src/fault/): plan construction, determinism,
// scripted schedules, the per-processor streams and the cursor that merges
// them (against the old globally sorted layout in
// tests/reference_fault_plan.hpp), supply dropouts, forecast noise, and
// the simulator's graceful-degradation path (requeue, retry bound, repair).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/noisy_forecast.hpp"
#include "profiling/scanner.hpp"
#include "reference_fault_plan.hpp"
#include "sched/knowledge.hpp"
#include "sim/simulator.hpp"

namespace iscope {
namespace {

/// Every crash/repair event of `plan`, read off a fresh cursor in order.
std::vector<FaultEvent> drain(const FaultPlan& plan) {
  FaultCursor cursor(plan);
  std::vector<FaultEvent> out;
  out.reserve(cursor.size());
  for (std::size_t i = 0; i < cursor.size(); ++i)
    out.push_back(cursor.event(i));
  return out;
}

/// Event for event: time bitwise, kind and (local) processor.
void expect_same_events(const std::vector<FaultEvent>& expected,
                        const std::vector<FaultEvent>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i].time_s),
              std::bit_cast<std::uint64_t>(actual[i].time_s));
    EXPECT_EQ(expected[i].kind, actual[i].kind);
    EXPECT_EQ(expected[i].proc, actual[i].proc);
    if (::testing::Test::HasFailure()) return;  // one report, not millions
  }
}

// ------------------------------------------------------------ FaultSpec

TEST(FaultSpec_, DefaultIsInertAndValid) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.any());
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpec_, AnyDetectsEachChannel) {
  FaultSpec s;
  s.misprofile_prob = 0.1;
  EXPECT_TRUE(s.any());
  s = FaultSpec{};
  s.crash_mtbf_s = 1000.0;
  EXPECT_TRUE(s.any());
  s = FaultSpec{};
  s.forecast_error = 0.2;
  EXPECT_TRUE(s.any());
  s = FaultSpec{};
  s.dropouts_per_day = 1.0;
  EXPECT_TRUE(s.any());
}

TEST(FaultSpec_, ValidateRejectsBadValues) {
  FaultSpec s;
  s.misprofile_prob = 1.5;
  EXPECT_THROW(s.validate(), InvalidArgument);
  s = FaultSpec{};
  s.forecast_error = 1.0;  // must be < 1
  EXPECT_THROW(s.validate(), InvalidArgument);
  s = FaultSpec{};
  s.crash_mtbf_s = -10.0;
  EXPECT_THROW(s.validate(), InvalidArgument);
  s = FaultSpec{};
  s.crash_mtbf_s = 1000.0;
  s.repair_mean_s = 0.0;  // crashes need a repair process
  EXPECT_THROW(s.validate(), InvalidArgument);
  s = FaultSpec{};
  s.misprofile_prob = 0.1;
  s.repair_mean_s = 0.0;  // mis-profile fail-stops need one too
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(FaultSpecParse, RoundTripsAllKeys) {
  const FaultSpec s = parse_fault_spec(
      "mtbf=7200, repair=600, misprofile=0.05, misprofile-latency=900, "
      "forecast=0.25, dropouts=1.5, dropout-mean=1200, retries=5, "
      "horizon=86400");
  EXPECT_DOUBLE_EQ(s.crash_mtbf_s, 7200.0);
  EXPECT_DOUBLE_EQ(s.repair_mean_s, 600.0);
  EXPECT_DOUBLE_EQ(s.misprofile_prob, 0.05);
  EXPECT_DOUBLE_EQ(s.misprofile_latency_mean_s, 900.0);
  EXPECT_DOUBLE_EQ(s.forecast_error, 0.25);
  EXPECT_DOUBLE_EQ(s.dropouts_per_day, 1.5);
  EXPECT_DOUBLE_EQ(s.dropout_mean_s, 1200.0);
  EXPECT_EQ(s.max_retries, 5u);
  EXPECT_DOUBLE_EQ(s.horizon_s, 86400.0);
  EXPECT_TRUE(s.any());
}

TEST(FaultSpecParse, RejectsGarbage) {
  EXPECT_THROW(parse_fault_spec("mtbf"), InvalidArgument);
  EXPECT_THROW(parse_fault_spec("bogus=1"), InvalidArgument);
  EXPECT_THROW(parse_fault_spec("mtbf=abc"), InvalidArgument);
  EXPECT_THROW(parse_fault_spec("mtbf=nan"), InvalidArgument);
  EXPECT_THROW(parse_fault_spec("mtbf=1e3x"), InvalidArgument);
  EXPECT_THROW(parse_fault_spec("misprofile=2"), InvalidArgument);
  // Out of std::size_t's range: casting these would be undefined.
  EXPECT_THROW(parse_fault_spec("retries=1e30"), InvalidArgument);
  EXPECT_THROW(parse_fault_spec("retries=18446744073709551616"),
               InvalidArgument);
  EXPECT_EQ(parse_fault_spec("retries=18446744073709549568").max_retries,
            18446744073709549568u);  // the largest double below 2^64
}

TEST(FaultSpecParse, EmptyStringIsInert) {
  const FaultSpec s = parse_fault_spec("");
  EXPECT_FALSE(s.any());
}

// ------------------------------------------------------------ FaultPlan

FaultSpec crashy_spec() {
  FaultSpec s;
  s.crash_mtbf_s = 20.0 * 3600.0;
  s.repair_mean_s = 1800.0;
  s.horizon_s = 10.0 * 86400.0;
  return s;
}

TEST(FaultPlan_, DefaultPlanIsEmpty) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.sim_empty());
  EXPECT_EQ(plan.event_count(), 0u);
  EXPECT_TRUE(drain(plan).empty());
  EXPECT_EQ(plan.misprofile_count(), 0u);
  EXPECT_EQ(plan.procs_referenced(), 0u);
}

TEST(FaultPlan_, BuildIsDeterministic) {
  const FaultSpec spec = crashy_spec();
  const std::vector<FaultEvent> a = drain(FaultPlan::build(spec, 42, 16));
  const std::vector<FaultEvent> b = drain(FaultPlan::build(spec, 42, 16));
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].proc, b[i].proc);
  }
  // A different seed produces a genuinely different schedule.
  const std::vector<FaultEvent> c = drain(FaultPlan::build(spec, 43, 16));
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].time_s != c[i].time_s;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan_, EveryCrashHasAMatchingRepair) {
  const FaultPlan plan = FaultPlan::build(crashy_spec(), 7, 12);
  const std::vector<FaultEvent> events = drain(plan);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size(), plan.event_count());
  // Per processor: strictly increasing times, alternating crash/repair
  // starting with a crash, equal counts (no processor lost forever).
  for (std::size_t p = 0; p < 12; ++p) {
    double last = -1.0;
    bool expect_crash = true;
    std::size_t crashes = 0, repairs = 0;
    for (const FaultEvent& e : events) {
      if (e.proc != p) continue;
      EXPECT_GT(e.time_s, last);
      last = e.time_s;
      EXPECT_EQ(e.kind, expect_crash ? FaultKind::kCrash : FaultKind::kRepair);
      expect_crash = !expect_crash;
      (e.kind == FaultKind::kCrash ? crashes : repairs)++;
    }
    EXPECT_EQ(crashes, repairs) << "proc " << p;
  }
  // Merged in time order.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].time_s, events[i].time_s);
  EXPECT_LE(plan.procs_referenced(), 12u);
}

TEST(FaultPlan_, MisprofileDrawsArePerProcessorIndependent) {
  FaultSpec spec;
  spec.misprofile_prob = 0.3;
  spec.repair_mean_s = 600.0;
  // Growing the facility must not reshuffle which of the first N chips
  // are mis-profiled (unconditional per-proc draws).
  const FaultPlan small = FaultPlan::build(spec, 5, 8);
  const FaultPlan big = FaultPlan::build(spec, 5, 32);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(small.misprofiled(p), big.misprofiled(p)) << "proc " << p;
    EXPECT_EQ(small.misprofile_latency_s(p), big.misprofile_latency_s(p));
    EXPECT_EQ(small.misprofile_repair_s(p), big.misprofile_repair_s(p));
  }
  // With prob 0.3 over 32 chips, some but not all should be flagged.
  EXPECT_GT(big.misprofile_count(), 0u);
  EXPECT_LT(big.misprofile_count(), 32u);
  for (std::size_t p = 0; p < 32; ++p) {
    if (big.misprofiled(p)) {
      EXPECT_GE(big.misprofile_latency_s(p), 0.0);
      EXPECT_GT(big.misprofile_repair_s(p), 0.0);
    } else {
      EXPECT_EQ(big.misprofile_latency_s(p), -1.0);
    }
  }
}

TEST(FaultPlan_, DropoutWindowsIgnoreProcessorCount) {
  FaultSpec spec;
  spec.dropouts_per_day = 2.0;
  spec.dropout_mean_s = 900.0;
  spec.horizon_s = 5.0 * 86400.0;
  // The experiment layer builds a procs=0 plan just to place dropouts; it
  // must agree with the simulator's full plan.
  const FaultPlan zero = FaultPlan::build(spec, 11, 0);
  const FaultPlan full = FaultPlan::build(spec, 11, 64);
  ASSERT_EQ(zero.dropouts().size(), full.dropouts().size());
  ASSERT_FALSE(zero.dropouts().empty());
  for (std::size_t i = 0; i < zero.dropouts().size(); ++i) {
    EXPECT_EQ(zero.dropouts()[i].start_s, full.dropouts()[i].start_s);
    EXPECT_EQ(zero.dropouts()[i].end_s, full.dropouts()[i].end_s);
    EXPECT_LT(zero.dropouts()[i].start_s, zero.dropouts()[i].end_s);
  }
}

TEST(FaultPlan_, ApplyDropoutsZeroesExactlyTheWindows) {
  std::vector<FaultEvent> no_events;
  FaultPlan plan = FaultPlan::scripted(no_events);
  // Scripted plans carry no dropouts; exercise apply via a built plan.
  FaultSpec spec;
  spec.dropouts_per_day = 4.0;
  spec.dropout_mean_s = 1800.0;
  spec.horizon_s = 2.0 * 86400.0;
  plan = FaultPlan::build(spec, 3, 0);
  ASSERT_FALSE(plan.dropouts().empty());

  const SupplyTrace trace(Seconds{600.0}, std::vector<double>(288, 500.0));
  const SupplyTrace gapped = plan.apply_dropouts(trace);
  ASSERT_EQ(gapped.samples(), trace.samples());
  EXPECT_EQ(gapped.step().raw(), trace.step().raw());
  std::size_t zeroed = 0;
  for (std::size_t i = 0; i < gapped.samples(); ++i) {
    const double t = 600.0 * static_cast<double>(i);
    bool inside = false;
    for (const DropoutWindow& w : plan.dropouts())
      inside = inside || (t >= w.start_s && t < w.end_s);
    EXPECT_EQ(gapped.sample(i).watts(), inside ? 0.0 : 500.0) << "i=" << i;
    zeroed += inside ? 1 : 0;
  }
  EXPECT_GT(zeroed, 0u);
  EXPECT_LT(zeroed, gapped.samples());
}

TEST(FaultPlan_, ScriptedValidatesAlternation) {
  // Valid: crash then repair per proc, any submission order.
  std::vector<FaultEvent> ok = {
      {2000.0, FaultKind::kRepair, 1},
      {1000.0, FaultKind::kCrash, 1},
      {500.0, FaultKind::kCrash, 0},
  };
  const FaultPlan plan = FaultPlan::scripted(ok, /*max_retries=*/2);
  ASSERT_EQ(plan.event_count(), 3u);
  const std::vector<FaultEvent> events = drain(plan);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time_s, 500.0);
  EXPECT_EQ(events[1].time_s, 1000.0);
  EXPECT_EQ(events[2].time_s, 2000.0);
  EXPECT_EQ(plan.max_retries(), 2u);
  EXPECT_FALSE(plan.sim_empty());
  EXPECT_EQ(plan.procs_referenced(), 2u);

  // Repair before any crash.
  std::vector<FaultEvent> bad1 = {{100.0, FaultKind::kRepair, 0}};
  EXPECT_THROW(FaultPlan::scripted(bad1), InvalidArgument);
  // Double crash.
  std::vector<FaultEvent> bad2 = {{100.0, FaultKind::kCrash, 0},
                                  {200.0, FaultKind::kCrash, 0}};
  EXPECT_THROW(FaultPlan::scripted(bad2), InvalidArgument);
}

// ------------------------------------- per-processor streams and cursor

/// Specs the stream layout is checked over: crash rates from one every ten
/// minutes to one every 50 hours, mis-profiling on and off, a short and
/// the default horizon, a mis-profile-only plan with no crash stream, and
/// one whose every repair rounds onto the next crash's instant.
std::vector<FaultSpec> oracle_specs() {
  std::vector<FaultSpec> specs;
  FaultSpec s;
  // A 1e-11 s gap added to a 1e6 s repair rounds away, so each repair and
  // the following crash share an instant: the stream must put the crash
  // first, as the global (time, proc, kind) sort did.
  s.crash_mtbf_s = 1e-11;
  s.repair_mean_s = 1e6;
  specs.push_back(s);
  s = FaultSpec{};
  s.crash_mtbf_s = 600.0;
  s.repair_mean_s = 300.0;
  s.horizon_s = 86400.0;
  specs.push_back(s);
  s = FaultSpec{};
  s.crash_mtbf_s = 7200.0;
  s.misprofile_prob = 0.1;
  s.horizon_s = 10.0 * 86400.0;
  specs.push_back(s);
  s = FaultSpec{};
  s.crash_mtbf_s = 180000.0;  // the default 60-day horizon
  specs.push_back(s);
  s = FaultSpec{};
  s.crash_mtbf_s = 180000.0;
  s.misprofile_prob = 0.02;
  specs.push_back(s);
  s = FaultSpec{};
  s.misprofile_prob = 0.3;
  specs.push_back(s);
  return specs;
}

TEST(FaultStreams, BuildDrainsInTheGlobalSortOrder) {
  const std::vector<FaultSpec> specs = oracle_specs();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    for (const std::uint64_t seed : {1u, 7u, 7919u}) {
      for (const std::size_t procs : {0u, 1u, 7u, 64u, 1024u}) {
        SCOPED_TRACE("spec " + std::to_string(k) + " seed " +
                     std::to_string(seed) + " procs " + std::to_string(procs));
        const FaultPlan plan = FaultPlan::build(specs[k], seed, procs);
        const std::vector<FaultEvent> expected =
            reference::build_events(specs[k], seed, procs);
        EXPECT_EQ(plan.event_count(), expected.size());
        expect_same_events(expected, drain(plan));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(FaultStreams, EverySliceDrainsLikeTheSortedSlice) {
  const std::vector<FaultSpec> specs = oracle_specs();
  constexpr std::size_t kProcs = 64;
  // An even partition (4 x 16), an uneven one, and slices that run past
  // the plan's processors or start beyond them.
  const std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
      partitions = {{{0, 16}, {16, 16}, {32, 16}, {48, 16}},
                    {{0, 5}, {5, 1}, {6, 27}, {33, 31}},
                    {{0, 64}, {60, 10}, {64, 8}, {100, 4}, {3, 0}}};
  for (std::size_t k = 0; k < specs.size(); ++k) {
    for (const std::uint64_t seed : {3u, 11u}) {
      const FaultPlan plan = FaultPlan::build(specs[k], seed, kProcs);
      const std::vector<FaultEvent> global =
          reference::build_events(specs[k], seed, kProcs);
      for (const auto& partition : partitions) {
        for (const auto& [lo, count] : partition) {
          SCOPED_TRACE("spec " + std::to_string(k) + " seed " +
                       std::to_string(seed) + " slice " + std::to_string(lo) +
                       "+" + std::to_string(count));
          const FaultPlan slice = plan.slice(lo, count);
          const std::vector<FaultEvent> expected =
              reference::slice_events(global, lo, count);
          EXPECT_EQ(slice.event_count(), expected.size());
          expect_same_events(expected, drain(slice));
          // A slice of a slice is the slice of the plan.
          const FaultPlan inner = slice.slice(1, count / 2);
          expect_same_events(
              reference::slice_events(expected, 1, count / 2), drain(inner));
          for (std::size_t p = 0; p < count; ++p) {
            EXPECT_EQ(slice.misprofiled(p), plan.misprofiled(lo + p));
            EXPECT_EQ(slice.misprofile_latency_s(p),
                      plan.misprofile_latency_s(lo + p));
          }
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(FaultStreams, ScriptedTiesKeepTheStableTimeProcOrder) {
  // Equal instants on different processors, submitted out of processor
  // order, and one processor's crash and repair at the same instant.
  const std::vector<FaultEvent> input = {
      {100.0, FaultKind::kCrash, 5},  {100.0, FaultKind::kCrash, 2},
      {100.0, FaultKind::kCrash, 0},  {250.0, FaultKind::kRepair, 2},
      {100.0, FaultKind::kRepair, 5}, {250.0, FaultKind::kRepair, 0},
      {250.0, FaultKind::kCrash, 3},  {250.0, FaultKind::kRepair, 3},
      {400.0, FaultKind::kCrash, 5},  {250.0, FaultKind::kCrash, 2},
      {900.0, FaultKind::kRepair, 5}, {900.0, FaultKind::kRepair, 2},
  };
  const FaultPlan plan = FaultPlan::scripted(input);
  const std::vector<FaultEvent> expected = reference::scripted_events(input);
  EXPECT_EQ(plan.event_count(), expected.size());
  expect_same_events(expected, drain(plan));
  EXPECT_EQ(plan.procs_referenced(), 6u);
  const std::vector<std::pair<std::size_t, std::size_t>> slices = {
      {0, 3}, {3, 3}, {2, 2}, {5, 1}, {0, 6}};
  for (const auto& [lo, count] : slices) {
    SCOPED_TRACE("slice " + std::to_string(lo) + "+" + std::to_string(count));
    expect_same_events(reference::slice_events(expected, lo, count),
                       drain(plan.slice(lo, count)));
  }
  // A repair listed before its same-instant crash is a repair of a healthy
  // processor, as it was under the global stable sort.
  EXPECT_THROW(FaultPlan::scripted({{100.0, FaultKind::kRepair, 1},
                                    {100.0, FaultKind::kCrash, 1}}),
               InvalidArgument);
}

TEST(FaultStreams, RandomAccessWithRewindsEqualsTheDrain) {
  FaultSpec spec;
  spec.crash_mtbf_s = 3600.0;
  spec.repair_mean_s = 900.0;
  spec.horizon_s = 2.0 * 86400.0;
  const FaultPlan plan = FaultPlan::build(spec, 5, 48);
  const std::vector<FaultEvent> sequential = drain(plan);
  ASSERT_GT(sequential.size(), 1000u);

  std::vector<std::size_t> order(sequential.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(17);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  FaultCursor cursor(plan);
  ASSERT_EQ(cursor.size(), sequential.size());
  // Shuffled reads (about half of them rewind), then a repeat of the same
  // index, then a walk back down to 0.
  for (std::size_t k = 0; k < 400; ++k) {
    const std::size_t i = order[k];
    expect_same_events({sequential[i]}, {cursor.event(i)});
    expect_same_events({sequential[i]}, {cursor.event(i)});
  }
  for (std::size_t i = 40; i-- > 0;)
    expect_same_events({sequential[i]}, {cursor.event(i)});
  expect_same_events({sequential.back()},
                     {cursor.event(sequential.size() - 1)});
}

// ------------------------------------------------------ NoisyForecaster

class FlatForecaster final : public WindForecaster {
 public:
  Watts forecast_mean(Seconds, Seconds) const override {
    return Watts{1000.0};
  }
};

TEST(NoisyForecaster_, BoundedAndStateless) {
  const FlatForecaster base;
  const NoisyForecaster noisy(&base, 0.3, 99);
  double lo = 2.0, hi = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Seconds now{60.0 * i};
    const Watts w = noisy.forecast_mean(now, Seconds{3600.0});
    const double factor = w.watts() / 1000.0;
    EXPECT_GE(factor, 0.7 - 1e-12);
    EXPECT_LE(factor, 1.3 + 1e-12);
    lo = std::min(lo, factor);
    hi = std::max(hi, factor);
    // Stateless: asking again (out of order, interleaved) changes nothing.
    EXPECT_EQ(noisy.forecast_mean(now, Seconds{3600.0}).watts(), w.watts());
  }
  // The noise actually moves (spread over the 200 queries).
  EXPECT_LT(lo, 0.95);
  EXPECT_GT(hi, 1.05);
  // Different horizon => independent draw.
  const double a = noisy.forecast_mean(Seconds{0.0}, Seconds{3600.0}).watts();
  const double b = noisy.forecast_mean(Seconds{0.0}, Seconds{7200.0}).watts();
  EXPECT_NE(a, b);
}

TEST(NoisyForecaster_, ZeroErrorPassesThrough) {
  const FlatForecaster base;
  const NoisyForecaster noisy(&base, 0.0, 1);
  EXPECT_EQ(noisy.forecast_mean(Seconds{10.0}, Seconds{100.0}).watts(),
            1000.0);
}

// ------------------------------------------------------ sim integration

const HybridSupply& utility_only() {
  static const HybridSupply supply;
  return supply;
}

struct FaultWorld {
  Cluster cluster;
  ProfileDb db;
  explicit FaultWorld(std::size_t n = 8, std::uint64_t seed = 9)
      : cluster(build_cluster([&] {
          ClusterConfig cfg;
          cfg.num_processors = n;
          cfg.seed = seed;
          return cfg;
        }())),
        db(n) {
    const Scanner scanner(&cluster, ScanConfig{});
    Rng rng(seed + 1);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    scanner.scan_domain(all, 0.0, rng, db);
  }

  static std::vector<Task> one_task(double runtime_s, std::size_t cpus,
                                    double slack = 20.0) {
    Task t;
    t.id = 1;
    t.submit_s = 0.0;
    t.cpus = cpus;
    t.runtime_s = runtime_s;
    t.deadline_s = runtime_s * slack;
    return {t};
  }

  SimResult run(const std::shared_ptr<const FaultPlan>& plan,
                std::vector<Task> tasks, Scheme scheme = Scheme::kScanEffi) {
    SimConfig cfg;
    cfg.record_timeline = true;
    cfg.fault_plan = plan;
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &utility_only(), cfg);
    return sim.run(std::move(tasks));
  }
};

std::size_t count_kind(const SimResult& r, TimelineKind kind) {
  std::size_t n = 0;
  for (const TimelineEvent& e : r.timeline) n += e.kind == kind ? 1 : 0;
  return n;
}

TEST(FaultSim, CrashKillsRunningTaskAndItRecovers) {
  FaultWorld w;
  // The lone 1-wide task starts at t=0 on some processor; crash every
  // processor at t=100 so it is certainly hit, repair at t=400.
  std::vector<FaultEvent> events;
  for (std::size_t p = 0; p < 8; ++p) {
    events.push_back({100.0, FaultKind::kCrash, p});
    events.push_back({400.0, FaultKind::kRepair, p});
  }
  const auto plan =
      std::make_shared<const FaultPlan>(FaultPlan::scripted(events));
  const SimResult r = w.run(plan, FaultWorld::one_task(1000.0, 1));

  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.faults.tasks_failed, 0u);
  EXPECT_EQ(r.faults.cpu_failures, 8u);
  EXPECT_EQ(r.faults.cpu_repairs, 8u);
  EXPECT_EQ(r.faults.task_requeues, 1u);
  // 1 proc x 100 s of work discarded.
  EXPECT_NEAR(r.faults.lost_cpu_seconds, 100.0, 1e-9);
  // The task restarted *from scratch* when the cluster repaired at t=400:
  // runtime_s is seconds-at-Fmax, so the re-execution takes >= 1000 s on
  // top of the outage. (This caught a real bug once: resetting the task's
  // event version on restart resurrected the cancelled completion event
  // from the first stint, finishing the task without re-running it.)
  std::size_t starts = 0;
  for (const TimelineEvent& e : r.timeline)
    starts += e.kind == TimelineKind::kStart ? 1 : 0;
  EXPECT_EQ(starts, 2u);
  EXPECT_GE(r.makespan.seconds(), 400.0 + 1000.0 - 1e-9);
  EXPECT_EQ(count_kind(r, TimelineKind::kCpuFail), 8u);
  EXPECT_EQ(count_kind(r, TimelineKind::kCpuRepair), 8u);
  EXPECT_EQ(count_kind(r, TimelineKind::kTaskRequeue), 1u);
  EXPECT_EQ(count_kind(r, TimelineKind::kTaskAbandon), 0u);
}

TEST(FaultSim, RetryBudgetExhaustionAbandonsTask) {
  FaultWorld w;
  // Crash everything shortly after each (re)start, more times than the
  // retry budget allows, and never repair until far too late.
  std::vector<FaultEvent> events;
  for (int round = 0; round < 3; ++round) {
    const double crash_t = 50.0 + 1000.0 * round;
    const double repair_t = 900.0 + 1000.0 * round;
    for (std::size_t p = 0; p < 8; ++p) {
      events.push_back({crash_t, FaultKind::kCrash, p});
      events.push_back({repair_t, FaultKind::kRepair, p});
    }
  }
  const auto plan = std::make_shared<const FaultPlan>(
      FaultPlan::scripted(events, /*max_retries=*/2));
  const SimResult r = w.run(plan, FaultWorld::one_task(2000.0, 1));

  // Killed at ~50s, ~1050s, ~2050s; retries 1 and 2 allowed, third kill
  // exceeds the budget => abandoned, never silently lost.
  EXPECT_EQ(r.tasks_completed, 0u);
  EXPECT_EQ(r.faults.tasks_failed, 1u);
  EXPECT_EQ(r.faults.task_requeues, 2u);
  EXPECT_EQ(count_kind(r, TimelineKind::kTaskAbandon), 1u);
  EXPECT_EQ(r.tasks_completed + r.faults.tasks_failed, 1u);
}

// A processor that fails while a profiling scan holds it stays out of
// service when the scan ends, until its repair. An end of scan that put it
// back in the idle pool would start the 8-wide task at its arrival on a
// failed processor; audit builds refuse that idle pool first, at the epoch
// between the scan's end and the arrival.
TEST(FaultSim, CrashDuringScanKeepsTheProcessorOutUntilRepair) {
  FaultWorld w;
  SimConfig cfg;
  cfg.record_timeline = true;
  cfg.fault_plan = std::make_shared<const FaultPlan>(FaultPlan::scripted(
      {{200.0, FaultKind::kCrash, 2}, {2000.0, FaultKind::kRepair, 2}}));
  ProfilingWindow scan;
  scan.start_s = 100.0;
  scan.duration_s = 500.0;
  scan.proc_ids = {2, 3};
  Task t;
  t.id = 1;
  t.submit_s = 1300.0;
  t.cpus = 8;
  t.runtime_s = 1000.0;
  t.deadline_s = 100000.0;
  // Ran starts a task as soon as enough processors are idle.
  Knowledge knowledge(&w.cluster, scheme_knowledge(Scheme::kScanRan), &w.db);
  DatacenterSim sim(&knowledge, scheme_rule(Scheme::kScanRan),
                    &utility_only(), cfg);
  const SimResult r = sim.run({t}, {scan});
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.profiling_procs_scanned, 2u);
  EXPECT_EQ(r.faults.cpu_failures, 1u);
  EXPECT_EQ(count_kind(r, TimelineKind::kStart), 1u);
  for (const TimelineEvent& e : r.timeline) {
    if (e.kind == TimelineKind::kStart) {
      EXPECT_EQ(e.time_s, 2000.0);
    }
  }
}

TEST(FaultSim, IdleCrashDoesNotTouchTasks) {
  FaultWorld w;
  // Crash a processor long after the single short task finished.
  std::vector<FaultEvent> events = {{50000.0, FaultKind::kCrash, 3},
                                    {50600.0, FaultKind::kRepair, 3}};
  const auto plan =
      std::make_shared<const FaultPlan>(FaultPlan::scripted(events));
  const SimResult r = w.run(plan, FaultWorld::one_task(300.0, 1));
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.faults.task_requeues, 0u);
  EXPECT_EQ(r.faults.lost_cpu_seconds, 0.0);
  // The crash itself may or may not be processed depending on whether the
  // event queue drains first; either way nothing was lost.
  EXPECT_LE(r.faults.cpu_failures, 1u);
}

TEST(FaultSim, MisprofileHitsScanButNotBin) {
  FaultSpec spec;
  spec.misprofile_prob = 1.0;  // every scanned chip is a landmine
  spec.misprofile_latency_mean_s = 200.0;
  spec.repair_mean_s = 600.0;
  SimConfig cfg;
  cfg.record_timeline = true;
  cfg.faults = spec;
  cfg.fault_seed = 21;

  FaultWorld w;
  const auto run_one = [&](Scheme scheme) {
    Knowledge knowledge(&w.cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &w.db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &utility_only(), cfg);
    std::vector<Task> tasks;
    for (int i = 0; i < 6; ++i) {
      Task t;
      t.id = i + 1;
      t.submit_s = 0.0;
      t.cpus = 1;
      t.runtime_s = 5000.0;
      t.deadline_s = 200000.0;
      tasks.push_back(t);
    }
    return sim.run(std::move(tasks));
  };

  const SimResult scan = run_one(Scheme::kScanEffi);
  EXPECT_GT(scan.faults.misprofile_failures, 0u);
  EXPECT_EQ(scan.tasks_completed + scan.faults.tasks_failed, 6u);
  // Every fail-stop eventually repairs (counters may trail by the final
  // repair if the sim drains first, but failures never exceed repairs + n).
  EXPECT_LE(scan.faults.cpu_repairs, scan.faults.cpu_failures);

  // A Bin view never runs chips at the scanned Min-Vdd point, so the same
  // spec injects no mis-profile fail-stops there.
  const SimResult bin = run_one(Scheme::kBinEffi);
  EXPECT_EQ(bin.faults.misprofile_failures, 0u);
  EXPECT_EQ(bin.tasks_completed, 6u);
}

TEST(FaultSim, SeededRunsReplayBitIdentically) {
  FaultWorld w;
  FaultSpec spec;
  spec.crash_mtbf_s = 4.0 * 3600.0;
  spec.repair_mean_s = 600.0;
  spec.misprofile_prob = 0.25;
  spec.repair_mean_s = 600.0;

  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    Task t;
    t.id = i + 1;
    t.submit_s = 300.0 * i;
    t.cpus = 1 + static_cast<std::size_t>(i % 3);
    t.runtime_s = 800.0 + 120.0 * (i % 5);
    t.deadline_s = t.submit_s + 30.0 * t.runtime_s;
    tasks.push_back(t);
  }

  const auto run_once = [&] {
    SimConfig cfg;
    cfg.record_timeline = true;
    cfg.record_trace = true;
    cfg.faults = spec;
    cfg.fault_seed = 77;
    Knowledge knowledge(&w.cluster, scheme_knowledge(Scheme::kScanFair),
                        &w.db);
    DatacenterSim sim(&knowledge, scheme_rule(Scheme::kScanFair), &utility_only(),
                      cfg);
    return sim.run(tasks);
  };

  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.cost.raw(), b.cost.raw());
  EXPECT_EQ(a.energy.utility.joules(), b.energy.utility.joules());
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.faults.cpu_failures, b.faults.cpu_failures);
  EXPECT_EQ(a.faults.misprofile_failures, b.faults.misprofile_failures);
  EXPECT_EQ(a.faults.task_requeues, b.faults.task_requeues);
  EXPECT_EQ(a.faults.lost_cpu_seconds, b.faults.lost_cpu_seconds);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time_s, b.timeline[i].time_s);
    EXPECT_EQ(a.timeline[i].kind, b.timeline[i].kind);
    EXPECT_EQ(a.timeline[i].task_id, b.timeline[i].task_id);
  }
}

TEST(FaultSim, CpuFaultsRunOnConstKnowledge) {
  // The simulator's failed flags keep a down processor out of the idle
  // pool; the view it schedules against is never written.
  FaultWorld w;
  std::vector<FaultEvent> events = {{100.0, FaultKind::kCrash, 0},
                                    {200.0, FaultKind::kRepair, 0}};
  SimConfig cfg;
  cfg.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan::scripted(events));
  const Knowledge frozen(&w.cluster, KnowledgeSource::kBin);
  DatacenterSim sim(&frozen, scheme_rule(Scheme::kBinEffi), &utility_only(), cfg);
  const SimResult r = sim.run(FaultWorld::one_task(1000.0, 1));
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.faults.cpu_failures, 1u);
  EXPECT_EQ(r.faults.cpu_repairs, 1u);
}

TEST(FaultSim, PlanWiderThanClusterIsRejected) {
  FaultWorld w;  // 8 processors
  std::vector<FaultEvent> events = {{100.0, FaultKind::kCrash, 12},
                                    {200.0, FaultKind::kRepair, 12}};
  const auto plan =
      std::make_shared<const FaultPlan>(FaultPlan::scripted(events));
  EXPECT_THROW(w.run(plan, FaultWorld::one_task(1000.0, 1)),
               InvalidArgument);
}

}  // namespace
}  // namespace iscope
