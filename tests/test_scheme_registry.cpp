// The scheme table (sched/scheme.hpp): eleven fixed rows -- the paper's
// five, ScanTherm, and the five *Sleep variants -- at fixed ids, and the
// scheme's thermal and sleep requests applied wherever a Scheme meets a
// SimConfig. The service host and the IScope facade must run ScanTherm
// and a *Sleep scheme bit-identically to run_scheme() on the same inputs.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/iscope.hpp"
#include "service/server.hpp"
#include "sim/simulator.hpp"
#include "sim_identity.hpp"

namespace iscope {
namespace {

struct ExpectedRow {
  Scheme id;
  const char* name;
  KnowledgeSource knowledge;
  PlacementRule rule;
  bool thermal;
  bool sleep;
};

// Names and ids are load-bearing: CLI flags, sweep configs and the golden
// digest rows reference them.
constexpr ExpectedRow kExpected[] = {
    {Scheme::kBinRan, "BinRan", KnowledgeSource::kBin, PlacementRule::kRandom,
     false, false},
    {Scheme::kBinEffi, "BinEffi", KnowledgeSource::kBin,
     PlacementRule::kEfficiency, false, false},
    {Scheme::kScanRan, "ScanRan", KnowledgeSource::kScan,
     PlacementRule::kRandom, false, false},
    {Scheme::kScanEffi, "ScanEffi", KnowledgeSource::kScan,
     PlacementRule::kEfficiency, false, false},
    {Scheme::kScanFair, "ScanFair", KnowledgeSource::kScan,
     PlacementRule::kFair, false, false},
    {Scheme::kScanTherm, "ScanTherm", KnowledgeSource::kScan,
     PlacementRule::kTherm, true, false},
    {Scheme::kBinRanSleep, "BinRanSleep", KnowledgeSource::kBin,
     PlacementRule::kRandom, false, true},
    {Scheme::kBinEffiSleep, "BinEffiSleep", KnowledgeSource::kBin,
     PlacementRule::kEfficiency, false, true},
    {Scheme::kScanRanSleep, "ScanRanSleep", KnowledgeSource::kScan,
     PlacementRule::kRandom, false, true},
    {Scheme::kScanEffiSleep, "ScanEffiSleep", KnowledgeSource::kScan,
     PlacementRule::kEfficiency, false, true},
    {Scheme::kScanFairSleep, "ScanFairSleep", KnowledgeSource::kScan,
     PlacementRule::kFair, false, true},
};

TEST(SchemeTable, NamesRoundTripAtFixedIds) {
  ASSERT_EQ(kSchemeTable.size(), std::size(kExpected));
  for (std::size_t i = 0; i < std::size(kExpected); ++i) {
    const ExpectedRow& row = kExpected[i];
    SCOPED_TRACE(row.name);
    EXPECT_EQ(static_cast<std::size_t>(row.id), i);
    EXPECT_STREQ(scheme_name(row.id), row.name);
    EXPECT_EQ(scheme_from_name(row.name), row.id);
  }
  for (std::size_t i = 0; i < kAllSchemes.size(); ++i)
    EXPECT_EQ(kAllSchemes[i], kExpected[i].id);
}

TEST(SchemeTable, RowsCarryKnowledgeRuleAndRequests) {
  for (const ExpectedRow& row : kExpected) {
    SCOPED_TRACE(row.name);
    const SchemeInfo& info = scheme_info(row.id);
    EXPECT_EQ(scheme_knowledge(row.id), row.knowledge);
    EXPECT_EQ(scheme_rule(row.id), row.rule);
    EXPECT_EQ(scheme_uses_scan(row.id),
              row.knowledge == KnowledgeSource::kScan);
    EXPECT_EQ(info.thermal, row.thermal);
    EXPECT_EQ(info.sleep, row.sleep);
  }
}

TEST(SchemeTable, UnknownLookupsThrow) {
  EXPECT_THROW(scheme_from_name("NoSuchScheme"), InvalidArgument);
  EXPECT_THROW(scheme_from_name("scanfair"), InvalidArgument);  // exact
  EXPECT_THROW(scheme_from_name(""), InvalidArgument);
  EXPECT_THROW(scheme_info(static_cast<Scheme>(250)), InvalidArgument);
  EXPECT_THROW(scheme_name(static_cast<Scheme>(250)), InvalidArgument);
  EXPECT_THROW(scheme_rule(static_cast<Scheme>(kSchemeTable.size())),
               InvalidArgument);
}

TEST(SchemeRequests, ApplyToTheConfig) {
  const SimConfig plain;
  for (const Scheme s : kAllSchemes) {
    const SimConfig c = apply_scheme_requests(s, plain);
    EXPECT_FALSE(c.thermal.enabled) << scheme_name(s);
    EXPECT_EQ(c.sleep.policy, SleepPolicy::kNone) << scheme_name(s);
  }
  const SimConfig therm = apply_scheme_requests(Scheme::kScanTherm, plain);
  EXPECT_TRUE(therm.thermal.enabled);
  EXPECT_EQ(therm.sleep.policy, SleepPolicy::kNone);
  const SimConfig slept = apply_scheme_requests(Scheme::kBinRanSleep, plain);
  EXPECT_FALSE(slept.thermal.enabled);
  EXPECT_EQ(slept.sleep.policy, SleepPolicy::kTimeout);
  // An explicit policy wins over the scheme's default.
  SimConfig immediate;
  immediate.sleep.policy = SleepPolicy::kImmediate;
  EXPECT_EQ(apply_scheme_requests(Scheme::kScanFairSleep, immediate)
                .sleep.policy,
            SleepPolicy::kImmediate);
}

// ------------------------------------- every path runs the schemes alike

/// ScanTherm requests the thermal model, ScanFairSleep the sleep governor;
/// each path below must show the request took effect and match run_scheme.
class ExtendedSchemePaths : public ::testing::TestWithParam<Scheme> {
 protected:
  static void expect_requests_took_effect(const SimResult& r) {
    if (GetParam() == Scheme::kScanTherm) {
      EXPECT_GT(r.cooling_energy.joules(), 0.0);
    } else {
      EXPECT_GT(r.sleep_enters, 0u);
    }
  }
};

TEST_P(ExtendedSchemePaths, ServiceArgsAcceptTheName) {
  const service::ServiceOptions opt = service::parse_service_args(
      {"--socket", "/tmp/iscope_scheme.sock", "--scheme",
       scheme_name(GetParam())});
  EXPECT_EQ(opt.scheme, GetParam());
}

TEST_P(ExtendedSchemePaths, SimHostMatchesRunScheme) {
  service::ServiceOptions opt;
  opt.scheme = GetParam();
  opt.scale = 0.05;
  opt.seed = 31;
  service::SimHost host(opt);
  const ExperimentContext& ctx = host.context();
  std::vector<Task> tasks = ctx.make_tasks(0.3);
  sort_by_submit(tasks);

  // The daemon's path: an empty prepared run, streamed admission, drain.
  DatacenterSim& sim = host.sim();
  sim.prepare({}, {});
  for (const Task& t : tasks) sim.admit(t);
  sim.advance_before(std::numeric_limits<double>::infinity());
  const SimResult streamed = sim.finish();

  const SimResult batch =
      run_scheme(ctx.cluster(), GetParam(), &ctx.profile_db(),
                 ctx.make_supply(true), tasks, ctx.config().sim);
  expect_requests_took_effect(batch);
  EXPECT_EQ(result_digest(streamed), result_digest(batch));
}

TEST_P(ExtendedSchemePaths, IScopeScheduleMatchesRunScheme) {
  IScope::Options opt;
  opt.cluster.num_processors = 24;
  opt.cluster.seed = 7;
  opt.sim.record_timeline = true;
  IScope iscope(opt);
  iscope.scan_all(0.0);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < 30; ++i) {
    Task t;
    t.id = static_cast<std::int64_t>(i);
    t.submit_s = static_cast<double>(i) * 700.0;
    t.cpus = 2 + i % 5;
    t.runtime_s = 900.0;
    t.gamma = 0.8;
    t.deadline_s = t.submit_s + 10.0 * t.runtime_s;
    tasks.push_back(t);
  }
  const HybridSupply supply;

  const SimResult batch = run_scheme(iscope.cluster(), GetParam(),
                                     &iscope.profiles(), supply, tasks,
                                     opt.sim);
  expect_requests_took_effect(batch);
  EXPECT_EQ(result_digest(iscope.schedule(GetParam(), tasks, supply)),
            result_digest(batch));
  EXPECT_EQ(result_digest(iscope.schedule_with_profiling(
                GetParam(), tasks, supply, ProfilingPlan{})),
            result_digest(batch));
}

INSTANTIATE_TEST_SUITE_P(Extended, ExtendedSchemePaths,
                         ::testing::Values(Scheme::kScanTherm,
                                           Scheme::kScanFairSleep),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return std::string(scheme_name(info.param));
                         });

}  // namespace
}  // namespace iscope
