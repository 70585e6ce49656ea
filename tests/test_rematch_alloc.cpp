// Zero-allocation guarantee for the rematch and scheduling-pass hot paths
// (DESIGN.md Sec. 9).
//
// Global operator new/delete are overridden to count heap allocations, and
// DatacenterSim::alloc_probe gates the counter so only allocations made
// *inside* rematch() and scheduling passes are charged (less each task
// start, which allocates the task's processor list; the start's own
// rematch nests inside the pass and is charged). The simulator is run
// twice on the same instance: the first run grows every reusable buffer
// (event heap, SoA matcher columns with the matcher's down-step heap, the
// waiting queue's slots and min-tree) to its high-water mark, and the
// second run must then perform zero heap allocations across all of its
// rematches and passes -- including the very first.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "profiling/scanner.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// GCC's -Wmismatched-new-delete pairs the malloc inlined from the
// replaced operator new with the free inlined from the replaced deletes
// and flags a mismatch at callers; the replacement set is
// self-consistent, so the warning is a false positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace iscope {
namespace {

bool g_armed = false;
int g_depth = 0;  // the probe's stretches nest

void hot_path_probe(bool entering) {
  if (!g_armed) return;
  g_depth += entering ? 1 : -1;
  g_counting.store(g_depth > 0, std::memory_order_relaxed);
}

std::vector<Task> make_tasks(std::size_t count, std::size_t max_width,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(count);
  double submit = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    submit += rng.uniform(0.0, 300.0);
    Task t;
    t.id = static_cast<std::int64_t>(i + 1);
    t.submit_s = submit;
    t.cpus = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_width)));
    t.runtime_s = rng.uniform(100.0, 1500.0);
    t.gamma = rng.uniform(0.3, 1.0);
    t.deadline_s = t.submit_s + t.runtime_s * rng.uniform(1.5, 8.0);
    tasks.push_back(t);
  }
  return tasks;
}

/// Run `rule` twice on one simulator over a 16-CPU scanned cluster with a
/// wind trace that crosses demand; return the allocations the second run
/// made inside the probe's stretches.
std::size_t second_run_allocs(PlacementRule rule, std::size_t task_count,
                              std::size_t max_width) {
  const std::size_t n = 16;
  ClusterConfig ccfg;
  ccfg.num_processors = n;
  ccfg.seed = 5;
  const Cluster cluster = build_cluster(ccfg);
  ProfileDb db(n);
  {
    const Scanner scanner(&cluster, ScanConfig{});
    Rng rng(9);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    scanner.scan_domain(all, 0.0, rng, db);
  }
  const auto tasks = make_tasks(task_count, max_width, 77);

  // Wind level that crosses demand so phase-2 down-stepping runs too, and
  // Fair and Therm both defer and start.
  Rng wind_rng(13);
  std::vector<double> watts;
  for (std::size_t i = 0; i < 200; ++i)
    watts.push_back(wind_rng.uniform(0.0, 400.0));
  const HybridSupply supply(SupplyTrace(Seconds{600.0}, std::move(watts)));

  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/1.0, /*power_kw=*/0.5);
  const Knowledge knowledge(&cluster, scheme_knowledge(Scheme::kScanEffi),
                            &db);
  DatacenterSim sim(&knowledge, rule, &supply, cfg);

  // Warm-up run: every reusable buffer reaches its high-water mark.
  const SimResult warm = sim.run(tasks);
  EXPECT_EQ(warm.tasks_completed, tasks.size());
  EXPECT_GT(warm.dvfs_rematch_count, 0u);

  // Counted run: no rematch or pass may touch the heap.
  DatacenterSim::alloc_probe = &hot_path_probe;
  g_armed = true;
  g_depth = 0;
  g_allocs.store(0, std::memory_order_relaxed);
  const SimResult counted = sim.run(tasks);
  g_armed = false;
  g_counting.store(false, std::memory_order_relaxed);
  DatacenterSim::alloc_probe = nullptr;

  EXPECT_EQ(g_depth, 0);
  EXPECT_EQ(counted.tasks_completed, tasks.size());
  EXPECT_EQ(counted.dvfs_rematch_count, warm.dvfs_rematch_count);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(RematchAlloc, SteadyStateRematchIsAllocationFree) {
  EXPECT_EQ(second_run_allocs(PlacementRule::kEfficiency, 50, 8), 0u)
      << "heap allocations inside rematch() or a pass on a warmed simulator";
}

TEST(PassAlloc, SteadyStatePassesAreAllocationFree) {
  // Every rule's pass over a queue up to a few hundred tasks deep: the
  // waiting queue grows, compacts and shrinks its tree, and Ran's draws
  // permute their override table, all within the first run's capacities.
  for (const PlacementRule rule :
       {PlacementRule::kRandom, PlacementRule::kEfficiency,
        PlacementRule::kFair, PlacementRule::kTherm}) {
    SCOPED_TRACE(placement_rule_name(rule));
    EXPECT_EQ(second_run_allocs(rule, 400, 12), 0u)
        << "heap allocations inside a pass on a warmed simulator";
  }
}

}  // namespace
}  // namespace iscope
