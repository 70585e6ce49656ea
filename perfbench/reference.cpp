#include "reference.hpp"

#include <time.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

constexpr std::uint32_t kEvents = 1u << 15;  // pending events: 512 KiB heap
constexpr std::size_t kSlots = 1u << 17;     // state table: 1 MiB
constexpr std::uint32_t kPopsPerUnit = 12'000;

/// Keeps the units' results observable, so the compiler cannot drop them.
volatile double g_sink = 0.0;

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ReferenceKernel::Lane::Lane(std::uint64_t seed) : state(kSlots, 0.0), rng(seed) {
  heap.reserve(kEvents);
  for (std::uint32_t id = 0; id < kEvents; ++id) heap.emplace_back(uniform(), id);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
}

double ReferenceKernel::Lane::uniform() {
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return static_cast<double>(rng >> 11) * 0x1.0p-53;
}

void ReferenceKernel::Lane::run(std::size_t units) {
  for (std::size_t u = 0; u < units; ++u) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    for (std::uint32_t k = 0; k < kPopsPerUnit; ++k) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [t, id] = heap.back();
      heap.pop_back();
      // Each event owns a slot far from its neighbours'; the slot's value
      // stays near 2 (mean of 0.75 s + U(0,1)), so the branch below goes
      // either way, as a scheduler's decisions do.
      double& s = state[(id * 2654435761u) & (kSlots - 1)];
      s = 0.75 * s + uniform();
      sink += s;
      heap.emplace_back(t + uniform() * (s > 2.0 ? 2.0 : 1.0), id);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    unit_cpu_s.add(thread_cpu_s() - cpu0);
    unit_s.add(seconds_since(t0));
  }
}

ReferenceKernel::ReferenceKernel(std::size_t lanes) {
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(0x9E3779B97F4A7C15ull + i);
}

void ReferenceKernel::sample(std::size_t units) {
  // Lane 0 runs here; the others on threads of their own, joined before
  // anything is read.
  std::vector<std::exception_ptr> errors(lanes_.size());
  auto run_lane = [&](std::size_t i) {
    try {
      lanes_[i].run(units);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::jthread> threads;
  for (std::size_t i = 1; i < lanes_.size(); ++i) threads.emplace_back(run_lane, i);
  run_lane(0);
  for (std::jthread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (Lane& lane : lanes_) {
    unit_s_.add_all(lane.unit_s);
    unit_cpu_s_.add_all(lane.unit_cpu_s);
    lane.unit_s = Samples{};
    lane.unit_cpu_s = Samples{};
    g_sink = g_sink + lane.sink;
  }
}

}  // namespace perfbench
