#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace iscope {
namespace {

using Kind = EventDesc::Kind;

/// A tagged event in the common tie class (every kind but arrival and
/// thermal shares it); the tests identify events by their `a` payload.
EventDesc ev(std::uint64_t id) { return EventDesc{Kind::kPass, id}; }

/// Dispatcher that records each popped event's tag.
struct Recorder {
  std::vector<std::uint64_t> fired;
  auto dispatch() {
    return [this](const EventDesc& e) { fired.push_back(e.a); };
  }
};

/// Dispatcher that ignores events (budget and clock tests).
constexpr auto kIgnore = [](const EventDesc&) {};

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  Recorder r;
  q.schedule(3.0, ev(3));
  q.schedule(1.0, ev(1));
  q.schedule(2.0, ev(2));
  q.run(r.dispatch());
  EXPECT_EQ(r.fired, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesRunInInsertionOrder) {
  EventQueue q;
  Recorder r;
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(5.0, ev(i));
  q.run(r.dispatch());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(r.fired[i], i);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  int count = 0;
  q.schedule(0.0, ev(0));
  q.run([&](const EventDesc&) {
    ++count;
    if (count < 5) q.schedule(q.now() + 1.0, ev(0));
  });
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.schedule(10.0, ev(0));
  q.step(kIgnore);
  EXPECT_THROW(q.schedule(5.0, ev(1)), InvalidArgument);
  // Same-time scheduling is fine.
  EXPECT_NO_THROW(q.schedule(10.0, ev(2)));
}

TEST(EventQueue, RunRespectsBudget) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule(i, ev(0));
  EXPECT_EQ(q.run(kIgnore, 4), 4u);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) q.schedule(t, ev(0));
  const auto record_now = [&](const EventDesc&) { fired.push_back(q.now()); };
  EXPECT_EQ(q.run_until(2.5, record_now), 2u);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);  // clock advanced to the boundary
  EXPECT_EQ(q.pending(), 2u);
}

TEST(EventQueue, RunUntilOnEmptyAdvancesClock) {
  EventQueue q;
  q.run_until(100.0, kIgnore);
  EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

TEST(EventQueue, RunUntilBudgetExhaustionHoldsClockAtLastEvent) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) q.schedule(t, ev(0));
  const auto record_now = [&](const EventDesc&) { fired.push_back(q.now()); };
  // The budget stops the slice with events <= until_s still pending: the
  // clock must NOT jump to the boundary, or those events would sit behind
  // it and the next step() would run time backwards.
  EXPECT_EQ(q.run_until(10.0, record_now, 2), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 2u);
  // Resuming the slice completes it and only then parks at the boundary.
  EXPECT_EQ(q.run_until(10.0, record_now, SIZE_MAX), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, WakePendingAtSliceBoundarySurvivesBudgetStop) {
  // Regression (extends the clock-vs-budget fix): a kWake event sitting
  // exactly ON the slice boundary must not be skipped when max_events
  // stops run_until before reaching it -- the clock stays behind it and
  // the resumed slice delivers it.
  EventQueue q;
  std::vector<Kind> fired;
  const auto record_kind = [&](const EventDesc& e) { fired.push_back(e.kind); };
  q.schedule(1.0, EventDesc{Kind::kSleepEnter, 3, 0});
  q.schedule(2.0, EventDesc{Kind::kEpoch, 0, 0, 2.0});
  q.schedule(5.0, EventDesc{Kind::kWake, 7, 1});  // on the boundary
  EXPECT_EQ(q.run_until(5.0, record_kind, 2), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);  // held at the last processed event
  ASSERT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 5.0);
  // The resumed slice runs the wake; nothing was lost.
  EXPECT_EQ(q.run_until(5.0, record_kind), 1u);
  EXPECT_EQ(fired,
            (std::vector<Kind>{Kind::kSleepEnter, Kind::kEpoch, Kind::kWake}));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, ThermalTiesRunBeforeSameInstantArrivals) {
  // kThermal occupies tie class 0: at the same instant the epoch's
  // thermal resolve must apply before arrivals and completions read the
  // demand it recomputes, whatever the scheduling order was.
  EventQueue q;
  std::vector<Kind> fired;
  q.schedule(600.0, EventDesc{Kind::kArrival, 0, 0});
  q.schedule(600.0, EventDesc{Kind::kCompletion, 0, 1});
  q.schedule(600.0, EventDesc{Kind::kThermal, 0, 0, 600.0});
  q.run([&](const EventDesc& e) { fired.push_back(e.kind); });
  EXPECT_EQ(fired, (std::vector<Kind>{Kind::kThermal, Kind::kArrival,
                                      Kind::kCompletion}));
}

TEST(EventQueue, DispatchReceivesTheScheduledDescriptor) {
  EventQueue q;
  const EventDesc sent{Kind::kMisprofileTimer, 17, 42, 3.5};
  q.schedule(9.0, sent);
  EventDesc got;
  EXPECT_TRUE(q.step([&](const EventDesc& e) { got = e; }));
  EXPECT_EQ(got.kind, sent.kind);
  EXPECT_EQ(got.a, sent.a);
  EXPECT_EQ(got.b, sent.b);
  EXPECT_EQ(got.t, sent.t);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);  // the clock moved before dispatch
}

TEST(EventQueue, PeekTime) {
  EventQueue q;
  q.schedule(7.0, ev(0));
  EXPECT_DOUBLE_EQ(q.peek_time(), 7.0);
  q.step(kIgnore);
  EXPECT_THROW(q.peek_time(), InvalidArgument);
}

TEST(EventQueue, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step(kIgnore));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimestampsStayFifoUnderMidRunScheduling) {
  // Heap-order stability: events at one timestamp fire in scheduling order
  // even when some of them are scheduled from inside handlers while other
  // equal-time events are already pending.
  EventQueue q;
  std::vector<std::uint64_t> fired;
  q.schedule(5.0, ev(0));
  q.schedule(5.0, ev(1));
  q.schedule(5.0, ev(2));
  q.run([&](const EventDesc& e) {
    fired.push_back(e.a);
    if (e.a == 0) {
      // Scheduled mid-run at the current time: must run after every
      // already-pending event at t=5, in its own insertion order.
      q.schedule(5.0, ev(3));
      q.schedule(5.0, ev(4));
    }
  });
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClearKeepsCapacityAndRewindsClock) {
  EventQueue q;
  int count = 0;
  const auto counter = [&](const EventDesc&) { ++count; };
  for (int i = 0; i < 100; ++i) q.schedule(i, ev(0));
  q.run(counter);
  EXPECT_DOUBLE_EQ(q.now(), 99.0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  // Reusable: times before the old clock are valid again.
  q.schedule(1.0, ev(0));
  q.run(counter);
  EXPECT_EQ(count, 101);
}

TEST(EventQueue, LargeVolumeStaysOrdered) {
  EventQueue q;
  double last = -1.0;
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 10007);
    q.schedule(t, EventDesc{Kind::kPass, 0, 0, t});
  }
  q.run([&](const EventDesc& e) {
    if (e.t < last || e.t != q.now()) ordered = false;
    last = e.t;
  });
  EXPECT_TRUE(ordered);
}

// --- save_events / restore ------------------------------------------------

/// A queue mid-run: some events popped, mixed kinds and tie classes
/// pending, so the saved layout is a non-trivial heap.
EventQueue busy_queue() {
  EventQueue q;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const double t = static_cast<double>((i * 37) % 23);
    const Kind kind = i % 7 == 0   ? Kind::kArrival
                      : i % 5 == 0 ? Kind::kThermal
                                   : Kind::kCompletion;
    q.schedule(t, EventDesc{kind, i, i * 3});
  }
  q.run_until(4.0, kIgnore);
  return q;
}

TEST(EventQueueCheckpoint, RoundTripPopsInTheOriginalOrder) {
  EventQueue original = busy_queue();
  const std::vector<SavedEvent> saved = original.save_events();
  ASSERT_EQ(saved.size(), original.pending());

  EventQueue restored;
  restored.schedule(100.0, ev(999));  // replaced wholesale by restore
  restored.restore(original.now(), original.next_seq(),
                   original.high_water(), saved);
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.next_seq(), original.next_seq());
  EXPECT_EQ(restored.high_water(), original.high_water());

  // Same-time events scheduled after the cut must also tie identically.
  for (EventQueue* q : {&original, &restored})
    q->schedule(10.0, EventDesc{Kind::kArrival, 500, 0});
  const auto drain = [](EventQueue& q) {
    std::vector<std::pair<double, std::uint64_t>> popped;
    q.run([&](const EventDesc& e) { popped.emplace_back(q.now(), e.a); });
    return popped;
  };
  const auto a = drain(original);
  EXPECT_EQ(a, drain(restored));
  EXPECT_EQ(a.size(), saved.size() + 1);
}

TEST(EventQueueCheckpoint, RestoreRejectsANonHeapLayout) {
  const EventQueue q = busy_queue();
  std::vector<SavedEvent> saved = q.save_events();
  ASSERT_GE(saved.size(), 2u);
  // The root must be the earliest event; swapping it with the latest
  // leaf breaks the heap property.
  std::swap(saved.front(), saved.back());
  EventQueue restored;
  EXPECT_THROW(restored.restore(q.now(), q.next_seq(), q.high_water(), saved),
               InvalidArgument);
}

TEST(EventQueueCheckpoint, RestoreRejectsASequenceNumberFromTheFuture) {
  const EventQueue q = busy_queue();
  std::vector<SavedEvent> saved = q.save_events();
  ASSERT_FALSE(saved.empty());
  saved.back().seq = q.next_seq();  // >= next_seq: never handed out
  EventQueue restored;
  EXPECT_THROW(restored.restore(q.now(), q.next_seq(), q.high_water(), saved),
               InvalidArgument);
}

TEST(EventQueueCheckpoint, RestoreRejectsAnEventBeforeTheClock) {
  const EventQueue q = busy_queue();
  const std::vector<SavedEvent> saved = q.save_events();
  ASSERT_FALSE(saved.empty());
  // The same events under a clock past the earliest of them.
  EventQueue restored;
  EXPECT_THROW(restored.restore(saved.front().time + 1.0, q.next_seq(),
                                q.high_water(), saved),
               InvalidArgument);
}

}  // namespace
}  // namespace iscope
