// Discrete-event simulation engine.
//
// A minimal, deterministic DES core: events are plain data -- a time and an
// EventDesc naming the simulator action plus its small payload. Ties run in
// insertion order (a monotone sequence number breaks them), which keeps
// whole-simulation results bit-reproducible. The queue never calls into
// the simulator itself: step()/run()/run_until()/run_before() hand each
// popped descriptor to a dispatcher the caller passes in, and the caller
// maps kinds to handlers (DatacenterSim::dispatch, one switch). Handlers
// may schedule further events. Cancellation is by design left to the
// caller (version counters on the payload) -- cheaper and simpler than
// tombstoning the heap.
//
// Hot-path notes: the heap is a plain vector of trivially copyable items
// driven by std::push_heap / std::pop_heap (the exact call sequence
// std::priority_queue makes, so pop order is bit-identical to the old
// priority_queue implementation), and `clear()` retains capacity across
// simulator runs, so steady-state scheduling performs no heap allocation
// once the vector has grown to its high-water mark.
//
// Checkpointing (src/service/checkpoint.cpp): because an event *is* its
// descriptor, save_events() emits the heap's raw vector layout and
// restore() reinstalls it verbatim -- a valid heap is not re-heapified, so
// the resumed pop order is bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace iscope {

/// Serializable identity of a scheduled event: which simulator action it
/// performs and the small payload that action needs. The kinds' values are
/// their checkpoint wire values; 0 is no kind, and restore rejects it.
struct EventDesc {
  enum class Kind : std::uint8_t {
    kArrival = 1,      ///< a = task index
    kPass,             ///< deadline-pressure scheduling-pass wakeup
    kCompletion,       ///< a = task index, b = task version
    kEpoch,            ///< t = epoch time (self-rechaining)
    kSample,           ///< t = sample time (self-rechaining)
    kProfilingBegin,   ///< a = profiling window index
    kProfilingEnd,     ///< a = active-scan slot index
    kFault,            ///< a = fault-plan event cursor
    kMisprofileTimer,  ///< a = processor, b = occupancy token
    kMisprofileRepair, ///< a = processor
    kThermal,          ///< t = thermal-epoch time (self-rechaining)
    kSleepEnter,       ///< a = processor, b = idle token
    kWake,             ///< a = task index, b = task version
  };
  Kind kind{};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double t = 0.0;
};

/// One checkpointed event, in the heap's raw vector order.
struct SavedEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventDesc desc;
};

class EventQueue {
 public:
  /// Schedule `desc` at absolute time `time_s` (>= now). Arrival events
  /// occupy a dedicated tie class that runs before every other same-time
  /// event: batch runs schedule all arrivals first (smallest sequence
  /// numbers), so their tie order is unchanged, while a streamed
  /// admission's arrival -- scheduled after epoch/sample chains already
  /// exist -- still ties exactly where the batch schedule would have put it.
  void schedule(double time_s, const EventDesc& desc);

  /// Run the earliest event: advance the clock to it and pass its
  /// descriptor to `dispatch`. Returns false if the queue is empty.
  template <class Dispatch>
  bool step(Dispatch&& dispatch) {
    if (heap_.empty()) return false;
    dispatch(pop());
    return true;
  }

  /// Run events until the queue drains or `max_events` were processed.
  /// Returns the number of events run.
  template <class Dispatch>
  std::size_t run(Dispatch&& dispatch, std::size_t max_events = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max_events && step(dispatch)) ++n;
    return n;
  }

  /// Run events with time <= `until_s` (at most `max_events`). The clock
  /// advances to `until_s` only when the slice completed (queue drained or
  /// next event past `until_s`); when the event budget stopped the loop
  /// the clock stays at the last processed event, so the remaining
  /// events are still ahead of it. Returns the number of events run.
  template <class Dispatch>
  std::size_t run_until(double until_s, Dispatch&& dispatch,
                        std::size_t max_events = SIZE_MAX) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().time <= until_s) {
      // Budget exhausted mid-slice: events at or before until_s remain, so
      // the clock must stay at the last processed event -- advancing it
      // past unprocessed events would make the next step() run time
      // backwards.
      if (n >= max_events) return n;
      dispatch(pop());
      ++n;
    }
    if (now_ < until_s) now_ = until_s;
    return n;
  }

  /// Run events with time strictly < `t_limit` (at most `max_events`).
  /// Unlike run_until, the clock is left at the last processed event --
  /// never advanced to `t_limit` -- so a caller that resumes the queue
  /// later (the sharded epoch-barrier loop) observes the same event-time
  /// sequence a single uninterrupted run() would. Returns the number of
  /// events run.
  template <class Dispatch>
  std::size_t run_before(double t_limit, Dispatch&& dispatch,
                         std::size_t max_events = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max_events && !heap_.empty() && heap_.front().time < t_limit) {
      dispatch(pop());
      ++n;
    }
    return n;
  }

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Largest pending() ever observed (since construction or clear()).
  /// Tracked unconditionally -- one compare per schedule -- so telemetry
  /// can report it without perturbing the hot path with a gate.
  std::size_t high_water() const { return hwm_; }
  /// Time of the earliest pending event; throws if empty.
  double peek_time() const;
  /// Next sequence number to be assigned (checkpointed so a restored run
  /// keeps numbering ties exactly where the uninterrupted run would).
  std::uint64_t next_seq() const { return seq_; }
  /// True when an event of `kind` is pending (a scan: not for hot paths).
  bool holds(EventDesc::Kind kind) const {
    return std::any_of(heap_.begin(), heap_.end(),
                       [kind](const Item& i) { return i.desc.kind == kind; });
  }

  /// Snapshot every pending event in the heap's raw vector order.
  std::vector<SavedEvent> save_events() const;

  /// Reinstall a snapshot. The items are installed in the given order
  /// *without* re-heapifying -- save_events() emitted a valid heap layout,
  /// and restoring it verbatim reproduces the exact pop (and sift) sequence
  /// of the uninterrupted run. Throws InvalidArgument when an event
  /// precedes `now`, carries a sequence number >= `next_seq`, or the items
  /// do not form a valid heap. Cold path; allocation here is fine.
  void restore(double now, std::uint64_t next_seq, std::size_t high_water,
               const std::vector<SavedEvent>& events);

  /// Drop all pending events and rewind the clock to 0, keeping the heap's
  /// allocated capacity (so a reused queue schedules allocation-free up to
  /// the previous high-water mark).
  void clear();

  /// Pre-size the heap storage.
  void reserve(std::size_t events) { heap_.reserve(events); }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    std::uint8_t cls;  ///< tie class: 0 thermal, 1 arrival, 2 the rest
    EventDesc desc;
  };
  static_assert(std::is_trivially_copyable_v<Item>,
                "heap sifts move events by plain copies");
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };
  /// Thermal epochs run first at their barrier time: a flat run's
  /// thermal event at t then observes exactly the state the sharded
  /// coordinator sees after run_before(t) -- no same-time event has run
  /// yet -- which is what makes 1-shard thermal bit-identical to flat.
  /// The arrival-before-the-rest split below it is a monotone remap of
  /// the original {0, 1} classes, so runs without thermal events pop in
  /// the exact order they always did.
  static std::uint8_t tie_class(const EventDesc& desc) {
    if (desc.kind == EventDesc::Kind::kThermal) return 0;
    return desc.kind == EventDesc::Kind::kArrival ? 1 : 2;
  }
  /// Remove the earliest event, advance the clock to it, return its
  /// descriptor. The heap must be non-empty.
  EventDesc pop();

  std::vector<Item> heap_;  ///< binary max-heap under Later
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t hwm_ = 0;  ///< see high_water()
};

}  // namespace iscope
