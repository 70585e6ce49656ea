#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace iscope {

void EventQueue::schedule(double time_s, const EventDesc& desc) {
  ISCOPE_CHECK_ARG(time_s >= now_ - 1e-9,
                   "EventQueue: cannot schedule into the past");
  heap_.push_back(Item{std::max(time_s, now_), seq_++, tie_class(desc), desc});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  hwm_ = std::max(hwm_, heap_.size());
}

EventDesc EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Item item = heap_.back();
  heap_.pop_back();
  now_ = item.time;
  return item.desc;
}

double EventQueue::peek_time() const {
  ISCOPE_CHECK_ARG(!heap_.empty(), "EventQueue: peek on empty queue");
  return heap_.front().time;
}

std::vector<SavedEvent> EventQueue::save_events() const {
  std::vector<SavedEvent> out;
  out.reserve(heap_.size());
  for (const Item& item : heap_)
    out.push_back(SavedEvent{item.time, item.seq, item.desc});
  return out;
}

void EventQueue::restore(double now, std::uint64_t next_seq,
                         std::size_t high_water,
                         const std::vector<SavedEvent>& events) {
  heap_.clear();
  heap_.reserve(events.size());
  for (const SavedEvent& e : events) {
    ISCOPE_CHECK_ARG(e.time >= now - 1e-9,
                     "EventQueue: restored event precedes the clock");
    ISCOPE_CHECK_ARG(e.seq < next_seq,
                     "EventQueue: restored sequence number from the future");
    // No push_heap: the snapshot is the raw layout of a valid heap, and
    // reinstalling it verbatim reproduces the uninterrupted run's exact
    // comparison/sift sequence.
    heap_.push_back(Item{e.time, e.seq, tie_class(e.desc), e.desc});
  }
  ISCOPE_CHECK_ARG(
      std::is_heap(heap_.begin(), heap_.end(), Later{}),
      "EventQueue: restored events do not form a valid heap layout");
  now_ = now;
  seq_ = next_seq;
  hwm_ = std::max(high_water, heap_.size());
}

void EventQueue::clear() {
  heap_.clear();
  now_ = 0.0;
  seq_ = 0;
  hwm_ = 0;
}

}  // namespace iscope
