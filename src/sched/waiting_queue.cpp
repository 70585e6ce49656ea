#include "sched/waiting_queue.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace iscope {

WaitingQueue::Slot WaitingQueue::pack(const WaitingEntry& e) {
  ISCOPE_CHECK(e.task < kHoleTask && e.cpus < kHoleSlot.cpus,
               "WaitingQueue: task index or width beyond 32 bits");
  return Slot{static_cast<std::uint32_t>(e.task),
              static_cast<std::uint32_t>(e.cpus), e.latest_start_s};
}

WaitingQueue::WaitingQueue(double patience_s) : patience_s_(patience_s) {
  rebuild();
}

void WaitingQueue::clear() {
  slots_.clear();
  live_ = 0;
  rebuild();
}

void WaitingQueue::push(const WaitingEntry& e) {
  slots_.push_back(pack(e));
  ++live_;
  live_cpus_ += e.cpus;
  if (slots_.size() > cap_ * kBucket)
    rebuild();
  else
    update(slots_.size() - 1);
}

void WaitingQueue::remove(std::size_t slot) {
  ISCOPE_CHECK(slot < slots_.size() && live(slot),
               "WaitingQueue: remove of a hole");
  --live_;
  live_cpus_ -= slots_[slot].cpus;
  slots_[slot] = kHoleSlot;
  update(slot);
}

void WaitingQueue::compact() {
  std::erase_if(slots_, [](const Slot& s) { return s.task == kHoleTask; });
  rebuild();
}

std::vector<std::size_t> WaitingQueue::tasks() const {
  std::vector<std::size_t> out;
  out.reserve(live_);
  for (const Slot& s : slots_)
    if (s.task != kHoleTask) out.push_back(s.task);
  return out;
}

void WaitingQueue::assign(const std::vector<std::size_t>& tasks) {
  slots_.clear();
  for (const std::size_t t : tasks) slots_.push_back(pack(WaitingEntry{t, 0, 0.0}));
  live_ = tasks.size();
  rebuild();
}

WaitingQueue::Key WaitingQueue::bucket_key(std::size_t bucket) const {
  Key k = kHoleKey;
  const std::size_t end = std::min(slots_.size(), (bucket + 1) * kBucket);
  for (std::size_t s = bucket * kBucket; s < end; ++s) {
    k.cpus = std::min(k.cpus, slots_[s].cpus);
    k.latest_start_s = std::min(k.latest_start_s, slots_[s].latest_start_s);
  }
  return k;
}

void WaitingQueue::update(std::size_t slot) {
  std::size_t node = cap_ + slot / kBucket;
  tree_[node] = bucket_key(slot / kBucket);
  for (node /= 2; node >= 1; node /= 2) {
    const Key& a = tree_[2 * node];
    const Key& b = tree_[2 * node + 1];
    const Key k{std::min(a.cpus, b.cpus),
                std::min(a.latest_start_s, b.latest_start_s)};
    if (k.cpus == tree_[node].cpus &&
        k.latest_start_s == tree_[node].latest_start_s)
      return;  // nothing above changes either
    tree_[node] = k;
  }
}

void WaitingQueue::rebuild() {
  live_cpus_ = 0;
  for (const Slot& s : slots_)
    if (s.task != kHoleTask) live_cpus_ += s.cpus;
  const std::size_t buckets = (slots_.size() + kBucket - 1) / kBucket;
  cap_ = std::bit_ceil(std::max<std::size_t>(buckets, 1));
  tree_.resize(2 * cap_);
  for (std::size_t b = 0; b < cap_; ++b) tree_[cap_ + b] = bucket_key(b);
  for (std::size_t node = cap_; node-- > 1;) {
    const Key& a = tree_[2 * node];
    const Key& b = tree_[2 * node + 1];
    tree_[node] = Key{std::min(a.cpus, b.cpus),
                      std::min(a.latest_start_s, b.latest_start_s)};
  }
}

std::size_t WaitingQueue::first(std::size_t from, double now_s,
                                const StartBound& bound) const {
  // A key may stand for an answer when its latest start is forced, or its
  // width and latest start are each inside the bound. On one slot that is
  // exact (subtraction is monotone); on a node's minima it is necessary
  // only, so a walk may enter a subtree that holds no answer.
  const auto may_hold = [&](std::uint32_t cpus, double latest_start_s) {
    return now_s >= latest_start_s - patience_s_ ||
           (cpus <= bound.cpus && latest_start_s - now_s <= bound.slack_s);
  };
  const auto scan = [&](std::size_t begin, std::size_t bucket) {
    const std::size_t end = std::min(slots_.size(), (bucket + 1) * kBucket);
    for (std::size_t s = begin; s < end; ++s)
      if (may_hold(slots_[s].cpus, slots_[s].latest_start_s)) return s;
    return kEnd;
  };
  if (from >= slots_.size()) return kEnd;
  // The rest of from's bucket, then a pre-order walk of the buckets to its
  // right: enter a node that may hold an answer, else move on to the next
  // subtree on the right.
  const std::size_t bucket = from / kBucket;
  if (const std::size_t s = scan(from, bucket); s != kEnd) return s;
  std::size_t node = cap_ + bucket;
  for (;;) {
    while ((node & 1) != 0) node /= 2;  // climb out of right children
    if (node == 0) return kEnd;         // climbed past the root
    ++node;
    while (may_hold(tree_[node].cpus, tree_[node].latest_start_s)) {
      if (node < cap_) {
        node *= 2;
        continue;
      }
      const std::size_t b = node - cap_;
      if (const std::size_t s = scan(b * kBucket, b); s != kEnd) return s;
      break;
    }
  }
}

bool WaitingQueue::consistent() const {
  WaitingQueue fresh(patience_s_);
  fresh.slots_ = slots_;
  fresh.rebuild();
  const auto live = static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.task != kHoleTask; }));
  if (live != live_ || fresh.live_cpus_ != live_cpus_ || fresh.cap_ != cap_)
    return false;
  for (std::size_t node = 1; node < 2 * cap_; ++node)
    if (tree_[node].cpus != fresh.tree_[node].cpus ||
        tree_[node].latest_start_s != fresh.tree_[node].latest_start_s)
      return false;
  return true;
}

}  // namespace iscope
