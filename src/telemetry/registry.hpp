// Lock-cheap metrics registry (DESIGN.md Sec. 11).
//
// Three metric kinds -- Counter, Gauge, Histogram (fixed log-linear
// buckets) -- grouped into labeled families and owned by a Registry that
// renders Prometheus-style text and JSON snapshots.
//
// Concurrency model (the reason every slot is a std::atomic):
//
//  * Slots are std::atomic<...> accessed with relaxed ordering, and every
//    update is safe from any thread: `set` is a plain store, and counts,
//    gauge sums and peaks, and observations go through the `*_concurrent`
//    calls (a relaxed read-modify-write, a CAS loop for doubles). The
//    simulator publishes its run totals with them once per run, from
//    whichever sweep worker ran it, and only while telemetry is enabled.
//  * Family and cell *creation* takes a mutex (cold path: instrument sites
//    cache the returned references, which stay valid for the registry's
//    lifetime -- cells are never deleted, reset() only zeroes them).
//  * snapshot() may run concurrently with writers; it sees each slot's
//    latest relaxed value (torn multi-slot views are acceptable for
//    monitoring output, exact totals are read after workers joined).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace iscope::telemetry {

/// Monotone event count.
class Counter {
 public:
  /// Increment shared with other threads (ThreadPool workers).
  void inc_concurrent(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value (queue depth, watts, pool size).
class Gauge {
 public:
  /// A plain store is already safe from any thread.
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Shared add (CAS loop) for ThreadPool-side gauges.
  void add_concurrent(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  /// Shared max-tracking (CAS loop); used for cross-run peaks.
  void set_max_concurrent(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed,
                                                std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Bucket layout shared by every cell of a histogram family.
///
/// `log_linear(lo, hi, per_decade)` builds the fixed log-linear grid the
/// subsystem standardizes on: each power-of-ten decade in [lo, hi] is split
/// into `per_decade` linearly spaced upper bounds, plus the implicit +Inf
/// bucket. Bounds use Prometheus `le` semantics: a value lands in the first
/// bucket whose upper bound is >= the value.
struct HistogramBuckets {
  std::vector<double> bounds;  ///< ascending upper bounds, +Inf implicit

  static HistogramBuckets log_linear(double lo, double hi,
                                     std::size_t per_decade);
  /// Index of the bucket a value lands in (bounds.size() = +Inf bucket).
  std::size_t index(double value) const;
};

/// Distribution: per-bucket counts plus running sum and count.
class Histogram {
 public:
  explicit Histogram(const HistogramBuckets* buckets);

  /// Observation shared with other threads.
  void observe_concurrent(double value) {
    slot(value).fetch_add(1, std::memory_order_relaxed);
    count_.inc_concurrent();
    sum_.add_concurrent(value);
  }

  const HistogramBuckets& buckets() const { return *buckets_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.value(); }
  double sum() const { return sum_.value(); }
  void reset();

 private:
  std::atomic<std::uint64_t>& slot(double value) {
    return counts_[buckets_->index(value)];
  }

  const HistogramBuckets* buckets_;  ///< owned by the family
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds + 1 (+Inf)
  Counter count_;
  Gauge sum_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One family: a metric name plus one cell per distinct label-value tuple.
/// `with(values)` creates-or-returns the cell for a tuple (deduplicated;
/// the returned reference is stable for the registry's lifetime).
template <typename T>
class Family {
 public:
  Family(std::string name, std::string help,
         std::vector<std::string> label_keys)
      : name_(std::move(name)),
        help_(std::move(help)),
        label_keys_(std::move(label_keys)) {}

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<std::string>& label_keys() const { return label_keys_; }

  /// Cell for a label-value tuple (must match label_keys().size()).
  T& with(const std::vector<std::string>& label_values);
  /// Shorthand for the label-less family's single cell.
  T& get() { return with({}); }

  /// Visit cells in creation order.
  template <typename Fn>
  void for_each(Fn fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& cell : cells_) fn(cell->labels, cell->metric);
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& cell : cells_) cell->metric.reset();
  }

 protected:
  struct Cell {
    std::vector<std::string> labels;
    T metric;

    template <typename... Args>
    explicit Cell(std::vector<std::string> l, Args&&... args)
        : labels(std::move(l)), metric(std::forward<Args>(args)...) {}
  };

  std::string name_;
  std::string help_;
  std::vector<std::string> label_keys_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;  ///< creation order
  std::map<std::vector<std::string>, T*> index_;
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;

/// Histogram families additionally own the shared bucket layout.
class HistogramFamily : public Family<Histogram> {
 public:
  HistogramFamily(std::string name, std::string help,
                  std::vector<std::string> label_keys,
                  HistogramBuckets buckets)
      : Family(std::move(name), std::move(help), std::move(label_keys)),
        buckets_(std::move(buckets)) {}

  const HistogramBuckets& buckets() const { return buckets_; }
  Histogram& with(const std::vector<std::string>& label_values);
  Histogram& get() { return with({}); }

 private:
  HistogramBuckets buckets_;
};

/// Read-only snapshot of one cell / one family, decoupled from the live
/// atomics so renderers and cross-checks work on plain values.
struct SnapshotCell {
  std::vector<std::string> labels;
  double value = 0.0;                       ///< counter/gauge
  std::vector<std::uint64_t> bucket_counts; ///< histogram (incl. +Inf)
  std::uint64_t count = 0;                  ///< histogram
  double sum = 0.0;                         ///< histogram
};

struct SnapshotFamily {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::string> label_keys;
  std::vector<double> bucket_bounds;  ///< histogram only
  std::vector<SnapshotCell> cells;
};

using Snapshot = std::vector<SnapshotFamily>;

/// Owns families; hands out stable references; renders snapshots.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-get a family. Re-registration with the same name must agree
  /// on kind and label keys (throws InvalidArgument otherwise).
  CounterFamily& counter(const std::string& name, const std::string& help,
                         std::vector<std::string> label_keys = {});
  GaugeFamily& gauge(const std::string& name, const std::string& help,
                     std::vector<std::string> label_keys = {});
  HistogramFamily& histogram(const std::string& name, const std::string& help,
                             HistogramBuckets buckets,
                             std::vector<std::string> label_keys = {});

  Snapshot snapshot() const;
  /// Zero every cell of every family (families and cells stay registered,
  /// so cached references remain valid).
  void reset();

  /// The process-wide registry all built-in instrumentation reports to.
  /// Leaked on purpose: worker threads may flush metrics during static
  /// destruction.
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<CounterFamily> counter;
    std::unique_ptr<GaugeFamily> gauge;
    std::unique_ptr<HistogramFamily> histogram;
  };

  mutable std::mutex mutex_;
  std::vector<Entry*> order_;  ///< registration order, non-owning
  std::map<std::string, std::unique_ptr<Entry>> families_;
};

/// Render a snapshot in Prometheus text exposition format.
std::string to_prometheus(const Snapshot& snap);
/// Render a snapshot as a JSON document.
std::string to_json(const Snapshot& snap);
/// `s` as a quoted JSON string (`"` and `\` escaped, control bytes as
/// \u00XX): the one escaper of the registry, trace and sample-log writers.
std::string json_escape(const std::string& s);

/// Value of a counter/gauge cell in a snapshot; histogram families return
/// the cell's sum. Returns `fallback` when family or cell is absent.
double snapshot_value(const Snapshot& snap, const std::string& family,
                      const std::vector<std::string>& labels = {},
                      double fallback = 0.0);
/// Sum of a histogram family's per-cell `sum` (all cells); `fallback` when
/// the family is absent.
double snapshot_histogram_sum(const Snapshot& snap, const std::string& family,
                              double fallback = 0.0);

// ---- template bodies -----------------------------------------------------

template <typename T>
T& Family<T>::with(const std::vector<std::string>& label_values) {
  ISCOPE_CHECK_ARG(label_values.size() == label_keys_.size(),
                   "telemetry: family '" + name_ + "' takes " +
                       std::to_string(label_keys_.size()) +
                       " label(s), got " +
                       std::to_string(label_values.size()));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(label_values);
  if (it != index_.end()) return *it->second;
  cells_.push_back(std::make_unique<Cell>(label_values));
  index_[label_values] = &cells_.back()->metric;
  return cells_.back()->metric;
}

}  // namespace iscope::telemetry
