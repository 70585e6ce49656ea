#include "telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace iscope::telemetry {

HistogramBuckets HistogramBuckets::log_linear(double lo, double hi,
                                              std::size_t per_decade) {
  ISCOPE_CHECK_ARG(lo > 0.0 && hi > lo,
                   "HistogramBuckets: need 0 < lo < hi");
  ISCOPE_CHECK_ARG(per_decade >= 1, "HistogramBuckets: per_decade >= 1");
  HistogramBuckets b;
  // Decade floors at exact powers of ten so bucket boundaries are stable
  // regardless of lo's mantissa.
  double decade = std::pow(10.0, std::floor(std::log10(lo)));
  while (decade < hi) {
    const double step = decade * 9.0 / static_cast<double>(per_decade);
    for (std::size_t i = 1; i <= per_decade; ++i) {
      const double bound = decade + step * static_cast<double>(i);
      if (bound >= lo && (b.bounds.empty() || bound > b.bounds.back()))
        b.bounds.push_back(bound);
      if (bound >= hi) return b;
    }
    decade *= 10.0;
  }
  return b;
}

std::size_t HistogramBuckets::index(double value) const {
  // Prometheus `le` semantics: first bound >= value; past-the-end = +Inf.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

Histogram::Histogram(const HistogramBuckets* buckets)
    : buckets_(buckets), counts_(buckets->bounds.size() + 1) {}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.reset();
  sum_.reset();
}

Histogram& HistogramFamily::with(
    const std::vector<std::string>& label_values) {
  ISCOPE_CHECK_ARG(label_values.size() == label_keys_.size(),
                   "telemetry: family '" + name_ + "' takes " +
                       std::to_string(label_keys_.size()) +
                       " label(s), got " +
                       std::to_string(label_values.size()));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(label_values);
  if (it != index_.end()) return *it->second;
  cells_.push_back(std::make_unique<Cell>(label_values, &buckets_));
  index_[label_values] = &cells_.back()->metric;
  return cells_.back()->metric;
}

namespace {

void check_family(const std::string& name, MetricKind want, MetricKind have,
                  const std::vector<std::string>& want_keys,
                  const std::vector<std::string>& have_keys) {
  ISCOPE_CHECK_ARG(want == have,
                   "Registry: family '" + name +
                       "' re-registered with a different metric kind");
  ISCOPE_CHECK_ARG(want_keys == have_keys,
                   "Registry: family '" + name +
                       "' re-registered with different label keys");
}

}  // namespace

CounterFamily& Registry::counter(const std::string& name,
                                 const std::string& help,
                                 std::vector<std::string> label_keys) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = MetricKind::kCounter;
    entry->counter =
        std::make_unique<CounterFamily>(name, help, std::move(label_keys));
    it = families_.emplace(name, std::move(entry)).first;
    order_.push_back(it->second.get());
  } else {
    check_family(name, it->second->kind, MetricKind::kCounter, label_keys,
                 it->second->kind == MetricKind::kCounter
                     ? it->second->counter->label_keys()
                     : std::vector<std::string>{});
  }
  return *it->second->counter;
}

GaugeFamily& Registry::gauge(const std::string& name, const std::string& help,
                             std::vector<std::string> label_keys) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = MetricKind::kGauge;
    entry->gauge =
        std::make_unique<GaugeFamily>(name, help, std::move(label_keys));
    it = families_.emplace(name, std::move(entry)).first;
    order_.push_back(it->second.get());
  } else {
    check_family(name, it->second->kind, MetricKind::kGauge, label_keys,
                 it->second->kind == MetricKind::kGauge
                     ? it->second->gauge->label_keys()
                     : std::vector<std::string>{});
  }
  return *it->second->gauge;
}

HistogramFamily& Registry::histogram(const std::string& name,
                                     const std::string& help,
                                     HistogramBuckets buckets,
                                     std::vector<std::string> label_keys) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = MetricKind::kHistogram;
    entry->histogram = std::make_unique<HistogramFamily>(
        name, help, std::move(label_keys), std::move(buckets));
    it = families_.emplace(name, std::move(entry)).first;
    order_.push_back(it->second.get());
  } else {
    check_family(name, it->second->kind, MetricKind::kHistogram, label_keys,
                 it->second->kind == MetricKind::kHistogram
                     ? it->second->histogram->label_keys()
                     : std::vector<std::string>{});
  }
  return *it->second->histogram;
}

Snapshot Registry::snapshot() const {
  std::vector<Entry*> order;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    order = order_;
  }
  Snapshot snap;
  snap.reserve(order.size());
  for (const Entry* e : order) {
    SnapshotFamily f;
    f.kind = e->kind;
    switch (e->kind) {
      case MetricKind::kCounter: {
        f.name = e->counter->name();
        f.help = e->counter->help();
        f.label_keys = e->counter->label_keys();
        e->counter->for_each(
            [&f](const std::vector<std::string>& labels, const Counter& c) {
              SnapshotCell cell;
              cell.labels = labels;
              cell.value = static_cast<double>(c.value());
              f.cells.push_back(std::move(cell));
            });
        break;
      }
      case MetricKind::kGauge: {
        f.name = e->gauge->name();
        f.help = e->gauge->help();
        f.label_keys = e->gauge->label_keys();
        e->gauge->for_each(
            [&f](const std::vector<std::string>& labels, const Gauge& g) {
              SnapshotCell cell;
              cell.labels = labels;
              cell.value = g.value();
              f.cells.push_back(std::move(cell));
            });
        break;
      }
      case MetricKind::kHistogram: {
        f.name = e->histogram->name();
        f.help = e->histogram->help();
        f.label_keys = e->histogram->label_keys();
        f.bucket_bounds = e->histogram->buckets().bounds;
        e->histogram->for_each(
            [&f](const std::vector<std::string>& labels, const Histogram& h) {
              SnapshotCell cell;
              cell.labels = labels;
              cell.bucket_counts.reserve(f.bucket_bounds.size() + 1);
              for (std::size_t i = 0; i <= f.bucket_bounds.size(); ++i)
                cell.bucket_counts.push_back(h.bucket_count(i));
              cell.count = h.count();
              cell.sum = h.sum();
              f.cells.push_back(std::move(cell));
            });
        break;
      }
    }
    snap.push_back(std::move(f));
  }
  return snap;
}

void Registry::reset() {
  std::vector<Entry*> order;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    order = order_;
  }
  for (Entry* e : order) {
    switch (e->kind) {
      case MetricKind::kCounter: e->counter->reset(); break;
      case MetricKind::kGauge: e->gauge->reset(); break;
      case MetricKind::kHistogram: e->histogram->reset(); break;
    }
  }
}

Registry& Registry::global() {
  static Registry* r = new Registry;  // leaked: see header
  return *r;
}

namespace {

std::string format_number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape_label(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string render_labels(const std::vector<std::string>& keys,
                          const std::vector<std::string>& values,
                          const std::string& extra_key = "",
                          const std::string& extra_value = "") {
  if (keys.empty() && extra_key.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i) out += ',';
    out += keys[i] + "=\"" + escape_label(values[i]) + "\"";
  }
  if (!extra_key.empty()) {
    if (!keys.empty()) out += ',';
    out += extra_key + "=\"" + escape_label(extra_value) + "\"";
  }
  return out + "}";
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// JSON has no Inf/NaN literals; clamp to 0 like the bench writer does.
std::string format_json_safe_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  for (const SnapshotFamily& f : snap) {
    out += "# HELP " + f.name + " " + f.help + "\n";
    out += "# TYPE " + f.name + " " + std::string(kind_name(f.kind)) + "\n";
    for (const SnapshotCell& cell : f.cells) {
      if (f.kind != MetricKind::kHistogram) {
        out += f.name + render_labels(f.label_keys, cell.labels) + " " +
               format_number(cell.value) + "\n";
        continue;
      }
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i <= f.bucket_bounds.size(); ++i) {
        cumulative += cell.bucket_counts[i];
        const std::string le = i < f.bucket_bounds.size()
                                   ? format_number(f.bucket_bounds[i])
                                   : "+Inf";
        out += f.name + "_bucket" +
               render_labels(f.label_keys, cell.labels, "le", le) + " " +
               std::to_string(cumulative) + "\n";
      }
      out += f.name + "_sum" + render_labels(f.label_keys, cell.labels) +
             " " + format_number(cell.sum) + "\n";
      out += f.name + "_count" + render_labels(f.label_keys, cell.labels) +
             " " + std::to_string(cell.count) + "\n";
    }
  }
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"metrics\": [";
  bool first_family = true;
  for (const SnapshotFamily& f : snap) {
    out += first_family ? "\n" : ",\n";
    first_family = false;
    out += "    {\"name\": " + json_escape(f.name) +
           ", \"type\": " + json_escape(kind_name(f.kind)) +
           ", \"help\": " + json_escape(f.help) + ", \"series\": [";
    bool first_cell = true;
    for (const SnapshotCell& cell : f.cells) {
      out += first_cell ? "\n" : ",\n";
      first_cell = false;
      out += "      {\"labels\": {";
      for (std::size_t i = 0; i < f.label_keys.size(); ++i) {
        if (i) out += ", ";
        out += json_escape(f.label_keys[i]) + ": " +
               json_escape(cell.labels[i]);
      }
      out += "}";
      if (f.kind != MetricKind::kHistogram) {
        out += ", \"value\": " + format_json_safe_number(cell.value);
      } else {
        out += ", \"sum\": " + format_json_safe_number(cell.sum) +
               ", \"count\": " + std::to_string(cell.count) +
               ", \"bounds\": [";
        for (std::size_t i = 0; i < f.bucket_bounds.size(); ++i)
          out += (i ? ", " : "") + format_json_safe_number(f.bucket_bounds[i]);
        out += "], \"buckets\": [";
        for (std::size_t i = 0; i < cell.bucket_counts.size(); ++i)
          out += (i ? ", " : "") + std::to_string(cell.bucket_counts[i]);
        out += "]";
      }
      out += "}";
    }
    out += first_cell ? "]}" : "\n    ]}";
  }
  out += first_family ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

double snapshot_value(const Snapshot& snap, const std::string& family,
                      const std::vector<std::string>& labels,
                      double fallback) {
  for (const SnapshotFamily& f : snap) {
    if (f.name != family) continue;
    for (const SnapshotCell& cell : f.cells)
      if (cell.labels == labels)
        return f.kind == MetricKind::kHistogram ? cell.sum : cell.value;
  }
  return fallback;
}

double snapshot_histogram_sum(const Snapshot& snap, const std::string& family,
                              double fallback) {
  for (const SnapshotFamily& f : snap) {
    if (f.name != family || f.kind != MetricKind::kHistogram) continue;
    double total = 0.0;
    for (const SnapshotCell& cell : f.cells) total += cell.sum;
    return total;
  }
  return fallback;
}

}  // namespace iscope::telemetry
