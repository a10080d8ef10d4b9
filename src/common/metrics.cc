#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <new>
#include <sstream>

namespace corrmine {

namespace {

/// Index of the log2 bucket covering `value` (0 for values 0 and 1).
size_t BucketIndex(uint64_t value) {
  if (value <= 1) return 0;
  size_t bits = 64 - static_cast<size_t>(__builtin_clzll(value));
  return std::min(bits - 1, Histogram::kBuckets - 1);
}

/// Minimal JSON string escaping: the metric names are identifiers, but the
/// writer must never emit malformed output whatever the caller passes.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AtomicMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t Counter::ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t sticky =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return sticky;
}

void Histogram::Observe(uint64_t value) {
  if constexpr (!kMetricsEnabled) {
    (void)value;
    return;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Data Histogram::Value() const {
  Data data;
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  data.min = data.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kBuckets; ++b) {
    data.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return data;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Value();
  }
  return snapshot;
}

std::string MetricsRegistry::ToJson() const {
  Snapshot snapshot = Snap();
  std::ostringstream out;
  out << "{\"metrics_compiled\":" << (kMetricsEnabled ? "true" : "false");
  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(name) << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, data] : snapshot.histograms) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(name) << "\":{\"count\":" << data.count
        << ",\"sum\":" << data.sum << ",\"min\":" << data.min
        << ",\"max\":" << data.max << '}';
  }
  out << "}}";
  return out.str();
}

std::string MetricsRegistry::DumpMetrics() const {
  Snapshot snapshot = Snap();
  std::ostringstream out;
  out << "== metrics ==" << (kMetricsEnabled ? "" : " (compiled out)")
      << "\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << "counter   " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << "gauge     " << name << " = " << value << "\n";
  }
  for (const auto& [name, data] : snapshot.histograms) {
    out << "histogram " << name << ": count " << data.count << ", sum "
        << data.sum << ", min " << data.min << ", max " << data.max;
    if (data.count > 0) out << ", mean " << data.sum / data.count;
    out << "\n";
  }
  return out.str();
}

void MetricsRegistry::Reset() {
  // Swapping in fresh objects would invalidate handed-out handles, so each
  // metric is rebuilt in place (the atomics make them non-assignable).
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) {
    entry.second->~Counter();
    new (entry.second.get()) Counter();
  }
  for (auto& entry : gauges_) {
    entry.second->~Gauge();
    new (entry.second.get()) Gauge();
  }
  for (auto& entry : histograms_) {
    entry.second->~Histogram();
    new (entry.second.get()) Histogram();
  }
}

}  // namespace corrmine
