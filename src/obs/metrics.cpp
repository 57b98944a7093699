#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mfpa::obs {
namespace {

/// Serializes name + sorted labels into the registry's map key. '\x1f'
/// (unit separator) cannot appear in sane metric names, so keys cannot
/// collide across families.
std::string entry_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

std::atomic<MetricsRegistry*> g_override{nullptr};

}  // namespace

std::int64_t monotonic_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// HistogramMetric

HistogramMetric::HistogramMetric() : counts_(stats::Histogram::kBuckets) {}

void HistogramMetric::observe(double x) noexcept {
  counts_[stats::Histogram::bucket_of(x)].fetch_add(1,
                                                    std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

std::uint64_t HistogramMetric::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

stats::Histogram HistogramMetric::snapshot() const {
  stats::Histogram out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out.add_bucket(i, counts_[i].load(std::memory_order_relaxed));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ScopedTimer

ScopedTimer::ScopedTimer(HistogramMetric& hist) noexcept
    : hist_(&hist), start_ns_(monotonic_now_ns()) {}

ScopedTimer::~ScopedTimer() {
  hist_->observe(static_cast<double>(monotonic_now_ns() - start_ns_) * 1e-9);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never freed
  return *instance;
}

std::unique_ptr<MetricsRegistry> MetricsRegistry::create_isolated() {
  return std::make_unique<MetricsRegistry>();
}

// Requires mu_ to be held by the caller: the returned Entry& is only safe
// to mutate (first-time instrument creation) while the lock protects it
// from concurrent first resolutions of the same family.
MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const Labels& labels, MetricKind kind) {
  if (name.empty()) {
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  }
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  const std::string key = entry_key(name, sorted);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.name = name;
    entry.labels = std::move(sorted);
    entry.kind = kind;
    it = entries_.emplace(key, std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered with a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = find_or_create(name, labels, MetricKind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = find_or_create(name, labels, MetricKind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = find_or_create(name, labels, MetricKind::kHistogram);
  if (!entry.hist) entry.hist = std::make_unique<HistogramMetric>();
  return *entry.hist;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double,
                                            double, std::size_t,
                                            const Labels& labels) {
  return histogram(name, labels);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.metrics.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    (void)key;
    MetricValue value;
    value.name = entry.name;
    value.labels = entry.labels;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        value.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        value.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        value.hist = entry.hist->snapshot();
        value.hist_sum = entry.hist->sum();
        break;
    }
    out.metrics.push_back(std::move(value));
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// Process-wide accessor + override

MetricsRegistry& registry() {
  MetricsRegistry* override = g_override.load(std::memory_order_acquire);
  return override ? *override : MetricsRegistry::global();
}

ScopedMetricsOverride::ScopedMetricsOverride(MetricsRegistry& target) noexcept
    : previous_(g_override.exchange(&target, std::memory_order_acq_rel)) {}

ScopedMetricsOverride::~ScopedMetricsOverride() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace mfpa::obs
