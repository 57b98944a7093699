// Process-wide metrics substrate — the single place every layer reports to.
//
// Hot-path instruments are lock-free: Counter and Gauge are single
// std::atomic words updated with relaxed operations, and HistogramMetric
// keeps one atomic count per bucket, so ingestion, training, and serving
// threads record without ever contending on a mutex. The registry itself is
// only locked on the cold paths: registering a metric (first lookup of a
// (name, labels) pair) and taking a snapshot.
//
// Instruments are registered once and live for the registry's lifetime, so
// a component resolves its handles at construction and increments raw
// pointers afterwards. Metric families are identified by name + sorted
// label set; re-requesting the same family member returns the same
// instrument (process-wide totals merge for free), and a kind mismatch
// throws rather than silently forking the family. Every histogram shares
// stats::Histogram's one log-linear geometry, so none takes a range.
//
// Tests get isolation instead of cross-test interference:
// `MetricsRegistry::create_isolated()` builds a private registry and
// `ScopedMetricsOverride` re-points the process-wide accessor `registry()`
// for the current scope — components constructed inside the scope resolve
// their handles against the isolated instance (see docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace mfpa::obs {

/// Metric labels: (key, value) pairs, stored sorted by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count (lock-free).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value with set / add / running-max updates (lock-free).
class Gauge {
 public:
  void set(double x) noexcept { value_.store(x, std::memory_order_relaxed); }
  void add(double x) noexcept {
    value_.fetch_add(x, std::memory_order_relaxed);
  }
  /// Raises the gauge to `x` when `x` exceeds the current value.
  void max_of(double x) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (x > cur && !value_.compare_exchange_weak(
                          cur, x, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// The concurrent counterpart of stats::Histogram: one atomic count per
/// bucket of the same log-linear geometry, indexed by the same
/// stats::Histogram::bucket_of, plus a running sum for means.
class HistogramMetric {
 public:
  HistogramMetric();

  void observe(double x) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Copies the bucket counts into a stats::Histogram, bucket for bucket.
  stats::Histogram snapshot() const;

 private:
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
};

/// RAII wall-clock timer feeding a histogram in seconds.
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramMetric& hist) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HistogramMetric* hist_;
  std::int64_t start_ns_;
};

/// Instrument kind (for snapshots and exporters).
enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported metric value (point-in-time copy, no atomics).
struct MetricValue {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;             ///< kind == kCounter
  double gauge = 0.0;                    ///< kind == kGauge
  stats::Histogram hist;                 ///< kind == kHistogram
  double hist_sum = 0.0;                 ///< kind == kHistogram
};

/// Deterministic snapshot: metrics sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide default registry (never destroyed before exit).
  static MetricsRegistry& global();

  /// A private registry for tests — combine with ScopedMetricsOverride so
  /// code under test resolves its instruments against it.
  static std::unique_ptr<MetricsRegistry> create_isolated();

  /// Finds or registers the (name, labels) member of a counter family.
  /// Throws std::invalid_argument when the name is empty or already
  /// registered with a different kind. The reference stays valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  HistogramMetric& histogram(const std::string& name,
                             const Labels& labels = {});
  /// No effect: `lo`, `hi` and `bins` are ignored. Kept so callers that
  /// still pass a geometry (perfbench/) compile unchanged.
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, const Labels& labels = {});

  /// Point-in-time copy of every registered metric, sorted by
  /// (name, labels) — the exporters' input.
  MetricsSnapshot snapshot() const;

  /// Number of registered instruments.
  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> hist;
  };

  Entry& find_or_create(const std::string& name, const Labels& labels,
                        MetricKind kind);

  mutable std::mutex mu_;
  /// Keyed by name + '\x1f' + serialized sorted labels; std::map iteration
  /// order == export order, so snapshots are deterministic by construction.
  std::map<std::string, Entry> entries_;
};

/// The registry instrumented code resolves against: the process-wide
/// default, unless a ScopedMetricsOverride is active.
MetricsRegistry& registry();

/// Re-points obs::registry() at `target` for this object's lifetime
/// (restores the previous target on destruction). Intended for tests;
/// install before constructing the components under test, since components
/// resolve their instrument handles at construction.
class ScopedMetricsOverride {
 public:
  explicit ScopedMetricsOverride(MetricsRegistry& target) noexcept;
  ~ScopedMetricsOverride();
  ScopedMetricsOverride(const ScopedMetricsOverride&) = delete;
  ScopedMetricsOverride& operator=(const ScopedMetricsOverride&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Monotonic clock in nanoseconds (the ScopedTimer clock).
std::int64_t monotonic_now_ns() noexcept;

}  // namespace mfpa::obs
