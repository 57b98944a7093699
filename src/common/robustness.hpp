// Graceful-degradation policy shared by every telemetry consumer.
//
// Production consumer-storage telemetry is dirty by construction: agents
// retry uploads after lost ACKs (duplicate days), machine clocks roll back,
// firmware updates reset cumulative counters, and rows arrive truncated or
// with garbage cells. `RobustnessConfig` selects between failing fast on the
// first anomaly (strict — the right mode for simulator round-trips and CI)
// and repairing / dropping / quarantining with full accounting (lenient —
// the right mode for a deployed fleet). `IngestStats` is the structured
// report every ingestion path emits either way, so "how dirty was this
// batch" is a first-class output of the pipeline (see docs/ROBUSTNESS.md).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace mfpa {

namespace wire {
class ByteReader;
}  // namespace wire

enum class IngestMode {
  kStrict,   ///< throw on the first anomaly, with a located diagnostic
  kLenient,  ///< repair what is repairable, drop the rest, count everything
};

/// The ingestion mode. Lenient mode's policies are constants where they
/// apply: counter re-basing, value repair and the quarantine fraction in
/// core/robust_ingest.cpp, the ticket window slack in core/mfpa.cpp, and
/// the diagnostics cap IngestStats::kDiagnosticsCap.
struct RobustnessConfig {
  IngestMode mode = IngestMode::kStrict;

  bool lenient() const noexcept { return mode == IngestMode::kLenient; }
};

/// Structured accounting of one ingestion pass (CSV read, batch preprocess,
/// or streaming). All counters are additive; merge() combines reports from
/// sharded readers or per-drive streaming agents.
struct IngestStats {
  // Row-level accounting.
  std::size_t rows_read = 0;      ///< data rows / records delivered
  std::size_t rows_repaired = 0;  ///< kept after at least one field repair
  std::size_t rows_dropped = 0;   ///< discarded (unparsable or quarantine policy)

  // Per-fault-mode counters (each dropped/repaired row also increments the
  // matching cause below).
  std::size_t short_rows = 0;             ///< wrong arity: truncated / dropped column
  std::size_t bad_cells = 0;              ///< unparsable numeric field
  std::size_t firmware_repairs = 0;       ///< malformed firmware string, index reset
  std::size_t duplicate_days = 0;         ///< same day delivered again (retries)
  std::size_t clock_rollbacks = 0;        ///< day earlier than one already seen
  std::size_t counter_resets_rebased = 0; ///< monotone SMART counter re-based
  std::size_t values_repaired = 0;        ///< NaN / negative / saturated fields fixed
  std::size_t duplicate_drives = 0;       ///< repeated drive id in one batch
  std::size_t drives_quarantined = 0;     ///< drives dropped by the bad-fraction policy
  std::size_t tickets_dropped = 0;        ///< unparsable tickets or IMT out of window

  /// Cap on the retained diagnostic samples.
  static constexpr std::size_t kDiagnosticsCap = 20;

  /// Capped sample of human-readable, line-numbered diagnostics.
  std::vector<std::string> diagnostics;

  /// Appends a diagnostic unless kDiagnosticsCap are already kept.
  void note(std::string diagnostic);

  /// Adds `other` into this report (diagnostics capped at kDiagnosticsCap).
  void merge(const IngestStats& other);

  /// Total anomalies observed (sum of the per-cause counters).
  std::size_t faults_total() const noexcept;

  bool clean() const noexcept { return faults_total() == 0; }

  /// (label, count) rows for table rendering; zero-count causes omitted.
  std::vector<std::pair<std::string, std::size_t>> counter_rows() const;

  /// One-line summary ("rows 1200 (repaired 3, dropped 2), faults: ...").
  std::string summary() const;

  bool operator==(const IngestStats&) const = default;

  /// Fixed-width binary image (common/wire.hpp) inside durable checkpoints:
  /// the thirteen counters as u64, then the diagnostics as u32 count and
  /// u32-length-prefixed bytes. Integrity is the enclosing format's job;
  /// load() checks every count against a limit before allocating.
  void save(std::string& out) const;
  void load(wire::ByteReader& in);
};

/// Renders the full report (summary, per-cause table, diagnostics) to `os`.
void print_ingest_stats(const IngestStats& stats, std::ostream& os);

}  // namespace mfpa
