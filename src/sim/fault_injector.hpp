// Seeded, composable telemetry corruptor — the adversary the ingestion path
// is hardened against. Applies the real-world fault modes cataloged for
// hyperscale NVMe monitoring (counter resets, clock skew, truncated uploads,
// retry duplicates, ...) to in-memory `DriveTimeSeries` batches, serialized
// CSV text, and ticket streams, with exact per-mode accounting.
//
// Determinism contract: the same `FaultPlan` (modes + rates + seed) applied
// to the same input produces byte-identical corruption, independent of how
// many times the injector is invoked (each corrupt* call re-derives its
// random stream from the plan seed).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/telemetry.hpp"

namespace mfpa::sim {

/// Every injectable fault. Structured modes mutate `DriveTimeSeries`
/// batches; textual modes mangle serialized CSV rows; ticket modes mutate
/// `TroubleTicket` streams.
enum class FaultMode : std::size_t {
  // --- structured (in-memory batch) ---------------------------------------
  kDuplicateDay = 0,     ///< record re-delivered (upload retry after lost ACK)
  kOutOfOrderUpload,     ///< adjacent records swapped in delivery order
  kClockRollback,        ///< one record's day moved backwards (clock skew)
  kCounterReset,         ///< monotone SMART counters restart near zero
  kNanField,             ///< a SMART field becomes NaN
  kNegativeField,        ///< a SMART field becomes negative
  kSaturatedField,       ///< a SMART field / W count saturates its type
  kDuplicateDriveId,     ///< a whole series re-appears under the same id
  // --- textual (serialized CSV) -------------------------------------------
  kDroppedColumn,        ///< one field removed from a row
  kTruncatedRow,         ///< row cut mid-field (interrupted upload)
  kMalformedFirmware,    ///< firmware field becomes a garbage string
  // --- tickets --------------------------------------------------------------
  kTicketImtOutOfWindow, ///< IMT displaced outside the observation window
  // --- on-disk durable state (WAL segments, checkpoints, alert log) --------
  kTornFinalWrite,       ///< trailing bytes cut mid-frame (power loss mid-write)
  kFileTruncation,       ///< file cut to a random fraction of its length
  kBitFlip,              ///< one bit flipped at a random offset (media corruption)
  kDuplicateSegment,     ///< a WAL segment's frames appended again (replayed copy)
  kStaleCheckpoint,      ///< newest checkpoint deleted (older one + newer WAL stay)
};

inline constexpr std::size_t kNumFaultModes = 17;

const char* fault_mode_name(FaultMode mode) noexcept;

/// True when the mode applies to serialized CSV text (corrupt_csv).
bool fault_mode_is_textual(FaultMode mode) noexcept;
/// True when the mode applies to ticket streams (corrupt_tickets).
bool fault_mode_is_ticket(FaultMode mode) noexcept;
/// True when the mode applies to on-disk durable state (corrupt_durable_dir).
bool fault_mode_is_disk(FaultMode mode) noexcept;

/// One fault mode at an injection rate (fraction of eligible sites hit).
struct FaultSpec {
  FaultMode mode = FaultMode::kDuplicateDay;
  double rate = 0.01;
};

/// A composable corruption recipe: the listed faults are applied in enum
/// order, each over its own deterministic random stream.
struct FaultPlan {
  std::vector<FaultSpec> faults;
  std::uint64_t seed = 1;
};

/// Exact per-mode counts of injected faults (accumulated across calls).
struct InjectionStats {
  std::array<std::size_t, kNumFaultModes> injected{};

  std::size_t of(FaultMode mode) const noexcept {
    return injected[static_cast<std::size_t>(mode)];
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const noexcept { return plan_; }
  const InjectionStats& stats() const noexcept { return stats_; }

  /// Applies the plan's structured modes to a telemetry batch (textual and
  /// ticket modes in the plan are ignored here).
  std::vector<DriveTimeSeries> corrupt(
      const std::vector<DriveTimeSeries>& batch);

  /// Applies the plan's textual modes to serialized CSV text (the header
  /// line is never touched).
  std::string corrupt_csv(const std::string& text);

  /// Applies the plan's ticket modes; displaced IMTs land outside
  /// [window_lo, window_hi] by a margin larger than any plausible slack.
  std::vector<TroubleTicket> corrupt_tickets(
      const std::vector<TroubleTicket>& tickets, DayIndex window_lo,
      DayIndex window_hi);

  /// Applies the plan's disk modes to a scoring-service durable directory
  /// (`<dir>/wal/*.wal` segments, `<dir>/ckpt/ckpt-*.mfc`, `alerts.log`) —
  /// the power-loss simulator of the crash-recovery tests. Torn writes,
  /// truncation, bit flips, and duplicated segments hit rate-selected files
  /// (names sorted, so selection is deterministic); a stale-checkpoint
  /// fault deletes the newest checkpoint outright. Returns faults injected.
  std::size_t corrupt_durable_dir(const std::string& dir);

  /// Applies one disk mode to one file (deterministic in plan seed + salt).
  /// kStaleCheckpoint deletes the file regardless of its name.
  void corrupt_file(const std::string& path, FaultMode mode,
                    std::uint64_t salt = 0);

 private:
  FaultPlan plan_;
  InjectionStats stats_;
};

}  // namespace mfpa::sim
