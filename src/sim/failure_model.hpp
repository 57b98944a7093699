// Lifetime and failure-mode model for a simulated drive.
//
// The per-drive failure probability follows the vendor replacement rate
// scaled by the firmware multiplier (Observation #2 / Fig. 3). The age at
// failure follows a bathtub mixture (Fig. 2): infant mortality (Weibull
// shape < 1), random failures (exponential), and wear-out (Weibull
// shape >> 1). Each failing drive is assigned a failure *archetype* that
// controls which precursors it emits, and a RaSRF ticket category whose
// marginal distribution matches Table I.
#pragma once

#include "common/date.hpp"
#include "common/rng.hpp"
#include "sim/catalog.hpp"

namespace mfpa::sim {

/// Precursor archetype of a failing drive.
enum class FailureArchetype {
  kWearout,     ///< gradual wear: strong SMART drift, W_52 "predicted failure"
  kMedia,       ///< media/bad-block: media errors + paging events
  kController,  ///< controller fault: weak SMART, strong W_11/W_157 bursts
  kSudden,      ///< abrupt death: short W/B burst only (system-level symptoms)
};

inline constexpr std::size_t kNumArchetypes = 4;

/// Complete sampled destiny of one drive.
struct DriveOutcome {
  bool fails = false;
  DayIndex deploy_day = 0;       ///< first powered-on day (may precede day 0)
  DayIndex failure_day = -1;     ///< calendar day of failure; valid iff fails
  double age_at_failure = 0.0;   ///< days between deployment and failure
  FailureArchetype archetype = FailureArchetype::kWearout;
  TicketCategory category = TicketCategory::kStorageDriveFailure;
  int onset_days = 0;            ///< degradation lead time before failure
};

/// Parameters of the bathtub age-at-failure mixture (densities over days of
/// drive age). Defaults reproduce the paper's Fig. 2 shape.
struct BathtubParams {
  double infant_weight = 0.30;
  double infant_shape = 0.6;    ///< Weibull shape < 1: decreasing hazard
  double infant_scale = 90.0;
  double random_weight = 0.35;
  double random_mean = 400.0;   ///< exponential mean
  double wearout_weight = 0.35;
  double wearout_shape = 5.0;   ///< Weibull shape >> 1: increasing hazard
  double wearout_scale = 950.0;
};

/// Samples drive destinies; stateless apart from configuration.
class FailureModel {
 public:
  FailureModel() = default;
  explicit FailureModel(BathtubParams params) : bathtub_(params) {}

  /// Samples a complete outcome for one drive of `vendor` shipped with
  /// firmware index `firmware_index`. The failure probability is calibrated
  /// so the fleet-average observed failure fraction over [0, horizon)
  /// matches the vendor replacement rate.
  DriveOutcome sample_outcome(const VendorConfig& vendor,
                              std::size_t firmware_index, DayIndex horizon,
                              Rng& rng) const;

  /// Age-at-failure density sample (unconditioned on the window).
  double sample_failure_age(Rng& rng, FailureArchetype* archetype_hint) const;

  const BathtubParams& bathtub() const noexcept { return bathtub_; }

  /// Mean firmware failure multiplier of a vendor fleet (share-weighted).
  static double mean_firmware_multiplier(const VendorConfig& vendor) noexcept;

 private:
  BathtubParams bathtub_;
};

/// Samples a ticket category given the archetype. Drive-level categories are
/// more likely for wear/media archetypes, system-level for controller/sudden,
/// with weights chosen so the *marginal* category distribution matches
/// Table I when archetypes follow the default vendor mixes.
TicketCategory sample_ticket_category(FailureArchetype archetype, Rng& rng);

}  // namespace mfpa::sim
