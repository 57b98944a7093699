#include "sim/failure_model.hpp"

#include <algorithm>
#include <cmath>

namespace mfpa::sim {
namespace {

/// Archetype weights per bathtub mixture component: infant deaths skew to
/// controller/sudden faults, wear-out deaths to gradual wear.
constexpr double kArchetypeByComponent[3][kNumArchetypes] = {
    // wearout, media, controller, sudden
    {0.05, 0.25, 0.35, 0.35},  // infant
    {0.15, 0.35, 0.25, 0.25},  // random
    {0.55, 0.30, 0.07, 0.08},  // wear-out
};

/// P(drive-level manifestation | archetype): gradual archetypes get flagged
/// at the drive level more often; sudden deaths look like system failures.
constexpr double kDriveLevelByArchetype[kNumArchetypes] = {0.60, 0.45, 0.12,
                                                           0.08};

}  // namespace

double FailureModel::mean_firmware_multiplier(
    const VendorConfig& vendor) noexcept {
  double mean = 0.0;
  double share = 0.0;
  for (const auto& fw : vendor.firmware) {
    mean += fw.failure_multiplier * fw.market_share;
    share += fw.market_share;
  }
  return share > 0.0 ? mean / share : 1.0;
}

double FailureModel::sample_failure_age(Rng& rng,
                                        FailureArchetype* archetype_hint) const {
  const BathtubParams& p = bathtub_;
  const std::size_t component =
      rng.categorical({p.infant_weight, p.random_weight, p.wearout_weight});
  double age = 0.0;
  switch (component) {
    case 0: age = rng.weibull(p.infant_shape, p.infant_scale); break;
    case 1: age = rng.exponential(1.0 / p.random_mean); break;
    default: age = rng.weibull(p.wearout_shape, p.wearout_scale); break;
  }
  if (archetype_hint != nullptr) {
    const double* w = kArchetypeByComponent[component];
    const std::size_t a = rng.categorical({w[0], w[1], w[2], w[3]});
    *archetype_hint = static_cast<FailureArchetype>(a);
  }
  return age;
}

DriveOutcome FailureModel::sample_outcome(const VendorConfig& vendor,
                                          std::size_t firmware_index,
                                          DayIndex horizon, Rng& rng) const {
  DriveOutcome out;
  // Deployment: drives entered service up to ~two years before the
  // observation window and keep entering during it (consumer PCs ship
  // continuously), so the observed fleet spans infancy through wear-out.
  out.deploy_day = static_cast<DayIndex>(rng.uniform_int(-720, horizon - 30));

  const double fw_mult =
      vendor.firmware.at(firmware_index).failure_multiplier /
      mean_firmware_multiplier(vendor);
  const double p_fail = std::clamp(vendor.replacement_rate * fw_mult, 0.0, 1.0);
  out.fails = rng.bernoulli(p_fail);
  if (!out.fails) return out;

  // Rejection-sample an age that places the failure inside the observation
  // window; fall back to a uniform draw if the window is hard to hit (e.g.
  // drives deployed at the very end of the horizon).
  FailureArchetype archetype = FailureArchetype::kWearout;
  bool placed = false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double age = sample_failure_age(rng, &archetype);
    // Even DOA drives survive the first power-on day.
    const DayIndex day =
        out.deploy_day + std::max<DayIndex>(1, static_cast<DayIndex>(age));
    if (day >= 0 && day < horizon) {
      out.age_at_failure = age;
      out.failure_day = day;
      placed = true;
      break;
    }
  }
  if (!placed) {
    const DayIndex lo = std::max<DayIndex>(0, out.deploy_day + 1);
    out.failure_day = static_cast<DayIndex>(rng.uniform_int(lo, horizon - 1));
    out.age_at_failure = static_cast<double>(out.failure_day - out.deploy_day);
    archetype = rng.bernoulli(0.5) ? FailureArchetype::kController
                                   : FailureArchetype::kSudden;
  }
  out.archetype = archetype;
  out.category = sample_ticket_category(archetype, rng);

  // Degradation lead time before the failure day (how early precursors
  // start). Gradual archetypes degrade for weeks; sudden deaths for days.
  switch (archetype) {
    case FailureArchetype::kWearout:
      out.onset_days = static_cast<int>(std::clamp(rng.lognormal(3.45, 0.25), 20.0, 60.0));
      break;
    case FailureArchetype::kMedia:
      out.onset_days = static_cast<int>(std::clamp(rng.lognormal(3.1, 0.30), 14.0, 45.0));
      break;
    case FailureArchetype::kController:
      out.onset_days = static_cast<int>(std::clamp(rng.lognormal(2.8, 0.30), 12.0, 30.0));
      break;
    case FailureArchetype::kSudden:
      out.onset_days = static_cast<int>(std::clamp(rng.lognormal(2.6, 0.25), 10.0, 21.0));
      break;
  }
  return out;
}

TicketCategory sample_ticket_category(FailureArchetype archetype, Rng& rng) {
  const bool drive_level =
      rng.bernoulli(kDriveLevelByArchetype[static_cast<std::size_t>(archetype)]);
  const auto& cats = ticket_categories();
  std::vector<double> weights(cats.size(), 0.0);
  for (std::size_t i = 0; i < cats.size(); ++i) {
    const bool is_drive = cats[i].level == FailureLevel::kDriveLevel;
    if (is_drive == drive_level) weights[i] = cats[i].fraction;
  }
  return cats[rng.categorical(weights)].category;
}

}  // namespace mfpa::sim
