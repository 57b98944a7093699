#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "sim/event_model.hpp"
#include "sim/smart_model.hpp"

namespace mfpa::sim {
namespace {

// Salts for deriving independent per-drive random streams.
constexpr std::uint64_t kLifetimeSalt = 0x11ce;
constexpr std::uint64_t kTelemetrySalt = 0x7e1e;
constexpr std::uint64_t kTicketSalt = 0x71c3;

/// Daily probability that a user applies a pending firmware update. The
/// paper observes most drives stay on their shipped firmware; a low rate
/// reproduces that.
constexpr double kFirmwareUpdateDailyP = 0.0012;

}  // namespace

FleetSimulator::FleetSimulator(Scenario scenario) : scenario_(scenario) {
  if (scenario_.telemetry_start < 0 ||
      scenario_.telemetry_end > scenario_.horizon_days ||
      scenario_.telemetry_start >= scenario_.telemetry_end) {
    throw std::invalid_argument("FleetSimulator: bad telemetry window");
  }
  if (scenario_.fleet_scale <= 0.0) {
    throw std::invalid_argument("FleetSimulator: fleet_scale must be > 0");
  }
}

void FleetSimulator::simulate_lifetimes() {
  if (lifetimes_done_) return;
  const Rng base(scenario_.seed);
  const auto& catalog = vendor_catalog();

  std::size_t total_drives = 0;
  for (const auto& vendor : catalog) {
    total_drives += static_cast<std::size_t>(std::max(
        50.0, std::round(static_cast<double>(vendor.fleet_size) *
                         scenario_.fleet_scale)));
  }
  drives_.clear();
  drives_.reserve(total_drives);

  for (std::size_t v = 0; v < catalog.size(); ++v) {
    const VendorConfig& vendor = catalog[v];
    const auto n = static_cast<std::size_t>(std::max(
        50.0, std::round(static_cast<double>(vendor.fleet_size) *
                         scenario_.fleet_scale)));
    std::vector<double> fw_shares;
    fw_shares.reserve(vendor.firmware.size());
    for (const auto& fw : vendor.firmware) fw_shares.push_back(fw.market_share);
    std::vector<double> model_shares;
    model_shares.reserve(vendor.models.size());
    for (const auto& m : vendor.models) model_shares.push_back(m.fleet_fraction);

    for (std::size_t i = 0; i < n; ++i) {
      DriveInfo info;
      info.drive_id = (static_cast<std::uint64_t>(v) + 1) * 10'000'000ULL + i;
      info.vendor = static_cast<int>(v);
      Rng rng = base.split(info.drive_id ^ kLifetimeSalt);
      info.model = static_cast<int>(rng.categorical(model_shares));
      info.firmware_initial =
          static_cast<std::uint8_t>(rng.categorical(fw_shares));
      info.profile = UsageModel::sample_profile(rng);
      info.outcome = failure_model_.sample_outcome(
          vendor, info.firmware_initial, scenario_.horizon_days, rng);
      drives_.push_back(info);
    }
  }
  lifetimes_done_ = true;
}

const std::vector<DriveInfo>& FleetSimulator::drives() {
  simulate_lifetimes();
  return drives_;
}

std::vector<VendorSummary> FleetSimulator::summarize() {
  simulate_lifetimes();
  const auto& catalog = vendor_catalog();
  std::vector<VendorSummary> out(catalog.size());
  for (std::size_t v = 0; v < catalog.size(); ++v) {
    out[v].vendor_name = catalog[v].name;
  }
  for (const auto& d : drives_) {
    auto& s = out[static_cast<std::size_t>(d.vendor)];
    ++s.total;
    if (d.outcome.fails) ++s.failures;
  }
  for (auto& s : out) {
    s.replacement_rate =
        s.total > 0 ? static_cast<double>(s.failures) /
                          static_cast<double>(s.total)
                    : 0.0;
  }
  return out;
}

std::vector<TroubleTicket> FleetSimulator::tickets() {
  simulate_lifetimes();
  const Rng base(scenario_.seed);
  std::vector<TroubleTicket> out;
  const double mean_delay = std::max(0.5, scenario_.mean_repair_delay);
  const double p = 1.0 / (1.0 + mean_delay);
  for (const auto& d : drives_) {
    if (!d.outcome.fails) continue;
    Rng rng = base.split(d.drive_id ^ kTicketSalt);
    TroubleTicket t;
    t.drive_id = d.drive_id;
    t.vendor = d.vendor;
    // The user notices the failure and brings the machine in after a delay;
    // at least one day elapses before the after-sales desk logs the case.
    t.imt = d.outcome.failure_day + 1 + static_cast<DayIndex>(rng.geometric(p));
    t.category = d.outcome.category;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(), [](const TroubleTicket& a, const TroubleTicket& b) {
    if (a.imt != b.imt) return a.imt < b.imt;
    return a.drive_id < b.drive_id;
  });
  return out;
}

DriveHardware FleetSimulator::hardware_of(const DriveInfo& info) const {
  const auto& model = vendor_catalog()[static_cast<std::size_t>(info.vendor)]
                          .models[static_cast<std::size_t>(info.model)];
  return {model.capacity_gb, model.flash_layers};
}

DriveTimeSeries FleetSimulator::generate_drive_telemetry(
    const DriveInfo& info) const {
  const Rng base(scenario_.seed);
  Rng rng = base.split(info.drive_id ^ kTelemetrySalt);

  DriveTimeSeries series;
  series.drive_id = info.drive_id;
  series.vendor = info.vendor;
  series.model = info.model;
  series.failed = info.outcome.fails;
  series.failure_day = info.outcome.fails ? info.outcome.failure_day : -1;

  const DayIndex window_start =
      std::max(scenario_.telemetry_start, info.outcome.deploy_day);
  const DayIndex window_end =
      info.outcome.fails
          ? std::min(scenario_.telemetry_end,
                     static_cast<DayIndex>(info.outcome.failure_day + 1))
          : scenario_.telemetry_end;
  if (window_start >= window_end) return series;

  auto days =
      UsageModel::observation_days(info.profile, window_start, window_end, rng);
  if (info.outcome.fails) {
    // A failing drive surfaces symptoms; the user powers the machine on and
    // the final days are very likely to be captured.
    static constexpr double kCaptureP[3] = {0.85, 0.65, 0.50};
    for (int back = 0; back < 3; ++back) {
      const DayIndex d =
          static_cast<DayIndex>(info.outcome.failure_day - back);
      if (d >= window_start && d < window_end && rng.bernoulli(kCaptureP[back])) {
        days.push_back(d);
      }
    }
    std::sort(days.begin(), days.end());
    days.erase(std::unique(days.begin(), days.end()), days.end());
  }
  if (days.empty()) return series;

  const DriveHardware hw = hardware_of(info);
  const auto& vendor = vendor_catalog()[static_cast<std::size_t>(info.vendor)];
  SmartState state = SmartModel::init_state(
      hw, info.profile,
      static_cast<double>(window_start - info.outcome.deploy_day), rng);
  // A slice of healthy drives suffers a transient SMART scare (media-error
  // burst without any W/B storage signature) somewhere in the window.
  if (!info.outcome.fails && rng.bernoulli(0.22) &&
      window_end - window_start > 30) {
    state.scare_day = static_cast<DayIndex>(
        rng.uniform_int(window_start + 10, window_end - 10));
    state.scare_len = static_cast<int>(rng.uniform_int(4, 12));
  }
  const bool grumpy_os = state.grumpy || rng.bernoulli(0.05);
  const EventRates base_rates = EventModel::healthy_base(grumpy_os);
  const EventRates& boost = EventModel::archetype_boost(info.outcome.archetype);

  // Firmware versions available over time: the shipped catalog, plus (under
  // drift) one out-of-catalog release appearing mid-window that a trained
  // model has never seen.
  const auto catalog_fw = vendor.firmware.size();
  const DayIndex drift_release_day =
      scenario_.telemetry_start +
      static_cast<DayIndex>(
          (scenario_.telemetry_end - scenario_.telemetry_start) * 55 / 100);
  std::uint8_t fw = info.firmware_initial;

  series.records.reserve(days.size());
  DayIndex prev_day = window_start;
  for (const DayIndex day : days) {
    const int elapsed = std::max(1, day - prev_day);
    SmartModel::advance(state, hw, info.profile, info.outcome, day, elapsed,
                        rng);

    const std::size_t latest_fw =
        (scenario_.enable_drift && day >= drift_release_day) ? catalog_fw
                                                             : catalog_fw - 1;
    if (fw < latest_fw &&
        rng.bernoulli(1.0 - std::pow(1.0 - kFirmwareUpdateDailyP, elapsed))) {
      ++fw;  // users move one release forward when they do update
    }

    DailyRecord rec;
    rec.day = day;
    rec.firmware_index = fw;
    rec.smart = SmartModel::observe(state, hw, info.outcome, day,
                                    scenario_.enable_drift, rng);
    const double level = degradation_level(info.outcome, day);
    EventModel::sample_day(base_rates, boost, level, rng, rec.w, rec.b);
    series.records.push_back(rec);
    prev_day = day;
  }
  return series;
}

std::vector<std::size_t> FleetSimulator::tracked_drives() {
  simulate_lifetimes();
  const Rng base(scenario_.seed);
  const auto& catalog = vendor_catalog();

  // Track: every drive failing inside the telemetry window + per-vendor
  // sampled healthy drives.
  std::vector<std::vector<std::size_t>> healthy_by_vendor(catalog.size());
  std::vector<std::size_t> tracked;
  std::vector<std::size_t> failed_per_vendor(catalog.size(), 0);
  for (std::size_t i = 0; i < drives_.size(); ++i) {
    const auto& d = drives_[i];
    if (d.outcome.fails) {
      if (d.outcome.failure_day >= scenario_.telemetry_start &&
          d.outcome.failure_day < scenario_.telemetry_end) {
        tracked.push_back(i);
        ++failed_per_vendor[static_cast<std::size_t>(d.vendor)];
      }
    } else {
      healthy_by_vendor[static_cast<std::size_t>(d.vendor)].push_back(i);
    }
  }
  for (std::size_t v = 0; v < catalog.size(); ++v) {
    auto& pool = healthy_by_vendor[v];
    std::size_t want = static_cast<std::size_t>(
        std::ceil(static_cast<double>(failed_per_vendor[v]) *
                  scenario_.healthy_per_failed));
    want = std::max<std::size_t>(want, 16);  // floor for tiny scenarios
    if (scenario_.max_healthy_tracked > 0) {
      want = std::min(want, scenario_.max_healthy_tracked);
    }
    want = std::min(want, pool.size());
    Rng rng = base.split(0x5a17 + v);
    const auto pick = rng.sample_without_replacement(pool.size(), want);
    for (std::size_t k : pick) tracked.push_back(pool[k]);
  }
  std::sort(tracked.begin(), tracked.end());
  return tracked;
}

std::vector<DriveTimeSeries> FleetSimulator::generate_telemetry_chunk(
    const std::vector<std::size_t>& tracked, std::size_t begin,
    std::size_t end, std::size_t threads) {
  simulate_lifetimes();
  end = std::min(end, tracked.size());
  begin = std::min(begin, end);
  const std::size_t count = end - begin;

  std::vector<DriveTimeSeries> generated(count);
  parallel_for_each(count, threads, [&](std::size_t k) {
    generated[k] = generate_drive_telemetry(drives_[tracked[begin + k]]);
  });
  std::vector<DriveTimeSeries> out;
  out.reserve(generated.size());
  for (auto& series : generated) {
    if (!series.records.empty()) out.push_back(std::move(series));
  }
  return out;
}

std::vector<DriveTimeSeries> FleetSimulator::generate_telemetry(
    std::size_t threads) {
  const std::vector<std::size_t> tracked = tracked_drives();
  return generate_telemetry_chunk(tracked, 0, tracked.size(), threads);
}

}  // namespace mfpa::sim
