// Shared scaffolding for the experiment harnesses (bench/exp_*.cpp): CLI
// parsing, fleet construction, per-vendor datasets, and one-line metric
// rows. Every harness accepts:
//   --scenario=tiny|small|default|large   (default: default)
//   --seed=N                              (default: 42)
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.hpp"
#include "common/table_printer.hpp"
#include "core/failure_time.hpp"
#include "core/mfpa.hpp"
#include "core/preprocess.hpp"
#include "sim/fleet.hpp"

namespace mfpa::bench {

struct BenchArgs {
  std::string scenario = "default";
  std::uint64_t seed = 42;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--scenario=")) {
      args.scenario = arg.substr(11);
    } else if (starts_with(arg, "--seed=")) {
      args.seed = static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--scenario=tiny|small|default|large] [--seed=N]\n";
      std::exit(0);
    }
  }
  return args;
}

/// Simulated world shared by most harnesses.
struct World {
  sim::FleetSimulator fleet;
  std::vector<sim::DriveTimeSeries> telemetry;
  std::vector<sim::TroubleTicket> tickets;

  explicit World(const BenchArgs& args)
      : fleet(sim::scenario_by_name(args.scenario, args.seed)),
        telemetry(fleet.generate_telemetry(/*threads=*/0)),  // deterministic
        tickets(fleet.tickets()) {}
};

/// The labelled dataset of a vendor set, as the per-vendor harnesses build
/// it: clean those vendors' drives, fit the firmware encoder over them,
/// identify failure times (theta = 7) and build `group` samples. Drives are
/// planned where they lie in `world`, not copied out per vendor.
inline data::Dataset vendor_dataset(const World& world,
                                    const std::vector<int>& vendors,
                                    core::FeatureGroup group,
                                    std::uint64_t seed) {
  std::vector<const sim::DriveTimeSeries*> series;
  for (const auto& s : world.telemetry) {
    if (std::find(vendors.begin(), vendors.end(), s.vendor) != vendors.end()) {
      series.push_back(&s);
    }
  }
  const core::Preprocessor pre;
  std::vector<core::ProcessedDrive> drives;
  pre.plan_batch(series, [&](std::size_t i, const sim::DriveTimeSeries&,
                             core::DrivePlan plan) {
    drives.push_back(pre.convert(*series[i], plan));
  });
  const auto encoder = core::Preprocessor::fit_firmware_encoder(drives);
  const auto failures =
      core::FailureTimeIdentifier(7).identify_all(world.tickets, drives);
  core::SampleConfig sc;
  sc.group = group;
  sc.seed = seed;
  return core::SampleBuilder(sc, &encoder).build(drives, failures);
}

/// Row cells for one evaluated model (TPR/FPR/ACC/PDR/AUC as percents).
inline std::vector<std::string> metric_cells(const core::MfpaReport& r) {
  return {format_percent(r.cm.tpr()), format_percent(r.cm.fpr()),
          format_percent(r.cm.accuracy()), format_percent(r.cm.pdr()),
          format_percent(r.auc)};
}

inline const std::vector<std::string>& metric_headers() {
  static const std::vector<std::string> kHeaders = {"TPR", "FPR", "ACC", "PDR",
                                                    "AUC"};
  return kHeaders;
}

inline void print_world_banner(const World& world, const BenchArgs& args,
                               const std::string& title) {
  std::size_t records = 0;
  for (const auto& t : world.telemetry) records += t.records.size();
  std::cout << title << "\n"
            << "scenario=" << args.scenario << " seed=" << args.seed
            << " | tracked drives=" << world.telemetry.size()
            << " records=" << format_with_commas(static_cast<long long>(records))
            << " tickets=" << world.tickets.size() << "\n";
}

}  // namespace mfpa::bench
