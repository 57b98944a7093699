// Fig. 2 reproduction: failure count vs power-on hours (S_12) follows the
// bathtub curve — elevated infant mortality, a stable middle, and a rising
// wear-out tail.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const auto args = bench::parse_args(argc, argv);
  sim::FleetSimulator fleet(sim::scenario_by_name(args.scenario, args.seed));

  std::vector<double> poh;
  std::vector<double> ages;
  for (const auto& d : fleet.drives()) {
    if (!d.outcome.fails) continue;
    poh.push_back(d.poh_at_failure());
    ages.push_back(d.outcome.age_at_failure);
  }
  std::cout << "=== Fig. 2: failure distribution over power-on hours ===\n"
            << "failures=" << poh.size() << "\n\n";

  // Sixteen 500-hour bands over [0, 8000); the edge bands also take what
  // falls outside.
  constexpr std::size_t kBands = 16;
  constexpr double kBandHours = 500.0;
  std::vector<std::size_t> failures(kBands, 0);
  for (double h : poh) {
    const auto band = static_cast<std::size_t>(std::max(0.0, h) / kBandHours);
    ++failures[std::min(band, kBands - 1)];
  }
  TablePrinter table({"POH bin", "failures", "bar"});
  for (std::size_t b = 0; b < kBands; ++b) {
    const double lo = kBandHours * static_cast<double>(b);
    const std::size_t n = failures[b];
    table.add_row({format_double(lo, 0) + "-" +
                       format_double(lo + kBandHours, 0) + "h",
                   std::to_string(n),
                   std::string(std::min<std::size_t>(n / 2, 60), '#')});
  }
  table.print(std::cout);

  // Bathtub hazard: failures per observed drive-day of exposure in each age
  // band (exposure-normalized, so the declining population of old drives
  // does not mask the wear-out rise).
  struct Band {
    const char* name;
    double lo;
    double hi;
    double exposure_days = 0.0;
    std::size_t failures = 0;
  };
  std::vector<Band> bands{{"infancy", 0.0, 90.0},
                          {"early stable", 90.0, 300.0},
                          {"late stable", 300.0, 650.0},
                          {"wear-out", 650.0, 1300.0}};
  const DayIndex horizon = fleet.scenario().horizon_days;
  for (const auto& d : fleet.drives()) {
    const double age_at_window_start =
        std::max(0.0, -static_cast<double>(d.outcome.deploy_day));
    const double age_at_end =
        d.outcome.fails
            ? d.outcome.age_at_failure
            : static_cast<double>(horizon - d.outcome.deploy_day);
    for (auto& band : bands) {
      const double lo = std::max(band.lo, age_at_window_start);
      const double hi = std::min(band.hi, age_at_end);
      if (hi > lo) band.exposure_days += hi - lo;
      if (d.outcome.fails && d.outcome.age_at_failure >= band.lo &&
          d.outcome.age_at_failure < band.hi) {
        ++band.failures;
      }
    }
  }
  print_section(std::cout, "Lifecycle hazard (exposure-normalized)");
  TablePrinter phases({"phase", "age range (days)", "failures",
                       "exposure (Mdrive-days)", "hazard (per 100k drive-days)"});
  for (const auto& band : bands) {
    const double hazard =
        band.exposure_days > 0
            ? static_cast<double>(band.failures) / band.exposure_days * 1e5
            : 0.0;
    phases.add_row({band.name,
                    format_double(band.lo, 0) + "-" + format_double(band.hi, 0),
                    std::to_string(band.failures),
                    format_double(band.exposure_days / 1e6, 2),
                    format_double(hazard, 2)});
  }
  phases.print(std::cout);
  std::cout << "\nPaper shape (Fig. 2): hazard high in infancy, flat through\n"
               "the stable phase, rising again in wear-out (bathtub).\n";
  return 0;
}
