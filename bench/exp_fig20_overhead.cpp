// Fig. 20 reproduction: per-stage overhead of the MFPA pipeline — items,
// execution time, and working-set size — plus deployment-style per-drive
// inference latency (the paper reports microsecond-level client-side
// prediction and ~3 minutes for 4M records).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/preprocess.hpp"

int main(int argc, char** argv) {
  using namespace mfpa;
  const auto args = bench::parse_args(argc, argv);
  bench::World world(args);
  bench::print_world_banner(world, args, "=== Fig. 20: pipeline overhead ===");

  core::MfpaConfig config;
  config.vendor = 0;
  config.seed = args.seed;
  core::MfpaPipeline pipeline(config);
  const auto report = pipeline.run(world.telemetry, world.tickets);

  TablePrinter table({"stage", "data items", "time (ms)", "space (MB)",
                      "throughput (items/s)"});
  for (const auto& s : report.stages) {
    const double mb = static_cast<double>(s.bytes) / (1024.0 * 1024.0);
    const double rate =
        s.seconds > 0 ? static_cast<double>(s.items) / s.seconds : 0.0;
    table.add_row({s.name, format_with_commas(static_cast<long long>(s.items)),
                   format_double(s.seconds * 1e3, 1), format_double(mb, 1),
                   format_with_commas(static_cast<long long>(rate))});
  }
  table.print(std::cout);

  // Client-side inference latency: score one observation per call, as a
  // client agent does. The probe takes the first 1,000 cleaned vendor-0
  // records, cleaning one drive at a time until it has them (a drive too
  // short to keep comes back empty, as Preprocessor::process would drop it).
  print_section(std::cout, "Client-side inference latency");
  const core::Preprocessor pre;
  const auto builder = pipeline.make_builder();
  data::Dataset probe;
  probe.feature_names = builder.feature_names();
  for (const auto& series : world.telemetry) {
    if (probe.size() >= 1000) break;
    if (series.vendor != 0) continue;
    const auto d = pre.process_drive(series);
    for (const auto& r : d.records) {
      if (probe.size() >= 1000) break;
      probe.add(builder.features_of(r), 0, {d.drive_id, r.day, d.vendor});
    }
  }
  std::vector<data::Matrix> observations;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    observations.emplace_back(0, 0);
    observations.back().add_row(probe.X.row(i));
  }
  // Each window repeats passes over the probe until it lasts kWindowSeconds;
  // returns the sorted microseconds per record of kWindows windows.
  constexpr int kWindows = 5;
  constexpr double kWindowSeconds = 0.2;
  const auto us_per_record = [&](const auto& one_pass) {
    std::vector<double> us;
    for (int w = 0; w < kWindows; ++w) {
      const auto start = std::chrono::steady_clock::now();
      std::size_t passes = 0;
      std::chrono::duration<double> elapsed{};
      do {
        one_pass();
        ++passes;
        elapsed = std::chrono::steady_clock::now() - start;
      } while (elapsed.count() < kWindowSeconds);
      const auto records = static_cast<double>(passes * probe.size());
      us.push_back(elapsed.count() * 1e6 / records);
    }
    std::sort(us.begin(), us.end());
    return us;
  };
  const auto print_line = [&](const std::string& what,
                              const std::vector<double>& us) {
    const double median = us[us.size() / 2];
    std::cout << what << ": median " << format_double(median, 2)
              << " us/record (range " << format_double(us.front(), 2) << "-"
              << format_double(us.back(), 2) << " over " << kWindows
              << " windows of >= " << format_double(kWindowSeconds, 1)
              << " s) -> " << format_double(4e6 * median / 1e6 / 60.0, 2)
              << " minutes per 4M records\n";
  };
  const auto one_per_call = us_per_record([&] {
    for (const auto& row : observations) {
      (void)pipeline.model().predict_proba(row);
    }
  });
  const auto one_batch = us_per_record([&] { (void)pipeline.score(probe); });
  const std::string n = std::to_string(probe.size());
  print_line("scored " + n + " observations one per call", one_per_call);
  print_line("scored the same " + n + " as one batch per call", one_batch);
  std::cout << "(paper: ~3 minutes for 4 million real-time records;"
               " microsecond-level per-record prediction on the client)\n";
  return 0;
}
