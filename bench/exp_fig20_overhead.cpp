// Fig. 20 reproduction: per-stage overhead of the MFPA pipeline — items,
// execution time, and working-set size — plus deployment-style per-drive
// inference latency (the paper reports microsecond-level client-side
// prediction and ~3 minutes for 4M records).
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

  // Client-side inference latency: score one observation at a time. The
  // probe takes the first 1,000 cleaned vendor-0 records, cleaning one drive
  // at a time until it has them (a drive too short to keep comes back
  // empty, as Preprocessor::process would drop it).
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
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kReps = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    (void)pipeline.score(probe);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double us_per_record =
      secs / (kReps * static_cast<double>(probe.size())) * 1e6;
  std::cout << "scored " << probe.size() << " observations x" << kReps
            << " reps: " << format_double(us_per_record, 2)
            << " us/record -> "
            << format_double(4e6 * us_per_record / 1e6 / 60.0, 2)
            << " minutes per 4M records\n"
            << "(paper: ~3 minutes for 4 million real-time records;"
               " microsecond-level per-record prediction on the client)\n";
  return 0;
}
