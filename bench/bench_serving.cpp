// Serving-path benchmark: trains and publishes an RF model, then streams
// the simulated fleet through the micro-batched ScoringEngine at maximum
// rate, reporting sustained throughput, batching behaviour, tail latency,
// and drive-level accuracy against simulator ground truth. Results are
// written to BENCH_serving.json (uploaded as a CI artifact alongside
// BENCH_ml_kernels.json; see docs/PERFORMANCE.md and docs/SERVING.md).
//
//   ./bench_serving [--scenario=tiny|small|default|large] [--seed=N]
//                   [--batch=256] [--threads=0] [--shards=4]
//                   [--out=BENCH_serving.json]
//                   [--no-flat] [--no-durable] [--no-sharded]
//                   [--no-multiproc] [--simd=auto|scalar|avx2]
//
// --no-flat serves from the node-pointer trees instead of the compiled
// flat-forest path; running both and diffing records_per_sec measures the
// serving-side speedup of compiled inference (scores are identical).
// --simd pins the flat kernel tier (degrading to what the CPU supports) —
// together they A/B every inference configuration the registry can
// activate.
//
// Unless --no-durable is given, a second replay pass runs with the
// checksummed WAL + checkpoints enabled (docs/DURABILITY.md), reporting
// durable_records_per_sec so the perf gate tracks the durability tax.
//
// Unless --no-sharded is given, a third pass replays the same fleet over the
// loopback binary protocol into a --shards=N ShardRouter (encode -> TCP ->
// decode -> route; docs/SERVING.md), reporting sharded_records_per_sec,
// sharded_latency_p99_us, and sharded_speedup vs the single-engine pass.
//
// Unless --no-multiproc is given, a fourth pass spawns --shards=N real
// `mfpa shard-serve` OS processes (the fleet-replay --processes topology;
// docs/SERVING.md "multi-process topology") and feeds the same stream
// through a shard-aware ShardedClient, reporting multiproc_records_per_sec
// and multiproc_speedup — the cross-process-boundary cost/scaling the gate
// tracks per commit. Every pass feeds the same stream through serve::feed.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "ml/simd.hpp"
#include "net/fleet_replay.hpp"
#include "net/shard_router.hpp"
#include "net/sharded_client.hpp"
#include "net/supervisor.hpp"
#include "obs/export.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"

#ifndef MFPA_CLI_BINARY
#error "MFPA_CLI_BINARY must point at the mfpa executable"
#endif

namespace {

/// Fail-fast flag parsing: count/seed flags must be plain non-negative
/// integers (no sign, no fraction, nothing trailing) at least `min_value`,
/// rejected before the expensive fleet build.
std::uint64_t parse_uint_flag(const std::string& flag, const std::string& text,
                              std::uint64_t min_value) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || text[0] == '-' || text[0] == '+' ||
      used != text.size() || value < min_value) {
    std::cerr << flag << " must be an integer >= " << min_value << ", got '"
              << text << "'\n";
    std::exit(1);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfpa;
  std::size_t max_batch = 256;
  std::size_t threads = 0;
  std::size_t shards = 4;
  bool flat = true;
  bool durable = true;
  bool sharded = true;
  bool multiproc = true;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Validated before bench::parse_args touches --seed (its stoull would
    // die uncaught) and before any telemetry is generated.
    if (starts_with(arg, "--batch="))
      max_batch = parse_uint_flag("--batch", arg.substr(8), 1);
    if (starts_with(arg, "--threads="))
      threads = parse_uint_flag("--threads", arg.substr(10), 0);
    if (starts_with(arg, "--shards="))
      shards = parse_uint_flag("--shards", arg.substr(9), 1);
    if (starts_with(arg, "--seed="))
      parse_uint_flag("--seed", arg.substr(7), 0);
    if (starts_with(arg, "--out=")) out_path = arg.substr(6);
    if (arg == "--no-flat") flat = false;
    if (arg == "--no-durable") durable = false;
    if (arg == "--no-sharded") sharded = false;
    if (arg == "--no-multiproc") multiproc = false;
    if (starts_with(arg, "--simd=")) {
      std::optional<ml::SimdLevel> level;
      if (!ml::parse_simd_level(arg.substr(7), level)) {
        std::cerr << "--simd must be auto, scalar, or avx2\n";
        return 1;
      }
      ml::set_simd_override(level);
    }
  }
  const auto args = bench::parse_args(argc, argv);
  std::cout << "simd kernel: " << ml::to_string(ml::active_simd_level())
            << "\n";

  bench::World world(args);
  std::cout << "fleet: " << world.telemetry.size() << " drives\n";

  const auto registry_dir =
      (std::filesystem::temp_directory_path() / "mfpa-bench-registry")
          .string();
  std::filesystem::remove_all(registry_dir);
  serve::ModelRegistry registry(registry_dir, {threads, flat});
  core::MfpaConfig config;
  config.seed = args.seed;
  const int version = serve::train_and_publish(registry, config,
                                               world.telemetry, world.tickets);
  std::cout << "published RF v" << version << " (threshold "
            << format_double(registry.current()->manifest.threshold, 3)
            << ")\n";

  serve::EngineConfig engine_config;
  engine_config.max_batch = max_batch;
  engine_config.store.shards = threads;
  serve::ScoringEngine engine(registry, engine_config);
  const serve::FleetReplayer replayer(world.telemetry);
  const auto report = replayer.replay(engine);
  engine.stop();

  // Durable pass: same fleet, same model, with the WAL + checkpoint path
  // on. The throughput delta is the price of crash consistency.
  double durable_records_per_sec = 0.0;
  if (durable) {
    const auto durable_dir =
        (std::filesystem::temp_directory_path() / "mfpa-bench-durable")
            .string();
    std::filesystem::remove_all(durable_dir);
    serve::EngineConfig durable_config = engine_config;
    durable_config.durability.dir = durable_dir;
    serve::ScoringEngine durable_engine(registry, durable_config);
    const auto durable_report = replayer.replay(durable_engine);
    durable_engine.stop();
    durable_records_per_sec = durable_report.records_per_sec;
    std::filesystem::remove_all(durable_dir);
  }

  // Sharded loopback pass: the same fleet encoded through the binary
  // ingestion protocol into a ShardRouter over N engines. The speedup vs the
  // single-engine pass is the scaling headroom the serving tier buys (bounded
  // by available cores; the gate tracks it like any other baseline key).
  double sharded_records_per_sec = 0.0;
  double sharded_latency_p99_us = 0.0;
  double sharded_speedup = 0.0;
  std::uint64_t protocol_errors = 0;
  if (sharded) {
    net::ShardRouterConfig router_config;
    router_config.shards = shards;
    router_config.engine = engine_config;
    net::ShardRouter router(registry, router_config);
    const auto sharded_report = net::replay_router(
        router, replayer, {}, net::Transport::kLoopback);
    router.stop();
    sharded_records_per_sec = sharded_report.replay.records_per_sec;
    sharded_latency_p99_us =
        sharded_report.replay.engine.latency_us.quantile(0.99);
    sharded_speedup = report.records_per_sec > 0
                          ? sharded_records_per_sec / report.records_per_sec
                          : 0.0;
    protocol_errors = sharded_report.protocol_errors;
    if (sharded_report.replay.records_submitted != report.engine.submitted ||
        protocol_errors != 0) {
      std::cerr << "sharded pass lost records ("
                << sharded_report.replay.records_submitted << "/"
                << report.engine.submitted << ", " << protocol_errors
                << " protocol errors)\n";
      return 1;
    }
  }

  // Multi-process pass: N real shard-serve processes (spawned from the
  // installed CLI binary, scoring the same published model) fed by a
  // shard-aware client. Measures the full process-isolation tax: fork/exec,
  // per-process engines, kHello handshakes, and N loopback streams.
  double multiproc_records_per_sec = 0.0;
  double multiproc_speedup = 0.0;
  if (multiproc) {
    const auto proc_dir =
        (std::filesystem::temp_directory_path() / "mfpa-bench-multiproc")
            .string();
    std::filesystem::remove_all(proc_dir);
    std::filesystem::create_directories(proc_dir);
    std::vector<net::ShardProcessSpec> specs;
    for (std::size_t k = 0; k < shards; ++k) {
      const std::string tag = "shard-" + std::to_string(k);
      net::ShardProcessSpec spec;
      spec.port_file = proc_dir + "/" + tag + ".port";
      spec.log_file = proc_dir + "/" + tag + ".log";
      spec.argv = {MFPA_CLI_BINARY,
                   "shard-serve",
                   "--shard-index=" + std::to_string(k),
                   "--shard-count=" + std::to_string(shards),
                   "--registry=" + registry_dir,
                   "--port-file=" + spec.port_file,
                   "--batch=" + std::to_string(max_batch)};
      specs.push_back(std::move(spec));
    }
    net::ShardProcessSupervisor procs(std::move(specs));
    procs.wait_ready(std::chrono::minutes(2));
    net::ShardedClientConfig client_config;
    client_config.ports = procs.ports();
    client_config.model_version = static_cast<std::uint32_t>(version);
    net::ShardedClient client(client_config);
    const auto fed = serve::feed(replayer, client);
    client.close();
    procs.terminate_all();
    const net::FlushAck& ack = fed.totals;
    if (ack.records_processed + ack.shed != replayer.total_records()) {
      std::cerr << "multiproc pass lost records (" << ack.records_processed
                << " + " << ack.shed << " shed != " << replayer.total_records()
                << ")\n";
      return 1;
    }
    multiproc_records_per_sec = fed.records_per_sec;
    multiproc_speedup = report.records_per_sec > 0
                            ? multiproc_records_per_sec / report.records_per_sec
                            : 0.0;
    std::filesystem::remove_all(proc_dir);
  }

  const double mean_batch =
      report.engine.batches == 0
          ? 0.0
          : static_cast<double>(report.engine.records_processed) /
                static_cast<double>(report.engine.batches);
  TablePrinter table({"metric", "value"});
  table.add_row({"flat inference", flat ? "on" : "off"});
  table.add_row({"records", std::to_string(report.engine.submitted)});
  table.add_row({"wall seconds", format_double(report.wall_seconds, 3)});
  table.add_row({"records/sec",
                 format_with_commas(
                     static_cast<long long>(report.records_per_sec))});
  if (durable) {
    table.add_row({"durable records/sec",
                   format_with_commas(
                       static_cast<long long>(durable_records_per_sec))});
  }
  if (sharded) {
    table.add_row({"shards", std::to_string(shards)});
    table.add_row({"sharded records/sec",
                   format_with_commas(
                       static_cast<long long>(sharded_records_per_sec))});
    table.add_row({"sharded latency p99 (us)",
                   format_double(sharded_latency_p99_us, 1)});
    table.add_row({"sharded speedup", format_double(sharded_speedup, 2)});
  }
  if (multiproc) {
    table.add_row({"multiproc records/sec",
                   format_with_commas(
                       static_cast<long long>(multiproc_records_per_sec))});
    table.add_row({"multiproc speedup", format_double(multiproc_speedup, 2)});
  }
  table.add_row({"micro-batches", std::to_string(report.engine.batches)});
  table.add_row({"mean batch size", format_double(mean_batch, 1)});
  table.add_row({"max queue depth",
                 std::to_string(report.engine.max_queue_depth)});
  table.add_row({"latency p50 (us)",
                 format_double(report.engine.latency_us.quantile(0.5), 1)});
  table.add_row({"latency p99 (us)",
                 format_double(report.engine.latency_us.quantile(0.99), 1)});
  table.add_row({"rows scored", std::to_string(report.engine.rows_scored)});
  table.add_row({"alerts", std::to_string(report.engine.alerts)});
  table.add_row({"drive TPR", format_percent(report.drives.drive_tpr())});
  table.add_row({"drive FPR", format_percent(report.drives.drive_fpr())});
  table.print(std::cout);

  std::ofstream json(out_path, std::ios::trunc);
  if (!json) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"serving_replay\",\n"
       << "  \"scenario\": \"" << args.scenario << "\",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"algorithm\": \"RF\",\n"
       << "  \"flat_inference\": " << (flat ? "true" : "false") << ",\n"
       << "  \"simd\": \"" << ml::to_string(ml::active_simd_level()) << "\",\n"
       << "  \"max_batch\": " << max_batch << ",\n"
       << "  \"records\": " << report.engine.submitted << ",\n"
       << "  \"days\": " << report.days_replayed << ",\n"
       << "  \"wall_seconds\": " << report.wall_seconds << ",\n"
       << "  \"records_per_sec\": " << report.records_per_sec << ",\n";
  if (durable) {
    json << "  \"durable_records_per_sec\": " << durable_records_per_sec
         << ",\n";
  }
  if (sharded) {
    json << "  \"shards\": " << shards << ",\n"
         << "  \"sharded_records_per_sec\": " << sharded_records_per_sec
         << ",\n"
         << "  \"sharded_latency_p99_us\": " << sharded_latency_p99_us << ",\n"
         << "  \"sharded_speedup\": " << sharded_speedup << ",\n"
         << "  \"net_protocol_errors\": " << protocol_errors << ",\n";
  }
  if (multiproc) {
    json << "  \"multiproc_records_per_sec\": " << multiproc_records_per_sec
         << ",\n"
         << "  \"multiproc_speedup\": " << multiproc_speedup << ",\n";
  }
  json
       << "  \"micro_batches\": " << report.engine.batches << ",\n"
       << "  \"mean_batch_size\": " << mean_batch << ",\n"
       << "  \"max_queue_depth\": " << report.engine.max_queue_depth << ",\n"
       << "  \"latency_p50_us\": " << report.engine.latency_us.quantile(0.5)
       << ",\n"
       << "  \"latency_p99_us\": " << report.engine.latency_us.quantile(0.99)
       << ",\n"
       << "  \"rows_scored\": " << report.engine.rows_scored << ",\n"
       << "  \"synthetic_rows\": " << report.engine.synthetic_rows << ",\n"
       << "  \"alerts\": " << report.engine.alerts << ",\n"
       << "  \"drives_quarantined\": " << report.store.drives_quarantined
       << ",\n"
       << "  \"drive_tpr\": " << report.drives.drive_tpr() << ",\n"
       << "  \"drive_fpr\": " << report.drives.drive_fpr() << ",\n"
       // The full registry snapshot, in the same mfpa.metrics.v1 schema that
       // `mfpa serve-replay --metrics-out` writes (CI diffs both).
       << "  \"metrics\": " << obs::to_json(obs::registry().snapshot()) << "\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
