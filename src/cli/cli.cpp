#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "common/string_util.hpp"
#include "common/table_printer.hpp"
#include "core/health_report.hpp"
#include "net/fleet_replay.hpp"
#include "net/forwarding_sink.hpp"
#include "net/server.hpp"
#include "net/sharded_client.hpp"
#include "net/supervisor.hpp"
#include "obs/export.hpp"
#include "core/mfpa.hpp"
#include "core/online_predictor.hpp"
#include "ml/checksum.hpp"
#include "ml/serialize.hpp"
#include "ml/simd.hpp"
#include "serve/replay.hpp"
#include "serve/wal.hpp"
#include "sim/fleet.hpp"
#include "sim/telemetry_io.hpp"
#include "sim/validate.hpp"

namespace mfpa::cli {
namespace {

/// Set by SIGTERM/SIGINT while a ShutdownSignals scope is live; the feed
/// checks it between submissions, drains the queue, seals the durable
/// state, and exits 0.
volatile std::sig_atomic_t g_shutdown_requested = 0;

extern "C" void handle_shutdown_signal(int) { g_shutdown_requested = 1; }

/// Routes SIGTERM/SIGINT to g_shutdown_requested (cleared on entry) for its
/// lifetime and restores the default dispositions after.
class ShutdownSignals {
 public:
  ShutdownSignals() {
    g_shutdown_requested = 0;
    std::signal(SIGTERM, handle_shutdown_signal);
    std::signal(SIGINT, handle_shutdown_signal);
  }
  ~ShutdownSignals() {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
  ShutdownSignals(const ShutdownSignals&) = delete;
  ShutdownSignals& operator=(const ShutdownSignals&) = delete;
};

/// Blocks until SIGTERM/SIGINT: the main thread of a shard or router
/// process, whose work runs on its server and engine threads.
void wait_for_shutdown() {
  const ShutdownSignals signals;
  while (!g_shutdown_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Fail-fast parse of one integer flag value: base-10 digits, with a
/// leading minus only where T is signed, whose value lies in [min, T's
/// maximum]. Anything else (a negative count, `1e3`, ` 80`, an
/// out-of-range port) is a usage error naming the flag.
template <typename T>
T parse_int(const std::string& key, const std::string& text, T min) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < min) {
    throw std::invalid_argument(
        "option --" + key + " expects an integer in [" + std::to_string(min) +
        ", " + std::to_string(std::numeric_limits<T>::max()) + "], got '" +
        text + "'");
  }
  return value;
}

/// An integer flag through parse_int, `fallback` when absent. Commands
/// parse every flag this way before any simulation or file IO runs.
template <typename T>
T get_int(const CommandLine& cmd, const std::string& key, T fallback, T min) {
  return cmd.has(key) ? parse_int(key, cmd.get(key), min) : fallback;
}

/// --seed when absent.
constexpr std::uint64_t kDefaultSeed = 42;

RobustnessConfig robustness_from(const CommandLine& cmd) {
  if (cmd.has("strict") && cmd.has("lenient")) {
    throw std::invalid_argument("--strict and --lenient are mutually exclusive");
  }
  RobustnessConfig robustness;
  robustness.mode =
      cmd.has("lenient") ? IngestMode::kLenient : IngestMode::kStrict;
  return robustness;
}

/// Prints the dirty-input accounting when there is anything to say (always
/// under --lenient, so a clean batch is confirmed clean).
void report_ingest(const IngestStats& stats, const RobustnessConfig& robustness,
                   std::ostream& out) {
  if (robustness.lenient() || !stats.clean()) print_ingest_stats(stats, out);
}

core::MfpaConfig config_from(const CommandLine& cmd) {
  core::MfpaConfig config;
  config.preprocess.robustness = robustness_from(cmd);
  config.vendor = get_int(cmd, "vendor", -1, -1);
  config.algorithm = cmd.get("algorithm", "RF");
  config.group = core::feature_group_from_name(cmd.get("group", "SFWB"));
  config.theta = get_int(cmd, "theta", 7, 0);
  config.positive_window = get_int(cmd, "positive-window", 7, 1);
  config.neg_per_pos = cmd.get_number("neg-per-pos", 3.0);
  config.train_fraction = cmd.get_number("train-fraction", 0.7);
  config.decision_threshold = cmd.get_number("threshold", 0.5);
  config.seed = get_int<std::uint64_t>(cmd, "seed", kDefaultSeed, 0);
  return config;
}

/// Engine flags of every serving command. A multi-process parent forwards
/// them verbatim to its shard-serve children, so every process builds the
/// identical engine configuration.
constexpr const char* kEngineValueFlags[] = {
    "alert-consecutive", "cooldown",         "queue-capacity",
    "batch",             "wal-group-commit", "checkpoint-interval",
};
constexpr const char* kEngineBoolFlags[] = {"shed", "strict", "lenient"};

/// What every serving command (serve-replay, fleet-replay, shard-serve)
/// reads from the engine flags above plus --durable-dir, --alerts-out and
/// --kill-after, parsed once before any telemetry work.
struct ServingFlags {
  /// Engine template (--batch, --shed, ...) and the --durable-dir root;
  /// the command sets the shard counts.
  net::ShardRouterConfig router;
  std::string alerts_out;           ///< --alerts-out
  std::size_t kill_after = 0;       ///< --kill-after
};

ServingFlags serving_flags_from(const CommandLine& cmd) {
  ServingFlags flags;
  serve::EngineConfig& engine = flags.router.engine;
  engine.store.preprocess.robustness = robustness_from(cmd);
  engine.alert_policy.min_consecutive =
      get_int(cmd, "alert-consecutive", 1, 1);
  engine.alert_policy.cooldown_days = get_int(cmd, "cooldown", 0, 0);
  engine.queue_capacity =
      get_int<std::size_t>(cmd, "queue-capacity", 4096, 1);
  engine.max_batch = get_int<std::size_t>(cmd, "batch", 256, 1);
  engine.shed_on_full = cmd.has("shed");
  engine.durability.group_commit_records =
      get_int<std::size_t>(cmd, "wal-group-commit", 256, 0);
  engine.durability.checkpoint_interval_records =
      get_int<std::size_t>(cmd, "checkpoint-interval", 4096, 0);
  flags.router.durable_root = cmd.get("durable-dir", "");
  flags.alerts_out = cmd.get("alerts-out", "");
  flags.kill_after = get_int<std::size_t>(cmd, "kill-after", 0, 0);
  return flags;
}

/// Refuses a durable resume under another topology. Routing is a pure
/// function of drive id and shard count, and the feed order follows the
/// telemetry chunking (0 for serve-replay, which replays one batch), so
/// state written under other flags would be silently re-scored. The first
/// serving run over a durable root publishes its line to `<root>/TOPOLOGY`;
/// a later run whose line differs exits 2 before any engine starts.
void check_topology(const std::string& durable_root, std::size_t shards,
                    std::size_t chunk_drives) {
  if (durable_root.empty()) return;
  const std::string line = "shards=" + std::to_string(shards) +
                           " chunk-drives=" + std::to_string(chunk_drives);
  const auto path = std::filesystem::path(durable_root) / "TOPOLOGY";
  if (!std::filesystem::exists(path)) {
    std::filesystem::create_directories(durable_root);
    serve::publish_file(path.string(), line + "\n", /*fsync=*/true);
    return;
  }
  std::ifstream in(path);
  std::string recorded;
  std::getline(in, recorded);
  if (recorded != line) {
    throw std::runtime_error("durable dir " + durable_root +
                             " was written under '" + recorded +
                             "', this run is '" + line +
                             "'; resume with the flags that wrote it");
  }
}

/// The --registry directory (default `fallback` under the temp dir),
/// cleared first: a stale registry from a previous run would serve
/// yesterday's model — unless the caller asked for exactly that
/// (--reuse-registry pairs with --durable-dir: a recovering process must
/// score under the same model the checkpoint was taken with). Clearing
/// deletes registry files only; a directory holding anything else exits 1
/// with nothing deleted.
std::string registry_dir_from(const CommandLine& cmd, const char* fallback) {
  const auto dir = cmd.get(
      "registry", (std::filesystem::temp_directory_path() / fallback).string());
  if (!cmd.has("reuse-registry")) serve::ModelRegistry::clear(dir);
  return dir;
}

/// The model version to serve: the registry's current one under
/// --reuse-registry, else the one `train_and_publish` publishes now.
int serving_version(const CommandLine& cmd,
                    const serve::ModelRegistry& registry,
                    const std::function<int()>& train_and_publish,
                    std::ostream& out) {
  const int version = registry.current_version();
  if (cmd.has("reuse-registry") && version > 0) {
    out << "reusing model v" << version << " from " << registry.directory()
        << "\n";
    return version;
  }
  return train_and_publish();
}

/// Writes the full alert stream, one line per alert with round-trip score
/// precision — the byte-comparable proof artifact of the crash-recovery
/// harnesses (single-engine emission order; canonical (day, drive id)
/// order for sharded runs).
void write_alerts_file(const std::string& path,
                       const std::vector<core::Alert>& alerts,
                       std::ostream& out) {
  std::ofstream alerts_file(path, std::ios::binary | std::ios::trunc);
  if (!alerts_file) {
    throw std::runtime_error("cannot write alerts to " + path);
  }
  for (const auto& alert : alerts) {
    alerts_file << alert.drive_id << ' ' << alert.day << ' ';
    ml::io::write_double(alerts_file, alert.score);
    alerts_file << '\n';
  }
  alerts_file.flush();
  if (!alerts_file) {
    throw std::runtime_error("write failed for " + path);
  }
  out << "wrote " << alerts.size() << " alerts to " << path << "\n";
}

/// The replay scorecard shared by serve-replay (1 or N shards) and
/// fleet-replay; `extra` rows are appended before printing.
void print_replay_table(const serve::ReplayReport& report,
                        const std::vector<std::pair<std::string, std::string>>&
                            extra,
                        std::ostream& out) {
  TablePrinter table({"metric", "value"});
  table.add_row({"records submitted", std::to_string(report.engine.submitted)});
  if (report.records_skipped > 0) {
    table.add_row({"records resumed past",
                   std::to_string(report.records_skipped)});
  }
  table.add_row({"records shed", std::to_string(report.engine.shed)});
  table.add_row({"days replayed", std::to_string(report.days_replayed)});
  table.add_row({"throughput (rec/s)",
                 format_with_commas(
                     static_cast<long long>(report.records_per_sec))});
  table.add_row({"micro-batches", std::to_string(report.engine.batches)});
  table.add_row(
      {"mean batch size",
       format_double(report.engine.batches == 0
                         ? 0.0
                         : static_cast<double>(report.engine.records_processed) /
                               static_cast<double>(report.engine.batches),
                     1)});
  table.add_row({"max queue depth",
                 std::to_string(report.engine.max_queue_depth)});
  table.add_row({"latency p50 (us)",
                 format_double(report.engine.latency_us.quantile(0.5), 1)});
  table.add_row({"latency p99 (us)",
                 format_double(report.engine.latency_us.quantile(0.99), 1)});
  table.add_row({"rows scored", std::to_string(report.engine.rows_scored)});
  table.add_row({"alerts", std::to_string(report.engine.alerts)});
  table.add_row({"drives quarantined",
                 std::to_string(report.store.drives_quarantined)});
  table.add_row({"drive-level TPR", format_percent(report.drives.drive_tpr())});
  table.add_row({"drive-level FPR", format_percent(report.drives.drive_fpr())});
  for (const auto& [k, v] : extra) table.add_row({k, v});
  table.print(out);
}

/// Prints each shard's resume position when any shard recovered durable
/// records (the sharded analogue of the single-engine recovery banner);
/// `what` names the shards ("shards", "shard processes").
void print_resume(const std::vector<std::size_t>& resume, const char* what,
                  std::ostream& out) {
  std::size_t total = 0;
  for (const std::size_t r : resume) total += r;
  if (total == 0) return;
  out << "resuming feed after " << total << " durable records across "
      << resume.size() << " " << what << " (";
  for (std::size_t i = 0; i < resume.size(); ++i) {
    out << (i > 0 ? " " : "") << "shard-" << i << "=" << resume[i];
  }
  out << ")\n";
}

/// Atomically publishes a shard process's readiness file
/// ("<port> <resume_records> <model_version>"): the supervisor never sees
/// a partial write because the content lands under a dot-temp name first.
void write_port_file(const std::string& path, std::uint16_t port,
                     std::size_t resume_records, int model_version) {
  const std::string line = std::to_string(port) + ' ' +
                           std::to_string(resume_records) + ' ' +
                           std::to_string(model_version) + '\n';
  serve::publish_file(path, line, /*fsync=*/false);
}

/// Parses --shard-ports=P1,P2,... into per-shard ports (global shard
/// order), each in [1, 65535].
std::vector<std::uint16_t> parse_port_list(const std::string& spec) {
  std::vector<std::uint16_t> ports;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = spec.find(',', begin);
    ports.push_back(parse_int<std::uint16_t>(
        "shard-ports", spec.substr(begin, comma - begin), 1));
    if (comma == std::string::npos) return ports;
    begin = comma + 1;
  }
}

/// This process's own executable — multiproc fleet-replay re-execs it as
/// the per-shard `shard-serve` children.
std::string self_binary_path() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    throw std::runtime_error("cannot resolve /proc/self/exe: " + ec.message());
  }
  return path.string();
}

/// The engine flags of this command line, re-rendered for a child.
std::vector<std::string> forwarded_child_flags(const CommandLine& cmd) {
  std::vector<std::string> args;
  for (const char* flag : kEngineValueFlags) {
    if (cmd.has(flag)) args.push_back("--" + std::string(flag) + "=" +
                                      cmd.get(flag, ""));
  }
  for (const char* flag : kEngineBoolFlags) {
    if (cmd.has(flag)) args.push_back("--" + std::string(flag));
  }
  return args;
}

void print_report(const core::MfpaReport& report, std::ostream& out) {
  TablePrinter table({"metric", "value"});
  table.add_row({"TPR", format_percent(report.cm.tpr())});
  table.add_row({"FPR", format_percent(report.cm.fpr())});
  table.add_row({"ACC", format_percent(report.cm.accuracy())});
  table.add_row({"PDR", format_percent(report.cm.pdr())});
  table.add_row({"AUC", format_percent(report.auc)});
  table.add_row({"threshold", format_double(report.threshold, 3)});
  table.add_row({"train samples", std::to_string(report.train_size)});
  table.add_row({"test samples", std::to_string(report.test_size)});
  table.add_row({"test positives", std::to_string(report.test_positives)});
  table.print(out);
}

int cmd_simulate(const CommandLine& cmd, std::ostream& out) {
  const auto seed = get_int<std::uint64_t>(cmd, "seed", kDefaultSeed, 0);
  auto scenario = sim::scenario_by_name(cmd.get("scenario", "default"), seed);
  // Per-knob overrides on top of the preset.
  scenario.fleet_scale = cmd.get_number("scale", scenario.fleet_scale);
  scenario.horizon_days =
      get_int<DayIndex>(cmd, "horizon", scenario.horizon_days, 1);
  scenario.telemetry_end =
      std::min(scenario.telemetry_end, scenario.horizon_days);
  scenario.healthy_per_failed =
      cmd.get_number("healthy-per-failed", scenario.healthy_per_failed);
  if (cmd.has("no-drift")) scenario.enable_drift = false;
  sim::FleetSimulator fleet(scenario);
  const auto telemetry = fleet.generate_telemetry();
  const auto tickets = fleet.tickets();
  sim::write_telemetry_file(cmd.require("telemetry"), telemetry);
  sim::write_tickets_file(cmd.require("tickets"), tickets);
  std::size_t records = 0;
  for (const auto& t : telemetry) records += t.records.size();
  out << "wrote " << telemetry.size() << " drives / "
      << format_with_commas(static_cast<long long>(records)) << " records to "
      << cmd.require("telemetry") << "\nwrote " << tickets.size()
      << " tickets to " << cmd.require("tickets") << "\n";
  return 0;
}

int cmd_train(const CommandLine& cmd, std::ostream& out) {
  // Validate the configuration before any file IO for fast user feedback.
  core::MfpaPipeline pipeline(config_from(cmd));
  const auto robustness = robustness_from(cmd);
  IngestStats read_stats;
  const auto telemetry =
      sim::read_telemetry_file(cmd.require("telemetry"), robustness, &read_stats);
  const auto tickets =
      sim::read_tickets_file(cmd.require("tickets"), robustness, &read_stats);
  auto report = pipeline.run(telemetry, tickets);
  report.ingest_stats.merge(read_stats);
  // The deployable artifact, as a registry publishes it; version 0 means
  // not in a registry. The training window runs from the first telemetry
  // day to the split day, as serve::train_and_publish records it.
  serve::ModelManifest manifest;
  manifest.group = pipeline.config().group;
  manifest.threshold = pipeline.threshold();
  manifest.train_lo = manifest.train_hi = report.split_day;
  for (const auto& series : telemetry) {
    if (!series.records.empty()) {
      manifest.train_lo =
          std::min(manifest.train_lo, series.records.front().day);
    }
  }
  const std::string artifact = serve::render_artifact(
      manifest, pipeline.firmware_encoder(), pipeline.model());
  serve::publish_file(cmd.require("model"), artifact, /*fsync=*/false);
  out << "trained " << pipeline.model().name() << " on "
      << report.train_size << " samples; model written to "
      << cmd.require("model") << "\n";
  report_ingest(report.ingest_stats, robustness, out);
  if (cmd.has("report")) print_report(report, out);
  return 0;
}

int cmd_evaluate(const CommandLine& cmd, std::ostream& out) {
  // Evaluation retrains with the same configuration and reports the honest
  // held-out slice (the model file is not needed; it documents the deploy).
  core::MfpaPipeline pipeline(config_from(cmd));
  const auto robustness = robustness_from(cmd);
  IngestStats read_stats;
  const auto telemetry =
      sim::read_telemetry_file(cmd.require("telemetry"), robustness, &read_stats);
  const auto tickets =
      sim::read_tickets_file(cmd.require("tickets"), robustness, &read_stats);
  auto report = pipeline.run(telemetry, tickets);
  report.ingest_stats.merge(read_stats);
  report_ingest(report.ingest_stats, robustness, out);
  print_report(report, out);
  const auto drive_level = core::OnlinePredictor::drive_level(report);
  out << "drive-level: TPR "
      << format_percent(drive_level.drive_tpr()) << " ("
      << drive_level.detected_drives << "/" << drive_level.faulty_drives
      << "), FPR " << format_percent(drive_level.drive_fpr()) << " ("
      << drive_level.false_alarm_drives << "/" << drive_level.healthy_drives
      << ")\n";
  return 0;
}

int cmd_predict(const CommandLine& cmd, std::ostream& out) {
  const auto robustness = robustness_from(cmd);
  const auto top = get_int<std::size_t>(cmd, "top", 20, 0);
  // Group, firmware vocabulary and threshold come from the artifact, so
  // rows are built exactly as for training.
  const auto served = serve::load_artifact(cmd.require("model"));
  const double threshold =
      cmd.get_number("threshold", served->manifest.threshold);
  IngestStats ingest;
  const auto telemetry =
      sim::read_telemetry_file(cmd.require("telemetry"), robustness, &ingest);

  // Score the latest observation of every drive.
  core::PreprocessConfig pre_config;
  pre_config.robustness = robustness;
  const core::Preprocessor pre(pre_config);
  const auto drives = pre.process(telemetry, nullptr, &ingest);
  report_ingest(ingest, robustness, out);
  const core::SampleBuilder builder = served->make_builder();

  struct Scored {
    std::uint64_t drive_id;
    DayIndex day;
    double score;
  };
  std::vector<Scored> scored;
  data::Dataset batch;
  batch.feature_names = builder.feature_names();
  for (const auto& d : drives) {
    if (d.records.empty()) continue;
    batch.add(builder.features_of(d.records.back()), 0,
              {d.drive_id, d.records.back().day, d.vendor});
  }
  if (batch.empty()) {
    out << "no scorable drives\n";
    return 0;
  }
  const auto scores = served->classifier->predict_proba(batch.X);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scored.push_back({batch.meta[i].drive_id, batch.meta[i].day, scores[i]});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });

  std::size_t flagged = 0;
  for (const auto& s : scored) flagged += s.score >= threshold;
  out << "scored " << scored.size() << " drives; " << flagged
      << " at/above threshold " << format_double(threshold, 2) << "\n\n";
  TablePrinter table({"rank", "drive", "last obs", "risk score", "flagged"});
  for (std::size_t i = 0; i < std::min(top, scored.size()); ++i) {
    table.add_row({std::to_string(i + 1), std::to_string(scored[i].drive_id),
                   format_date(scored[i].day),
                   format_double(scored[i].score, 4),
                   scored[i].score >= threshold ? "YES" : ""});
  }
  table.print(out);

  if (cmd.has("explain") && !scored.empty()) {
    // Explain flagged drives against the scored population (predominantly
    // healthy, so population medians approximate the healthy reference).
    core::HealthExplainer explainer;
    explainer.fit(batch);
    out << "\nExplanations for flagged drives:\n";
    std::size_t shown = 0;
    for (std::size_t i = 0; i < batch.size() && shown < top; ++i) {
      if (scores[i] < threshold) continue;
      const auto report =
          explainer.explain(batch.X.row(i), batch.meta[i].drive_id,
                            batch.meta[i].day, scores[i]);
      out << report.to_string() << "\n";
      ++shown;
    }
  }
  return 0;
}

int cmd_serve_replay(const CommandLine& cmd, std::ostream& out) {
  // --shards=N (N > 1) routes the same stream across N engine instances by
  // drive-id hash — the sharded serving path (see docs/SERVING.md).
  // Validated before any telemetry work, like every count flag.
  const auto shards = get_int<std::size_t>(cmd, "shards", 1, 1);
  // Telemetry-generation workers (0 = one per core). Serving itself
  // predicts inline on each engine's drain thread.
  const auto threads = get_int<std::size_t>(cmd, "threads", 0, 0);
  ServingFlags flags = serving_flags_from(cmd);
  const auto robustness = robustness_from(cmd);
  const auto train_config = config_from(cmd);
  check_topology(flags.router.durable_root, shards, 0);
  // Input: either a saved telemetry/ticket pair or a generated scenario.
  std::vector<sim::DriveTimeSeries> telemetry;
  std::vector<sim::TroubleTicket> tickets;
  IngestStats read_stats;
  if (cmd.has("telemetry")) {
    telemetry = sim::read_telemetry_file(cmd.require("telemetry"), robustness,
                                         &read_stats);
    tickets =
        sim::read_tickets_file(cmd.require("tickets"), robustness, &read_stats);
  } else {
    auto scenario = sim::scenario_by_name(cmd.get("scenario", "default"),
                                          train_config.seed);
    scenario.fleet_scale = cmd.get_number("scale", scenario.fleet_scale);
    sim::FleetSimulator fleet(scenario);
    telemetry = fleet.generate_telemetry(threads);
    tickets = fleet.tickets();
  }

  out << "simd kernel: " << ml::to_string(ml::active_simd_level()) << "\n";
  serve::ModelRegistry registry(registry_dir_from(cmd, "mfpa-serve-registry"));
  serving_version(
      cmd, registry,
      [&] {
        const int version = serve::train_and_publish(registry, train_config,
                                                     telemetry, tickets);
        out << "published " << train_config.algorithm << " v" << version
            << " to " << registry.directory() << "\n";
        return version;
      },
      out);

  const serve::FleetReplayer replayer(telemetry);
  serve::ReplayOptions options;
  options.kill_after_records = flags.kill_after;
  options.cancel = &g_shutdown_requested;
  serve::ReplayReport report;
  std::vector<std::pair<std::string, std::string>> extra;
  if (shards > 1) {
    flags.router.shards = shards;
    net::ShardRouter router(registry, flags.router);
    options.skip_records = router.resume_records();
    print_resume(options.skip_records, "shards", out);
    {
      const ShutdownSignals signals;
      report = net::replay_router(router, replayer, options).replay;
      router.stop();
    }
    extra.emplace_back("shards", std::to_string(router.shard_count()));
  } else {
    serve::EngineConfig engine_config = flags.router.engine;
    engine_config.durability.dir = flags.router.durable_root;
    // Recovery happens in the constructor; corruption and model-version
    // mismatches throw and surface as a loud failure (exit 2).
    serve::ScoringEngine engine(registry, engine_config);
    if (engine.recovery().has_value()) {
      const auto& rec = *engine.recovery();
      out << "durable recovery: "
          << (rec.checkpoint_loaded
                  ? "checkpoint @ lsn " + std::to_string(rec.checkpoint_lsn)
                  : std::string("no checkpoint"))
          << ", wal tail replayed " << rec.wal.records_replayable
          << ", durable alerts " << rec.alerts.size() << ", torn tails "
          << rec.wal.torn_tails;
      if (rec.checkpoints_skipped > 0) {
        out << ", corrupt checkpoints skipped " << rec.checkpoints_skipped;
      }
      out << "\n";
      if (engine.durable_resume_records() > 0) {
        out << "resuming feed after " << engine.durable_resume_records()
            << " durable records\n";
      }
    }
    options.skip_records = {
        static_cast<std::size_t>(engine.durable_resume_records())};
    const ShutdownSignals signals;
    report = replayer.replay(engine, options);
    engine.stop();
  }
  if (report.interrupted) {
    out << "shutdown signal received: queue drained, durable state sealed\n";
  }

  print_replay_table(report, extra, out);
  read_stats.merge(report.store.ingest);
  report_ingest(read_stats, robustness, out);

  // The full alert stream (recovered durable prefix + this run) — the
  // byte-comparable proof artifact of the crash-recovery tests.
  if (!flags.alerts_out.empty()) {
    write_alerts_file(flags.alerts_out, report.alerts, out);
  }
  return 0;
}

/// One shard of the multi-process serving topology: a single-engine
/// sliced ShardRouter behind a require_hello IngestServer. Readiness is
/// published through --port-file; SIGTERM drains the queue, seals the
/// durable state, writes the per-shard alert file, and exits 0 — that
/// contract is what lets the supervising fleet-replay treat "all children
/// exited 0" as the durability barrier.
int cmd_shard_serve(const CommandLine& cmd, std::ostream& out) {
  ServingFlags flags = serving_flags_from(cmd);
  if (cmd.get("shard-index", "").empty()) {
    throw std::invalid_argument("shard-serve requires --shard-index");
  }
  const auto shard_index = get_int<std::size_t>(cmd, "shard-index", 0, 0);
  const auto shard_count = get_int<std::size_t>(cmd, "shard-count", 1, 1);
  net::ServerConfig server_config;
  server_config.port = get_int<std::uint16_t>(cmd, "port", 0, 0);
  server_config.require_hello = true;
  if (shard_index >= shard_count) {
    throw std::invalid_argument(
        "option --shard-index must be < --shard-count (got " +
        std::to_string(shard_index) + " of " + std::to_string(shard_count) +
        ")");
  }
  out << "simd kernel: " << ml::to_string(ml::active_simd_level()) << "\n";
  // A shard process never trains: it serves whatever the registry already
  // holds, so every shard of the topology scores under the same published
  // version (the parent trains once, before spawning).
  serve::ModelRegistry registry(cmd.require("registry"));
  const int version = registry.current_version();
  if (version <= 0) {
    throw std::runtime_error("shard-serve: no published model in " +
                             cmd.require("registry"));
  }

  flags.router.topology_shards = shard_count;
  flags.router.first_shard = shard_index;
  net::ShardRouter router(registry, flags.router);
  const std::size_t resume = router.resume_records().front();
  if (resume > 0) {
    out << "shard " << shard_index << " resuming after " << resume
        << " durable records\n";
  }

  net::RouterSink sink(router, static_cast<std::uint32_t>(version));
  net::IngestServer server(sink, server_config);
  out << "shard " << shard_index << "/" << shard_count
      << " serving on 127.0.0.1:" << server.port() << " (model v" << version
      << ", resume=" << resume << ")\n";
  out.flush();
  const auto port_file = cmd.get("port-file", "");
  if (!port_file.empty()) {
    write_port_file(port_file, server.port(), resume, version);
  }
  wait_for_shutdown();

  // Graceful teardown order matters: the server first finishes decoding
  // everything already buffered, then the router drains its queues and
  // seals the WAL — only then are the alerts complete and durable.
  server.stop();
  router.stop();
  const serve::EngineStats stats = router.stats();
  out << "shard " << shard_index << " drained: records "
      << stats.records_processed << ", alerts " << stats.alerts << ", shed "
      << stats.shed << "\n";
  if (!flags.alerts_out.empty()) {
    write_alerts_file(flags.alerts_out, router.alerts(), out);
  }
  return 0;
}

/// Forwarding-router process for shard-oblivious clients: one endpoint
/// that fans records out to the per-shard servers over a ShardedClient.
int cmd_shard_route(const CommandLine& cmd, std::ostream& out) {
  const std::vector<std::uint16_t> shard_ports =
      parse_port_list(cmd.require("shard-ports"));
  net::ShardedClientConfig downstream_config;
  downstream_config.ports = shard_ports;
  downstream_config.model_version =
      get_int<std::uint32_t>(cmd, "model-version", 0, 0);
  net::ServerConfig server_config;
  server_config.port = get_int<std::uint16_t>(cmd, "port", 0, 0);
  net::ShardedClient downstream(downstream_config);
  net::ForwardingSink sink(downstream);
  net::IngestServer server(sink, server_config);
  out << "routing 127.0.0.1:" << server.port() << " -> "
      << shard_ports.size() << " shards\n";
  out.flush();
  const auto port_file = cmd.get("port-file", "");
  if (!port_file.empty()) {
    write_port_file(port_file, server.port(), 0,
                    static_cast<int>(downstream_config.model_version));
  }
  wait_for_shutdown();

  server.stop();
  downstream.close();
  out << "router drained\n";
  return 0;
}

/// fleet-replay's multi-process flags, parsed with the others before any
/// simulation.
struct MultiprocFlags {
  std::size_t processes = 0;   ///< --processes (0 = one router in process)
  std::size_t kill_after = 0;  ///< --kill-shard-after (0 = never)
  std::size_t kill_shard = 0;  ///< --kill-shard
};

MultiprocFlags multiproc_flags_from(const CommandLine& cmd) {
  if (cmd.has("processes") && cmd.has("in-process")) {
    throw std::invalid_argument(
        "--processes and --in-process are mutually exclusive");
  }
  MultiprocFlags flags;
  if (cmd.has("processes")) {
    flags.processes = get_int<std::size_t>(cmd, "processes", 4, 1);
  }
  flags.kill_after = get_int<std::size_t>(cmd, "kill-shard-after", 0, 0);
  flags.kill_shard = get_int<std::size_t>(cmd, "kill-shard", 0, 0);
  if (flags.processes > 0 && flags.kill_after > 0 &&
      flags.kill_shard >= flags.processes) {
    throw std::invalid_argument("option --kill-shard must be < --processes");
  }
  return flags;
}

/// The multi-process topology behind `fleet-replay --processes=N`: spawn
/// one shard-serve child per shard (plus, under --via-router, a
/// shard-route child), feed the deterministic stream, then terminate the
/// children gracefully and merge their per-shard alert files into the
/// canonical fleet stream. With --kill-shard-after the run SIGKILLs one
/// shard mid-feed and exits non-zero; re-running with the same flags
/// resumes every shard from its own durable state.
int run_fleet_multiproc(const CommandLine& cmd, std::ostream& out,
                        const serve::StreamedFleet& stream,
                        const std::string& registry_dir, int version,
                        const MultiprocFlags& mp) {
  const bool via_router = cmd.has("via-router");
  const std::string proc_dir = cmd.get(
      "proc-dir",
      (std::filesystem::temp_directory_path() / "mfpa-multiproc").string());
  std::filesystem::create_directories(proc_dir);

  const std::string binary = self_binary_path();
  const std::vector<std::string> forwarded = forwarded_child_flags(cmd);
  const std::string durable_dir = cmd.get("durable-dir", "");

  std::vector<net::ShardProcessSpec> specs;
  std::vector<std::string> alert_files;
  specs.reserve(mp.processes);
  for (std::size_t k = 0; k < mp.processes; ++k) {
    const std::string tag = "shard-" + std::to_string(k);
    net::ShardProcessSpec spec;
    spec.port_file = proc_dir + "/" + tag + ".port";
    spec.log_file = proc_dir + "/" + tag + ".log";
    alert_files.push_back(proc_dir + "/alerts-" + tag + ".txt");
    spec.argv = {binary,
                 "shard-serve",
                 "--shard-index=" + std::to_string(k),
                 "--shard-count=" + std::to_string(mp.processes),
                 "--registry=" + registry_dir,
                 "--port-file=" + spec.port_file,
                 "--alerts-out=" + alert_files.back(),
                 // Written on clean exit; with the .log files these are the
                 // per-shard artifacts CI uploads from --proc-dir.
                 "--metrics-out=" + proc_dir + "/" + tag + ".metrics.json"};
    if (!durable_dir.empty()) {
      spec.argv.push_back("--durable-dir=" + durable_dir);
    }
    spec.argv.insert(spec.argv.end(), forwarded.begin(), forwarded.end());
    specs.push_back(std::move(spec));
  }
  net::ShardProcessSupervisor shard_procs(std::move(specs));
  shard_procs.wait_ready(std::chrono::minutes(2));

  serve::ReplayOptions options;
  for (const auto& r : shard_procs.readiness()) {
    options.skip_records.push_back(static_cast<std::size_t>(r.resume_records));
  }
  print_resume(options.skip_records, "shard processes", out);

  std::unique_ptr<net::ShardProcessSupervisor> router_proc;
  net::ShardedClientConfig client_config;
  client_config.model_version = static_cast<std::uint32_t>(version);
  if (via_router) {
    std::string port_list;
    for (const std::uint16_t p : shard_procs.ports()) {
      if (!port_list.empty()) port_list += ',';
      port_list += std::to_string(p);
    }
    net::ShardProcessSpec spec;
    spec.port_file = proc_dir + "/router.port";
    spec.log_file = proc_dir + "/router.log";
    spec.argv = {binary,
                 "shard-route",
                 "--shard-ports=" + port_list,
                 "--model-version=" + std::to_string(version),
                 "--port-file=" + spec.port_file};
    std::vector<net::ShardProcessSpec> router_specs;
    router_specs.push_back(std::move(spec));
    router_proc =
        std::make_unique<net::ShardProcessSupervisor>(std::move(router_specs));
    router_proc->wait_ready(std::chrono::seconds(30));
    client_config.ports = router_proc->ports();
    // One connection to the router is not the fleet topology; claim the
    // wildcard identity so the handshake stays honest.
    client_config.claim_topology = false;
  } else {
    client_config.ports = shard_procs.ports();
  }
  out << (via_router
              ? "feeding " + std::to_string(mp.processes) +
                    " shard processes through the router process\n"
              : "feeding " + std::to_string(mp.processes) +
                    " shard processes directly (shard-aware client)\n");

  // The kill hook SIGKILLs one shard; the feed then stops, so the record
  // prefix the surviving shards saw is exact and reproducible.
  options.kill_after_records = mp.kill_after;
  options.on_kill = [&] { shard_procs.kill_shard(mp.kill_shard); };
  options.cancel = &g_shutdown_requested;
  serve::ReplayReport report;
  std::string feed_error;
  {
    const ShutdownSignals signals;
    try {
      net::ShardedClient client(client_config);
      report = serve::feed(stream, client, options);
      if (!report.interrupted) client.close();
    } catch (const std::exception& e) {
      feed_error = e.what();
    }
  }

  // Router first so its downstream connections close before the shards
  // stop; the shards then drain, seal their WALs, and write their alert
  // files — the exit statuses below are the durability barrier.
  if (router_proc) router_proc->terminate_all();
  shard_procs.terminate_all();

  bool children_clean = true;
  out << "shard process exit statuses:";
  for (std::size_t k = 0; k < mp.processes; ++k) {
    const int status = shard_procs.exit_status(k);
    out << " shard-" << k << "=" << status;
    if (status != 0) children_clean = false;
  }
  out << "\n";
  if (router_proc) {
    out << "router process exit status: " << router_proc->exit_status(0)
        << "\n";
  }

  if (!feed_error.empty()) {
    throw std::runtime_error("multi-process feed failed: " + feed_error);
  }
  const bool killed =
      mp.kill_after > 0 && report.records_submitted >= mp.kill_after;
  if (killed) {
    out << "shard-" << mp.kill_shard << " killed after " << mp.kill_after
        << " records; durable state preserved — rerun with the same flags "
           "to resume\n";
    return 2;
  }
  if (report.interrupted) {
    out << "shutdown signal received: shard processes drained, durable "
           "state sealed\n";
    return 0;
  }
  if (!children_clean ||
      (router_proc && router_proc->exit_status(0) != 0)) {
    throw std::runtime_error(
        "a shard process exited non-zero; see logs under " + proc_dir);
  }

  const std::vector<core::Alert> alerts = net::merge_alert_files(alert_files);
  const core::DriveLevelMetrics drives =
      serve::drive_level(alerts, report.drive_flags);
  TablePrinter table({"metric", "value"});
  table.add_row(
      {"records submitted", std::to_string(report.records_submitted)});
  if (report.records_skipped > 0) {
    table.add_row({"records resumed past",
                   std::to_string(report.records_skipped)});
  }
  table.add_row({"records processed (fleet)",
                 std::to_string(report.totals.records_processed)});
  table.add_row({"records shed", std::to_string(report.totals.shed)});
  table.add_row({"throughput (rec/s)",
                 format_with_commas(
                     static_cast<long long>(report.records_per_sec))});
  table.add_row({"alerts", std::to_string(alerts.size())});
  table.add_row({"drive-level TPR", format_percent(drives.drive_tpr())});
  table.add_row({"drive-level FPR", format_percent(drives.drive_fpr())});
  table.add_row({"shard processes", std::to_string(mp.processes)});
  table.add_row({"transport", via_router ? "multi-process via router"
                                         : "multi-process direct"});
  table.add_row({"drives tracked", std::to_string(stream.drives_tracked())});
  table.add_row({"generation chunks", std::to_string(report.chunks)});
  table.print(out);

  const auto alerts_path = cmd.get("alerts-out", "");
  if (!alerts_path.empty()) {
    write_alerts_file(alerts_path, alerts, out);
  }
  return 0;
}

int cmd_fleet_replay(const CommandLine& cmd, std::ostream& out) {
  ServingFlags flags = serving_flags_from(cmd);
  // Every flag is validated before the (potentially multi-million drive)
  // simulation starts.
  const auto shards = get_int<std::size_t>(cmd, "shards", 4, 1);
  const auto chunk_drives = get_int<std::size_t>(cmd, "chunk-drives", 4096, 1);
  // Generation workers for the training twin and the streamed chunks (0 =
  // one per core); the shards predict inline on their drain threads.
  const auto threads = get_int<std::size_t>(cmd, "threads", 0, 0);
  const MultiprocFlags mp = multiproc_flags_from(cmd);
  const auto train_config = config_from(cmd);
  check_topology(flags.router.durable_root,
                 mp.processes > 0 ? mp.processes : shards, chunk_drives);

  auto scenario =
      sim::scenario_by_name(cmd.get("scenario", "fleet"), train_config.seed);
  scenario.fleet_scale = cmd.get_number("scale", scenario.fleet_scale);
  sim::FleetSimulator fleet(scenario);

  out << "simd kernel: " << ml::to_string(ml::active_simd_level()) << "\n";
  serve::ModelRegistry registry(registry_dir_from(cmd, "mfpa-fleet-registry"));
  // The model trains offline on a down-scaled twin of the scenario (same
  // seed, same catalog, same drift) — training on the full fleet's
  // telemetry would dwarf the serving run this command exists to exercise.
  const int version = serving_version(
      cmd, registry,
      [&] {
        const double train_scale = cmd.get_number(
            "train-scale", std::min(scenario.fleet_scale, 0.02));
        if (train_scale <= 0.0) {
          throw std::invalid_argument("option --train-scale must be > 0");
        }
        auto train_scenario = scenario;
        train_scenario.fleet_scale = train_scale;
        sim::FleetSimulator train_fleet(train_scenario);
        const int published = serve::train_and_publish(
            registry, train_config, train_fleet.generate_telemetry(threads),
            train_fleet.tickets());
        out << "published " << train_config.algorithm << " v" << published
            << " to " << registry.directory() << " (trained at scale "
            << format_double(train_scale, 3) << ")\n";
        return published;
      },
      out);

  const serve::StreamedFleet stream(fleet, chunk_drives, threads);
  if (mp.processes > 0) {
    // One OS process per shard instead of one router in this process.
    return run_fleet_multiproc(cmd, out, stream, registry.directory(),
                               version, mp);
  }

  flags.router.shards = shards;
  net::ShardRouter router(registry, flags.router);
  serve::ReplayOptions options;
  options.skip_records = router.resume_records();
  print_resume(options.skip_records, "shards", out);
  options.kill_after_records = flags.kill_after;
  options.cancel = &g_shutdown_requested;
  const bool in_process = cmd.has("in-process");
  net::ShardedReplayReport report;
  {
    const ShutdownSignals signals;
    report = net::replay_router(router, stream, options,
                                in_process ? net::Transport::kInProcess
                                           : net::Transport::kLoopback);
    router.stop();
  }
  if (report.replay.interrupted) {
    out << "shutdown signal received: queue drained, durable state sealed\n";
  }

  print_replay_table(
      report.replay,
      {{"shards", std::to_string(router.shard_count())},
       {"transport", in_process ? "in-process" : "loopback tcp"},
       {"drives tracked", std::to_string(stream.drives_tracked())},
       {"generation chunks", std::to_string(report.replay.chunks)},
       {"protocol errors", std::to_string(report.protocol_errors)}},
      out);
  if (!flags.alerts_out.empty()) {
    write_alerts_file(flags.alerts_out, report.replay.alerts, out);
  }
  return 0;
}

int cmd_validate(const CommandLine& cmd, std::ostream& out) {
  const auto robustness = robustness_from(cmd);
  IngestStats ingest;
  const auto telemetry =
      sim::read_telemetry_file(cmd.require("telemetry"), robustness, &ingest);
  report_ingest(ingest, robustness, out);
  const auto report = sim::validate_telemetry(telemetry);
  out << "drives: " << report.drives << "\nrecords: "
      << format_with_commas(static_cast<long long>(report.records))
      << "\ngaps: " << report.gaps_short << " short (2-3d), "
      << report.gaps_medium << " medium (4-9d), " << report.gaps_long
      << " long (>=10d, segment cuts)\nissues: " << report.issues_total
      << (report.clean() ? " — batch is clean\n" : "\n");
  if (!report.issues.empty()) {
    TablePrinter table({"kind", "drive", "day", "detail"});
    for (const auto& issue : report.issues) {
      table.add_row({validation_issue_name(issue.kind),
                     std::to_string(issue.drive_id),
                     std::to_string(issue.day), issue.detail});
    }
    table.print(out);
    if (report.issues_total > report.issues.size()) {
      out << "(showing " << report.issues.size() << " of "
          << report.issues_total << ")\n";
    }
  }
  return report.clean() ? 0 : 2;
}

int cmd_info(const CommandLine& cmd, std::ostream& out) {
  const auto served = serve::load_artifact(cmd.require("model"));
  const serve::ModelManifest& m = served->manifest;
  out << "algorithm: " << served->classifier->name() << "\n";
  out << "version: " << m.version << "\n";
  out << "group: " << core::feature_group_name(m.group) << "\n";
  out << "threshold: " << format_double(m.threshold, 6) << "\n";
  out << "training window: " << format_date(m.train_lo) << " .. "
      << format_date(m.train_hi) << "\n";
  out << "firmware versions: " << served->encoder.classes().size() << "\n";
  out << "checksum: " << ml::checksum_hex(m.checksum) << "\n";
  out << "hyperparameters:\n";
  for (const auto& [key, value] : served->classifier->hyperparams()) {
    out << "  " << key << " = " << format_double(value, 6) << "\n";
  }
  return 0;
}

int cmd_metrics(std::ostream& out) {
  out << obs::to_prometheus(obs::registry().snapshot());
  return 0;
}

/// Global exporter flags, honored after any successful command:
/// --metrics-out=FILE writes the stable JSON schema, --metrics-dump prints
/// Prometheus text to stdout.
void export_metrics(const CommandLine& cmd, std::ostream& out) {
  const auto path = cmd.get("metrics-out", "");
  if (!path.empty()) {
    obs::write_json_file(path, obs::registry().snapshot());
    out << "wrote metrics to " << path << "\n";
  }
  if (cmd.has("metrics-dump")) {
    out << obs::to_prometheus(obs::registry().snapshot());
  }
}

}  // namespace

std::string CommandLine::get(const std::string& key,
                             const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

double CommandLine::get_number(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double v = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
}

std::string CommandLine::require(const std::string& key) const {
  const auto it = options.find(key);
  if (it == options.end() || it->second.empty()) {
    throw std::invalid_argument("missing required option --" + key);
  }
  return it->second;
}

CommandLine parse_command_line(const std::vector<std::string>& args) {
  CommandLine cmd;
  if (args.empty()) {
    throw std::invalid_argument("no command given");
  }
  cmd.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      cmd.options[arg.substr(2)] = "";
    } else {
      cmd.options[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return cmd;
}

std::string usage() {
  return
      "mfpa — multidimensional SSD failure prediction (DATE'23 reproduction)\n"
      "\n"
      "commands:\n"
      "  simulate  --telemetry=FILE --tickets=FILE [--scenario=NAME] [--seed=N]\n"
      "            [--scale=X] [--horizon=DAYS] [--healthy-per-failed=X]\n"
      "            [--no-drift]\n"
      "  train     --telemetry=FILE --tickets=FILE --model=FILE\n"
      "            [--vendor=N] [--group=SFWB|SFW|SFB|SF|S|W|B] [--algorithm=RF]\n"
      "            [--theta=7] [--threshold=0.5] [--seed=N] [--report]\n"
      "            writes the deployable model artifact, as a registry\n"
      "            publishes it (docs/SERVING.md)\n"
      "  evaluate  --telemetry=FILE --tickets=FILE [--vendor=N] [--group=G] ...\n"
      "  predict   --telemetry=FILE --model=FILE [--threshold=T] [--top=N]\n"
      "            [--explain]\n"
      "            scores with the artifact's group, firmware vocabulary and\n"
      "            threshold (--threshold overrides the last)\n"
      "  serve-replay  [--telemetry=FILE --tickets=FILE | --scenario=NAME\n"
      "            --seed=N --scale=X] [--algorithm=RF] [--group=G]\n"
      "            [--threads=N] [--batch=256] [--queue-capacity=4096]\n"
      "            [--shed] [--registry=DIR] [--alert-consecutive=1]\n"
      "            [--cooldown=0]\n"
      "            [--durable-dir=DIR] [--wal-group-commit=256]\n"
      "            [--checkpoint-interval=4096] [--reuse-registry]\n"
      "            [--alerts-out=FILE] [--kill-after=N] [--shards=N]\n"
      "            train + publish to the model registry, then stream the\n"
      "            fleet through the micro-batched scoring service\n"
      "            (--shards=N routes drives by id hash across N engine\n"
      "            instances — the sharded serving path; with\n"
      "            --durable-dir each shard logs to DIR/shard-NNN; see\n"
      "            docs/SERVING.md)\n"
      "            --durable-dir enables the checksummed WAL + checkpoints\n"
      "            and auto-resumes from existing durable state; pair with\n"
      "            --reuse-registry so recovery scores under the same model\n"
      "            (see docs/DURABILITY.md). The first durable run records\n"
      "            its --shards in DIR/TOPOLOGY and a resume under another\n"
      "            value exits 2. SIGTERM/SIGINT drain the queue,\n"
      "            seal the durable state, and exit 0. --kill-after raises\n"
      "            SIGKILL mid-stream (crash-recovery testing).\n"
      "            --threads=N sets the telemetry-generation workers (0 =\n"
      "            one per core); each engine predicts inline on its drain\n"
      "            thread, so --shards sets serving's concurrency.\n"
      "  fleet-replay  [--scenario=fleet] [--seed=N] [--scale=X]\n"
      "            [--shards=4] [--chunk-drives=4096] [--train-scale=X]\n"
      "            [--threads=N] [--in-process] [--durable-dir=DIR]\n"
      "            [--registry=DIR] [--reuse-registry] [--alerts-out=FILE]\n"
      "            [--kill-after=N] [--alert-consecutive=1] [--cooldown=0]\n"
      "            [--batch=256] [--queue-capacity=4096] [--shed]\n"
      "            [--processes=N] [--via-router] [--proc-dir=DIR]\n"
      "            [--kill-shard-after=N] [--kill-shard=K]\n"
      "            stream a (full-scale) fleet scenario through the sharded\n"
      "            scoring service over the loopback binary protocol:\n"
      "            telemetry is generated in chunks of --chunk-drives and\n"
      "            freed after feeding, so memory stays bounded at any\n"
      "            fleet scale; the model trains offline on a --train-scale\n"
      "            twin of the scenario. --in-process skips the TCP hop\n"
      "            (router benchmarking). The first durable run records\n"
      "            its --shards (or --processes) and --chunk-drives in\n"
      "            DIR/TOPOLOGY; a resume under other values exits 2 (see\n"
      "            docs/SERVING.md).\n"
      "            --processes=N runs the topology as N shard-serve OS\n"
      "            processes fed by a shard-aware client (--via-router adds\n"
      "            a shard-route forwarding process for shard-oblivious\n"
      "            feeds); per-process port files, logs, and alert files\n"
      "            land in --proc-dir, and the children's alert files are\n"
      "            merged into the canonical (day, drive) stream on exit.\n"
      "            --kill-shard-after=N SIGKILLs shard --kill-shard after N\n"
      "            records (exit status 2); rerunning with the same flags\n"
      "            resumes every shard from its own durable state.\n"
      "            --threads=N sets the generation workers of the chunks\n"
      "            and the training twin (0 = one per core); serving's\n"
      "            concurrency is --shards or --processes.\n"
      "  shard-serve  --shard-index=K --shard-count=N --registry=DIR\n"
      "            [--port=0] [--port-file=FILE] [--alerts-out=FILE]\n"
      "            [--durable-dir=DIR] [engine flags]\n"
      "            serve ONE shard of the topology: a require-hello MFNP\n"
      "            endpoint whose durable state lives in DIR/shard-KKK\n"
      "            (identical layout to a single N-shard process). The\n"
      "            registry must already hold a published model. Readiness\n"
      "            is published atomically to --port-file as\n"
      "            \"<port> <resume_records> <model_version>\"; SIGTERM\n"
      "            drains, seals durable state, writes --alerts-out, and\n"
      "            exits 0.\n"
      "  shard-route  --shard-ports=P1,P2,... [--port=0] [--port-file=FILE]\n"
      "            [--model-version=V]\n"
      "            forwarding router for shard-oblivious clients: one MFNP\n"
      "            endpoint fanning records out to the per-shard servers\n"
      "            by the shared drive hash (one extra hop; shard-aware\n"
      "            clients connect to the shards directly instead).\n"
      "  validate  --telemetry=FILE\n"
      "  info      --model=FILE  print a model artifact's manifest and\n"
      "            hyperparameters\n"
      "  metrics   print the process metrics registry (Prometheus text)\n"
      "  help\n"
      "\n"
      "observability (any command, see docs/OBSERVABILITY.md):\n"
      "  --metrics-out=FILE  write a mfpa.metrics.v1 JSON snapshot on success\n"
      "  --metrics-dump      print the registry as Prometheus text on exit\n"
      "\n"
      "ingestion modes (train/evaluate/predict/validate, see docs/ROBUSTNESS.md):\n"
      "  --strict   fail fast on the first malformed row, with a line-numbered\n"
      "             diagnostic (default)\n"
      "  --lenient  skip/repair bad rows, quarantine hopeless drives, and print\n"
      "             the ingest-stats summary table\n";
}

int run_command(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  try {
    int rc = -1;
    if (cmd.command == "simulate") rc = cmd_simulate(cmd, out);
    else if (cmd.command == "train") rc = cmd_train(cmd, out);
    else if (cmd.command == "evaluate") rc = cmd_evaluate(cmd, out);
    else if (cmd.command == "predict") rc = cmd_predict(cmd, out);
    else if (cmd.command == "serve-replay") rc = cmd_serve_replay(cmd, out);
    else if (cmd.command == "shard-serve") rc = cmd_shard_serve(cmd, out);
    else if (cmd.command == "shard-route") rc = cmd_shard_route(cmd, out);
    else if (cmd.command == "fleet-replay") rc = cmd_fleet_replay(cmd, out);
    else if (cmd.command == "validate") rc = cmd_validate(cmd, out);
    else if (cmd.command == "info") rc = cmd_info(cmd, out);
    else if (cmd.command == "metrics") rc = cmd_metrics(out);
    else if (cmd.command == "help" || cmd.command == "--help") {
      out << usage();
      rc = 0;
    } else {
      err << "unknown command '" << cmd.command << "'\n" << usage();
      return 1;
    }
    export_metrics(cmd, out);
    return rc;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "failure: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace mfpa::cli
