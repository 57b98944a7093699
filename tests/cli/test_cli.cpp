#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mfpa::cli {
namespace {

TEST(CommandLineParse, VerbAndOptions) {
  const auto cmd = parse_command_line(
      {"train", "--telemetry=t.csv", "--vendor=2", "--report"});
  EXPECT_EQ(cmd.command, "train");
  EXPECT_EQ(cmd.get("telemetry"), "t.csv");
  EXPECT_DOUBLE_EQ(cmd.get_number("vendor", -1), 2.0);
  EXPECT_TRUE(cmd.has("report"));
  EXPECT_FALSE(cmd.has("model"));
}

TEST(CommandLineParse, EmptyThrows) {
  EXPECT_THROW(parse_command_line({}), std::invalid_argument);
}

TEST(CommandLineParse, BarePositionalRejected) {
  EXPECT_THROW(parse_command_line({"train", "stray"}), std::invalid_argument);
}

TEST(CommandLineParse, ValueWithEquals) {
  const auto cmd = parse_command_line({"x", "--path=a=b"});
  EXPECT_EQ(cmd.get("path"), "a=b");
}

TEST(CommandLineAccessors, Defaults) {
  const auto cmd = parse_command_line({"x"});
  EXPECT_EQ(cmd.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(cmd.get_number("missing", 3.5), 3.5);
  EXPECT_THROW(cmd.require("missing"), std::invalid_argument);
}

TEST(CommandLineAccessors, MalformedNumberThrows) {
  const auto cmd = parse_command_line({"x", "--n=abc", "--m=1.5x"});
  EXPECT_THROW(cmd.get_number("n", 0), std::invalid_argument);
  EXPECT_THROW(cmd.get_number("m", 0), std::invalid_argument);
}

TEST(RunCommand, HelpPrintsUsage) {
  std::ostringstream out, err;
  const int rc = run_command(parse_command_line({"help"}), out, err);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("simulate"), std::string::npos);
  EXPECT_NE(out.str().find("predict"), std::string::npos);
}

TEST(RunCommand, UnknownCommandFails) {
  std::ostringstream out, err;
  const int rc = run_command(parse_command_line({"frobnicate"}), out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
}

TEST(RunCommand, MissingRequiredOptionIsUserError) {
  std::ostringstream out, err;
  const int rc = run_command(parse_command_line({"simulate"}), out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("--telemetry"), std::string::npos);
}

TEST(RunCommand, MissingFileIsRuntimeFailure) {
  std::ostringstream out, err;
  const int rc = run_command(
      parse_command_line({"info", "--model=/nonexistent/m.txt"}), out, err);
  EXPECT_EQ(rc, 2);
}

TEST(RunCommand, FullWorkflowSimulateTrainPredictInfo) {
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "/mfpa_cli_t.csv";
  const std::string tickets = dir + "/mfpa_cli_k.csv";
  const std::string model = dir + "/mfpa_cli_m.txt";

  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line({"simulate",
                                            "--telemetry=" + telemetry,
                                            "--tickets=" + tickets,
                                            "--scenario=tiny", "--seed=6"}),
                        out, err),
            0)
      << err.str();

  out.str("");
  ASSERT_EQ(run_command(parse_command_line(
                            {"train", "--telemetry=" + telemetry,
                             "--tickets=" + tickets, "--model=" + model,
                             "--report", "--algorithm=DT", "--seed=6"}),
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("TPR"), std::string::npos);

  out.str("");
  ASSERT_EQ(run_command(parse_command_line({"predict",
                                            "--telemetry=" + telemetry,
                                            "--model=" + model, "--top=3"}),
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("risk score"), std::string::npos);

  out.str("");
  ASSERT_EQ(run_command(parse_command_line({"info", "--model=" + model}), out,
                        err),
            0);
  EXPECT_NE(out.str().find("algorithm: DT"), std::string::npos);

  std::remove(telemetry.c_str());
  std::remove(tickets.c_str());
  std::remove(model.c_str());
}

TEST(RunCommand, EvaluateReportsDriveLevelMetrics) {
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "/mfpa_cli_e.csv";
  const std::string tickets = dir + "/mfpa_cli_ek.csv";
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line({"simulate",
                                            "--telemetry=" + telemetry,
                                            "--tickets=" + tickets,
                                            "--scenario=tiny", "--seed=6"}),
                        out, err),
            0);
  out.str("");
  ASSERT_EQ(run_command(parse_command_line(
                            {"evaluate", "--telemetry=" + telemetry,
                             "--tickets=" + tickets, "--algorithm=DT",
                             "--seed=6"}),
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("drive-level"), std::string::npos);
  EXPECT_NE(out.str().find("AUC"), std::string::npos);
  std::remove(telemetry.c_str());
  std::remove(tickets.c_str());
}

TEST(RunCommand, StrictTrainRejectsRepeatedDay) {
  // One drive's upload repeated verbatim: `validate` reports it and the
  // strict serving ingest rejects it, so strict `train` must not learn
  // from both copies.
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "/mfpa_cli_dup.csv";
  const std::string tickets = dir + "/mfpa_cli_dupk.csv";
  const std::string model = dir + "/mfpa_cli_dupm.txt";
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line({"simulate",
                                            "--telemetry=" + telemetry,
                                            "--tickets=" + tickets,
                                            "--scenario=tiny", "--seed=7"}),
                        out, err),
            0)
      << err.str();
  {
    std::ifstream in(telemetry);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header) && std::getline(in, row));
    std::stringstream rest;
    rest << in.rdbuf();
    in.close();
    std::ofstream(telemetry) << header << '\n'
                             << row << '\n'
                             << row << '\n'
                             << rest.str();
  }
  err.str("");
  EXPECT_NE(run_command(parse_command_line(
                            {"train", "--telemetry=" + telemetry,
                             "--tickets=" + tickets, "--model=" + model,
                             "--algorithm=DT", "--seed=7"}),
                        out, err),
            0);
  EXPECT_NE(err.str().find("repeated day"), std::string::npos) << err.str();
  std::remove(telemetry.c_str());
  std::remove(tickets.c_str());
  std::remove(model.c_str());
}

TEST(RunCommand, TrainRejectsUnknownGroup) {
  std::ostringstream out, err;
  const int rc = run_command(
      parse_command_line({"train", "--telemetry=a", "--tickets=b",
                          "--model=c", "--group=NOPE"}),
      out, err);
  EXPECT_EQ(rc, 1);
}

TEST(Usage, MentionsEveryCommand) {
  const std::string text = usage();
  for (const char* cmd :
       {"simulate", "train", "evaluate", "predict", "validate", "info"}) {
    EXPECT_NE(text.find(cmd), std::string::npos) << cmd;
  }
}

TEST(RunCommand, ValidateCleanSimulatedBatch) {
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "/mfpa_cli_v.csv";
  const std::string tickets = dir + "/mfpa_cli_vk.csv";
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line({"simulate",
                                            "--telemetry=" + telemetry,
                                            "--tickets=" + tickets,
                                            "--scenario=tiny", "--seed=8"}),
                        out, err),
            0);
  out.str("");
  EXPECT_EQ(run_command(
                parse_command_line({"validate", "--telemetry=" + telemetry}),
                out, err),
            0);
  EXPECT_NE(out.str().find("batch is clean"), std::string::npos);
  std::remove(telemetry.c_str());
  std::remove(tickets.c_str());
}

TEST(RunCommand, MetricsCommandPrintsPrometheusText) {
  auto reg = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*reg);
  reg->counter("mfpa_cli_probe_total").inc(2);
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line({"metrics"}), out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("# TYPE mfpa_cli_probe_total counter"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("mfpa_cli_probe_total 2"), std::string::npos);
}

TEST(RunCommand, MetricsOutWritesSchemaStableJson) {
  auto reg = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*reg);
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "/mfpa_cli_mo.csv";
  const std::string tickets = dir + "/mfpa_cli_mok.csv";
  const std::string metrics = dir + "/mfpa_cli_mo_metrics.json";
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line(
                            {"simulate", "--telemetry=" + telemetry,
                             "--tickets=" + tickets, "--scenario=tiny",
                             "--seed=6", "--metrics-out=" + metrics}),
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("wrote metrics to"), std::string::npos);
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"schema\": \"mfpa.metrics.v1\""),
            std::string::npos)
      << buf.str();
  std::remove(telemetry.c_str());
  std::remove(tickets.c_str());
  std::remove(metrics.c_str());
}

/// One exported family member as "name{k=v,...} type[ value]", where a
/// histogram's value is its count. The `engine` label is masked (in-process
/// it is a process-wide sequence number), and so is every value that
/// follows where drain batches fall: batch counts and sizes, predict calls,
/// queue depth, fsyncs and checkpoint bytes.
std::string vocabulary_line(const obs::MetricValue& m) {
  static const std::set<std::string> kBatchDependent = {
      "mfpa_serve_batch_size", "mfpa_serve_batches_total",
      "mfpa_wal_fsyncs_total", "mfpa_serve_stage_seconds",
      "mfpa_ckpt_bytes_total", "mfpa_serve_max_queue_depth"};
  std::ostringstream line;
  line << m.name << "{";
  for (const auto& [key, value] : m.labels) {
    line << key << "=" << (key == "engine" ? "*" : value) << ",";
  }
  line << "} ";
  switch (m.kind) {
    case obs::MetricKind::kCounter:
      line << "counter";
      if (!kBatchDependent.count(m.name)) line << " " << m.counter;
      break;
    case obs::MetricKind::kGauge:
      line << "gauge";
      if (!kBatchDependent.count(m.name)) line << " " << m.gauge;
      break;
    case obs::MetricKind::kHistogram:
      line << "histogram";
      if (!kBatchDependent.count(m.name)) line << " " << m.hist.total();
      break;
  }
  return line.str();
}

// The metrics vocabulary, pinned: every family a durable serving run
// exports, with its labels, type and each value that does not depend on
// batch boundaries. Each event has one family, so a family added twice for
// one event, or one that lost its only reader, shows up here first (see
// docs/OBSERVABILITY.md, "Adding a metric").
TEST(ServeReplayCommand, DurableRunExportsThePinnedVocabulary) {
  auto reg = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*reg);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mfpa_cli_vocabulary";
  std::filesystem::remove_all(dir);
  const std::string metrics = (dir / "metrics.json").string();
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line(
                            {"serve-replay", "--scenario=tiny", "--seed=7",
                             "--durable-dir=" + (dir / "durable").string(),
                             "--registry=" + (dir / "registry").string(),
                             "--metrics-out=" + metrics}),
                        out, err),
            0)
      << err.str();

  std::vector<std::string> lines;
  std::set<std::string> families;
  for (const auto& m : reg->snapshot().metrics) {
    lines.push_back(vocabulary_line(m));
    families.insert(m.name);
  }
  const std::vector<std::string> expected = {
      "mfpa_ckpt_bytes_total{} counter",
      "mfpa_ckpt_fallbacks_total{} counter 0",
      "mfpa_ckpt_last_lsn{} gauge 14233",
      "mfpa_ckpt_writes_total{} counter 5",
      "mfpa_ingest_faults_total{cause=clock_rollback,} counter 0",
      "mfpa_ingest_faults_total{cause=counter_reset_rebased,} counter 0",
      "mfpa_ingest_faults_total{cause=duplicate_day,} counter 0",
      "mfpa_ingest_faults_total{cause=value_repaired,} counter 0",
      "mfpa_registry_activations_total{} counter 0",
      "mfpa_registry_current_version{} gauge 1",
      "mfpa_registry_publishes_total{} counter 1",
      "mfpa_registry_swap_seconds{} histogram 1",
      "mfpa_serve_accepted_total{engine=*,} counter 14233",
      "mfpa_serve_alerts_total{engine=*,} counter 473",
      "mfpa_serve_batch_size{engine=*,} histogram",
      "mfpa_serve_batches_total{engine=*,} counter",
      "mfpa_serve_latency_us{engine=*,} histogram 14233",
      "mfpa_serve_max_queue_depth{engine=*,} gauge",
      "mfpa_serve_model_swaps_total{engine=*,} counter 0",
      "mfpa_serve_records_processed_total{engine=*,} counter 14233",
      "mfpa_serve_rejected_total{engine=*,} counter 0",
      "mfpa_serve_rows_scored_total{engine=*,} counter 18304",
      "mfpa_serve_shed_total{engine=*,} counter 0",
      "mfpa_serve_stage_seconds{engine=*,stage=predict,} histogram",
      "mfpa_serve_submitted_total{engine=*,} counter 14233",
      "mfpa_serve_synthetic_rows_total{engine=*,} counter 4080",
      "mfpa_serve_unscored_no_model_total{engine=*,} counter 0",
      "mfpa_store_drives_quarantined_total{} counter 0",
      "mfpa_store_drives_tracked{} gauge 78",
      "mfpa_store_segments_restarted_total{} counter 88",
      "mfpa_wal_bytes_total{} counter 2448076",  // 14,233 x 172
      "mfpa_wal_fsyncs_total{} counter",
      "mfpa_wal_recovery_replayed_total{} counter 0",
      "mfpa_wal_recovery_skipped_total{} counter 0",
      "mfpa_wal_recovery_torn_tails_total{} counter 0",
  };
  EXPECT_EQ(lines, expected);
  EXPECT_EQ(families.size(), 32u);

  // --metrics-out exports exactly these families.
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good()) << metrics;
  std::set<std::string> exported;
  const std::string key = "\"name\": \"";
  for (std::string line; std::getline(in, line);) {
    const auto at = line.find(key);
    if (at == std::string::npos) continue;
    const auto begin = at + key.size();
    exported.insert(line.substr(begin, line.find('"', begin) - begin));
  }
  EXPECT_EQ(exported, families);
  std::filesystem::remove_all(dir);
}

// --registry names a directory the run clears of a previous registry. A
// file no registry writes is refused with exit 1, and nothing is deleted.
TEST(ServeReplayCommand, RegistryDirKeepsUnrelatedFiles) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mfpa_cli_registry_notes";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "notes.txt") << "keep me\n";
  std::ofstream(dir / "CURRENT") << "v000001\n";
  std::ostringstream out, err;
  EXPECT_EQ(run_command(parse_command_line(
                            {"serve-replay", "--scenario=tiny", "--seed=7",
                             "--registry=" + dir.string()}),
                        out, err),
            1);
  EXPECT_NE(err.str().find("notes.txt"), std::string::npos) << err.str();
  EXPECT_TRUE(std::filesystem::exists(dir / "notes.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir / "CURRENT"));
  std::filesystem::remove_all(dir);
}

// Serving builds flat rows from the one record it keeps per drive, so a
// sequence model must be refused at publish time, not abort the drain.
TEST(ServeReplayCommand, RefusesToPublishASequenceModel) {
  const std::filesystem::path registry =
      std::filesystem::path(::testing::TempDir()) / "mfpa_cli_cnn_registry";
  std::filesystem::remove_all(registry);
  std::ostringstream out, err;
  EXPECT_EQ(run_command(parse_command_line(
                            {"serve-replay", "--scenario=tiny", "--seed=7",
                             "--algorithm=CNN_LSTM",
                             "--registry=" + registry.string()}),
                        out, err),
            1);
  EXPECT_NE(err.str().find("CNN_LSTM"), std::string::npos) << err.str();
  EXPECT_FALSE(std::filesystem::exists(registry / "CURRENT"));
  std::filesystem::remove_all(registry);
}

TEST(Usage, DocumentsObservabilityFlags) {
  const std::string text = usage();
  EXPECT_NE(text.find("metrics"), std::string::npos);
  EXPECT_NE(text.find("--metrics-out"), std::string::npos);
}

TEST(Usage, DocumentsShardedServing) {
  const std::string text = usage();
  EXPECT_NE(text.find("fleet-replay"), std::string::npos);
  EXPECT_NE(text.find("--shards"), std::string::npos);
  EXPECT_NE(text.find("--chunk-drives"), std::string::npos);
}

TEST(ServeReplayCommand, RejectsNonPositiveShards) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command(parse_command_line({"serve-replay", "--shards=0"}),
                        out, err),
            1);
  EXPECT_NE(err.str().find("--shards"), std::string::npos);
  err.str("");
  EXPECT_EQ(run_command(parse_command_line({"serve-replay", "--shards=2.5"}),
                        out, err),
            1);
  EXPECT_NE(err.str().find("--shards"), std::string::npos);
}

TEST(FleetReplayCommand, RejectsBadChunkAndSeed) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command(
                parse_command_line({"fleet-replay", "--chunk-drives=0"}),
                out, err),
            1);
  EXPECT_NE(err.str().find("--chunk-drives"), std::string::npos);
  err.str("");
  EXPECT_EQ(run_command(parse_command_line({"fleet-replay", "--seed=-3"}),
                        out, err),
            1);
  EXPECT_NE(err.str().find("--seed"), std::string::npos);
}

void expect_usage_error(const std::vector<std::string>& args,
                        const std::string& flag) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command(parse_command_line(args), out, err), 1) << flag;
  EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
}

// Integer flags are range-checked before any work: a negative count, a
// fraction or an out-of-range port is a usage error naming the flag.
TEST(RunCommand, RejectsOutOfRangeIntegerFlags) {
  expect_usage_error({"serve-replay", "--batch=-1"}, "--batch");
  expect_usage_error({"serve-replay", "--queue-capacity=2.5"},
                     "--queue-capacity");
  expect_usage_error({"fleet-replay", "--kill-after=-3"}, "--kill-after");
  const std::string registry =
      ::testing::TempDir() + "/mfpa_cli_int_flags_registry";
  expect_usage_error({"shard-serve", "--shard-index=0", "--shard-count=1",
                      "--registry=" + registry, "--port=70000"},
                     "--port");
}

TEST(RunCommand, SimulateScaleOverride) {
  const std::string dir = ::testing::TempDir();
  const std::string telemetry = dir + "/mfpa_cli_s.csv";
  const std::string tickets = dir + "/mfpa_cli_sk.csv";
  std::ostringstream out, err;
  ASSERT_EQ(run_command(parse_command_line(
                            {"simulate", "--telemetry=" + telemetry,
                             "--tickets=" + tickets, "--scenario=tiny",
                             "--seed=8", "--scale=0.002", "--no-drift"}),
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("wrote"), std::string::npos);
  std::remove(telemetry.c_str());
  std::remove(tickets.c_str());
}

}  // namespace
}  // namespace mfpa::cli
