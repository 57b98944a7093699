// Exporter golden tests: the mfpa.metrics.v1 JSON document is a stable
// machine contract (bench artifacts, CI diffs, --metrics-out), so this
// suite locks it byte-for-byte against a hand-built registry. Renaming a
// key, reordering fields, or changing number rendering must fail here and
// force a schema bump.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include <unistd.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mfpa::obs {
namespace {

/// One registry covering all three kinds, with values whose rendered forms
/// (quantiles included) are exact by construction: 2.5 and 7.5 open the
/// log-linear buckets [2.5, 2.625) and [7.5, 7.75), so p50 is the first
/// bucket's upper edge and p90/p99 interpolate 80%/98% into the second.
std::unique_ptr<MetricsRegistry> golden_registry() {
  auto reg = MetricsRegistry::create_isolated();
  reg->counter("alerts_total", {{"engine", "0"}}).inc(3);
  reg->gauge("queue_depth").set(7.5);
  HistogramMetric& h = reg->histogram("latency_us");
  h.observe(2.5);
  h.observe(2.5);
  h.observe(7.5);
  h.observe(7.5);
  return reg;
}

constexpr const char* kGoldenJson =
    "{\n"
    "  \"metrics\": [\n"
    "    {\"labels\": {\"engine\": \"0\"}, \"name\": \"alerts_total\", "
    "\"type\": \"counter\", \"value\": 3},\n"
    "    {\"count\": 4, \"labels\": {}, \"mean\": 5, \"name\": "
    "\"latency_us\", \"p50\": 2.625, \"p90\": 7.7, \"p99\": 7.745, "
    "\"sum\": 20, \"type\": \"histogram\"},\n"
    "    {\"labels\": {}, \"name\": \"queue_depth\", \"type\": \"gauge\", "
    "\"value\": 7.5}\n"
    "  ],\n"
    "  \"schema\": \"mfpa.metrics.v1\"\n"
    "}\n";

TEST(MetricsExportTest, JsonMatchesGoldenByteForByte) {
  const auto reg = golden_registry();
  EXPECT_EQ(to_json(reg->snapshot()), kGoldenJson);
}

TEST(MetricsExportTest, EmptySnapshotStillCarriesSchema) {
  const auto reg = MetricsRegistry::create_isolated();
  EXPECT_EQ(to_json(reg->snapshot()),
            "{\n  \"metrics\": [\n  ],\n  \"schema\": \"mfpa.metrics.v1\"\n}\n");
}

TEST(MetricsExportTest, JsonIsDeterministicAcrossSnapshots) {
  const auto reg = golden_registry();
  EXPECT_EQ(to_json(reg->snapshot()), to_json(reg->snapshot()));
}

TEST(MetricsExportTest, PrometheusTextMatchesGolden) {
  const auto reg = golden_registry();
  EXPECT_EQ(to_prometheus(reg->snapshot()),
            "# TYPE alerts_total counter\n"
            "alerts_total{engine=\"0\"} 3\n"
            "# TYPE latency_us summary\n"
            "latency_us_count 4\n"
            "latency_us_sum 20\n"
            "latency_us{quantile=\"0.5\"} 2.625\n"
            "latency_us{quantile=\"0.9\"} 7.7\n"
            "latency_us{quantile=\"0.99\"} 7.745\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 7.5\n");
}

TEST(MetricsExportTest, LabelValuesAreEscaped) {
  auto reg = MetricsRegistry::create_isolated();
  reg->counter("c", {{"path", "a\"b\\c"}}).inc();
  const std::string json = to_json(reg->snapshot());
  EXPECT_NE(json.find("\"path\": \"a\\\"b\\\\c\""), std::string::npos) << json;
}

TEST(MetricsExportTest, WriteJsonFileRoundTrips) {
  const auto reg = golden_registry();
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("mfpa_metrics_export_" + std::to_string(::getpid()) + ".json"))
          .string();
  write_json_file(path, reg->snapshot());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), kGoldenJson);
  std::filesystem::remove(path);
}

TEST(MetricsExportTest, WriteJsonFileThrowsOnUnwritablePath) {
  const auto reg = MetricsRegistry::create_isolated();
  EXPECT_THROW(write_json_file("/nonexistent-dir/metrics.json",
                               reg->snapshot()),
               std::runtime_error);
}

}  // namespace
}  // namespace mfpa::obs
