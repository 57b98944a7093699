// Metric snapshot exporters — the two formats the outside world reads.
//
// JSON (`mfpa.metrics.v1`): a machine-stable schema consumed by bench
// JSON artifacts and CI diffs. Determinism is part of the contract and is
// locked by tests/obs/test_export.cpp: metrics sorted by (name, labels),
// object keys emitted in alphabetical order, numbers rendered with
// format_json_number. Adding a metric is backward-compatible; renaming a
// key or field is a schema break and must bump the schema string.
//
// Prometheus text: the human/scrape surface (`mfpa metrics`,
// `--metrics-dump`). Histograms are rendered as summaries (count / sum /
// p50 / p90 / p99), the same figures the JSON carries; neither format
// exports the buckets yet.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace mfpa::obs {

/// Schema identifier embedded in every JSON export.
inline constexpr const char* kMetricsJsonSchema = "mfpa.metrics.v1";

/// Renders a snapshot as the stable JSON document described above.
std::string to_json(const MetricsSnapshot& snapshot);

/// Renders a snapshot in Prometheus/OpenMetrics-style text.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Writes to_json(snapshot) to `path` (truncating). Throws
/// std::runtime_error when the file cannot be written.
void write_json_file(const std::string& path, const MetricsSnapshot& snapshot);

}  // namespace mfpa::obs
