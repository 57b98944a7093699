#include "common/robustness.hpp"

#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/table_printer.hpp"
#include "common/wire.hpp"

namespace mfpa {
namespace {

/// The additive counters, in image order.
constexpr std::array<std::size_t IngestStats::*, 13> kCounters = {
    &IngestStats::rows_read,
    &IngestStats::rows_repaired,
    &IngestStats::rows_dropped,
    &IngestStats::short_rows,
    &IngestStats::bad_cells,
    &IngestStats::firmware_repairs,
    &IngestStats::duplicate_days,
    &IngestStats::clock_rollbacks,
    &IngestStats::counter_resets_rebased,
    &IngestStats::values_repaired,
    &IngestStats::duplicate_drives,
    &IngestStats::drives_quarantined,
    &IngestStats::tickets_dropped,
};

constexpr std::size_t kMaxDiagnostics = 10000;
constexpr std::size_t kMaxDiagnosticBytes = 1u << 20;

}  // namespace

void IngestStats::note(std::string diagnostic, std::size_t cap) {
  if (diagnostics.size() < cap) diagnostics.push_back(std::move(diagnostic));
}

void IngestStats::merge(const IngestStats& other, std::size_t diag_cap) {
  for (const auto field : kCounters) this->*field += other.*field;
  for (const auto& d : other.diagnostics) note(d, diag_cap);
}

std::size_t IngestStats::faults_total() const noexcept {
  return short_rows + bad_cells + firmware_repairs + duplicate_days +
         clock_rollbacks + counter_resets_rebased + values_repaired +
         duplicate_drives + drives_quarantined + tickets_dropped;
}

std::vector<std::pair<std::string, std::size_t>> IngestStats::counter_rows()
    const {
  std::vector<std::pair<std::string, std::size_t>> rows;
  const auto add = [&rows](const char* label, std::size_t count) {
    if (count > 0) rows.emplace_back(label, count);
  };
  add("short rows (truncated / dropped column)", short_rows);
  add("unparsable cells", bad_cells);
  add("malformed firmware strings", firmware_repairs);
  add("duplicate days", duplicate_days);
  add("clock rollbacks", clock_rollbacks);
  add("counter resets re-based", counter_resets_rebased);
  add("NaN / negative / saturated fields", values_repaired);
  add("duplicate drive ids", duplicate_drives);
  add("drives quarantined", drives_quarantined);
  add("tickets dropped", tickets_dropped);
  return rows;
}

std::string IngestStats::summary() const {
  std::string out = "rows " + std::to_string(rows_read) + " (repaired " +
                    std::to_string(rows_repaired) + ", dropped " +
                    std::to_string(rows_dropped) + "), faults " +
                    std::to_string(faults_total());
  if (drives_quarantined > 0) {
    out += ", quarantined drives " + std::to_string(drives_quarantined);
  }
  return out;
}

void IngestStats::save(std::string& out) const {
  for (const auto field : kCounters) wire::put_u64(out, this->*field);
  wire::put_u32(out, static_cast<std::uint32_t>(diagnostics.size()));
  for (const auto& d : diagnostics) {
    wire::put_u32(out, static_cast<std::uint32_t>(d.size()));
    out += d;
  }
}

void IngestStats::load(wire::ByteReader& in) {
  for (const auto field : kCounters) this->*field = in.u64();
  const std::size_t n = in.count(kMaxDiagnostics);
  diagnostics.clear();
  for (std::size_t i = 0; i < n; ++i) {
    diagnostics.push_back(in.bytes(in.count(kMaxDiagnosticBytes)));
  }
}

void IngestStats::load_text(std::istream& is) {
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "ingest_stats" || version != 1) {
    throw std::runtime_error("IngestStats: malformed header");
  }
  for (const auto field : kCounters) {
    if (!(is >> this->*field)) {
      throw std::runtime_error("IngestStats: truncated counters");
    }
  }
  std::size_t n = 0;
  if (!(is >> tag >> n) || tag != "diagnostics" || n > kMaxDiagnostics) {
    throw std::runtime_error("IngestStats: malformed diagnostics count");
  }
  diagnostics.clear();
  diagnostics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t len = 0;
    if (!(is >> len) || len > kMaxDiagnosticBytes || is.get() != ' ') {
      throw std::runtime_error("IngestStats: malformed diagnostic length");
    }
    std::string d(len, '\0');
    if (!is.read(d.data(), static_cast<std::streamsize>(len))) {
      throw std::runtime_error("IngestStats: truncated diagnostic");
    }
    diagnostics.push_back(std::move(d));
  }
}

void print_ingest_stats(const IngestStats& stats, std::ostream& os) {
  os << "ingest: " << stats.summary() << "\n";
  const auto rows = stats.counter_rows();
  if (!rows.empty()) {
    TablePrinter table({"fault", "count"});
    for (const auto& [label, count] : rows) {
      table.add_row({label, std::to_string(count)});
    }
    table.print(os);
  }
  if (!stats.diagnostics.empty()) {
    os << "sample diagnostics:\n";
    for (const auto& d : stats.diagnostics) os << "  " << d << "\n";
  }
}

}  // namespace mfpa
