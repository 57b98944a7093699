#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/string_util.hpp"

namespace mfpa::sim {
namespace {

constexpr const char* kFaultNames[kNumFaultModes] = {
    "duplicate_day",      "out_of_order_upload", "clock_rollback",
    "counter_reset",      "nan_field",           "negative_field",
    "saturated_field",    "duplicate_drive_id",  "dropped_column",
    "truncated_row",      "malformed_firmware",  "ticket_imt_out_of_window",
    "torn_final_write",   "file_truncation",     "bit_flip",
    "duplicate_segment",  "stale_checkpoint",
};

}  // namespace

const char* fault_mode_name(FaultMode mode) noexcept {
  return kFaultNames[static_cast<std::size_t>(mode)];
}

bool fault_mode_is_textual(FaultMode mode) noexcept {
  return mode == FaultMode::kDroppedColumn ||
         mode == FaultMode::kTruncatedRow ||
         mode == FaultMode::kMalformedFirmware;
}

bool fault_mode_is_ticket(FaultMode mode) noexcept {
  return mode == FaultMode::kTicketImtOutOfWindow;
}

bool fault_mode_is_disk(FaultMode mode) noexcept {
  return mode == FaultMode::kTornFinalWrite ||
         mode == FaultMode::kFileTruncation || mode == FaultMode::kBitFlip ||
         mode == FaultMode::kDuplicateSegment ||
         mode == FaultMode::kStaleCheckpoint;
}

std::vector<DriveTimeSeries> FaultInjector::corrupt(
    const std::vector<DriveTimeSeries>& batch) {
  std::vector<DriveTimeSeries> out = batch;

  // Faults apply in enum order regardless of plan order, each over its own
  // seed-derived stream, so composition is deterministic.
  std::vector<FaultSpec> ordered = plan_.faults;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.mode < b.mode;
                   });

  for (const FaultSpec& spec : ordered) {
    if (fault_mode_is_textual(spec.mode) || fault_mode_is_ticket(spec.mode)) {
      continue;
    }
    Rng rng = Rng(plan_.seed).split(static_cast<std::uint64_t>(spec.mode) + 1);
    std::size_t& count = stats_.injected[static_cast<std::size_t>(spec.mode)];
    std::vector<DriveTimeSeries> duplicated;

    for (auto& series : out) {
      auto& recs = series.records;
      switch (spec.mode) {
        case FaultMode::kDuplicateDay: {
          std::vector<DailyRecord> with_dups;
          with_dups.reserve(recs.size());
          for (const auto& rec : recs) {
            with_dups.push_back(rec);
            if (rng.bernoulli(spec.rate)) {
              with_dups.push_back(rec);  // the agent retried this upload
              ++count;
            }
          }
          recs = std::move(with_dups);
          break;
        }
        case FaultMode::kOutOfOrderUpload:
          for (std::size_t i = 1; i < recs.size(); ++i) {
            if (recs[i - 1].day != recs[i].day && rng.bernoulli(spec.rate)) {
              std::swap(recs[i - 1], recs[i]);
              ++count;
            }
          }
          break;
        case FaultMode::kClockRollback:
          for (std::size_t i = 1; i < recs.size(); ++i) {
            if (rng.bernoulli(spec.rate)) {
              recs[i].day = recs[i - 1].day -
                            static_cast<DayIndex>(rng.uniform_int(0, 5));
              ++count;
            }
          }
          break;
        case FaultMode::kCounterReset:
          for (std::size_t i = 1; i < recs.size(); ++i) {
            if (!rng.bernoulli(spec.rate)) continue;
            // Firmware update / power event: the cumulative counters restart
            // near zero and keep growing from there.
            std::array<float, kMonotoneCounters.size()> base;
            for (std::size_t a = 0; a < kMonotoneCounters.size(); ++a) {
              base[a] =
                  recs[i].smart[static_cast<std::size_t>(kMonotoneCounters[a])];
            }
            for (std::size_t j = i; j < recs.size(); ++j) {
              for (std::size_t a = 0; a < kMonotoneCounters.size(); ++a) {
                float& v =
                    recs[j].smart[static_cast<std::size_t>(kMonotoneCounters[a])];
                v = std::max(0.0f, v - base[a]);
              }
            }
            ++count;
          }
          break;
        case FaultMode::kNanField:
          for (auto& rec : recs) {
            if (rng.bernoulli(spec.rate)) {
              rec.smart[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(kNumSmartAttrs) - 1))] =
                  std::numeric_limits<float>::quiet_NaN();
              ++count;
            }
          }
          break;
        case FaultMode::kNegativeField:
          for (auto& rec : recs) {
            if (rng.bernoulli(spec.rate)) {
              float& v = rec.smart[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(kNumSmartAttrs) - 1))];
              v = -std::abs(v) - 1.0f;
              ++count;
            }
          }
          break;
        case FaultMode::kSaturatedField:
          for (auto& rec : recs) {
            if (!rng.bernoulli(spec.rate)) continue;
            if (rng.bernoulli(0.5)) {
              rec.smart[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(kNumSmartAttrs) - 1))] =
                  std::numeric_limits<float>::max();
            } else {
              rec.w[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(kNumWindowsEvents) - 1))] =
                  std::numeric_limits<std::uint16_t>::max();
            }
            ++count;
          }
          break;
        case FaultMode::kDuplicateDriveId:
          if (rng.bernoulli(spec.rate)) {
            duplicated.push_back(series);
            ++count;
          }
          break;
        default:
          break;
      }
    }
    for (auto& series : duplicated) out.push_back(std::move(series));
  }
  return out;
}

std::string FaultInjector::corrupt_csv(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  // split() keeps the empty field after a trailing newline; remember whether
  // to restore it so uncorrupted text round-trips byte-identically.
  const bool trailing_newline = !lines.empty() && lines.back().empty();
  if (trailing_newline) lines.pop_back();

  std::vector<FaultSpec> ordered = plan_.faults;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.mode < b.mode;
                   });

  for (const FaultSpec& spec : ordered) {
    if (!fault_mode_is_textual(spec.mode)) continue;
    Rng rng = Rng(plan_.seed).split(static_cast<std::uint64_t>(spec.mode) + 1);
    std::size_t& count = stats_.injected[static_cast<std::size_t>(spec.mode)];

    for (std::size_t li = 1; li < lines.size(); ++li) {  // never the header
      std::string& line = lines[li];
      if (line.empty() || !rng.bernoulli(spec.rate)) continue;
      switch (spec.mode) {
        case FaultMode::kDroppedColumn: {
          auto fields = split(line, ',');
          if (fields.size() < 2) break;
          fields.erase(fields.begin() +
                       rng.uniform_int(0, static_cast<std::int64_t>(
                                              fields.size()) - 1));
          line = join(fields, ",");
          ++count;
          break;
        }
        case FaultMode::kTruncatedRow:
          line.resize(static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(line.size()) - 1)));
          ++count;
          break;
        case FaultMode::kMalformedFirmware: {
          auto fields = split(line, ',');
          if (fields.size() < 7) break;
          fields[6] = "fw_corrupt!";  // firmware_index column
          line = join(fields, ",");
          ++count;
          break;
        }
        default:
          break;
      }
    }
  }
  std::string out = join(lines, "\n");
  if (trailing_newline) out += '\n';
  return out;
}

std::vector<TroubleTicket> FaultInjector::corrupt_tickets(
    const std::vector<TroubleTicket>& tickets, DayIndex window_lo,
    DayIndex window_hi) {
  std::vector<TroubleTicket> out = tickets;
  for (const FaultSpec& spec : plan_.faults) {
    if (!fault_mode_is_ticket(spec.mode)) continue;
    Rng rng = Rng(plan_.seed).split(static_cast<std::uint64_t>(spec.mode) + 1);
    std::size_t& count = stats_.injected[static_cast<std::size_t>(spec.mode)];
    for (auto& ticket : out) {
      if (!rng.bernoulli(spec.rate)) continue;
      const DayIndex offset = static_cast<DayIndex>(rng.uniform_int(200, 2000));
      ticket.imt = rng.bernoulli(0.5) ? window_hi + offset : window_lo - offset;
      ++count;
    }
  }
  return out;
}

namespace {

namespace fs = std::filesystem;

std::string read_all_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("fault_injector: cannot read " + path);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_all_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("fault_injector: cannot write " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("fault_injector: short write " + path);
}

/// Files in `dir` whose names end with `suffix`, sorted by name so the
/// per-file fault selection is independent of directory iteration order.
std::vector<std::string> sorted_files_with_suffix(const fs::path& dir,
                                                  const std::string& suffix) {
  std::vector<std::string> out;
  if (!fs::is_directory(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The checkpoint with the highest LSN embedded in its `ckpt-<lsn>.mfc`
/// name. Lexicographic order is wrong here (ckpt-512 > ckpt-4096), so the
/// LSN is parsed numerically.
std::string newest_checkpoint(const std::vector<std::string>& ckpts) {
  std::string best;
  std::uint64_t best_lsn = 0;
  bool found = false;
  for (const auto& path : ckpts) {
    const std::string name = fs::path(path).filename().string();
    if (name.size() < 10) continue;  // "ckpt-N.mfc"
    try {
      const std::uint64_t lsn = std::stoull(name.substr(5));
      if (!found || lsn >= best_lsn) {
        best_lsn = lsn;
        best = path;
        found = true;
      }
    } catch (const std::exception&) {
      continue;
    }
  }
  return best;
}

}  // namespace

void FaultInjector::corrupt_file(const std::string& path, FaultMode mode,
                                 std::uint64_t salt) {
  if (mode == FaultMode::kStaleCheckpoint) {
    if (fs::remove(path)) {
      ++stats_.injected[static_cast<std::size_t>(mode)];
    }
    return;
  }
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size == 0) return;  // nothing to corrupt

  Rng rng = Rng(plan_.seed ^ (salt * 0x9E3779B97F4A7C15ULL))
                .split(static_cast<std::uint64_t>(mode) + 1);
  std::size_t& count = stats_.injected[static_cast<std::size_t>(mode)];

  switch (mode) {
    case FaultMode::kTornFinalWrite: {
      // Power loss mid-append: the last 1..40 bytes never reached the
      // platter, leaving a partial frame at the tail.
      const std::uintmax_t cut = std::min<std::uintmax_t>(
          size, static_cast<std::uintmax_t>(rng.uniform_int(1, 40)));
      fs::resize_file(path, size - cut);
      ++count;
      break;
    }
    case FaultMode::kFileTruncation: {
      fs::resize_file(path,
                      static_cast<std::uintmax_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(size) - 1)));
      ++count;
      break;
    }
    case FaultMode::kBitFlip: {
      std::string bytes = read_all_bytes(path);
      const std::size_t offset = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[offset] = static_cast<char>(
          static_cast<unsigned char>(bytes[offset]) ^
          (1u << rng.uniform_int(0, 7)));
      write_all_bytes(path, bytes);
      ++count;
      break;
    }
    case FaultMode::kDuplicateSegment: {
      // A replayed copy of the segment's own frames lands after the
      // originals — every LSN appears twice with identical payloads, which
      // recovery must deduplicate rather than double-apply.
      const std::string bytes = read_all_bytes(path);
      std::ofstream os(path, std::ios::binary | std::ios::app);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!os) {
        throw std::runtime_error("fault_injector: append failed " + path);
      }
      ++count;
      break;
    }
    default:
      break;
  }
}

std::size_t FaultInjector::corrupt_durable_dir(const std::string& dir) {
  const std::vector<std::string> wal_files =
      sorted_files_with_suffix(fs::path(dir) / "wal", ".wal");
  const std::vector<std::string> ckpt_files =
      sorted_files_with_suffix(fs::path(dir) / "ckpt", ".mfc");

  std::vector<FaultSpec> ordered = plan_.faults;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.mode < b.mode;
                   });

  std::size_t injected = 0;
  for (const FaultSpec& spec : ordered) {
    if (!fault_mode_is_disk(spec.mode)) continue;
    Rng rng = Rng(plan_.seed).split(static_cast<std::uint64_t>(spec.mode) + 1);

    if (spec.mode == FaultMode::kStaleCheckpoint) {
      // Deletes the newest checkpoint: recovery must fall back to the older
      // one and replay the (now longer) WAL tail over it.
      const std::string newest = newest_checkpoint(ckpt_files);
      if (!newest.empty() && rng.bernoulli(spec.rate)) {
        const std::size_t before = stats_.of(spec.mode);
        corrupt_file(newest, spec.mode);
        injected += stats_.of(spec.mode) - before;
      }
      continue;
    }

    // WAL segments are always eligible; checkpoints additionally for the
    // byte-level modes (a duplicated checkpoint file is not a meaningful
    // failure shape — checkpoint replay never concatenates).
    std::vector<std::string> targets = wal_files;
    if (spec.mode != FaultMode::kDuplicateSegment) {
      targets.insert(targets.end(), ckpt_files.begin(), ckpt_files.end());
    }
    std::uint64_t salt = 0;
    for (const std::string& path : targets) {
      ++salt;
      if (!rng.bernoulli(spec.rate)) continue;
      const std::size_t before = stats_.of(spec.mode);
      corrupt_file(path, spec.mode, salt);
      injected += stats_.of(spec.mode) - before;
    }
  }
  return injected;
}

}  // namespace mfpa::sim
