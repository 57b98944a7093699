#include "serve/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/wire.hpp"
#include "ml/checksum.hpp"

namespace mfpa::serve {
namespace fs = std::filesystem;

namespace {

// Little-endian fixed-width packing shared with every binary format in the
// tree (see common/wire.hpp — extracted from here when net/protocol adopted
// the same framing conventions).
using wire::ByteReader;
using wire::put_f32;
using wire::put_f64;
using wire::put_i32;
using wire::put_u16;
using wire::put_u32;
using wire::put_u64;

std::string read_whole_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("wal: cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_all(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      throw std::runtime_error("wal: write failed for " + path);
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void fsync_fd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error("wal: fsync failed for " + path);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort; the data fsync is the real barrier
  ::fsync(fd);
  ::close(fd);
}

/// publish_file's temp name for `path`: ".<name>.tmp" beside it.
fs::path publish_temp_path(const fs::path& path) {
  return path.parent_path() / ("." + path.filename().string() + ".tmp");
}

std::string segment_name(std::uint64_t base_lsn) {
  return "c" + std::to_string(base_lsn) + ".wal";
}

/// Parses "c42.wal" -> 42; nullopt for other names.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  if (!name.starts_with("c") || !name.ends_with(".wal")) return std::nullopt;
  const char* first = name.data() + 1;
  const char* last = name.data() + name.size() - 4;
  std::uint64_t base = 0;
  const auto [end, ec] = std::from_chars(first, last, base);
  if (ec != std::errc() || end != last || first == last) return std::nullopt;
  return base;
}

}  // namespace

void publish_file(const std::string& path, std::string_view contents,
                  bool fsync) {
  const fs::path final_path(path);
  const fs::path dir = final_path.parent_path();
  const std::string tmp = publish_temp_path(final_path).string();
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("publish: cannot create " + tmp);
  }
  {
    struct Closer {
      int fd;
      ~Closer() { ::close(fd); }
    } closer{fd};
    write_all(fd, contents, tmp);
    if (fsync) fsync_fd(fd, tmp);
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);  // atomic within a filesystem
  if (ec) {
    throw std::runtime_error("publish: cannot rename onto " + path + ": " +
                             ec.message());
  }
  if (fsync) fsync_dir(dir.string());
}

bool is_publish_temp_name(const std::string& name) {
  return name.size() > 5 && name.front() == '.' && name.ends_with(".tmp");
}

void remove_publish_orphans(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        is_publish_temp_name(entry.path().filename().string())) {
      fs::remove(entry.path());
    }
  }
}

void append_frame(std::string& buf, std::uint32_t magic, std::uint64_t seq,
                  std::string_view payload) {
  const std::size_t body_start = buf.size() + 4;  // digest region starts here
  put_u32(buf, magic);
  put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  put_u64(buf, seq);
  buf.append(payload);
  const std::uint64_t digest = ml::fnv1a(
      std::string_view(buf.data() + body_start, buf.size() - body_start));
  put_u64(buf, digest);
}

ParsedFrame parse_frame(std::string_view bytes, std::uint32_t magic,
                        std::size_t max_payload) {
  ParsedFrame frame;
  if (bytes.size() < kFrameHeaderBytes) return frame;  // kNeedMore
  if (wire::read_u32_at(bytes.data(), 0) != magic) {
    frame.status = FrameStatus::kBadMagic;
    return frame;
  }
  const std::size_t size = wire::read_u32_at(bytes.data(), 4);
  if (size > max_payload) {
    frame.status = FrameStatus::kOversized;
    return frame;
  }
  const std::size_t total = kFrameHeaderBytes + size + kFrameDigestBytes;
  if (bytes.size() < total) return frame;  // kNeedMore
  // Digest covers (size, seq, payload) — everything after the magic.
  const std::uint64_t want =
      wire::read_u64_at(bytes.data(), kFrameHeaderBytes + size);
  if (ml::fnv1a(bytes.substr(4, 4 + 8 + size)) != want) {
    frame.status = FrameStatus::kBadDigest;
    return frame;
  }
  frame.status = FrameStatus::kFrame;
  frame.seq = wire::read_u64_at(bytes.data(), 8);
  frame.payload = bytes.substr(kFrameHeaderBytes, size);
  frame.digest = want;
  frame.bytes = total;
  return frame;
}

FrameScan scan_frames(const std::string& path) {
  const std::string file = read_whole_file(path);
  const std::string_view bytes(file);
  const auto frame_at = [bytes](std::size_t off) {
    return parse_frame(bytes.substr(off), kWalFrameMagic, kMaxWalPayload);
  };
  FrameScan scan;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ParsedFrame frame = frame_at(off);
    if (frame.status == FrameStatus::kFrame) {
      off += frame.bytes;
      scan.valid_bytes = off;
      scan.frames.push_back(
          {frame.seq, std::string(frame.payload), frame.digest, off});
      continue;
    }
    // Corrupt or incomplete bytes at `off`. If any complete valid frame
    // exists later in the file, this is mid-stream corruption: refuse.
    for (std::size_t probe = off + 1; probe + 1 < bytes.size(); ++probe) {
      if (frame_at(probe).status == FrameStatus::kFrame) {
        throw std::runtime_error(
            "wal: mid-stream corruption in " + path + " at byte " +
            std::to_string(off) + " (valid frame follows at byte " +
            std::to_string(probe) + "); refusing to recover past a hole");
      }
    }
    scan.torn_tail = true;
    scan.torn_bytes = bytes.size() - off;
    break;
  }
  return scan;
}

void append_wal_payload(std::string& buf, std::uint64_t drive_id, int vendor,
                        const sim::DailyRecord& record) {
  buf.reserve(buf.size() + kWalPayloadBytes);
  put_u64(buf, drive_id);
  put_i32(buf, vendor);
  put_i32(buf, record.day);
  put_u32(buf, record.firmware_index);
  for (const float v : record.smart) put_f32(buf, v);
  for (const std::uint16_t v : record.w) put_u16(buf, v);
  for (const std::uint16_t v : record.b) put_u16(buf, v);
}

WalEntry decode_wal_payload(std::uint64_t lsn, const std::string& payload) {
  ByteReader r(payload, "wal record");
  WalEntry entry;
  entry.lsn = lsn;
  entry.drive_id = r.u64();
  entry.vendor = r.i32();
  entry.record.day = r.i32();
  entry.record.firmware_index = static_cast<std::uint8_t>(r.u32());
  for (auto& v : entry.record.smart) v = r.f32();
  for (auto& v : entry.record.w) v = r.u16();
  for (auto& v : entry.record.b) v = r.u16();
  r.expect_done();
  return entry;
}

std::string encode_alert_payload(const core::Alert& alert) {
  std::string buf;
  put_u64(buf, alert.drive_id);
  put_i32(buf, alert.day);
  put_f64(buf, alert.score);
  return buf;
}

core::Alert decode_alert_payload(const std::string& payload) {
  ByteReader r(payload, "alert record");
  core::Alert alert;
  alert.drive_id = r.u64();
  alert.day = r.i32();
  alert.score = r.f64();
  r.expect_done();
  return alert;
}

// --- FramedLogWriter -------------------------------------------------------

FramedLogWriter::~FramedLogWriter() {
  try {
    flush();
  } catch (...) {
    // Destructor: nothing sane to do; the tail is torn, recovery handles it.
  }
  close();
}

void FramedLogWriter::open(const std::string& path, bool truncate) {
  close();
  path_ = path;
  fd_ = ::open(path_.c_str(),
               O_CREAT | O_WRONLY | (truncate ? O_TRUNC : O_APPEND), 0644);
  if (fd_ < 0) {
    throw std::runtime_error("wal: cannot open " + path_);
  }
}

void FramedLogWriter::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  pending_.clear();
  dirty_ = false;
}

void FramedLogWriter::append(std::uint64_t seq, std::string_view payload) {
  if (fd_ < 0) {
    throw std::logic_error("FramedLogWriter: append before open");
  }
  append_frame(pending_, kWalFrameMagic, seq, payload);
}

bool FramedLogWriter::flush() {
  if (!pending_.empty()) {
    write_all(fd_, pending_, path_);
    pending_.clear();
    dirty_ = true;
  }
  const bool sync = dirty_ && fsync_;
  if (sync) fsync_fd(fd_, path_);
  dirty_ = false;
  return sync;
}

// --- WalWriter -------------------------------------------------------------

WalWriter::WalWriter(WalWriterConfig config)
    : config_(std::move(config)), segment_(config_.fsync) {
  fs::create_directories(fs::path(config_.dir) / "wal");
  auto& reg = obs::registry();
  metrics_.bytes = &reg.counter("mfpa_wal_bytes_total");
  metrics_.fsyncs = &reg.counter("mfpa_wal_fsyncs_total");
  commit_thread_ = std::thread([this] { commit_loop(); });
}

WalWriter::~WalWriter() {
  try {
    flush();  // counted like any group commit; the segment closes after
  } catch (...) {
    // Destructor: nothing sane to do; the tail is torn, recovery handles it.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_.notify_one();
  commit_thread_.join();
}

void WalWriter::open_generation(std::uint64_t base_lsn) {
  flush();
  const fs::path wal_dir = fs::path(config_.dir) / "wal";
  segment_.open((wal_dir / segment_name(base_lsn)).string(),
                /*truncate=*/true);
  fsync_dir(wal_dir.string());
}

std::uint64_t WalWriter::append(std::uint64_t drive_id, int vendor,
                                const sim::DailyRecord& record) {
  const std::uint64_t lsn = next_lsn_++;
  open_group_.push_back({lsn, drive_id, vendor, record});
  metrics_.bytes->inc(kWalRecordFrameBytes);
  if (config_.group_commit_records > 0 &&
      open_group_.size() >= config_.group_commit_records) {
    hand_off();
  }
  return lsn;
}

void WalWriter::hand_off() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return !in_flight_; });
  if (failure_) std::rethrow_exception(failure_);
  if (open_group_.empty()) return;
  open_group_.swap(committing_);  // committing_ was left empty, capacity kept
  in_flight_ = true;
  lock.unlock();
  work_.notify_one();
}

void WalWriter::wait_committed() const {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return !in_flight_; });
  if (failure_) std::rethrow_exception(failure_);
}

void WalWriter::flush() {
  hand_off();
  wait_committed();
}

void WalWriter::commit_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_.wait(lock, [this] { return in_flight_ || stopping_; });
    if (!in_flight_) return;  // stopping, nothing left to commit
    lock.unlock();
    std::exception_ptr failure;
    try {
      commit_group();
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    if (failure) failure_ = failure;
    in_flight_ = false;
    idle_.notify_all();
  }
}

void WalWriter::commit_group() {
  for (const WalEntry& entry : committing_) {
    payload_.clear();
    append_wal_payload(payload_, entry.drive_id, entry.vendor, entry.record);
    segment_.append(entry.lsn, payload_);
  }
  committing_.clear();
  if (segment_.flush()) metrics_.fsyncs->inc();
}

void WalWriter::rotate(std::uint64_t ckpt_lsn, std::uint64_t keep_from_lsn) {
  open_generation(ckpt_lsn);
  const fs::path wal_dir = fs::path(config_.dir) / "wal";
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    const auto base = parse_segment_name(entry.path().filename().string());
    if (base.has_value() && *base < keep_from_lsn) {
      fs::remove(entry.path());
    }
  }
  fsync_dir(wal_dir.string());
}

void WalWriter::reset(std::uint64_t base_lsn) {
  flush();
  segment_.close();
  const fs::path wal_dir = fs::path(config_.dir) / "wal";
  if (fs::exists(wal_dir)) {
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      if (entry.path().extension() == ".wal") fs::remove(entry.path());
    }
  }
  next_lsn_ = base_lsn + 1;
  open_generation(base_lsn);
}

// --- recovery --------------------------------------------------------------

std::vector<WalEntry> recover_wal(const std::string& dir,
                                  std::uint64_t after_lsn,
                                  WalRecoveryStats* stats) {
  WalRecoveryStats local;
  WalRecoveryStats& st = stats ? *stats : local;
  const fs::path wal_dir = fs::path(dir) / "wal";

  struct PendingFrame {
    std::uint64_t lsn;
    std::string payload;
  };
  std::vector<PendingFrame> merged;

  if (fs::exists(wal_dir)) {
    // Generations ascending, so the in-file duplicate check below sees
    // originals before replayed copies.
    std::vector<std::pair<std::uint64_t, std::string>> files;
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      const auto base = parse_segment_name(entry.path().filename().string());
      if (base.has_value()) files.emplace_back(*base, entry.path().string());
    }
    std::sort(files.begin(), files.end());

    // lsn -> digest of every frame accepted into the merge so far; an
    // in-file LSN regression is legal only as an exact replay of one of
    // these (a duplicated segment), never as new bytes.
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    for (const auto& [base, path] : files) {
      ++st.segments_scanned;
      FrameScan scan = scan_frames(path);
      if (scan.torn_tail) ++st.torn_tails;
      std::uint64_t last_in_file = 0;
      bool any_in_file = false;
      for (auto& frame : scan.frames) {
        if (any_in_file && frame.lsn <= last_in_file) {
          const auto it = seen.find(frame.lsn);
          if (it == seen.end() || it->second != frame.digest) {
            throw std::runtime_error(
                "wal: LSN regression in " + path + " (lsn " +
                std::to_string(frame.lsn) + " after " +
                std::to_string(last_in_file) +
                " with novel bytes); refusing to recover");
          }
          ++st.records_skipped_duplicate;
          continue;
        }
        any_in_file = true;
        last_in_file = frame.lsn;
        const auto it = seen.find(frame.lsn);
        if (it != seen.end()) {
          if (it->second != frame.digest) {
            throw std::runtime_error(
                "wal: conflicting frames for lsn " + std::to_string(frame.lsn) +
                " (latest in " + path + "); refusing to recover");
          }
          ++st.records_skipped_duplicate;
          continue;
        }
        seen.emplace(frame.lsn, frame.digest);
        merged.push_back({frame.lsn, std::move(frame.payload)});
      }
    }
  }

  std::sort(merged.begin(), merged.end(),
            [](const PendingFrame& a, const PendingFrame& b) {
              return a.lsn < b.lsn;
            });

  std::vector<WalEntry> tail;
  std::uint64_t expected = after_lsn + 1;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const PendingFrame& frame = merged[i];
    if (frame.lsn <= after_lsn) {
      ++st.records_skipped_applied;
      continue;
    }
    if (frame.lsn != expected) {
      // A hole in the durable prefix: everything past it was never
      // acknowledged and will be re-delivered by the feed.
      st.records_skipped_gap = merged.size() - i;
      break;
    }
    tail.push_back(decode_wal_payload(frame.lsn, frame.payload));
    ++expected;
  }
  st.records_replayable = tail.size();

  auto& reg = obs::registry();
  reg.counter("mfpa_wal_recovery_replayed_total").inc(st.records_replayable);
  reg.counter("mfpa_wal_recovery_skipped_total")
      .inc(st.records_skipped_duplicate + st.records_skipped_gap);
  reg.counter("mfpa_wal_recovery_torn_tails_total").inc(st.torn_tails);
  return tail;
}

// --- AlertLog --------------------------------------------------------------

namespace {
std::string alert_log_path(const std::string& dir) {
  return (fs::path(dir) / "alerts.log").string();
}
}  // namespace

AlertLog::AlertLog(std::string dir, bool fsync)
    : FramedLogWriter(fsync), path_(alert_log_path(dir)) {
  fs::create_directories(dir);
}

void AlertLog::open(std::uint64_t count) {
  FramedLogWriter::open(path_, /*truncate=*/false);
  count_ = count;
}

void AlertLog::append(const core::Alert& alert) {
  FramedLogWriter::append(count_ + 1, encode_alert_payload(alert));
  ++count_;
}

std::vector<core::Alert> recover_alert_log(const std::string& dir,
                                           std::uint64_t durable_count) {
  const std::string path = alert_log_path(dir);
  if (!fs::exists(path)) {
    if (durable_count != 0) {
      throw std::runtime_error(
          "wal: alert log missing but checkpoint records " +
          std::to_string(durable_count) + " durable alerts (" + path + ")");
    }
    return {};
  }
  const FrameScan scan = scan_frames(path);
  if (scan.frames.size() < durable_count) {
    throw std::runtime_error(
        "wal: alert log " + path + " holds " +
        std::to_string(scan.frames.size()) + " alerts but the checkpoint " +
        "records " + std::to_string(durable_count) +
        " durable; the alert stream has a hole replay cannot patch");
  }
  std::vector<core::Alert> alerts;
  alerts.reserve(durable_count);
  std::size_t keep_bytes = 0;
  for (std::size_t i = 0; i < durable_count; ++i) {
    const DecodedFrame& frame = scan.frames[i];
    if (frame.lsn != i + 1) {
      throw std::runtime_error("wal: alert log " + path +
                               " ordinal mismatch at frame " +
                               std::to_string(i + 1));
    }
    alerts.push_back(decode_alert_payload(frame.payload));
    keep_bytes = frame.end_offset;
  }
  // Drop the post-checkpoint tail (torn or healthy): the WAL replay
  // regenerates those alerts and re-appends them.
  if (::truncate(path.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    throw std::runtime_error("wal: cannot truncate alert log " + path);
  }
  return alerts;
}

}  // namespace mfpa::serve
