// Serving benchmark: runs one fixed simulated scenario through the serving
// stack's public API, checks the alert stream against a plain in-memory
// single-engine replay, and prints every metric by name with its unit. The
// last stdout line is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics, or with --trace 1 the per-layer metrics
// of the traced run. See perfbench/README.md.
//
//   serving_bench --workload memory-large|durable-small|openloop-sharded
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--openloop-rate R] [--trace-out FILE] [--cache-dir DIR]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "ml/checksum.hpp"
#include "ml/simd.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/shard_router.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "sim/fleet.hpp"

namespace perfbench {
namespace {

namespace core = mfpa::core;
namespace net = mfpa::net;
namespace obs = mfpa::obs;
namespace sim = mfpa::sim;
namespace fs = std::filesystem;

struct Workload {
  const char* name;
  const char* scenario;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"memory-large", "large", Kind::kMemory},
    {"durable-small", "small", Kind::kDurable},
    {"openloop-sharded", "default", Kind::kOpenLoop},
};

/// Fixed mid-feed record count of the durable crash image. It is not a
/// multiple of the 4096-record checkpoint interval, so the restart loads a
/// checkpoint and then replays a WAL tail.
constexpr std::size_t kCrashAt = 70001;
/// Set-ups per run: at least kMinSetups, more while they have taken under
/// kSetupSeconds (the small scenarios), at most kMaxSetups. setup_s is the
/// median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupSeconds = 2.0;
/// Restarts timed per pass, like set-ups: at least kMinRecoveries, more
/// while they have taken under kRecoverySeconds, at most kMaxRecoveries.
constexpr int kMinRecoveries = 3;
constexpr int kMaxRecoveries = 9;
constexpr double kRecoverySeconds = 1.0;
/// Simulator seed of every workload's fleet. The fleet's size moves by up to
/// a quarter from one simulator seed to the next, which would move every
/// size-bound metric with the seed; --seed instead draws the delivery order
/// within each day and the open loop's Poisson gaps.
constexpr std::uint64_t kFleetSeed = 42;
/// Records per latency window: each window's p50 and p99 are taken over
/// its own records, and the reported percentiles are medians over windows.
constexpr std::size_t kWindow = 16384;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double openloop_rate = 0.0;  ///< records/s; 0 = unpaced (capacity probe)
  fs::path work_dir;
  fs::path trace_out;
  fs::path cache_dir;
};

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || text[0] == '-' || used != text.size()) {
    throw std::invalid_argument(flag + " must be a non-negative integer");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument(flag + " needs a value");
    }
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (!o.workload) throw std::invalid_argument("unknown workload " + value);
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      o.trace = parse_uint(flag, value) != 0;
    } else if (flag == "--openloop-rate") {
      o.openloop_rate = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--cache-dir") {
      o.cache_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!o.workload || !have_seed || o.work_dir.empty()) {
    throw std::invalid_argument("--workload, --seed and --work-dir are required");
  }
  return o;
}

// --- statistics -----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of raw samples (no histogram, so no ceiling).
double percentile(const std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_samples.size())));
  return sorted_samples[std::clamp<std::size_t>(rank, 1, sorted_samples.size()) -
                        1];
}

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- set-up ---------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double publish_s = 0.0;
  double total_s = 0.0;
};

/// Everything the passes share: one set-up's fleet and model, and the
/// reference alert stream.
struct Context {
  std::vector<sim::DriveTimeSeries> telemetry;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::FleetReplayer> replayer;
  /// The replayer's day-major stream with each day's uploads in a seeded
  /// order. Every drive's own records keep their order, so the alert stream
  /// equals the reference replay of the replayer's drive-id order.
  std::vector<serve::FleetReplayer::Arrival> arrivals;
  std::string reference;
  /// openloop-sharded: record indices of each router shard's substream, and
  /// each record's scheduled send time after the start (Poisson arrivals).
  std::vector<std::vector<std::uint32_t>> shard_order;
  std::vector<std::int64_t> due_ns;
};

/// Starts (and stops again) the workload's serving stack; returns the
/// seconds until it was ready.
double start_stack(Kind kind, const serve::ModelRegistry& registry,
                   const fs::path& dir) {
  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*metrics);
  const auto start = Clock::now();
  if (kind == Kind::kOpenLoop) {
    net::ShardRouterConfig config;
    config.shards = kRouterShards;
    config.engine = engine_config("");
    net::ShardRouter router(registry, config);
    net::IngestServer server(router, net::ServerConfig{});
    const double ready = seconds_between(start, Clock::now());
    server.stop();
    router.stop();
    return ready;
  }
  serve::EngineConfig config = engine_config("setup");
  if (kind == Kind::kDurable) config.durability = durable_config(dir);
  serve::ScoringEngine engine(registry, config);
  return seconds_between(start, Clock::now());
}

/// One set-up: telemetry generation, training + publish, stack start.
/// Traced set-ups time the pipeline fit and the publish separately.
SetupTimes set_up(const Options& o, const fs::path& dir, Context& ctx) {
  SetupTimes t;
  const auto start = Clock::now();
  sim::FleetSimulator fleet(
      sim::scenario_by_name(o.workload->scenario, kFleetSeed));
  ctx.telemetry = fleet.generate_telemetry(kSetupThreads);
  const auto tickets = fleet.tickets();
  const auto generated = Clock::now();
  t.generate_s = seconds_between(start, generated);

  ctx.registry = std::make_unique<serve::ModelRegistry>(
      (dir / "registry").string(), kScoreThreads);
  core::MfpaConfig config;
  config.seed = kFleetSeed;
  if (o.trace) {
    // serve::train_and_publish, split at its two layers.
    core::MfpaPipeline pipeline(config);
    const auto report = pipeline.run(ctx.telemetry, tickets);
    const auto fitted = Clock::now();
    t.train_s = seconds_between(generated, fitted);
    auto lo = report.split_day;
    for (const auto& series : ctx.telemetry) {
      if (!series.records.empty()) lo = std::min(lo, series.records.front().day);
    }
    ctx.registry->publish_pipeline(pipeline, lo, report.split_day);
    t.publish_s = seconds_between(fitted, Clock::now());
  } else {
    serve::train_and_publish(*ctx.registry, config, ctx.telemetry, tickets);
  }
  const double trained = seconds_between(start, Clock::now());
  t.total_s = trained + start_stack(o.workload->kind, *ctx.registry,
                                    dir / "durable");
  return t;
}

std::string reference_alerts(const Context& ctx) {
  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*metrics);
  serve::ScoringEngine engine(*ctx.registry, engine_config("reference"));
  return canonical_alerts(ctx.replayer->replay(engine).alerts);
}

/// The reference depends only on the scenario and the build (the fleet
/// seed is fixed), so it is replayed once per build and kept in --cache-dir,
/// keyed by a digest of this executable.
std::string cached_reference(const Options& o, const Context& ctx) {
  if (o.cache_dir.empty()) return reference_alerts(ctx);
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(exe), {}};
  const fs::path path =
      o.cache_dir / ("reference-" + std::string(o.workload->scenario) + "-" +
                     mfpa::ml::checksum_hex(mfpa::ml::fnv1a(bytes)) + ".txt");
  if (std::ifstream in{path, std::ios::binary}) {
    return {std::istreambuf_iterator<char>(in), {}};
  }
  std::string reference = reference_alerts(ctx);
  fs::create_directories(o.cache_dir);
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream(tmp, std::ios::binary | std::ios::trunc) << reference;
  fs::rename(tmp, path);
  return reference;
}

// --- passes ---------------------------------------------------------------------

/// Stamps each record with the time its shard's
/// mfpa_serve_records_processed_total counter passed it. Every shard
/// processes its records in order, so the counter value is a cursor into
/// the shard's substream.
class CompletionTracker {
 public:
  CompletionTracker(std::vector<const obs::Counter*> counters,
                    const std::vector<std::vector<std::uint32_t>>& order,
                    std::size_t records)
      : counters_(std::move(counters)),
        order_(order),
        next_(order.size(), 0),
        done_(records) {}

  /// Returns true once every record is stamped.
  bool poll(Clock::time_point now) {
    bool all = true;
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const std::size_t seen = std::min<std::size_t>(
          counters_[k]->value(), order_[k].size());
      while (next_[k] < seen) done_[order_[k][next_[k]++]] = now;
      all = all && next_[k] == order_[k].size();
    }
    return all;
  }

  std::size_t completed() const {
    return std::accumulate(next_.begin(), next_.end(), std::size_t{0});
  }
  const std::vector<Clock::time_point>& done() const noexcept { return done_; }

 private:
  std::vector<const obs::Counter*> counters_;
  const std::vector<std::vector<std::uint32_t>>& order_;
  std::vector<std::size_t> next_;
  std::vector<Clock::time_point> done_;
};

struct PassResult {
  std::size_t records = 0;
  double feed_s = 0.0;              ///< records_per_sec denominator
  std::vector<double> latency_us;   ///< per record
  std::vector<double> late_us;      ///< open loop: generator lateness
  std::vector<double> recoveries;   ///< seconds per timed restart
  double submit_s = 0.0;            ///< feeder time inside submit()
  double batch_size_mean = 0.0;
  double shard_skew = 1.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< output-check failures
};

double batch_size_mean(obs::MetricsRegistry& metrics,
                       const std::vector<std::string>& engines) {
  double sum = 0.0;
  double count = 0.0;
  for (const auto& engine : engines) {
    const auto& h = metrics.histogram(
        "mfpa_serve_batch_size", 0.0, static_cast<double>(kMaxBatch) + 1.0,
        std::min<std::size_t>(kMaxBatch + 1, 512), {{"engine", engine}});
    sum += h.sum();
    count += static_cast<double>(h.count());
  }
  return count > 0 ? sum / count : 0.0;
}

void check_stream(const Context& ctx, const std::string& alerts,
                  const std::string& what, PassResult& r) {
  if (alerts != ctx.reference) {
    r.errors.push_back(what + " alert stream differs from the reference");
  }
}

/// Whether to time another restart, given the times taken so far.
bool recover_again(const std::vector<double>& times) {
  const double total = std::accumulate(times.begin(), times.end(), 0.0);
  const auto n = static_cast<int>(times.size());
  return n < kMaxRecoveries && (n < kMinRecoveries || total < kRecoverySeconds);
}

/// Seconds to rebuild `stores` from checkpoint images of themselves, the
/// restart cost of an engine without a WAL; the rebuilt state must
/// serialize byte-identically.
std::vector<double> checkpoint_restore_s(
    const std::vector<const serve::DriveStateStore*>& stores, int version,
    const fs::path& dir, PassResult& r) {
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < stores.size(); ++k) {
    paths.push_back((dir / ("restore-" + std::to_string(k) + ".mfc")).string());
    serve::write_checkpoint_file(paths.back(), *stores[k], 0, 0, version,
                                 /*fsync=*/false);
  }
  std::vector<double> totals;
  while (recover_again(totals)) {
    double total = 0.0;
    for (std::size_t k = 0; k < stores.size(); ++k) {
      const auto start = Clock::now();
      const serve::CheckpointImage image = serve::load_checkpoint_file(paths[k]);
      serve::DriveStateStore restored(stores[k]->config());
      std::istringstream in(image.store_state);
      restored.load_state(in);
      total += seconds_between(start, Clock::now());
      if (!totals.empty()) continue;
      std::ostringstream again;
      restored.save_state(again);
      if (again.str() != image.store_state) {
        r.errors.push_back("restored store state differs");
      }
    }
    totals.push_back(total);
  }
  return totals;
}

/// Closed loop into one engine (memory-large, durable-small). The durable
/// pass copies a crash image at kCrashAt while the engine is idle, finishes
/// the feed, then restarts from the image and resumes the feed.
PassResult closed_loop_pass(const Context& ctx, Kind kind, const fs::path& dir,
                            bool time_submits) {
  PassResult r;
  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*metrics);
  const auto& arrivals = ctx.arrivals;
  const std::size_t n = arrivals.size();
  const bool durable = kind == Kind::kDurable;
  if (durable && n <= kCrashAt) {
    throw std::runtime_error("scenario too small for the crash point");
  }
  r.records = n;
  r.attempted = n;

  serve::EngineConfig config = engine_config("bench");
  if (durable) config.durability = durable_config(dir / "live");
  auto engine = std::make_unique<serve::ScoringEngine>(*ctx.registry, config);
  std::vector<std::vector<std::uint32_t>> order(1);
  order[0].resize(n);
  std::iota(order[0].begin(), order[0].end(), 0u);
  CompletionTracker tracker(
      {&metrics->counter("mfpa_serve_records_processed_total",
                         {{"engine", "bench"}})},
      order, n);
  std::jthread observer([&tracker](std::stop_token stop) {
    while (!stop.stop_requested() && !tracker.poll(Clock::now())) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::vector<Clock::time_point> sent(n);
  double paused = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (durable && i == kCrashAt) {
      engine->flush();
      const auto pause = Clock::now();
      fs::copy(dir / "live", dir / "image", fs::copy_options::recursive);
      paused += seconds_between(pause, Clock::now());
    }
    const auto& a = arrivals[i];
    sent[i] = Clock::now();
    engine->submit({a.drive_id, a.vendor, *a.record});
    if (time_submits) r.submit_s += seconds_between(sent[i], Clock::now());
  }
  engine->flush();
  const auto end = Clock::now();
  observer.request_stop();
  observer.join();
  tracker.poll(end);
  r.feed_s = seconds_between(start, end) - paused;
  r.latency_us.reserve(n);
  for (std::size_t i = 0; i < tracker.done().size() && i < tracker.completed();
       ++i) {
    r.latency_us.push_back(
        std::chrono::duration<double, std::micro>(tracker.done()[i] - sent[i])
            .count());
  }

  const serve::EngineStats stats = engine->stats();
  r.failed += n - std::min<std::uint64_t>(n, stats.records_processed);
  r.batch_size_mean = batch_size_mean(*metrics, {"bench"});
  check_stream(ctx, canonical_alerts(engine->alerts()), "feed", r);
  const int version = ctx.registry->current_version();

  if (!durable) {
    r.recoveries = checkpoint_restore_s({&engine->store()}, version,
                                        dir / "restore", r);
    return r;
  }
  engine.reset();  // stop + final checkpoint, not timed

  // Recover a fresh copy of the image each time (recovery seals the
  // directory it opens); the last engine resumes the feed.
  std::vector<double> recoveries;
  std::unique_ptr<serve::ScoringEngine> restarted;
  while (recover_again(recoveries)) {
    const std::string repeat = std::to_string(recoveries.size());
    const fs::path image = dir / ("image-" + repeat);
    fs::copy(dir / "image", image, fs::copy_options::recursive);
    serve::EngineConfig restart_config = engine_config("restart-" + repeat);
    restart_config.durability = durable_config(image);
    restarted.reset();
    const auto recover_start = Clock::now();
    restarted = std::make_unique<serve::ScoringEngine>(*ctx.registry,
                                                       restart_config);
    recoveries.push_back(seconds_between(recover_start, Clock::now()));
  }
  r.recoveries = recoveries;
  const std::size_t resume = restarted->durable_resume_records();
  const auto& rec = *restarted->recovery();
  const std::uint64_t tail = rec.durable_records - rec.checkpoint_lsn;
  for (std::size_t i = resume; i < n; ++i) {
    const auto& a = arrivals[i];
    restarted->submit({a.drive_id, a.vendor, *a.record});
  }
  restarted->flush();
  const std::uint64_t resumed = restarted->stats().records_processed - tail;
  r.attempted += n - resume;
  r.failed += (n - resume) - std::min<std::uint64_t>(n - resume, resumed);
  check_stream(ctx, canonical_alerts(restarted->alerts()), "restart", r);
  return r;
}

/// Open loop: Poisson arrivals at a fixed rate from this thread over one
/// loopback MFNP connection into an IngestServer in front of a ShardRouter.
/// This thread spins between sends, polling the shard counters, so sends
/// leave on schedule and completions are stamped within a poll; it blocks
/// only when the socket pushes back, which gen.late_p99_us reports.
PassResult open_loop_pass(const Context& ctx, const fs::path& dir) {
  PassResult r;
  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*metrics);
  const auto& arrivals = ctx.arrivals;
  const std::size_t n = arrivals.size();
  r.records = n;
  r.attempted = n;

  net::ShardRouterConfig config;
  config.shards = kRouterShards;
  config.engine = engine_config("");
  net::ShardRouter router(*ctx.registry, config);
  net::IngestServer server(router, net::ServerConfig{});
  net::TelemetryClient client(server.port());
  std::vector<const obs::Counter*> counters;
  std::vector<std::string> engines;
  for (std::size_t k = 0; k < kRouterShards; ++k) {
    engines.push_back("shard-" + std::to_string(k));
    counters.push_back(&metrics->counter("mfpa_serve_records_processed_total",
                                         {{"engine", engines.back()}}));
  }
  CompletionTracker tracker(counters, ctx.shard_order, n);

  auto scheduled = [&](std::size_t i, Clock::time_point start) {
    return start + std::chrono::nanoseconds(ctx.due_ns[i]);
  };
  r.late_us.resize(n);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto last_progress = start;
  std::size_t i = 0;
  std::size_t seen = 0;
  for (;;) {
    auto now = Clock::now();
    if (i < n) {
      const std::size_t first = i;
      while (i < n && scheduled(i, start) <= now) {
        client.send_record(arrivals[i].drive_id, arrivals[i].vendor,
                           *arrivals[i].record);
        ++i;
      }
      if (i > first) {
        client.flush_buffer();
        now = Clock::now();
        for (std::size_t k = first; k < i; ++k) {
          r.late_us[k] = std::chrono::duration<double, std::micro>(
                             now - scheduled(k, start))
                             .count();
        }
      }
    }
    if (tracker.poll(now) && i == n) break;
    if (tracker.completed() != seen) {
      seen = tracker.completed();
      last_progress = now;
    } else if (i == n && now - last_progress > std::chrono::seconds(30)) {
      break;  // records lost; counted as failed below
    }
  }
  const net::FlushAck ack = client.sync();
  client.close();
  server.stop();

  Clock::time_point last_done = start;
  r.latency_us.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto done = tracker.done()[k];
    if (done == Clock::time_point{}) continue;
    last_done = std::max(last_done, done);
    r.latency_us.push_back(
        std::chrono::duration<double, std::micro>(done - scheduled(k, start))
            .count());
  }
  r.feed_s = seconds_between(start, last_done);
  r.failed = n - std::min<std::uint64_t>(n, ack.records_processed);
  r.batch_size_mean = batch_size_mean(*metrics, engines);
  std::size_t largest = 0;
  for (const auto& shard : ctx.shard_order) {
    largest = std::max(largest, shard.size());
  }
  r.shard_skew = static_cast<double>(largest) * kRouterShards /
                 static_cast<double>(n);
  check_stream(ctx, canonical_alerts(router.alerts()), "feed", r);
  std::vector<const serve::DriveStateStore*> stores;
  for (std::size_t k = 0; k < router.shard_count(); ++k) {
    stores.push_back(&router.shard(k).store());
  }
  r.recoveries = checkpoint_restore_s(stores, ctx.registry->current_version(),
                                      dir / "restore", r);
  router.stop();
  return r;
}

PassResult run_pass(const Options& o, const Context& ctx, const fs::path& dir,
                    bool time_submits) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  PassResult r = o.workload->kind == Kind::kOpenLoop
                     ? open_loop_pass(ctx, dir)
                     : closed_loop_pass(ctx, o.workload->kind, dir, time_submits);
  fs::remove_all(dir);
  return r;
}

// --- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The host stamp: what produced these numbers, so results from different
/// machines or thread budgets are never compared unknowingly.
void print_host_stamp(const Options& o) {
  const std::size_t busy =
      o.workload->kind == Kind::kOpenLoop ? 2 + kRouterShards : 2;
  std::cout << "host {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"cpu\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"simd\": \""
            << mfpa::ml::to_string(mfpa::ml::active_simd_level())
            << "\", \"thread_budget\": {\"busy_threads\": " << busy
            << ", \"score_threads\": " << kScoreThreads
            << ", \"store_shards\": " << kStoreShards
            << ", \"router_shards\": "
            << (o.workload->kind == Kind::kOpenLoop ? kRouterShards : 0)
            << ", \"setup_threads\": " << kSetupThreads
            << "}, \"workload\": \"" << o.workload->name
            << "\", \"scenario\": \"" << o.workload->scenario
            << "\", \"seed\": " << o.seed
            << ", \"openloop_rate\": " << json_number(o.openloop_rate)
            << ", \"trace\": " << (o.trace ? 1 : 0) << "}\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Appends the p50 and p99 of each kWindow-record window of
/// `latency` (in record order; the last window takes the remainder).
/// Returns the number of windows.
std::size_t window_percentiles(const std::vector<double>& latency,
                               std::vector<double>& p50,
                               std::vector<double>& p99) {
  const std::size_t windows =
      std::max<std::size_t>(1, latency.size() / kWindow);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = latency.begin() + w * kWindow;
    const auto last = w + 1 == windows ? latency.end() : first + kWindow;
    std::vector<double> sorted(first, last);
    std::sort(sorted.begin(), sorted.end());
    p50.push_back(percentile(sorted, 0.50));
    p99.push_back(percentile(sorted, 0.99));
  }
  return windows;
}

void report_errors(const std::vector<std::string>& errors) {
  for (const auto& e : errors) std::cout << "CHECK FAILED: " << e << "\n";
}

// --- the two kinds of run ---------------------------------------------------------

/// --trace 0: passes until --seconds have elapsed; end-to-end metrics.
int untraced_run(const Options& o, const Context& ctx,
                 const std::vector<SetupTimes>& setups) {
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(
        run_pass(o, ctx, o.work_dir / ("pass-" + std::to_string(passes.size())),
                 false));
  } while (seconds_between(start, Clock::now()) < o.seconds);

  std::vector<double> rates;
  std::vector<double> recoveries;
  std::vector<double> p50;
  std::vector<double> p99;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const auto& p : passes) {
    rates.push_back(static_cast<double>(p.records) / p.feed_s);
    recoveries.push_back(median(p.recoveries));
    const std::size_t windows = window_percentiles(p.latency_us, p50, p99);
    std::cout << "pass: records_per_sec " << json_number(rates.back())
              << ", latency windows " << windows << ", recovery_s "
              << json_number(recoveries.back()) << " (median of "
              << p.recoveries.size() << " restarts)\n";
    attempted += p.attempted;
    failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  }
  std::vector<double> setup_totals;
  for (const auto& s : setups) setup_totals.push_back(s.total_s);

  std::vector<double> pooled;
  for (const auto& p : passes) {
    pooled.insert(pooled.end(), p.latency_us.begin(), p.latency_us.end());
  }
  std::sort(pooled.begin(), pooled.end());
  std::cout << "pooled latency p50 " << json_number(percentile(pooled, 0.5))
            << " p90 " << json_number(percentile(pooled, 0.9)) << " p99 "
            << json_number(percentile(pooled, 0.99)) << " p999 "
            << json_number(percentile(pooled, 0.999)) << " us of "
            << pooled.size() << " samples\n";
  // Latency and restart time are printed but not gated (see README.md):
  // on the shared host they spread more than any allowed bound.
  std::cout << "latency_p50_us = " << json_number(median(p50))
            << " us, latency_p99_us = " << json_number(median(p99))
            << " us (medians over " << p50.size() << " windows of " << kWindow
            << " records)\nrecovery_s = " << json_number(median(recoveries))
            << " s\n"
            << passes.size() << " passes; each metric is the median over them\n"
            << "failed_frac = "
            << json_number(attempted ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 0.0)
            << " (" << failed << " of " << attempted << " records)\n";
  report_errors(errors);
  print_result(errors.empty(), attempted, failed,
               {{"setup_s", median(setup_totals), "s"},
                {"records_per_sec", median(rates), "1/s"},
                {"max_rss_mb", max_rss_mb(), "MB"}});
  return 0;
}

/// --trace 1: one engine pass (submit time, batch sizes, generator
/// lateness), then the layer pass untraced and traced; per-layer metrics.
int traced_run(const Options& o, const Context& ctx,
               const std::vector<SetupTimes>& setups) {
  const PassResult engine_pass = run_pass(o, ctx, o.work_dir / "engine", true);
  std::vector<std::string> errors = engine_pass.errors;

  LayerPassInput input;
  input.kind = o.workload->kind;
  input.arrivals = &ctx.arrivals;
  const auto model = ctx.registry->current();
  input.model = model.get();
  input.batch = o.workload->kind == Kind::kOpenLoop
                    ? std::max<std::size_t>(
                          1, static_cast<std::size_t>(
                                 std::lround(engine_pass.batch_size_mean)))
                    : kMaxBatch;
  input.crash_at = kCrashAt;

  auto layer_pass = [&](SpanRecorder* recorder, const char* what) {
    input.dir = o.work_dir / what;
    fs::remove_all(input.dir);
    fs::create_directories(input.dir);
    LayerPassResult result = run_layer_pass(input, recorder);
    fs::remove_all(input.dir);
    if (result.alerts != ctx.reference) {
      errors.push_back(std::string(what) + " alert stream differs");
    }
    if (o.workload->kind == Kind::kDurable &&
        result.restart_alerts != ctx.reference) {
      errors.push_back(std::string(what) + " restart alert stream differs");
    }
    return result;
  };
  const LayerPassResult bare = layer_pass(nullptr, "layer-untraced");
  SpanRecorder recorder;
  const LayerPassResult traced = layer_pass(&recorder, "layer-traced");
  if (!o.trace_out.empty()) recorder.write_chrome_trace(o.trace_out);

  const auto self = recorder.self_seconds();
  auto self_s = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double wall = recorder.root_seconds();
  double accounted = 0.0;
  double remainder = 0.0;
  std::cout << "self time per span (s):\n";
  for (const auto& [name, seconds] : self) {
    std::cout << "  " << name << " " << json_number(seconds) << "\n";
    accounted += seconds;
    if (name.rfind("pass.", 0) == 0) remainder += seconds;
  }
  std::cout << "self times sum to " << json_number(accounted)
            << " s of a traced wall of " << json_number(wall) << " s\n";
  if (std::abs(accounted - wall) > 1e-6 * std::max(1.0, wall)) {
    errors.push_back("span self times do not add up to the traced wall");
  }

  auto med = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return median(v);
  };
  const LayerCounts& c = traced.counts;
  auto per = [](std::uint64_t num, std::uint64_t den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  std::vector<double> engine_p50;
  std::vector<double> engine_p99;
  window_percentiles(engine_pass.latency_us, engine_p50, engine_p99);
  std::vector<double> late = engine_pass.late_us;
  std::sort(late.begin(), late.end());
  const std::uint64_t attempted = engine_pass.attempted + 2 * c.records;
  const std::uint64_t failed =
      engine_pass.failed + bare.counts.rejected + c.rejected;
  report_errors(errors);
  print_result(
      errors.empty(), attempted, failed,
      {{"sim.generate_s", med(&SetupTimes::generate_s), "s"},
       {"ml.train_s", med(&SetupTimes::train_s), "s"},
       {"serve.registry.publish_s", med(&SetupTimes::publish_s), "s"},
       {"serve.engine.submit_s", engine_pass.submit_s, "s"},
       {"serve.engine.batch_size_mean", engine_pass.batch_size_mean, "count"},
       {"serve.store.ingest_s", self_s("serve.store.ingest"), "s"},
       {"serve.store.rows_per_record", per(c.rows, c.ingested), "count"},
       {"core.features_s", self_s("core.features"), "s"},
       {"ml.predict_s", self_s("ml.predict"), "s"},
       {"ml.predict_rows_per_call", per(c.rows, c.predict_calls), "count"},
       {"serve.alerts_s", self_s("serve.alerts"), "s"},
       {"serve.alerts_raised", static_cast<double>(c.alerts), "count"},
       {"serve.wal.append_s", self_s("serve.wal.append"), "s"},
       {"serve.wal.bytes_per_record", per(c.wal_bytes, c.records), "B"},
       {"serve.wal.commit_s", self_s("serve.wal.commit"), "s"},
       {"serve.wal.fsyncs", static_cast<double>(c.fsyncs), "count"},
       {"serve.checkpoint.write_s", self_s("serve.checkpoint.write"), "s"},
       {"serve.checkpoint.check_s", self_s("serve.checkpoint.check"), "s"},
       {"serve.checkpoint.writes", static_cast<double>(c.ckpt_writes), "count"},
       {"serve.checkpoint.bytes_per_record", per(c.ckpt_bytes, c.records), "B"},
       {"serve.recovery.load_s", self_s("serve.recovery.load"), "s"},
       {"serve.recovery.replay_s", self_s("serve.recovery.replay"), "s"},
       {"serve.recovery.seal_s", self_s("serve.recovery.seal"), "s"},
       {"serve.recovery.tail_records", static_cast<double>(c.tail_records),
        "count"},
       {"net.encode_s", self_s("net.encode"), "s"},
       {"net.decode_s", self_s("net.decode"), "s"},
       {"net.bytes_per_record", per(c.net_bytes, c.net_decoded), "B"},
       {"net.shard_skew", engine_pass.shard_skew, "ratio"},
       {"gen.late_p99_us", percentile(late, 0.99), "us"},
       {"latency_p50_us", median(engine_p50), "us"},
       {"latency_p99_us", median(engine_p99), "us"},
       {"recovery_s", median(engine_pass.recoveries), "s"},
       {"trace.wall_s", wall, "s"},
       {"trace.remainder_s", remainder, "s"},
       {"trace.overhead_frac", traced.wall_s / bare.wall_s - 1.0, "ratio"}});
  return 0;
}

int run(const Options& o) {
  fs::create_directories(o.work_dir);
  print_host_stamp(o);

  Context ctx;
  std::vector<SetupTimes> setups;
  double setup_seconds = 0.0;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || setup_seconds < kSetupSeconds);
       ++i) {
    const fs::path dir = o.work_dir / ("setup-" + std::to_string(i));
    fs::remove_all(dir);
    setups.push_back(set_up(o, dir, ctx));
    setup_seconds += setups.back().total_s;
    std::cout << "setup " << i << ": " << json_number(setups.back().total_s)
              << " s\n";
  }
  ctx.replayer = std::make_unique<serve::FleetReplayer>(ctx.telemetry);
  const std::size_t n = ctx.replayer->total_records();
  std::cout << "scenario " << o.workload->scenario << ": " << n
            << " records, " << ctx.telemetry.size() << " tracked drives\n";
  ctx.reference = cached_reference(o, ctx);
  std::cout << "reference alerts: "
            << std::count(ctx.reference.begin(), ctx.reference.end(), '\n')
            << "\n";

  mfpa::Rng rng(o.seed);
  ctx.arrivals = ctx.replayer->arrivals();
  for (std::size_t lo = 0, hi = 0; lo < n; lo = hi) {
    while (hi < n && ctx.arrivals[hi].day == ctx.arrivals[lo].day) ++hi;
    for (std::size_t i = hi - 1; i > lo; --i) {  // Fisher-Yates
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(i)));
      std::swap(ctx.arrivals[i], ctx.arrivals[j]);
    }
  }
  if (o.workload->kind == Kind::kOpenLoop) {
    ctx.shard_order.assign(kRouterShards, {});
    for (std::size_t i = 0; i < n; ++i) {
      ctx.shard_order[serve::drive_shard(ctx.arrivals[i].drive_id,
                                         kRouterShards)]
          .push_back(static_cast<std::uint32_t>(i));
    }
    ctx.due_ns.resize(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (o.openloop_rate > 0) t += rng.exponential(o.openloop_rate);
      ctx.due_ns[i] = std::llround(t * 1e9);
    }
  }
  return o.trace ? traced_run(o, ctx, setups) : untraced_run(o, ctx, setups);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = perfbench::parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "serving_bench: " << e.what() << "\n";
    return 2;
  }
  int status = 1;
  try {
    status = perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "serving_bench: " << e.what() << "\n";
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  return status;
}
