#include "serve/scoring_engine.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "data/matrix.hpp"

namespace mfpa::serve {
namespace {

/// Distinguishes concurrently (or sequentially) live engines in one
/// process: each instance gets its own mfpa_serve_* family members, so
/// EngineStats snapshots never mix traffic across engines (tests construct
/// many engines per process; production runs one).
std::atomic<std::uint64_t> g_engine_seq{0};

}  // namespace

ScoringEngine::ScoringEngine(const ModelRegistry& registry, EngineConfig config)
    : registry_(&registry), config_(config), store_(config.store) {
  if (config_.queue_capacity == 0 || config_.max_batch == 0) {
    throw std::invalid_argument(
        "ScoringEngine: queue_capacity and max_batch must be positive");
  }
  auto& reg = obs::registry();
  const obs::Labels labels = {
      {"engine",
       config_.instance_label.empty()
           ? std::to_string(
                 g_engine_seq.fetch_add(1, std::memory_order_relaxed))
           : config_.instance_label}};
  metrics_.submitted = &reg.counter("mfpa_serve_submitted_total", labels);
  metrics_.accepted = &reg.counter("mfpa_serve_accepted_total", labels);
  metrics_.shed = &reg.counter("mfpa_serve_shed_total", labels);
  metrics_.rejected = &reg.counter("mfpa_serve_rejected_total", labels);
  metrics_.unscored_no_model =
      &reg.counter("mfpa_serve_unscored_no_model_total", labels);
  metrics_.records_processed =
      &reg.counter("mfpa_serve_records_processed_total", labels);
  metrics_.rows_scored = &reg.counter("mfpa_serve_rows_scored_total", labels);
  metrics_.synthetic_rows =
      &reg.counter("mfpa_serve_synthetic_rows_total", labels);
  metrics_.batches = &reg.counter("mfpa_serve_batches_total", labels);
  metrics_.alerts = &reg.counter("mfpa_serve_alerts_total", labels);
  metrics_.model_swaps = &reg.counter("mfpa_serve_model_swaps_total", labels);
  metrics_.batch_size = &reg.histogram("mfpa_serve_batch_size", labels);
  metrics_.latency_us = &reg.histogram("mfpa_serve_latency_us", labels);
  obs::Labels predict_labels = labels;
  predict_labels.emplace_back("stage", "predict");
  metrics_.predict_seconds =
      &reg.histogram("mfpa_serve_stage_seconds", predict_labels);
  metrics_.max_queue_depth = &reg.gauge("mfpa_serve_max_queue_depth", labels);
  if (config_.durability.enabled()) {
    recover_durable_state();
  }
  if (!config_.manual_drain) {
    drain_thread_ = std::thread([this] { drain_loop(); });
  }
}

void ScoringEngine::recover_durable_state() {
  durability_ = std::make_unique<DurabilityManager>(config_.durability);
  const auto model = registry_->current();
  const int version = model ? model->manifest.version : -1;
  RecoveryResult recovered = durability_->recover(store_, version);

  // The durable alert prefix is restored verbatim; the WAL tail regenerates
  // the rest through the normal scoring path (no WAL re-append, no
  // checkpoint cadence — `recovering_` gates both in process_batch).
  alerts_ = recovered.alerts;
  recovering_ = true;
  std::vector<QueuedUpdate> batch;
  batch.reserve(config_.max_batch);
  const auto now = Clock::now();
  for (const WalEntry& entry : recovered.tail) {
    batch.push_back({{entry.drive_id, entry.vendor, entry.record}, now});
    if (batch.size() == config_.max_batch) {
      process_batch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) process_batch(batch);
  recovering_ = false;
  durability_->finish_recovery(store_, version);

  durable_resume_records_ = recovered.durable_records;
  recovered.tail.clear();  // keep the summary, not the replayed records
  recovery_ = std::move(recovered);
}

ScoringEngine::~ScoringEngine() {
  try {
    stop();
  } catch (...) {
    // Destructor: a failed final checkpoint leaves the WAL authoritative;
    // recovery replays it.
  }
}

bool ScoringEngine::submit(const TelemetryUpdate& update) {
  metrics_.submitted->inc();
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (config_.shed_on_full && queue_.size() >= config_.queue_capacity) {
    lock.unlock();
    metrics_.shed->inc();
    return false;
  }
  queue_not_full_.wait(lock, [this] {
    return queue_.size() < config_.queue_capacity || stopping_;
  });
  if (stopping_) {
    lock.unlock();
    metrics_.shed->inc();
    return false;
  }
  queue_.push_back({update, Clock::now()});
  const std::size_t depth = queue_.size();
  lock.unlock();
  metrics_.accepted->inc();
  metrics_.max_queue_depth->max_of(static_cast<double>(depth));
  queue_not_empty_.notify_one();
  return true;
}

void ScoringEngine::drain_loop() {
  for (;;) {
    std::vector<QueuedUpdate> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_not_empty_.wait(lock,
                            [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) break;  // stopping_ and fully drained
      batch = pop_batch_locked();
      processing_ = true;
    }
    queue_not_full_.notify_all();
    process_batch(batch);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      processing_ = false;
      if (queue_.empty()) drained_.notify_all();
    }
  }
  std::lock_guard<std::mutex> lock(queue_mu_);
  processing_ = false;
  drained_.notify_all();
}

std::size_t ScoringEngine::drain_once() {
  std::vector<QueuedUpdate> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return 0;
    batch = pop_batch_locked();
  }
  queue_not_full_.notify_all();
  return process_batch(batch);
}

std::vector<ScoringEngine::QueuedUpdate> ScoringEngine::pop_batch_locked() {
  const std::size_t take = std::min(config_.max_batch, queue_.size());
  std::vector<QueuedUpdate> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

std::size_t ScoringEngine::process_batch(std::vector<QueuedUpdate>& batch) {
  // RCU-style read: one snapshot pins the model (and its encoder/builder
  // inputs) for the whole batch; a concurrent publish affects the next batch.
  auto model = registry_->current();
  if (model && (!cached_model_ ||
                cached_model_->manifest.version != model->manifest.version)) {
    const bool swap = cached_model_ != nullptr;
    cached_model_ = model;
    cached_builder_.emplace(model->make_builder());
    if (swap) metrics_.model_swaps->inc();
  }

  if (durability_ && !recovering_) {
    // WAL-before-apply: every record enters the WAL's open group before it
    // touches the store, and a checkpoint waits for the commit covering its
    // LSN. Rejected records are logged too — rejection is deterministic, so
    // replay re-rejects.
    for (const auto& queued : batch) {
      durability_->append(queued.update.drive_id, queued.update.vendor,
                          queued.update.record);
    }
  }

  std::vector<PendingRow> rows;
  rows.reserve(batch.size());
  std::uint64_t processed = 0;
  std::uint64_t rejected = 0;
  for (const auto& queued : batch) {
    try {
      store_.ingest(queued.update.drive_id, queued.update.vendor,
                    queued.update.record, rows);
      ++processed;
    } catch (const std::invalid_argument&) {
      // Strict-mode day-order violation: the record is unusable but must
      // never stall the queue; account and move on.
      ++rejected;
    }
  }

  std::vector<double> scores;
  if (!rows.empty() && model) {
    data::Matrix X(0, 0);
    for (const auto& row : rows) {
      X.add_row(cached_builder_->features_of(row.record));
    }
    obs::ScopedTimer timer(*metrics_.predict_seconds);
    scores = model->classifier->predict_proba(X);
  }

  const auto now = Clock::now();
  metrics_.batches->inc();
  metrics_.batch_size->observe(static_cast<double>(batch.size()));
  metrics_.records_processed->inc(processed);
  metrics_.rejected->inc(rejected);
  for (const auto& queued : batch) {
    metrics_.latency_us->observe(
        std::chrono::duration<double, std::micro>(now - queued.enqueued)
            .count());
  }
  if (!model) {
    metrics_.unscored_no_model->inc(rows.size());
    if (durability_ && !recovering_) {
      durability_->on_batch_end(store_, -1);
    }
    return batch.size();
  }
  std::uint64_t synthetic = 0;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PendingRow& row = rows[i];
      if (row.record.synthetic) ++synthetic;
      const bool crossed = scores[i] >= model->manifest.threshold;
      if (config_.record_scores) {
        scored_rows_.push_back({row.drive_id, row.record.day, scores[i],
                                model->manifest.version, row.record.synthetic});
      }
      if (store_.should_alert(row.drive_id, row.record.day, row.segment,
                              crossed,
                              config_.alert_policy)) {
        const core::Alert alert{row.drive_id, row.record.day, scores[i]};
        alerts_.push_back(alert);
        metrics_.alerts->inc();
        // During recovery this regenerates the truncated post-checkpoint
        // alert tail; during normal operation it extends the durable log.
        if (durability_) durability_->append_alert(alert);
      }
    }
  }
  metrics_.rows_scored->inc(rows.size());
  metrics_.synthetic_rows->inc(synthetic);
  if (durability_ && !recovering_) {
    durability_->on_batch_end(store_, model->manifest.version);
  }
  return batch.size();
}

void ScoringEngine::flush() {
  if (config_.manual_drain) {
    while (drain_once() > 0) {
    }
  } else {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_.wait(lock, [this] { return queue_.empty() && !processing_; });
  }
  // Every full WAL group is handed off by now; wait for the one in flight,
  // so the durable directory holds what a synchronous commit left there.
  if (durability_) durability_->wait_committed();
}

SinkTotals ScoringEngine::flush_totals() {
  flush();
  return {metrics_.records_processed->value(), metrics_.alerts->value(),
          metrics_.shed->value()};
}

void ScoringEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (drain_thread_.joinable()) drain_thread_.join();
  if (config_.manual_drain) flush();
  if (durability_ && !final_checkpoint_done_) {
    // Clean shutdown seals the durable state: the next start recovers from
    // the checkpoint alone, with an empty WAL tail.
    final_checkpoint_done_ = true;
    const auto model = registry_->current();
    durability_->checkpoint_now(store_,
                                model ? model->manifest.version : -1);
  }
}

std::vector<core::Alert> ScoringEngine::alerts() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  return alerts_;
}

std::vector<ScoredRow> ScoringEngine::take_scored_rows() {
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<ScoredRow> out;
  out.swap(scored_rows_);
  return out;
}

EngineStats ScoringEngine::stats() const {
  EngineStats out;
  // submit() bumps `submitted` before `accepted`/`shed`, and all three only
  // grow, so reading them in the reverse order keeps a snapshot taken under
  // live traffic consistent: accepted + shed <= submitted.
  out.accepted = metrics_.accepted->value();
  out.shed = metrics_.shed->value();
  out.submitted = metrics_.submitted->value();
  out.rejected = metrics_.rejected->value();
  out.unscored_no_model = metrics_.unscored_no_model->value();
  out.records_processed = metrics_.records_processed->value();
  out.rows_scored = metrics_.rows_scored->value();
  out.synthetic_rows = metrics_.synthetic_rows->value();
  out.batches = metrics_.batches->value();
  out.alerts = metrics_.alerts->value();
  out.model_swaps = metrics_.model_swaps->value();
  out.batch_size = metrics_.batch_size->snapshot();
  out.latency_us = metrics_.latency_us->snapshot();
  out.max_queue_depth =
      static_cast<std::size_t>(metrics_.max_queue_depth->value());
  return out;
}

}  // namespace mfpa::serve
