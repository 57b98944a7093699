#include "core/mfpa.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "ml/cross_validation.hpp"
#include "ml/factory.hpp"
#include "ml/sampler.hpp"

namespace mfpa::core {
namespace {

/// Lenient mode drops tickets whose IMT falls more than this many days
/// outside the observed telemetry window.
constexpr DayIndex kTicketWindowSlackDays = 45;

}  // namespace

MfpaPipeline::MfpaPipeline(MfpaConfig config) : config_(std::move(config)) {
  if (config_.train_fraction <= 0.0 || config_.train_fraction >= 1.0) {
    throw std::invalid_argument("MfpaPipeline: train_fraction must be in (0,1)");
  }
}

SampleConfig MfpaPipeline::make_sample_config() const {
  SampleConfig sc;
  sc.group = config_.group;
  sc.positive_window = config_.positive_window;
  sc.lookahead = config_.lookahead;
  sc.neg_per_pos = config_.neg_per_pos;
  sc.sequences = wants_sequences();
  sc.seq_len = config_.seq_len;
  sc.include_deltas = config_.include_deltas && !wants_sequences();
  sc.delta_days = config_.delta_days;
  sc.seed = config_.seed;
  return sc;
}

MfpaReport MfpaPipeline::run(const std::vector<sim::DriveTimeSeries>& telemetry,
                             const std::vector<sim::TroubleTicket>& tickets) {
  MfpaReport report;
  StageTimer timer;

  // Stage 1: vendor filter + preprocessing.
  timer.begin("preprocess");
  std::vector<sim::DriveTimeSeries> filtered;
  const std::vector<sim::DriveTimeSeries>* input = &telemetry;
  if (config_.vendor >= 0) {
    filtered.reserve(telemetry.size());
    for (const auto& s : telemetry) {
      if (s.vendor == config_.vendor) filtered.push_back(s);
    }
    input = &filtered;
  }
  const Preprocessor preprocessor(config_.preprocess);
  auto drives = preprocessor.process(*input, &report.preprocess_stats,
                                     &report.ingest_stats);
  std::size_t raw_records = 0;
  for (const auto& s : *input) raw_records += s.records.size();
  timer.end(raw_records, raw_records * sizeof(sim::DailyRecord));
  if (drives.empty()) {
    throw std::runtime_error("MfpaPipeline: no usable drives after preprocessing");
  }

  // Observation window of the cleaned batch (used for the timepoint split
  // and for lenient ticket filtering).
  DayIndex day_lo = std::numeric_limits<DayIndex>::max();
  DayIndex day_hi = std::numeric_limits<DayIndex>::min();
  for (const auto& d : drives) {
    if (d.records.empty()) continue;
    day_lo = std::min(day_lo, d.records.front().day);
    day_hi = std::max(day_hi, d.records.back().day);
  }

  // Stage 2: failure-time identification from tickets. Lenient mode drops
  // tickets whose IMT sits far outside the observation window (a wrong
  // timestamp cannot be theta-matched to any tracking point and would only
  // distort labeling).
  timer.begin("failure_labeling");
  std::vector<sim::TroubleTicket> kept_tickets;
  const std::vector<sim::TroubleTicket>* ticket_input = &tickets;
  if (config_.preprocess.robustness.lenient()) {
    kept_tickets.reserve(tickets.size());
    for (const auto& t : tickets) {
      if (t.imt < day_lo - kTicketWindowSlackDays ||
          t.imt > day_hi + kTicketWindowSlackDays) {
        ++report.ingest_stats.tickets_dropped;
        report.ingest_stats.note(
            "ticket for drive " + std::to_string(t.drive_id) + ": IMT day " +
                std::to_string(t.imt) + " outside observation window [" +
                std::to_string(day_lo) + ", " + std::to_string(day_hi) + "]");
        continue;
      }
      kept_tickets.push_back(t);
    }
    ticket_input = &kept_tickets;
  }
  const FailureTimeIdentifier identifier(config_.theta);
  const auto failures = identifier.identify_all(*ticket_input, drives);
  timer.end(ticket_input->size(),
            ticket_input->size() * sizeof(sim::TroubleTicket));

  const DayIndex split_day =
      day_lo + static_cast<DayIndex>(
                   static_cast<double>(day_hi - day_lo) * config_.train_fraction);
  report.split_day = split_day;

  // Stage 3: firmware label encoding — fit on the training period only so a
  // deployed model meets genuinely unseen versions in later months.
  timer.begin("feature_engineering");
  {
    std::vector<std::string> train_versions;
    for (const auto& d : drives) {
      for (const auto& r : d.records) {
        if (r.day <= split_day) train_versions.push_back(r.firmware);
      }
    }
    fw_encoder_.fit(train_versions);
  }

  // Stage 4: sample construction. Nothing reads the cleaned records (424
  // bytes each) past this point; releasing them before training instead of
  // at return lowers the run's peak memory and what the allocator retains.
  const SampleBuilder builder(make_sample_config(), &fw_encoder_);
  data::Dataset all = builder.build(drives, failures);
  drives.clear();
  std::size_t feature_values = all.size() * all.num_features();
  timer.end(all.size(), feature_values * sizeof(double));
  if (all.positives() == 0) {
    throw std::runtime_error("MfpaPipeline: no positive samples built");
  }

  // Stage 5: segmentation (timepoint-based by default; optional random
  // split to reproduce the paper's Fig. 8 comparison).
  timer.begin("segmentation");
  data::Dataset train, test;
  if (config_.time_split) {
    auto [tr, te] = all.split_by_day(split_day);
    train = std::move(tr);
    test = std::move(te);
  } else {
    Rng rng(config_.seed);
    auto order = rng.permutation(all.size());
    const std::size_t n_train = static_cast<std::size_t>(
        static_cast<double>(all.size()) * config_.train_fraction);
    std::vector<std::size_t> tr_idx(order.begin(),
                                    order.begin() + static_cast<std::ptrdiff_t>(n_train));
    std::vector<std::size_t> te_idx(order.begin() + static_cast<std::ptrdiff_t>(n_train),
                                    order.end());
    std::sort(tr_idx.begin(), tr_idx.end());
    std::sort(te_idx.begin(), te_idx.end());
    train = all.select_rows(tr_idx);
    test = all.select_rows(te_idx);
  }
  if (train.positives() == 0 || train.negatives() == 0) {
    throw std::runtime_error("MfpaPipeline: training slice lacks a class");
  }
  if (test.empty()) {
    throw std::runtime_error("MfpaPipeline: empty test slice");
  }

  // Stage 6: class balancing of the training slice.
  if (config_.undersample_ratio > 0.0) {
    const ml::RandomUnderSampler sampler(config_.undersample_ratio,
                                         config_.seed ^ 0xba1cULL);
    train = sampler.resample(train);
  }
  timer.end(train.size() + test.size());
  report.train_size = train.size();
  report.train_positives = train.positives();
  report.test_size = test.size();
  report.test_positives = test.positives();

  // Stage 7: model training.
  timer.begin("training");
  ml::Hyperparams params = config_.hyperparams.empty()
                               ? ml::default_hyperparams(config_.algorithm)
                               : config_.hyperparams;
  if (wants_sequences()) {
    params["timesteps"] = static_cast<double>(config_.seq_len);
  }
  if (!params.contains("seed")) {
    params["seed"] = static_cast<double>(config_.seed);
  }
  model_ = ml::make_classifier(config_.algorithm, params);
  model_->fit(train.X, train.y);
  timer.end(train.size(), train.size() * train.num_features() * sizeof(double));

  // Stage 8: threshold selection. Training scores of a flexible model are
  // overfit (near 0/1), so the operating point is tuned on *out-of-fold*
  // scores from time-series CV over the training slice; plain training-score
  // Youden is the fallback when the slice is too small to fold.
  timer.begin("threshold_selection");
  if (config_.decision_threshold >= 0.0) {
    threshold_ = config_.decision_threshold;
  } else {
    std::vector<double> oof_scores;
    std::vector<int> oof_labels;
    const data::Dataset sorted_train = train.sorted_by_time();
    constexpr std::size_t kFolds = 3;
    if (sorted_train.size() >= 2 * kFolds * 8) {
      for (const auto& split :
           ml::time_series_splits(sorted_train.size(), kFolds)) {
        std::vector<int> ytr;
        bool has_pos = false, has_neg = false;
        for (std::size_t i : split.train) {
          ytr.push_back(sorted_train.y[i]);
          (sorted_train.y[i] == 1 ? has_pos : has_neg) = true;
        }
        if (!has_pos || !has_neg) continue;
        auto fold_model = model_->clone_unfitted();
        fold_model->fit(sorted_train.X.select_rows(split.train), ytr);
        const auto scores =
            fold_model->predict_proba(sorted_train.X.select_rows(split.validation));
        for (std::size_t k = 0; k < split.validation.size(); ++k) {
          oof_scores.push_back(scores[k]);
          oof_labels.push_back(sorted_train.y[split.validation[k]]);
        }
      }
    }
    const bool oof_usable =
        std::count(oof_labels.begin(), oof_labels.end(), 1) >= 5 &&
        std::count(oof_labels.begin(), oof_labels.end(), 0) >= 5;
    if (oof_usable) {
      threshold_ = ml::best_weighted_youden_threshold(oof_labels, oof_scores,
                                                      config_.fpr_weight);
    } else {
      const auto train_scores = model_->predict_proba(train.X);
      threshold_ = ml::best_weighted_youden_threshold(train.y, train_scores,
                                                      config_.fpr_weight);
    }
  }
  timer.end(train.size());

  // Stage 9: evaluation.
  timer.begin("prediction");
  report.test_scores = model_->predict_proba(test.X);
  timer.end(test.size(), test.size() * test.num_features() * sizeof(double));
  report.test_labels = test.y;
  report.test_meta = test.meta;
  report.threshold = threshold_;
  report.cm = ml::confusion_at(test.y, report.test_scores, threshold_);
  report.auc = ml::auc(test.y, report.test_scores);
  report.stages = timer.records();
  return report;
}

const ml::Classifier& MfpaPipeline::model() const {
  if (!model_) throw std::logic_error("MfpaPipeline: model() before run()");
  return *model_;
}

const data::LabelEncoder& MfpaPipeline::firmware_encoder() const {
  if (!model_) throw std::logic_error("MfpaPipeline: encoder before run()");
  return fw_encoder_;
}

SampleBuilder MfpaPipeline::make_builder(int lookahead) const {
  if (!model_) throw std::logic_error("MfpaPipeline: make_builder before run()");
  SampleConfig sc = make_sample_config();
  sc.lookahead = lookahead;
  return SampleBuilder(sc, &fw_encoder_);
}

std::vector<double> MfpaPipeline::score(const data::Dataset& ds) const {
  if (!model_) throw std::logic_error("MfpaPipeline: score before run()");
  return model_->predict_proba(ds.X);
}

}  // namespace mfpa::core
