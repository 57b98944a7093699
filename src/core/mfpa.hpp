// MFPA — the paper's Multidimensional-based Failure Prediction Approach,
// end to end:
//
//   raw telemetry + trouble tickets
//     -> Preprocessor            (gap drop / mean fill, cumulative W/B)
//     -> FailureTimeIdentifier   (theta-matching of IMT to tracking points)
//     -> SampleBuilder           (positive windows, negative sampling)
//     -> timepoint segmentation  (train strictly before test, Fig. 8(a)(2))
//     -> RandomUnderSampler      (class balancing of the training slice)
//     -> Classifier              (Bayes / SVM / RF / GBDT / CNN_LSTM)
//     -> threshold selection + evaluation (TPR/FPR/ACC/PDR/AUC)
//
// Every stage is timed (StageRecord) so the overhead experiment (Fig. 20)
// falls out of a normal run.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/progress.hpp"
#include "core/failure_time.hpp"
#include "core/feature_groups.hpp"
#include "core/preprocess.hpp"
#include "core/sample_builder.hpp"
#include "data/dataset.hpp"
#include "data/label_encoder.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"

namespace mfpa::core {

struct MfpaConfig {
  std::string algorithm = "RF";
  ml::Hyperparams hyperparams;      ///< empty -> ml::default_hyperparams
  FeatureGroup group = FeatureGroup::kSFWB;
  PreprocessConfig preprocess;
  int theta = 7;                    ///< failure-time identification threshold
  int positive_window = 7;          ///< days of pre-failure data labeled positive
  int lookahead = 0;
  double neg_per_pos = 3.0;         ///< dataset-level negative sampling
  double undersample_ratio = 3.0;   ///< training-slice under-sampling (<=0 off)
  double train_fraction = 0.7;      ///< timepoint split position in the window
  double decision_threshold = 0.5;  ///< < 0: tuned on out-of-fold scores
  double fpr_weight = 2.5;          ///< FPR aversion of the tuned threshold
  int vendor = -1;                  ///< -1 = all vendors
  int seq_len = 5;                  ///< sequence length for CNN_LSTM
  bool include_deltas = false;      ///< append d<k>_ rate-of-change features
  int delta_days = 7;
  bool time_split = true;           ///< false: random split (the Fig. 8 strawman)
  std::uint64_t seed = 7;
};

/// Everything a bench needs to print a paper table/figure row.
struct MfpaReport {
  ml::ConfusionMatrix cm;         ///< test set at the chosen threshold
  double auc = 0.0;
  double threshold = 0.5;
  DayIndex split_day = 0;
  std::size_t train_size = 0;
  std::size_t train_positives = 0;
  std::size_t test_size = 0;
  std::size_t test_positives = 0;
  std::vector<double> test_scores;        ///< aligned with test_labels/meta
  std::vector<int> test_labels;
  std::vector<data::RowMeta> test_meta;
  PreprocessStats preprocess_stats;
  IngestStats ingest_stats;               ///< dirty-input accounting (lenient)
  std::vector<StageRecord> stages;        ///< per-stage timing (Fig. 20)
};

/// The pipeline. One instance = one trained deployment; run() trains and
/// evaluates, after which the fitted artifacts stay available for online
/// scoring (examples, Fig. 12/16 time-portability bench).
class MfpaPipeline {
 public:
  explicit MfpaPipeline(MfpaConfig config);

  const MfpaConfig& config() const noexcept { return config_; }

  /// Full train + evaluate flow.
  MfpaReport run(const std::vector<sim::DriveTimeSeries>& telemetry,
                 const std::vector<sim::TroubleTicket>& tickets);

  // --- Fitted artifacts (valid after run()) -------------------------------
  bool trained() const noexcept { return model_ != nullptr; }
  const ml::Classifier& model() const;
  const data::LabelEncoder& firmware_encoder() const;
  double threshold() const noexcept { return threshold_; }

  /// Builds a sample-ready builder bound to this pipeline's fitted encoder
  /// and feature group (for scoring new data).
  SampleBuilder make_builder(int lookahead = 0) const;

  /// Scores prepared samples with the fitted model.
  std::vector<double> score(const data::Dataset& ds) const;

 private:
  MfpaConfig config_;
  std::unique_ptr<ml::Classifier> model_;
  data::LabelEncoder fw_encoder_;
  double threshold_ = 0.5;

  bool wants_sequences() const noexcept {
    return config_.algorithm == "CNN_LSTM";
  }
  SampleConfig make_sample_config() const;

  /// Stages 1-4 (preprocess, failure labeling, firmware encoding, sample
  /// construction): fits the firmware encoder and returns the labeled
  /// samples. Their working state is released when it returns.
  data::Dataset build_samples(const std::vector<sim::DriveTimeSeries>& telemetry,
                              const std::vector<sim::TroubleTicket>& tickets,
                              MfpaReport& report, StageTimer& timer);
};

}  // namespace mfpa::core
