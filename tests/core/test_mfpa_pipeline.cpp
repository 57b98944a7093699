#include "core/mfpa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "ml/cross_validation.hpp"
#include "ml/factory.hpp"
#include "ml/sampler.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fleet.hpp"

namespace mfpa::core {
namespace {

/// Shared small-scenario fixture: simulating once keeps the suite fast.
class MfpaPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetSimulator fleet(sim::small_scenario(11));
    telemetry_ = new std::vector<sim::DriveTimeSeries>(fleet.generate_telemetry());
    tickets_ = new std::vector<sim::TroubleTicket>(fleet.tickets());
  }
  static void TearDownTestSuite() {
    delete telemetry_;
    delete tickets_;
    telemetry_ = nullptr;
    tickets_ = nullptr;
  }
  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static std::vector<sim::TroubleTicket>* tickets_;
};

std::vector<sim::DriveTimeSeries>* MfpaPipelineTest::telemetry_ = nullptr;
std::vector<sim::TroubleTicket>* MfpaPipelineTest::tickets_ = nullptr;

TEST_F(MfpaPipelineTest, RunProducesSaneReport) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  EXPECT_GT(report.train_size, 0u);
  EXPECT_GT(report.test_size, 0u);
  EXPECT_GT(report.test_positives, 0u);
  EXPECT_EQ(report.test_scores.size(), report.test_size);
  EXPECT_EQ(report.test_labels.size(), report.test_size);
  EXPECT_EQ(report.test_meta.size(), report.test_size);
  EXPECT_GE(report.auc, 0.5);
  EXPECT_LE(report.auc, 1.0);
  EXPECT_GT(report.cm.tpr(), 0.5);   // small scenario: loose bound
  EXPECT_LT(report.cm.fpr(), 0.25);
  EXPECT_TRUE(pipeline.trained());
}

TEST_F(MfpaPipelineTest, TimeSplitHasNoFutureInTraining) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  for (const auto& m : report.test_meta) {
    EXPECT_GT(m.day, report.split_day);
  }
}

TEST_F(MfpaPipelineTest, StagesCoverWholePipeline) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  std::vector<std::string> names;
  for (const auto& s : report.stages) names.push_back(s.name);
  for (const char* expected :
       {"preprocess", "failure_labeling", "feature_engineering",
        "segmentation", "training", "threshold_selection", "prediction"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const auto& s : report.stages) EXPECT_GE(s.seconds, 0.0);
}

TEST_F(MfpaPipelineTest, VendorFilterRestrictsDrives) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  for (const auto& m : report.test_meta) EXPECT_EQ(m.vendor, 0);
}

TEST_F(MfpaPipelineTest, DeterministicGivenSeed) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 17;
  MfpaPipeline a(config), b(config);
  const auto ra = a.run(*telemetry_, *tickets_);
  const auto rb = b.run(*telemetry_, *tickets_);
  EXPECT_EQ(ra.test_scores, rb.test_scores);
  EXPECT_EQ(ra.cm.tp, rb.cm.tp);
  EXPECT_EQ(ra.cm.fp, rb.cm.fp);
}

TEST_F(MfpaPipelineTest, FeatureGroupsAllRunnable) {
  for (FeatureGroup g : all_feature_groups()) {
    MfpaConfig config;
    config.vendor = 0;
    config.group = g;
    config.seed = 11;
    config.hyperparams = {{"n_trees", 15.0}};  // keep the sweep quick
    MfpaPipeline pipeline(config);
    const auto report = pipeline.run(*telemetry_, *tickets_);
    EXPECT_GT(report.auc, 0.5) << feature_group_name(g);
  }
}

TEST_F(MfpaPipelineTest, FixedThresholdHonored) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  config.decision_threshold = 0.9;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  EXPECT_DOUBLE_EQ(report.threshold, 0.9);
}

TEST_F(MfpaPipelineTest, TunedThresholdInRange) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  config.decision_threshold = -1.0;  // out-of-fold tuning
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  EXPECT_GT(report.threshold, 0.0);
  EXPECT_LT(report.threshold, 1.0);
}

TEST_F(MfpaPipelineTest, RandomSplitModeRuns) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  config.time_split = false;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  EXPECT_GT(report.test_size, 0u);
  // Random split mixes time: test samples on both sides of the split day.
  bool before = false, after = false;
  for (const auto& m : report.test_meta) {
    (m.day <= report.split_day ? before : after) = true;
  }
  EXPECT_TRUE(before);
  EXPECT_TRUE(after);
}

TEST_F(MfpaPipelineTest, ScoreRejectsBeforeRun) {
  MfpaPipeline pipeline(MfpaConfig{});
  data::Dataset ds;
  EXPECT_THROW(pipeline.score(ds), std::logic_error);
  EXPECT_THROW(pipeline.model(), std::logic_error);
  EXPECT_THROW(pipeline.firmware_encoder(), std::logic_error);
  EXPECT_THROW(pipeline.make_builder(), std::logic_error);
}

TEST_F(MfpaPipelineTest, InvalidTrainFractionRejected) {
  MfpaConfig config;
  config.train_fraction = 1.5;
  EXPECT_THROW(MfpaPipeline{config}, std::invalid_argument);
}

TEST_F(MfpaPipelineTest, CnnLstmUsesSequences) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  config.algorithm = "CNN_LSTM";
  config.seq_len = 3;
  config.hyperparams = {{"epochs", 2.0}, {"channels", 4.0}, {"hidden", 6.0}};
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  EXPECT_GT(report.test_size, 0u);
  EXPECT_GT(report.auc, 0.4);
}

TEST_F(MfpaPipelineTest, ImtLabelingViaThetaZeroDegradesLabels) {
  // theta = 0 labels failures at the repair ticket instead of the last
  // healthy observation; positive windows then cover post-mortem days with
  // no records, so fewer positives are built.
  MfpaConfig with_theta;
  with_theta.vendor = 0;
  with_theta.seed = 11;
  MfpaConfig without;
  without.vendor = 0;
  without.seed = 11;
  without.theta = 0;
  MfpaPipeline a(with_theta), b(without);
  const auto ra = a.run(*telemetry_, *tickets_);
  const auto rb = b.run(*telemetry_, *tickets_);
  EXPECT_GE(ra.train_positives + ra.test_positives,
            rb.train_positives + rb.test_positives);
}

TEST_F(MfpaPipelineTest, DeltaFeaturesDoubleTheColumns) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  config.include_deltas = true;
  MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);
  EXPECT_GT(report.test_size, 0u);
  EXPECT_GT(report.auc, 0.8);
  const auto names = pipeline.make_builder().feature_names();
  EXPECT_EQ(names.size(), 90u);  // 45 SFWB + 45 deltas
  EXPECT_EQ(names[45], "d7_S_1");
}

TEST_F(MfpaPipelineTest, FprWeightRaisesTunedThreshold) {
  MfpaConfig lenient;
  lenient.vendor = 0;
  lenient.seed = 11;
  lenient.decision_threshold = -1.0;
  lenient.fpr_weight = 1.0;
  MfpaConfig strict = lenient;
  strict.fpr_weight = 10.0;
  MfpaPipeline a(lenient), b(strict);
  const auto ra = a.run(*telemetry_, *tickets_);
  const auto rb = b.run(*telemetry_, *tickets_);
  EXPECT_GE(rb.threshold, ra.threshold);
  EXPECT_LE(rb.cm.fpr(), ra.cm.fpr() + 1e-9);
}

// --- Parity with the materializing pipeline ----------------------------------

/// What MfpaPipeline::run computed before it planned drives: every drive
/// cleaned up front by Preprocessor::process, labeled by identify_all over
/// the cleaned batch, the encoder fitted over every cleaned record up to the
/// split day, and samples drawn over every cleaned record as
/// SampleBuilder::build drew them. A plain transcription of that run (it
/// shares no sampling code with the pipeline); the planned pipeline must
/// match it bit for bit.
struct ReferenceRun {
  MfpaReport report;
  std::vector<std::string> encoder_classes;
};

ReferenceRun reference_run(const MfpaConfig& config,
                           const std::vector<sim::DriveTimeSeries>& telemetry,
                           const std::vector<sim::TroubleTicket>& tickets) {
  ReferenceRun out;
  MfpaReport& report = out.report;
  std::vector<sim::DriveTimeSeries> input;
  for (const auto& s : telemetry) {
    if (config.vendor < 0 || s.vendor == config.vendor) input.push_back(s);
  }
  const Preprocessor pre(config.preprocess);
  const auto drives =
      pre.process(input, &report.preprocess_stats, &report.ingest_stats);
  DayIndex day_lo = std::numeric_limits<DayIndex>::max();
  DayIndex day_hi = std::numeric_limits<DayIndex>::min();
  for (const auto& d : drives) {
    if (d.records.empty()) continue;
    day_lo = std::min(day_lo, d.records.front().day);
    day_hi = std::max(day_hi, d.records.back().day);
  }
  std::vector<sim::TroubleTicket> kept;
  for (const auto& t : tickets) {
    if (config.preprocess.robustness.lenient() &&
        (t.imt < day_lo - 45 || t.imt > day_hi + 45)) {
      ++report.ingest_stats.tickets_dropped;
      report.ingest_stats.note(
          "ticket for drive " + std::to_string(t.drive_id) + ": IMT day " +
          std::to_string(t.imt) + " outside observation window [" +
          std::to_string(day_lo) + ", " + std::to_string(day_hi) + "]");
      continue;
    }
    kept.push_back(t);
  }
  const auto failures =
      FailureTimeIdentifier(config.theta).identify_all(kept, drives);
  report.split_day =
      day_lo + static_cast<DayIndex>(static_cast<double>(day_hi - day_lo) *
                                     config.train_fraction);

  data::LabelEncoder encoder;
  std::vector<std::string> versions;
  for (const auto& d : drives) {
    for (const auto& r : d.records) {
      if (r.day <= report.split_day) versions.push_back(r.firmware);
    }
  }
  encoder.fit(versions);
  out.encoder_classes = encoder.classes();

  const bool sequences = config.algorithm == "CNN_LSTM";
  SampleConfig sc;
  sc.group = config.group;
  sc.positive_window = config.positive_window;
  sc.lookahead = config.lookahead;
  sc.neg_per_pos = config.neg_per_pos;
  sc.sequences = sequences;
  sc.seq_len = config.seq_len;
  sc.include_deltas = config.include_deltas && !sequences;
  sc.delta_days = config.delta_days;
  sc.seed = config.seed;
  // SampleBuilder::build as it enumerated its candidates: every record of
  // every healthy drive, in drive order, as a (drive, record) pair.
  const SampleBuilder builder(sc, &encoder);
  data::Dataset all;
  all.feature_names = builder.feature_names();
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  std::size_t n_pos = 0;
  for (std::size_t d = 0; d < drives.size(); ++d) {
    const auto it = failures.find(drives[d].drive_id);
    for (std::size_t r = 0; r < drives[d].records.size(); ++r) {
      const DayIndex day = drives[d].records[r].day;
      if (it == failures.end()) {
        candidates.emplace_back(d, r);
        continue;
      }
      const DayIndex hi = it->second.labeled_failure_day - config.lookahead;
      if (day < hi - config.positive_window + 1 || day > hi) continue;
      all.add(builder.row(drives[d], r), 1,
              {drives[d].drive_id, day, drives[d].vendor});
      ++n_pos;
    }
  }
  std::vector<std::size_t> chosen(candidates.size());
  std::iota(chosen.begin(), chosen.end(), std::size_t{0});
  if (config.neg_per_pos > 0.0 && n_pos > 0) {
    const auto want = std::min<std::size_t>(
        candidates.size(),
        static_cast<std::size_t>(static_cast<double>(n_pos) *
                                     config.neg_per_pos +
                                 0.5));
    Rng rng(config.seed);
    chosen = rng.sample_without_replacement(candidates.size(), want);
    std::sort(chosen.begin(), chosen.end());
  }
  for (std::size_t c : chosen) {
    const auto [d, r] = candidates[c];
    all.add(builder.row(drives[d], r), 0,
            {drives[d].drive_id, drives[d].records[r].day, drives[d].vendor});
  }

  data::Dataset train, test;
  if (config.time_split) {
    std::tie(train, test) = all.split_by_day(report.split_day);
  } else {
    Rng rng(config.seed);
    const auto order = rng.permutation(all.size());
    const auto n_train = static_cast<std::ptrdiff_t>(
        static_cast<double>(all.size()) * config.train_fraction);
    std::vector<std::size_t> tr(order.begin(), order.begin() + n_train);
    std::vector<std::size_t> te(order.begin() + n_train, order.end());
    std::sort(tr.begin(), tr.end());
    std::sort(te.begin(), te.end());
    train = all.select_rows(tr);
    test = all.select_rows(te);
  }
  if (config.undersample_ratio > 0.0) {
    train = ml::RandomUnderSampler(config.undersample_ratio,
                                   config.seed ^ 0xba1cULL)
                .resample(train);
  }
  report.train_size = train.size();
  report.train_positives = train.positives();
  report.test_size = test.size();
  report.test_positives = test.positives();

  ml::Hyperparams params = config.hyperparams.empty()
                               ? ml::default_hyperparams(config.algorithm)
                               : config.hyperparams;
  if (sequences) params["timesteps"] = static_cast<double>(config.seq_len);
  if (!params.contains("seed")) params["seed"] = static_cast<double>(config.seed);
  const auto model = ml::make_classifier(config.algorithm, params);
  model->fit(train.X, train.y);

  report.threshold = config.decision_threshold;
  if (config.decision_threshold < 0.0) {
    std::vector<double> oof_scores;
    std::vector<int> oof_labels;
    const data::Dataset sorted = train.sorted_by_time();
    if (sorted.size() >= 2 * 3 * 8) {
      for (const auto& split : ml::time_series_splits(sorted.size(), 3)) {
        std::vector<int> ytr;
        for (std::size_t i : split.train) ytr.push_back(sorted.y[i]);
        if (std::count(ytr.begin(), ytr.end(), 1) == 0 ||
            std::count(ytr.begin(), ytr.end(), 0) == 0) {
          continue;
        }
        auto fold = model->clone_unfitted();
        fold->fit(sorted.X.select_rows(split.train), ytr);
        const auto scores =
            fold->predict_proba(sorted.X.select_rows(split.validation));
        for (std::size_t k = 0; k < split.validation.size(); ++k) {
          oof_scores.push_back(scores[k]);
          oof_labels.push_back(sorted.y[split.validation[k]]);
        }
      }
    }
    if (std::count(oof_labels.begin(), oof_labels.end(), 1) >= 5 &&
        std::count(oof_labels.begin(), oof_labels.end(), 0) >= 5) {
      report.threshold = ml::best_weighted_youden_threshold(
          oof_labels, oof_scores, config.fpr_weight);
    } else {
      report.threshold = ml::best_weighted_youden_threshold(
          train.y, model->predict_proba(train.X), config.fpr_weight);
    }
  }
  report.test_scores = model->predict_proba(test.X);
  report.test_labels = test.y;
  report.test_meta = test.meta;
  report.cm = ml::confusion_at(test.y, report.test_scores, report.threshold);
  report.auc = ml::auc(test.y, report.test_scores);
  return out;
}

void expect_same_run(const MfpaConfig& config,
                     const std::vector<sim::DriveTimeSeries>& telemetry,
                     const std::vector<sim::TroubleTicket>& tickets) {
  const ReferenceRun expected = reference_run(config, telemetry, tickets);
  const MfpaReport& want = expected.report;
  MfpaPipeline pipeline(config);
  const MfpaReport got = pipeline.run(telemetry, tickets);
  EXPECT_EQ(got.test_scores, want.test_scores);
  EXPECT_EQ(got.test_labels, want.test_labels);
  EXPECT_EQ(got.test_meta, want.test_meta);
  EXPECT_EQ(got.train_size, want.train_size);
  EXPECT_EQ(got.train_positives, want.train_positives);
  EXPECT_EQ(got.test_size, want.test_size);
  EXPECT_EQ(got.test_positives, want.test_positives);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.split_day, want.split_day);
  EXPECT_EQ(got.preprocess_stats, want.preprocess_stats);
  EXPECT_EQ(got.ingest_stats, want.ingest_stats);
  EXPECT_EQ(got.cm.tp, want.cm.tp);
  EXPECT_EQ(got.cm.fp, want.cm.fp);
  EXPECT_EQ(got.cm.tn, want.cm.tn);
  EXPECT_EQ(got.cm.fn, want.cm.fn);
  EXPECT_EQ(got.auc, want.auc);
  EXPECT_EQ(pipeline.firmware_encoder().classes(), expected.encoder_classes);
  EXPECT_GT(got.test_positives, 0u);
}

/// The small scenario, plus a copy corrupted by every structured fault mode
/// (and displaced ticket IMTs) for the lenient path.
class PlannedPipelineParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetSimulator fleet(sim::small_scenario(11));
    telemetry_ = new std::vector<sim::DriveTimeSeries>(fleet.generate_telemetry());
    tickets_ = new std::vector<sim::TroubleTicket>(fleet.tickets());
    sim::FaultInjector injector(
        {{{sim::FaultMode::kDuplicateDay, 0.08},
          {sim::FaultMode::kOutOfOrderUpload, 0.02},
          {sim::FaultMode::kClockRollback, 0.04},
          {sim::FaultMode::kCounterReset, 0.02},
          {sim::FaultMode::kNanField, 0.05},
          {sim::FaultMode::kNegativeField, 0.03},
          {sim::FaultMode::kSaturatedField, 0.02},
          {sim::FaultMode::kDuplicateDriveId, 0.03},
          {sim::FaultMode::kTicketImtOutOfWindow, 0.1}},
         11});
    corrupt_ = new std::vector<sim::DriveTimeSeries>(injector.corrupt(*telemetry_));
    // Three hopeless uploads, every day delivered three times, so that the
    // quarantine path runs too; the first is a ticketed drive.
    std::size_t hopeless = 0;
    for (auto& s : *corrupt_) {
      const bool ticketed =
          std::any_of(tickets_->begin(), tickets_->end(),
                      [&](const auto& t) { return t.drive_id == s.drive_id; });
      if (ticketed != (hopeless == 0)) continue;
      std::vector<sim::DailyRecord> tripled;
      for (const auto& r : s.records) tripled.insert(tripled.end(), 3, r);
      s.records = std::move(tripled);
      if (++hopeless == 3) break;
    }
    DayIndex lo = std::numeric_limits<DayIndex>::max();
    DayIndex hi = std::numeric_limits<DayIndex>::min();
    for (const auto& s : *telemetry_) {
      if (s.records.empty()) continue;
      lo = std::min(lo, s.records.front().day);
      hi = std::max(hi, s.records.back().day);
    }
    corrupt_tickets_ = new std::vector<sim::TroubleTicket>(
        injector.corrupt_tickets(*tickets_, lo, hi));
  }
  static void TearDownTestSuite() {
    delete telemetry_;
    delete tickets_;
    delete corrupt_;
    delete corrupt_tickets_;
  }
  static MfpaConfig base() {
    MfpaConfig config;
    config.seed = 11;
    config.hyperparams = {{"n_trees", 15.0}};
    return config;
  }
  static MfpaConfig lenient() {
    MfpaConfig config = base();
    config.preprocess.robustness.mode = IngestMode::kLenient;
    return config;
  }
  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static std::vector<sim::TroubleTicket>* tickets_;
  static std::vector<sim::DriveTimeSeries>* corrupt_;
  static std::vector<sim::TroubleTicket>* corrupt_tickets_;
};

std::vector<sim::DriveTimeSeries>* PlannedPipelineParity::telemetry_ = nullptr;
std::vector<sim::TroubleTicket>* PlannedPipelineParity::tickets_ = nullptr;
std::vector<sim::DriveTimeSeries>* PlannedPipelineParity::corrupt_ = nullptr;
std::vector<sim::TroubleTicket>* PlannedPipelineParity::corrupt_tickets_ = nullptr;

TEST_F(PlannedPipelineParity, Strict) {
  expect_same_run(base(), *telemetry_, *tickets_);
}

TEST_F(PlannedPipelineParity, LenientOverCorruptedTelemetry) {
  MfpaPipeline pipeline(lenient());
  const auto report = pipeline.run(*corrupt_, *corrupt_tickets_);
  ASSERT_GE(report.ingest_stats.drives_quarantined, 3u);
  ASSERT_GT(report.ingest_stats.duplicate_drives, 0u);
  ASSERT_GT(report.ingest_stats.tickets_dropped, 0u);
  ASSERT_GT(report.ingest_stats.values_repaired, 0u);
  expect_same_run(lenient(), *corrupt_, *corrupt_tickets_);
}

TEST_F(PlannedPipelineParity, LenientCountsEachFaultOnce) {
  // Drives the pipeline samples from are sanitized twice (planned, then
  // converted); the process-wide fault counters must still count each
  // fault of the batch once, as Preprocessor::process does.
  const auto counts = [](obs::MetricsRegistry& reg) {
    std::vector<std::uint64_t> out;
    for (const char* cause : {"duplicate_day", "clock_rollback",
                              "counter_reset_rebased", "value_repaired"}) {
      out.push_back(
          reg.counter("mfpa_ingest_faults_total", {{"cause", cause}}).value());
    }
    return out;
  };
  auto processed = obs::MetricsRegistry::create_isolated();
  {
    obs::ScopedMetricsOverride scope(*processed);
    (void)Preprocessor(lenient().preprocess).process(*corrupt_);
  }
  auto trained = obs::MetricsRegistry::create_isolated();
  {
    obs::ScopedMetricsOverride scope(*trained);
    MfpaPipeline(lenient()).run(*corrupt_, *corrupt_tickets_);
  }
  EXPECT_EQ(counts(*trained), counts(*processed));
  EXPECT_GT(counts(*processed)[0], 0u);
}

TEST_F(PlannedPipelineParity, StrictRepeatedDriveIds) {
  // A drive id that repeats (strict mode keeps both series) is labeled from
  // its first series, and every series of that id yields positives. The
  // repeat here ends ten days early, so the two label differently.
  auto telemetry = *telemetry_;
  std::size_t repeated = 0;
  for (const auto& t : *tickets_) {
    for (const auto& s : *telemetry_) {
      if (s.drive_id != t.drive_id || s.records.size() < 40) continue;
      sim::DriveTimeSeries repeat = s;
      repeat.records.resize(s.records.size() - 10);
      telemetry.push_back(std::move(repeat));
      ++repeated;
    }
    if (repeated >= 5) break;
  }
  ASSERT_EQ(repeated, 5u);
  expect_same_run(base(), telemetry, *tickets_);
}

TEST_F(PlannedPipelineParity, Deltas) {
  MfpaConfig config = base();
  config.include_deltas = true;
  expect_same_run(config, *telemetry_, *tickets_);
}

TEST_F(PlannedPipelineParity, CnnLstmOnTiny) {
  sim::FleetSimulator fleet(sim::tiny_scenario(7));
  const auto telemetry = fleet.generate_telemetry();
  MfpaConfig config = base();
  config.algorithm = "CNN_LSTM";
  config.seq_len = 3;
  config.hyperparams = {{"epochs", 2.0}, {"channels", 4.0}, {"hidden", 6.0}};
  expect_same_run(config, telemetry, fleet.tickets());
}

TEST_F(PlannedPipelineParity, VendorZero) {
  MfpaConfig config = base();
  config.vendor = 0;
  expect_same_run(config, *telemetry_, *tickets_);
}

TEST_F(PlannedPipelineParity, RandomSplit) {
  MfpaConfig config = base();
  config.time_split = false;
  expect_same_run(config, *telemetry_, *tickets_);
}

TEST_F(PlannedPipelineParity, Lookahead) {
  MfpaConfig config = base();
  config.lookahead = 3;
  expect_same_run(config, *telemetry_, *tickets_);
}

TEST_F(PlannedPipelineParity, EveryNegative) {
  // neg_per_pos = 0 takes every healthy record: every drive is converted.
  MfpaConfig config = base();
  config.vendor = 0;
  config.neg_per_pos = 0.0;
  config.hyperparams = {{"n_trees", 5.0}};
  expect_same_run(config, *telemetry_, *tickets_);
}

TEST_F(PlannedPipelineParity, TunedThreshold) {
  MfpaConfig config = base();
  config.vendor = 0;
  config.decision_threshold = -1.0;
  expect_same_run(config, *telemetry_, *tickets_);
}

TEST(MfpaPipeline, ThrowsWithoutUsableDrives) {
  MfpaConfig config;
  MfpaPipeline pipeline(config);
  const std::vector<sim::DriveTimeSeries> empty_telemetry;
  const std::vector<sim::TroubleTicket> no_tickets;
  EXPECT_THROW(pipeline.run(empty_telemetry, no_tickets), std::runtime_error);
}

TEST(MfpaPipeline, ThrowsWithoutPositiveSamples) {
  // Telemetry with healthy drives only and no tickets: the builder cannot
  // produce positives and the pipeline must say so rather than train a
  // degenerate model.
  sim::FleetSimulator fleet(sim::tiny_scenario(99));
  std::vector<sim::DriveTimeSeries> healthy_only;
  for (const auto& s : fleet.generate_telemetry()) {
    if (!s.failed) healthy_only.push_back(s);
    if (healthy_only.size() >= 20) break;
  }
  ASSERT_GE(healthy_only.size(), 5u);
  MfpaConfig config;
  config.seed = 99;
  MfpaPipeline pipeline(config);
  EXPECT_THROW(pipeline.run(healthy_only, {}), std::runtime_error);
}

}  // namespace
}  // namespace mfpa::core
