// Versioned on-disk model artifacts with RCU-style hot-swap — the handoff
// point between the training side (MfpaPipeline / RetrainingScheduler) and
// the long-running scoring service.
//
// On disk, a registry is a directory:
//
//   <dir>/v000001.model     one artifact per published version
//   <dir>/v000002.model
//   <dir>/CURRENT           name of the active version ("v000002")
//
// Every artifact is written to a dot-temporary in the same directory,
// fsynced, and renamed into place, and CURRENT is updated the same way
// (serve::publish_file), so a concurrent reader, a crash mid-publish, or a
// power loss after it only ever observes complete artifacts. Only publish
// moves CURRENT, always to a new version: rolling back means publishing the
// older model again under the next version number. An artifact
// (`mfpa_artifact 2`) is one ml::seal over a manifest (model type, feature
// group, decision threshold, training window, firmware vocabulary) and the
// classifier's `mfpa_model 2` block, so the digest covers every byte of the
// model. render_artifact / load_artifact are its one codec: the registry
// and the CLI's train / predict / info share them.
//
// In memory, the active version is a std::shared_ptr<const ServedModel>
// guarded by a tiny pointer mutex: readers (the ScoringEngine's batch loop)
// take a snapshot once per *batch* — a copy under an uncontended lock — and
// keep scoring on it while a publisher swaps in the next version. The old
// version stays alive until its last in-flight batch drops the reference
// (RCU-style grace period). A dedicated mutex rather than
// std::atomic<shared_ptr> keeps the swap ThreadSanitizer-provable: the
// libstdc++ atomic specialization hides its pointer word behind an embedded
// lock bit with a futex wait path TSan cannot see through.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/date.hpp"
#include "core/feature_groups.hpp"
#include "core/mfpa.hpp"
#include "core/sample_builder.hpp"
#include "data/label_encoder.hpp"
#include "ml/model.hpp"
#include "obs/metrics.hpp"

namespace mfpa::serve {

/// Deployment metadata stored next to the model payload.
struct ModelManifest {
  int version = 0;
  std::string algorithm;                         ///< "RF", "GBDT", ...
  core::FeatureGroup group = core::FeatureGroup::kSFWB;
  double threshold = 0.5;                        ///< decision threshold
  DayIndex train_lo = 0;                         ///< training window start
  DayIndex train_hi = 0;                         ///< training window end
  std::uint64_t checksum = 0;                    ///< the artifact's digest
};

/// One immutable deployed model version. Instances are shared read-only
/// between the publisher and any number of scoring threads.
struct ServedModel {
  ModelManifest manifest;
  data::LabelEncoder encoder;                    ///< firmware vocabulary
  std::unique_ptr<ml::Classifier> classifier;

  /// Builder producing this model's feature layout. The returned builder
  /// borrows `encoder`; keep the ServedModel (shared_ptr) alive beside it.
  core::SampleBuilder make_builder() const;
};

/// The `mfpa_artifact 2` bytes of a model. The algorithm line is
/// `model.name()` and the digest is the seal's, so `manifest.algorithm` and
/// `manifest.checksum` are not read.
std::string render_artifact(const ModelManifest& manifest,
                            const data::LabelEncoder& encoder,
                            const ml::Classifier& model);

/// Loads the artifact at `path`, parsing nothing before its seal checks out;
/// `overrides` replace stored hyperparameters (ml::load_classifier). Throws
/// std::runtime_error naming `path` when the file is missing, corrupt,
/// malformed, or of another format (the unsealed-manifest format 1 of older
/// builds, or a bare `mfpa_model` block).
std::shared_ptr<ServedModel> load_artifact(
    const std::string& path, const ml::Hyperparams& overrides = {});

class ModelRegistry {
 public:
  /// Opens (creating if needed) a registry directory and loads the CURRENT
  /// version when one is recorded. Every loaded classifier gets its
  /// "threads" hyperparameter set to 1, so predict_proba runs inline on the
  /// calling drain thread whatever the trainer was configured with, and
  /// tree ensembles are compiled into the flat inference format
  /// (bit-identical probabilities; ml/flat_forest.hpp). The second
  /// parameter has no effect: it is kept so callers that still pass a
  /// scoring thread count (perfbench/) compile unchanged.
  explicit ModelRegistry(std::string directory, std::size_t = 1);

  const std::string& directory() const noexcept { return dir_; }

  /// Publishes a new version: writes the artifact atomically, repoints
  /// CURRENT, and hot-swaps the in-memory active model. Returns the assigned
  /// version number. Thread-safe; readers are never blocked.
  int publish(const ml::Classifier& model, const data::LabelEncoder& encoder,
              core::FeatureGroup group, double threshold, DayIndex train_lo,
              DayIndex train_hi);

  /// Convenience: publishes a trained pipeline's artifacts (model, firmware
  /// encoder, group, tuned threshold). Serving scores flat rows of one
  /// record, so a pipeline whose builder makes sequence rows (CNN_LSTM) or
  /// delta rows throws std::invalid_argument before anything is written.
  int publish_pipeline(const core::MfpaPipeline& pipeline, DayIndex train_lo,
                       DayIndex train_hi);

  /// Active model snapshot: one shared_ptr copy under the pointer mutex
  /// (held only for the copy, never during artifact I/O). Null when nothing
  /// was published yet.
  std::shared_ptr<const ServedModel> current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Version number of the active model (0 = none).
  int current_version() const;

  /// Loads one on-disk version through load_artifact and requires its
  /// manifest to name that version. Throws std::runtime_error on missing or
  /// corrupt artifacts.
  std::shared_ptr<const ServedModel> load_version(int version) const;

  /// Sorted list of version numbers present on disk.
  std::vector<int> versions() const;

  /// Deletes what a registry writes in `directory` (vNNNNNN.model
  /// artifacts, CURRENT, and dot-temp publish files), so a registry opened
  /// there next starts empty. When `directory` holds anything else,
  /// or is not a directory, throws std::invalid_argument naming it and
  /// deletes nothing. A missing directory stays missing.
  static void clear(const std::string& directory);

 private:
  std::string dir_;
  mutable std::mutex current_mu_;  ///< guards only the current_ pointer copy
  std::shared_ptr<const ServedModel> current_;
  mutable std::mutex publish_mu_;  ///< serializes publishers, never readers

  void set_current(std::shared_ptr<const ServedModel> served) {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(served);
  }

  // Registry instruments (mfpa_registry_*): deploy-side observability. The
  // swap histogram times artifact-load + pointer swap — the window in which a
  // publish is in flight (readers keep scoring throughout).
  struct Metrics {
    obs::Counter* publishes = nullptr;
    obs::HistogramMetric* swap_seconds = nullptr;
    obs::Gauge* current_version = nullptr;
  };
  Metrics metrics_;

  std::string artifact_path(int version) const;
  void write_current_marker(int version);
};

}  // namespace mfpa::serve
