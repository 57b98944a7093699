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
// power loss after it only ever observes complete artifacts. An artifact
// carries a manifest (model type, feature group, decision threshold,
// training window, firmware vocabulary, payload checksum) followed by the
// checksummed ml::save_classifier framing.
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
  std::uint64_t checksum = 0;                    ///< FNV-1a of model payload
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

class ModelRegistry {
 public:
  /// Opens (creating if needed) a registry directory and loads the CURRENT
  /// version when one is recorded. Every loaded classifier gets its
  /// "threads" hyperparameter set to `score_threads` (0 = all cores), so
  /// batch predict_proba uses the serving tier's pool regardless of how the
  /// trainer was configured, and tree ensembles are compiled into the flat
  /// inference format (bit-identical probabilities; ml/flat_forest.hpp).
  explicit ModelRegistry(std::string directory, std::size_t score_threads = 0);

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

  /// Loads one on-disk version (verifying manifest and payload checksums).
  /// Throws std::runtime_error on missing or corrupt artifacts.
  std::shared_ptr<const ServedModel> load_version(int version) const;

  /// Re-points CURRENT (and the in-memory active model) at an already
  /// published version — the rollback path.
  void activate(int version);

  /// Sorted list of version numbers present on disk.
  std::vector<int> versions() const;

 private:
  std::string dir_;
  std::size_t score_threads_;
  mutable std::mutex current_mu_;  ///< guards only the current_ pointer copy
  std::shared_ptr<const ServedModel> current_;
  mutable std::mutex publish_mu_;  ///< serializes publishers, never readers

  void set_current(std::shared_ptr<const ServedModel> served) {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(served);
  }

  // Registry instruments (mfpa_registry_*): deploy-side observability. The
  // swap histogram times artifact-load + pointer swap — the window in which a
  // publish/activate is in flight (readers keep scoring throughout).
  struct Metrics {
    obs::Counter* publishes = nullptr;
    obs::Counter* activations = nullptr;
    obs::HistogramMetric* swap_seconds = nullptr;
    obs::Gauge* current_version = nullptr;
  };
  Metrics metrics_;

  std::string artifact_path(int version) const;
  void write_current_marker(int version);
};

}  // namespace mfpa::serve
