// Random forest classifier — the paper's best-performing algorithm for MFPA
// (98.18% TPR / 0.56% FPR with the SFWB feature group).
#pragma once

#include "ml/binned_support.hpp"
#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model.hpp"

#include <memory>
#include <vector>

namespace mfpa::ml {

/// Bagged ensemble of Newton trees with per-split feature subsampling.
/// Hyperparams: "n_trees" (60), "max_depth" (14), "min_samples_leaf" (1),
/// "max_features" (0 = sqrt), "bootstrap" (1), "seed" (1), "threads" (1;
/// 0 = hardware, used for both fit and predict_proba), "split_method"
/// (0 = exact, 1 = hist; default 1), "max_bins" (255). With the hist path
/// the feature matrix is binned once per fit and shared by every tree.
/// After compile(), predict_proba serves bit-identical probabilities from
/// the flattened ensemble (see ml/flat_forest.hpp).
class RandomForestClassifier final : public Classifier,
                                     public BinnedFitSupport,
                                     public CompiledInference {
 public:
  explicit RandomForestClassifier(Hyperparams params = {});

  void fit(const Matrix& X, const std::vector<int>& y) override;
  std::vector<double> predict_proba(const Matrix& X) const override;
  std::string name() const override { return "RF"; }
  std::unique_ptr<Classifier> clone_unfitted() const override;
  const Hyperparams& hyperparams() const override { return params_; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  std::size_t tree_count() const noexcept { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const noexcept { return trees_; }

  /// Gain-weighted feature importance, normalized to sum 1 (all zeros if the
  /// forest never split).
  std::vector<double> feature_importance() const;

  /// BinnedFitSupport: reuse a precomputed binning of the next fit matrix.
  void set_shared_bins(
      std::shared_ptr<const data::BinnedMatrix> bins) override {
    shared_bins_ = std::move(bins);
  }

  /// CompiledInference: flatten the fitted forest; fit()/load_state()
  /// invalidate the compiled form.
  bool compile() override;
  const FlatForest* flat() const noexcept override { return flat_.get(); }

 private:
  Hyperparams params_;
  std::vector<RegressionTree> trees_;
  std::size_t n_features_ = 0;
  std::shared_ptr<const data::BinnedMatrix> shared_bins_;
  std::shared_ptr<const FlatForest> flat_;
};

}  // namespace mfpa::ml
