// Gradient-boosted decision trees with logistic loss and Newton leaf values
// (XGBoost-style second-order boosting; histogram splits by default).
#pragma once

#include "ml/binned_support.hpp"
#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model.hpp"

#include <memory>
#include <vector>

namespace mfpa::ml {

/// Hyperparams: "n_rounds" (80), "learning_rate" (0.2), "max_depth" (5),
/// "min_samples_leaf" (8), "lambda" (1.0), "subsample" (0.9), "seed" (1),
/// "threads" (1; 0 = hardware, parallelizes per-round score updates and
/// predict_proba over rows, thread-count-invariant), "split_method"
/// (0 = exact, 1 = hist; default 1), "max_bins" (255). With the hist path
/// the feature matrix is binned once per fit and shared by every round.
/// After compile(), predict_proba serves bit-identical probabilities from
/// the flattened ensemble (see ml/flat_forest.hpp).
class GbdtClassifier final : public Classifier,
                             public BinnedFitSupport,
                             public CompiledInference {
 public:
  explicit GbdtClassifier(Hyperparams params = {});

  void fit(const Matrix& X, const std::vector<int>& y) override;
  std::vector<double> predict_proba(const Matrix& X) const override;
  std::string name() const override { return "GBDT"; }
  std::unique_ptr<Classifier> clone_unfitted() const override;
  const Hyperparams& hyperparams() const override { return params_; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  std::size_t round_count() const noexcept { return trees_.size(); }

  /// BinnedFitSupport: reuse a precomputed binning of the next fit matrix.
  void set_shared_bins(
      std::shared_ptr<const data::BinnedMatrix> bins) override {
    shared_bins_ = std::move(bins);
  }

  /// CompiledInference: flatten the fitted booster; fit()/load_state()
  /// invalidate the compiled form.
  bool compile() override;
  const FlatForest* flat() const noexcept override { return flat_.get(); }

 private:
  Hyperparams params_;
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;  ///< log-odds prior
  double learning_rate_ = 0.2;
  std::size_t n_features_ = 0;
  std::shared_ptr<const data::BinnedMatrix> shared_bins_;
  std::shared_ptr<const FlatForest> flat_;

  double raw_score_row(std::span<const double> row) const;
};

}  // namespace mfpa::ml
