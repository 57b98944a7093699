#include "ml/random_forest.hpp"

#include "ml/serialize.hpp"

#include <istream>
#include <ostream>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "data/binned_matrix.hpp"

namespace mfpa::ml {

RandomForestClassifier::RandomForestClassifier(Hyperparams params)
    : params_(std::move(params)) {}

void RandomForestClassifier::fit(const Matrix& X, const std::vector<int>& y) {
  validate_fit_args(X, y);
  flat_.reset();  // the compiled form derives from the trees being replaced
  const std::size_t n_trees =
      static_cast<std::size_t>(param_or(params_, "n_trees", 60));
  const bool bootstrap = param_or(params_, "bootstrap", 1) != 0;
  const auto seed = static_cast<std::uint64_t>(param_or(params_, "seed", 1));
  const auto threads =
      static_cast<std::size_t>(param_or(params_, "threads", 1));

  TreeParams tp;
  tp.max_depth = static_cast<int>(param_or(params_, "max_depth", 14));
  tp.min_samples_split =
      static_cast<std::size_t>(param_or(params_, "min_samples_split", 2));
  tp.min_samples_leaf =
      static_cast<std::size_t>(param_or(params_, "min_samples_leaf", 1));
  tp.max_features = static_cast<int>(param_or(params_, "max_features", 0));
  tp.split_method = param_or(params_, "split_method", 1) != 0
                        ? SplitMethod::kHist
                        : SplitMethod::kExact;
  tp.max_bins = static_cast<std::size_t>(
      std::clamp(param_or(params_, "max_bins", 255.0), 2.0, 255.0));

  const std::size_t n = X.rows();
  n_features_ = X.cols();
  std::vector<double> targets(y.begin(), y.end());
  trees_.assign(n_trees, RegressionTree(tp));

  // Bin once, share across every tree (and across fits, via shared bins).
  std::shared_ptr<const data::BinnedMatrix> bins;
  if (tp.split_method == SplitMethod::kHist) {
    if (shared_bins_ && shared_bins_->rows() == X.rows() &&
        shared_bins_->cols() == X.cols()) {
      bins = shared_bins_;
    } else {
      bins = std::make_shared<data::BinnedMatrix>(X, tp.max_bins);
    }
  }

  const Rng base(seed);
  auto fit_tree = [&](std::size_t t) {
    Rng rng = base.split(t + 1);
    std::vector<std::size_t> rows(n);
    if (bootstrap) {
      for (auto& r : rows) {
        r = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      }
    } else {
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }
    if (bins) {
      trees_[t].fit(*bins, targets, {}, rows, rng);
    } else {
      trees_[t].fit(X, targets, {}, rows, rng);
    }
  };

  parallel_for_each(n_trees, threads, fit_tree);
}

std::vector<double> RandomForestClassifier::predict_proba(const Matrix& X) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForestClassifier: predict before fit");
  }
  const std::size_t threads =
      static_cast<std::size_t>(param_or(params_, "threads", 1));
  if (flat_) {
    // Compiled path: bit-identical to the loop below (see flat_forest.hpp).
    std::vector<double> out(X.rows());
    flat_->predict_into(X, out, threads);
    return out;
  }
  std::vector<double> out(X.rows(), 0.0);
  const double inv = 1.0 / static_cast<double>(trees_.size());
  // Row-parallel, tree-order summation per row: the per-row result is a sum
  // in a fixed order regardless of thread count.
  parallel_for_blocks(X.rows(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const auto row = X.row(r);
      double acc = 0.0;
      for (const auto& tree : trees_) acc += tree.predict_row(row);
      out[r] = std::clamp(acc * inv, 0.0, 1.0);
    }
  });
  return out;
}

std::unique_ptr<Classifier> RandomForestClassifier::clone_unfitted() const {
  return std::make_unique<RandomForestClassifier>(params_);
}

void RandomForestClassifier::save_state(std::ostream& os) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForestClassifier: save before fit");
  }
  os << "forest " << trees_.size() << ' ' << n_features_ << '\n';
  for (const auto& tree : trees_) tree.save(os);
}

void RandomForestClassifier::load_state(std::istream& is) {
  io::expect_token(is, "forest");
  std::size_t count = 0;
  if (!(is >> count >> n_features_) || count == 0 || count > 100000) {
    throw std::runtime_error("RandomForestClassifier: bad forest header");
  }
  flat_.reset();
  trees_.assign(count, RegressionTree{});
  for (auto& tree : trees_) tree.load(is);
}

bool RandomForestClassifier::compile() {
  if (trees_.empty()) return false;
  flat_ = std::make_shared<const FlatForest>(FlatForest::compile(
      trees_, FlatForest::Output::kMeanClamp, 1.0, 0.0));
  return true;
}

std::vector<double> RandomForestClassifier::feature_importance() const {
  std::vector<double> out(n_features_, 0.0);
  for (const auto& tree : trees_) tree.accumulate_importance(out);
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : out) v /= total;
  }
  return out;
}

}  // namespace mfpa::ml
