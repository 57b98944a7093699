#include "ml/gbdt.hpp"

#include "ml/serialize.hpp"

#include <istream>
#include <ostream>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "data/binned_matrix.hpp"

namespace mfpa::ml {

// The logistic lives in flat_forest.hpp (stable_sigmoid) so the pointer and
// compiled paths share one definition and stay bit-identical.

GbdtClassifier::GbdtClassifier(Hyperparams params) : params_(std::move(params)) {}

void GbdtClassifier::fit(const Matrix& X, const std::vector<int>& y) {
  validate_fit_args(X, y);
  flat_.reset();  // the compiled form derives from the trees being replaced
  const std::size_t n_rounds =
      static_cast<std::size_t>(param_or(params_, "n_rounds", 80));
  learning_rate_ = param_or(params_, "learning_rate", 0.2);
  const double subsample = std::clamp(param_or(params_, "subsample", 0.9), 0.1, 1.0);
  const auto seed = static_cast<std::uint64_t>(param_or(params_, "seed", 1));
  const std::size_t threads =
      static_cast<std::size_t>(param_or(params_, "threads", 1));

  TreeParams tp;
  tp.max_depth = static_cast<int>(param_or(params_, "max_depth", 5));
  tp.min_samples_split =
      static_cast<std::size_t>(param_or(params_, "min_samples_split", 16));
  tp.min_samples_leaf =
      static_cast<std::size_t>(param_or(params_, "min_samples_leaf", 8));
  tp.max_features = static_cast<int>(param_or(params_, "max_features", -1));
  tp.lambda = param_or(params_, "lambda", 1.0);
  tp.split_method = param_or(params_, "split_method", 1) != 0
                        ? SplitMethod::kHist
                        : SplitMethod::kExact;
  tp.max_bins = static_cast<std::size_t>(
      std::clamp(param_or(params_, "max_bins", 255.0), 2.0, 255.0));

  const std::size_t n = X.rows();
  n_features_ = X.cols();

  // Bin once, share across every boosting round (and fits, via shared bins).
  std::shared_ptr<const data::BinnedMatrix> bins;
  if (tp.split_method == SplitMethod::kHist) {
    if (shared_bins_ && shared_bins_->rows() == X.rows() &&
        shared_bins_->cols() == X.cols()) {
      bins = shared_bins_;
    } else {
      bins = std::make_shared<data::BinnedMatrix>(X, tp.max_bins);
    }
  }

  // Log-odds prior.
  const double pos =
      static_cast<double>(std::count(y.begin(), y.end(), 1));
  const double p0 = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(p0 / (1.0 - p0));

  std::vector<double> raw(n, base_score_);
  std::vector<double> grad(n), hess(n);
  trees_.clear();
  trees_.reserve(n_rounds);
  Rng rng(seed);

  for (std::size_t round = 0; round < n_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = stable_sigmoid(raw[i]);
      grad[i] = static_cast<double>(y[i]) - p;  // negative gradient of BCE
      hess[i] = std::max(p * (1.0 - p), 1e-12);
    }
    std::vector<std::size_t> rows;
    if (subsample < 1.0) {
      rows.reserve(static_cast<std::size_t>(static_cast<double>(n) * subsample) + 1);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(subsample)) rows.push_back(i);
      }
      if (rows.empty()) rows.push_back(0);
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }
    RegressionTree tree(tp);
    Rng tree_rng = rng.split(round + 1);
    if (bins) {
      tree.fit(*bins, grad, hess, rows, tree_rng);
    } else {
      tree.fit(X, grad, hess, rows, tree_rng);
    }
    parallel_for_blocks(n, threads, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        raw[i] += learning_rate_ * tree.predict_row(X.row(i));
      }
    });
    trees_.push_back(std::move(tree));
  }
}

double GbdtClassifier::raw_score_row(std::span<const double> row) const {
  double s = base_score_;
  for (const auto& tree : trees_) s += learning_rate_ * tree.predict_row(row);
  return s;
}

std::vector<double> GbdtClassifier::predict_proba(const Matrix& X) const {
  if (trees_.empty()) throw std::logic_error("GbdtClassifier: predict before fit");
  const std::size_t threads =
      static_cast<std::size_t>(param_or(params_, "threads", 1));
  if (flat_) {
    // Compiled path: bit-identical to the loop below (see flat_forest.hpp).
    std::vector<double> compiled(X.rows());
    flat_->predict_into(X, compiled, threads);
    return compiled;
  }
  std::vector<double> out(X.rows());
  parallel_for_blocks(X.rows(), threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      out[r] = stable_sigmoid(raw_score_row(X.row(r)));
    }
  });
  return out;
}

std::unique_ptr<Classifier> GbdtClassifier::clone_unfitted() const {
  return std::make_unique<GbdtClassifier>(params_);
}

void GbdtClassifier::save_state(std::ostream& os) const {
  if (trees_.empty()) throw std::logic_error("GbdtClassifier: save before fit");
  os << "boost " << trees_.size() << ' ' << n_features_ << ' ';
  io::write_double(os, base_score_);
  io::write_double(os, learning_rate_);
  os << '\n';
  for (const auto& tree : trees_) tree.save(os);
}

void GbdtClassifier::load_state(std::istream& is) {
  io::expect_token(is, "boost");
  std::size_t count = 0;
  if (!(is >> count >> n_features_) || count == 0 || count > 100000) {
    throw std::runtime_error("GbdtClassifier: bad boost header");
  }
  base_score_ = io::read_double(is);
  learning_rate_ = io::read_double(is);
  flat_.reset();
  trees_.assign(count, RegressionTree{});
  for (auto& tree : trees_) tree.load(is);
}

bool GbdtClassifier::compile() {
  if (trees_.empty()) return false;
  flat_ = std::make_shared<const FlatForest>(FlatForest::compile(
      trees_, FlatForest::Output::kSigmoid, learning_rate_, base_score_));
  return true;
}

}  // namespace mfpa::ml
