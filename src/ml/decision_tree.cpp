#include "ml/decision_tree.hpp"

#include "data/binned_matrix.hpp"
#include "ml/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

namespace mfpa::ml {
namespace {

double leaf_value(double g, double h, double lambda) noexcept {
  const double denom = h + lambda;
  return denom > 1e-12 ? g / denom : 0.0;
}

double score(double g, double h, double lambda) noexcept {
  const double denom = h + lambda;
  return denom > 1e-12 ? g * g / denom : 0.0;
}

}  // namespace

struct RegressionTree::BuildContext {
  const data::Matrix* X = nullptr;
  std::span<const double> grad;
  std::span<const double> hess;  // empty => all ones
  Rng* rng = nullptr;
  std::size_t n_candidate_features = 0;
  // Workspace reused across nodes.
  std::vector<std::pair<double, std::size_t>> sorted;  // (value, row)

  double h_of(std::size_t row) const noexcept {
    return hess.empty() ? 1.0 : hess[row];
  }
};

void RegressionTree::fit(const data::Matrix& X, std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows, Rng& rng) {
  if (grad.size() != X.rows()) {
    throw std::invalid_argument("RegressionTree::fit: grad size mismatch");
  }
  if (!hess.empty() && hess.size() != X.rows()) {
    throw std::invalid_argument("RegressionTree::fit: hess size mismatch");
  }
  if (rows.empty()) {
    throw std::invalid_argument("RegressionTree::fit: empty row set");
  }
  if (params_.split_method == SplitMethod::kHist) {
    fit(data::BinnedMatrix(X, params_.max_bins), grad, hess, rows, rng);
    return;
  }
  nodes_.clear();
  BuildContext ctx;
  ctx.X = &X;
  ctx.grad = grad;
  ctx.hess = hess;
  ctx.rng = &rng;
  const std::size_t d = X.cols();
  if (params_.max_features < 0) {
    ctx.n_candidate_features = d;
  } else if (params_.max_features == 0) {
    ctx.n_candidate_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(d))));
  } else {
    ctx.n_candidate_features =
        std::min<std::size_t>(d, static_cast<std::size_t>(params_.max_features));
  }
  std::vector<std::size_t> row_copy(rows.begin(), rows.end());
  build_node(ctx, row_copy, params_.max_depth);
}

int RegressionTree::build_node(BuildContext& ctx, std::vector<std::size_t>& rows,
                               int depth_left) {
  const data::Matrix& X = *ctx.X;
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t r : rows) {
    g_total += ctx.grad[r];
    h_total += ctx.h_of(r);
  }

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].samples = rows.size();
  nodes_[node_id].value = leaf_value(g_total, h_total, params_.lambda);

  if (depth_left <= 0 || rows.size() < params_.min_samples_split) {
    return node_id;
  }

  // Candidate features: all, or a random subset (random forests).
  const std::size_t d = X.cols();
  std::vector<std::size_t> features;
  if (ctx.n_candidate_features >= d) {
    features.resize(d);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    features = ctx.rng->sample_without_replacement(d, ctx.n_candidate_features);
  }

  const double parent_score = score(g_total, h_total, params_.lambda);
  double best_gain = params_.min_gain;
  int best_feature = -1;
  double best_threshold = 0.0;

  auto& sorted = ctx.sorted;
  for (std::size_t f : features) {
    sorted.clear();
    sorted.reserve(rows.size());
    for (std::size_t r : rows) sorted.emplace_back(X(r, f), r);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;  // constant

    double g_left = 0.0, h_left = 0.0;
    std::size_t n_left = 0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const std::size_t r = sorted[i].second;
      g_left += ctx.grad[r];
      h_left += ctx.h_of(r);
      ++n_left;
      if (sorted[i].first == sorted[i + 1].first) continue;  // no cut in ties
      const std::size_t n_right = sorted.size() - n_left;
      if (n_left < params_.min_samples_leaf || n_right < params_.min_samples_leaf) {
        continue;
      }
      const double gain = score(g_left, h_left, params_.lambda) +
                          score(g_total - g_left, h_total - h_left,
                                params_.lambda) -
                          parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (std::size_t r : rows) {
    (X(r, static_cast<std::size_t>(best_feature)) <= best_threshold
         ? left_rows
         : right_rows)
        .push_back(r);
  }
  // Numerical safety: a degenerate partition would recurse forever.
  if (left_rows.empty() || right_rows.empty()) return node_id;

  rows.clear();
  rows.shrink_to_fit();  // free before recursing

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  nodes_[node_id].gain = best_gain;
  const int left = build_node(ctx, left_rows, depth_left - 1);
  nodes_[node_id].left = left;
  const int right = build_node(ctx, right_rows, depth_left - 1);
  nodes_[node_id].right = right;
  return node_id;
}

/// One (sum grad, sum hess, count) accumulator cell of a node histogram.
struct RegressionTree::HistBin {
  double g = 0.0;
  double h = 0.0;
  std::size_t n = 0;
};

struct RegressionTree::HistContext {
  const data::BinnedMatrix* bins = nullptr;
  std::span<const double> grad;
  std::span<const double> hess;  // empty => all ones
  Rng* rng = nullptr;
  std::size_t n_candidate_features = 0;
  /// All features histogrammed per node => the sibling-subtraction trick is
  /// valid. With per-node feature subsampling (random forests) the child's
  /// candidate set differs from the parent's, so each node builds directly.
  bool subtraction = false;
  std::vector<std::size_t> offset;  ///< per-feature slot into a node histogram
  std::size_t total_bins = 0;
  std::vector<std::vector<HistBin>> pool;  ///< released node histograms

  double h_of(std::size_t row) const noexcept {
    return hess.empty() ? 1.0 : hess[row];
  }

  /// Buffer of total_bins cells; zeroed only when `zeroed` (direct-build
  /// nodes clear just the feature ranges they touch).
  std::vector<HistBin> acquire(bool zeroed) {
    std::vector<HistBin> out;
    if (!pool.empty()) {
      out = std::move(pool.back());
      pool.pop_back();
      if (zeroed) std::fill(out.begin(), out.end(), HistBin{});
    } else {
      out.assign(total_bins, HistBin{});
    }
    return out;
  }

  void release(std::vector<HistBin>&& v) { pool.push_back(std::move(v)); }

  /// Accumulates feature f over `rows` into `hist` (range must be zeroed).
  void add_feature(std::span<const std::size_t> rows, std::size_t f,
                   std::vector<HistBin>& hist) const {
    const std::uint8_t* code = bins->column(f);
    HistBin* cell = hist.data() + offset[f];
    if (hess.empty()) {
      for (std::size_t r : rows) {
        HistBin& b = cell[code[r]];
        b.g += grad[r];
        b.h += 1.0;
        ++b.n;
      }
    } else {
      for (std::size_t r : rows) {
        HistBin& b = cell[code[r]];
        b.g += grad[r];
        b.h += hess[r];
        ++b.n;
      }
    }
  }

  void add_all_features(std::span<const std::size_t> rows,
                        std::vector<HistBin>& hist) const {
    for (std::size_t f = 0; f < bins->cols(); ++f) add_feature(rows, f, hist);
  }
};

void RegressionTree::fit(const data::BinnedMatrix& bins,
                         std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows, Rng& rng) {
  if (grad.size() != bins.rows()) {
    throw std::invalid_argument("RegressionTree::fit: grad size mismatch");
  }
  if (!hess.empty() && hess.size() != bins.rows()) {
    throw std::invalid_argument("RegressionTree::fit: hess size mismatch");
  }
  if (rows.empty()) {
    throw std::invalid_argument("RegressionTree::fit: empty row set");
  }
  nodes_.clear();
  HistContext ctx;
  ctx.bins = &bins;
  ctx.grad = grad;
  ctx.hess = hess;
  ctx.rng = &rng;
  const std::size_t d = bins.cols();
  if (params_.max_features < 0) {
    ctx.n_candidate_features = d;
  } else if (params_.max_features == 0) {
    ctx.n_candidate_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(d))));
  } else {
    ctx.n_candidate_features =
        std::min<std::size_t>(d, static_cast<std::size_t>(params_.max_features));
  }
  ctx.subtraction = ctx.n_candidate_features >= d;
  ctx.offset.resize(d);
  std::size_t total = 0;
  for (std::size_t f = 0; f < d; ++f) {
    ctx.offset[f] = total;
    total += bins.n_bins(f);
  }
  ctx.total_bins = total;
  std::vector<std::size_t> row_copy(rows.begin(), rows.end());
  build_node_hist(ctx, row_copy, params_.max_depth, {});
}

int RegressionTree::build_node_hist(HistContext& ctx,
                                    std::vector<std::size_t>& rows,
                                    int depth_left,
                                    std::vector<HistBin> hist) {
  const data::BinnedMatrix& bins = *ctx.bins;
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t r : rows) {
    g_total += ctx.grad[r];
    h_total += ctx.h_of(r);
  }

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].samples = rows.size();
  nodes_[node_id].value = leaf_value(g_total, h_total, params_.lambda);

  if (depth_left <= 0 || rows.size() < params_.min_samples_split) {
    if (!hist.empty()) ctx.release(std::move(hist));
    return node_id;
  }

  const std::size_t d = bins.cols();
  std::vector<std::size_t> features;
  if (ctx.n_candidate_features >= d) {
    features.resize(d);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    features = ctx.rng->sample_without_replacement(d, ctx.n_candidate_features);
  }

  if (hist.empty()) {
    if (ctx.subtraction) {
      hist = ctx.acquire(true);
      ctx.add_all_features(rows, hist);
    } else {
      hist = ctx.acquire(false);
      for (std::size_t f : features) {
        std::fill_n(hist.begin() + static_cast<std::ptrdiff_t>(ctx.offset[f]),
                    bins.n_bins(f), HistBin{});
        ctx.add_feature(rows, f, hist);
      }
    }
  }

  const double parent_score = score(g_total, h_total, params_.lambda);
  double best_gain = params_.min_gain;
  int best_feature = -1;
  int best_bin = -1;

  for (std::size_t f : features) {
    const std::size_t n_cuts = bins.cuts(f).size();
    if (n_cuts == 0) continue;  // constant feature
    const HistBin* cell = hist.data() + ctx.offset[f];
    double g_left = 0.0, h_left = 0.0;
    std::size_t n_left = 0;
    for (std::size_t b = 0; b < n_cuts; ++b) {
      g_left += cell[b].g;
      h_left += cell[b].h;
      n_left += cell[b].n;
      const std::size_t n_right = rows.size() - n_left;
      if (n_left < params_.min_samples_leaf ||
          n_right < params_.min_samples_leaf) {
        continue;
      }
      const double gain = score(g_left, h_left, params_.lambda) +
                          score(g_total - g_left, h_total - h_left,
                                params_.lambda) -
                          parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_bin = static_cast<int>(b);
      }
    }
  }

  if (best_feature < 0) {
    ctx.release(std::move(hist));
    return node_id;
  }

  const std::uint8_t* code = bins.column(static_cast<std::size_t>(best_feature));
  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (std::size_t r : rows) {
    (code[r] <= best_bin ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) {
    ctx.release(std::move(hist));
    return node_id;
  }

  rows.clear();
  rows.shrink_to_fit();  // free before recursing

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = bins.cut(static_cast<std::size_t>(best_feature),
                                       static_cast<std::size_t>(best_bin));
  nodes_[node_id].gain = best_gain;

  // Sibling subtraction: build the smaller child's histogram from its rows,
  // then turn the parent's buffer into the larger child's in place.
  std::vector<HistBin> left_hist, right_hist;
  if (ctx.subtraction) {
    const bool left_small = left_rows.size() <= right_rows.size();
    std::vector<HistBin> small_hist = ctx.acquire(true);
    ctx.add_all_features(left_small ? left_rows : right_rows, small_hist);
    for (std::size_t i = 0; i < ctx.total_bins; ++i) {
      hist[i].g -= small_hist[i].g;
      hist[i].h -= small_hist[i].h;
      hist[i].n -= small_hist[i].n;
    }
    left_hist = left_small ? std::move(small_hist) : std::move(hist);
    right_hist = left_small ? std::move(hist) : std::move(small_hist);
  } else {
    ctx.release(std::move(hist));
  }

  const int left = build_node_hist(ctx, left_rows, depth_left - 1,
                                   std::move(left_hist));
  nodes_[node_id].left = left;
  const int right = build_node_hist(ctx, right_rows, depth_left - 1,
                                    std::move(right_hist));
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::predict_row(std::span<const double> row) const {
  if (nodes_.empty()) throw std::logic_error("RegressionTree: predict before fit");
  int id = 0;
  while (nodes_[static_cast<std::size_t>(id)].feature >= 0) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(id)];
    id = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                 : n.right;
  }
  return nodes_[static_cast<std::size_t>(id)].value;
}

std::vector<double> RegressionTree::predict(const data::Matrix& X) const {
  std::vector<double> out(X.rows());
  predict_into(X, out);
  return out;
}

void RegressionTree::predict_into(const data::Matrix& X,
                                  std::span<double> out) const {
  if (out.size() != X.rows()) {
    throw std::invalid_argument("RegressionTree::predict_into: size mismatch");
  }
  for (std::size_t r = 0; r < X.rows(); ++r) out[r] = predict_row(X.row(r));
}

int RegressionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the flat representation.
  std::vector<std::pair<int, int>> stack{{0, 1}};
  int max_depth = 0;
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const TreeNode& n = nodes_[static_cast<std::size_t>(id)];
    if (n.feature >= 0) {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

void RegressionTree::save(std::ostream& os) const {
  os << "tree " << nodes_.size() << '\n';
  char buf[96];
  for (const auto& n : nodes_) {
    std::snprintf(buf, sizeof(buf), "%d %.17g %d %d %.17g %.17g %zu\n",
                  n.feature, n.threshold, n.left, n.right, n.value, n.gain,
                  n.samples);
    os << buf;
  }
}

void RegressionTree::load(std::istream& is) {
  std::string token;
  if (!(is >> token) || token != "tree") {
    throw std::runtime_error("RegressionTree::load: missing 'tree' tag");
  }
  std::size_t count = 0;
  if (!(is >> count) || count > (1u << 26)) {
    throw std::runtime_error("RegressionTree::load: bad node count");
  }
  nodes_.assign(count, TreeNode{});
  for (auto& n : nodes_) {
    if (!(is >> n.feature >> n.threshold >> n.left >> n.right >> n.value >>
          n.gain >> n.samples)) {
      throw std::runtime_error("RegressionTree::load: malformed node");
    }
    const auto limit = static_cast<int>(count);
    if (n.feature >= 0 &&
        (n.left < 0 || n.left >= limit || n.right < 0 || n.right >= limit)) {
      throw std::runtime_error("RegressionTree::load: child index out of range");
    }
  }
}

void RegressionTree::accumulate_importance(std::vector<double>& out) const {
  for (const auto& n : nodes_) {
    if (n.feature >= 0 && static_cast<std::size_t>(n.feature) < out.size()) {
      out[static_cast<std::size_t>(n.feature)] += n.gain;
    }
  }
}

DecisionTreeClassifier::DecisionTreeClassifier(Hyperparams params)
    : params_(std::move(params)) {
  TreeParams tp;
  tp.max_depth = static_cast<int>(param_or(params_, "max_depth", 12));
  tp.min_samples_split =
      static_cast<std::size_t>(param_or(params_, "min_samples_split", 2));
  tp.min_samples_leaf =
      static_cast<std::size_t>(param_or(params_, "min_samples_leaf", 1));
  tp.max_features = static_cast<int>(param_or(params_, "max_features", -1));
  tp.split_method = param_or(params_, "split_method", 1) != 0
                        ? SplitMethod::kHist
                        : SplitMethod::kExact;
  tp.max_bins = static_cast<std::size_t>(
      std::clamp(param_or(params_, "max_bins", 255.0), 2.0, 255.0));
  tree_ = RegressionTree(tp);
}

void DecisionTreeClassifier::fit(const Matrix& X, const std::vector<int>& y) {
  validate_fit_args(X, y);
  std::vector<double> targets(y.begin(), y.end());
  std::vector<std::size_t> rows(X.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Rng rng(static_cast<std::uint64_t>(param_or(params_, "seed", 1)));
  tree_.fit(X, targets, {}, rows, rng);
}

std::vector<double> DecisionTreeClassifier::predict_proba(const Matrix& X) const {
  return tree_.predict(X);
}

std::unique_ptr<Classifier> DecisionTreeClassifier::clone_unfitted() const {
  return std::make_unique<DecisionTreeClassifier>(params_);
}

void DecisionTreeClassifier::save_state(std::ostream& os) const {
  if (!tree_.fitted()) {
    throw std::logic_error("DecisionTreeClassifier: save before fit");
  }
  tree_.save(os);
}

void DecisionTreeClassifier::load_state(std::istream& is) { tree_.load(is); }

}  // namespace mfpa::ml
