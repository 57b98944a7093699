// Compiled inference representation for the tree ensembles.
//
// A trained RF/GBDT walks per-tree `std::vector<TreeNode>` arrays whose
// 56-byte nodes scatter the fields the hot loop needs (feature, threshold,
// children) across cache lines, and visits the trees row-by-row so no tree
// stays resident. FlatForest flattens the whole ensemble once into
// structure-of-arrays node storage (16 bytes per node in total):
//
//   feat_[n]  int32   split feature, < 0 marks a leaf
//   thr_[n]   double  split threshold — or the leaf value when feat_[n] < 0
//   left_[n]  int32   absolute index of the left child; children are laid
//                     out adjacently, so the right child is left_[n] + 1
//                     (leaves point at themselves)
//   fl_[n]    uint64  (feat_[n], left_[n]) packed little-endian — feat in
//                     the low dword, left in the high dword
//
// fl_ is redundant with feat_/left_; it exists for the vector kernels,
// whose descend is load-bound (x, thr, node metadata, every level). The
// packed pair fetches feature AND child base as ONE 8-byte gather lane —
// 3 loads per row per level versus the scalar kernel's 4.
//
// Nodes are breadth-first per tree, so the top levels every row traverses
// sit contiguously, and scoring iterates trees in the *outer* loop over a
// block of rows: one tree's arrays stay cache-resident while the whole
// block walks it, and eight rows step in lockstep so eight independent
// compare/descend chains overlap in flight (see accumulate_range).
//
// Equivalence contract: for every row the accumulator applies the exact
// operation sequence of the node-pointer path — tree-order additions,
// per-term scaling, identical descend predicate (x <= thr takes the left
// child; a NaN comparison is false, so NaN takes the right child, exactly
// like RegressionTree::predict_row) — so compiled probabilities are
// bit-identical to the uncompiled ones, and every serving-parity and
// alert-equality contract holds with compilation on or off.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.hpp"

namespace mfpa::ml {

class RegressionTree;

/// Numerically stable logistic shared by the GBDT pointer path and the
/// compiled path — a single definition keeps the two bit-identical.
inline double stable_sigmoid(double z) noexcept {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// Flattened, immutable ensemble. Cheap to move; thread-safe to share.
class FlatForest {
 public:
  /// How per-row tree sums become probabilities.
  enum class Output {
    kMeanClamp,  ///< clamp(sum / n_trees, 0, 1) — random forest
    kSigmoid,    ///< sigmoid(base + sum) — boosted trees
  };

  FlatForest() = default;

  /// Flattens fitted trees. `per_tree_scale` multiplies every leaf
  /// contribution (1 for RF, learning_rate for GBDT) and `base` seeds the
  /// accumulator (0 for RF, the log-odds prior for GBDT). Throws
  /// std::invalid_argument on an empty or unfitted ensemble.
  static FlatForest compile(std::span<const RegressionTree> trees,
                            Output output, double per_tree_scale,
                            double base);

  bool empty() const noexcept { return roots_.empty(); }
  std::size_t tree_count() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return feat_.size(); }

  /// Scores every row of X into out (out.size() == X.rows()).
  /// `threads` follows the library convention (0 = hardware, <=1 serial);
  /// parallelism splits rows into contiguous blocks, so results are
  /// bit-identical for every thread count (and to the pointer path).
  void predict_into(const data::Matrix& X, std::span<double> out,
                    std::size_t threads = 1) const;

 private:
  std::vector<std::int32_t> feat_;
  std::vector<double> thr_;
  std::vector<std::int32_t> left_;
  std::vector<std::uint64_t> fl_;  ///< packed (feat, left) for the kernels
  std::vector<std::int32_t> roots_;  ///< per-tree root node index
  Output output_ = Output::kMeanClamp;
  double per_tree_scale_ = 1.0;
  double base_ = 0.0;
  double inv_trees_ = 0.0;  ///< 1 / tree_count (kMeanClamp finisher)

  /// Adds every tree's contribution for rows [row_lo, row_hi) into acc
  /// (indexed from row_lo; caller seeds it): the AVX2 kernel over the
  /// range's whole 24-row groups when it is active, the scalar kernel over
  /// the rest.
  void accumulate_range(const data::Matrix& X, std::size_t row_lo,
                        std::size_t row_hi, double* acc) const;

  /// Applies the output transform to acc into out for rows [lo, hi).
  void finish_range(const double* acc, std::span<double> out, std::size_t lo,
                    std::size_t hi) const;
};

/// Capability interface for classifiers that can compile their fitted
/// ensemble into a FlatForest (mirrors BinnedFitSupport): the serving tier
/// probes with dynamic_cast at model-activation time and compiles whatever
/// supports it, so hot-swapped models always serve from the flat format.
class CompiledInference {
 public:
  virtual ~CompiledInference() = default;

  /// Builds (or rebuilds) the compiled representation from the fitted
  /// ensemble; returns false when there is nothing to compile yet.
  /// After a successful compile, predict_proba serves from the flat format
  /// until the next fit()/load_state() invalidates it.
  virtual bool compile() = 0;

  /// The compiled representation, or nullptr when not compiled.
  virtual const FlatForest* flat() const noexcept = 0;
};

}  // namespace mfpa::ml
