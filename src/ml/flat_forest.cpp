#include "ml/flat_forest.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"
#include "ml/decision_tree.hpp"
#include "ml/flat_forest_kernels.hpp"
#include "ml/simd.hpp"

namespace mfpa::ml {
namespace {

/// Rows per cache block: one tree's node arrays are fetched once per block,
/// so larger blocks amortize deep-tree traffic better as long as the
/// block's feature rows still fit beside the tree in cache.
constexpr std::size_t kRowBlock = 96;

/// Portable reference kernel (the original 8-row lockstep block); the
/// vector kernel in flat_forest_avx2.cpp transcribes exactly this operation
/// sequence onto lanes.
void accumulate_scalar(const detail::ForestView& forest, const double* x,
                       std::size_t cols, std::size_t row_lo,
                       std::size_t row_hi, std::size_t tree_lo,
                       std::size_t tree_hi, double* acc) {
  const std::int32_t* feat = forest.feat;
  const double* thr = forest.thr;
  const std::int32_t* left = forest.left;
  const double scale = forest.scale;
  // One branchless descend: !(x <= thr) sends NaN right, matching the
  // pointer path's `x <= thr ? left : right`; a lane already at a leaf
  // clamps its feature index to 0 (thr there holds the leaf value — the
  // comparison result is discarded) and keeps its node. The leaf select
  // uses sign-mask arithmetic rather than ternaries: ternaries here tempt
  // the compiler into emitting data-dependent skip branches, which
  // mispredict every time a lane reaches its leaf.
  const auto step = [feat, thr, left](std::int32_t n, std::int32_t f,
                                      const double* row) noexcept {
    const std::int32_t keep = f >> 31;  // all-ones at a leaf, else zero
    const std::int32_t idx = f & ~keep;
    const std::int32_t next =
        left[n] + static_cast<std::int32_t>(!(row[idx] <= thr[n]));
    return (n & keep) | (next & ~keep);
  };
  for (std::size_t t = tree_lo; t < tree_hi; ++t) {
    const std::int32_t root = forest.roots[t];
    const std::int32_t root_feat = feat[root];
    std::size_t r = row_lo;
    // Eight rows descend in lockstep: each lane's walk is a serial
    // load→compare→step chain of roughly L2 latency per level, so the only
    // way to keep the core busy is many independent chains in flight.
    // Eight lanes saturate the load ports without spilling the lane state.
    // The level loop is unrolled two levels deep — stepping a finished
    // lane is a no-op, so the all-leaves test only needs to run every
    // other level and its AND-reduce drops off the critical path.
    for (; r + 8 <= row_hi; r += 8) {
      const double* x0 = x + r * cols;
      const double* x1 = x + (r + 1) * cols;
      const double* x2 = x + (r + 2) * cols;
      const double* x3 = x + (r + 3) * cols;
      const double* x4 = x + (r + 4) * cols;
      const double* x5 = x + (r + 5) * cols;
      const double* x6 = x + (r + 6) * cols;
      const double* x7 = x + (r + 7) * cols;
      std::int32_t n0 = root, n1 = root, n2 = root, n3 = root;
      std::int32_t n4 = root, n5 = root, n6 = root, n7 = root;
      std::int32_t f0 = root_feat, f1 = root_feat, f2 = root_feat;
      std::int32_t f3 = root_feat, f4 = root_feat, f5 = root_feat;
      std::int32_t f6 = root_feat, f7 = root_feat;
      for (;;) {
        n0 = step(n0, f0, x0);
        n1 = step(n1, f1, x1);
        n2 = step(n2, f2, x2);
        n3 = step(n3, f3, x3);
        n4 = step(n4, f4, x4);
        n5 = step(n5, f5, x5);
        n6 = step(n6, f6, x6);
        n7 = step(n7, f7, x7);
        f0 = feat[n0];
        f1 = feat[n1];
        f2 = feat[n2];
        f3 = feat[n3];
        f4 = feat[n4];
        f5 = feat[n5];
        f6 = feat[n6];
        f7 = feat[n7];
        n0 = step(n0, f0, x0);
        n1 = step(n1, f1, x1);
        n2 = step(n2, f2, x2);
        n3 = step(n3, f3, x3);
        n4 = step(n4, f4, x4);
        n5 = step(n5, f5, x5);
        n6 = step(n6, f6, x6);
        n7 = step(n7, f7, x7);
        f0 = feat[n0];
        f1 = feat[n1];
        f2 = feat[n2];
        f3 = feat[n3];
        f4 = feat[n4];
        f5 = feat[n5];
        f6 = feat[n6];
        f7 = feat[n7];
        // A leaf's feature is -1, an internal node's is >= 0, so the AND
        // of the lanes' features has its sign bit set iff every lane has
        // reached a leaf.
        const std::int32_t pending =
            f0 & f1 & f2 & f3 & f4 & f5 & f6 & f7;
        if (pending < 0) break;
      }
      acc[r - row_lo + 0] += scale * thr[n0];
      acc[r - row_lo + 1] += scale * thr[n1];
      acc[r - row_lo + 2] += scale * thr[n2];
      acc[r - row_lo + 3] += scale * thr[n3];
      acc[r - row_lo + 4] += scale * thr[n4];
      acc[r - row_lo + 5] += scale * thr[n5];
      acc[r - row_lo + 6] += scale * thr[n6];
      acc[r - row_lo + 7] += scale * thr[n7];
    }
    for (; r < row_hi; ++r) {
      const double* row = x + r * cols;
      std::int32_t n = root;
      std::int32_t f = root_feat;
      while (f >= 0) {
        n = left[n] + static_cast<std::int32_t>(!(row[f] <= thr[n]));
        f = feat[n];
      }
      acc[r - row_lo] += scale * thr[n];
    }
  }
}

/// The AVX2 kernel when the active SIMD level selects it and it was built
/// in; nullptr otherwise.
detail::AccumulateFn avx2_kernel() {
  return active_simd_level() == SimdLevel::kAvx2
             ? detail::avx2_accumulate_kernel()
             : nullptr;
}

}  // namespace

FlatForest FlatForest::compile(std::span<const RegressionTree> trees,
                               Output output, double per_tree_scale,
                               double base) {
  if (trees.empty()) {
    throw std::invalid_argument("FlatForest::compile: empty ensemble");
  }
  std::size_t total = 0;
  for (const auto& tree : trees) {
    if (!tree.fitted()) {
      throw std::invalid_argument("FlatForest::compile: unfitted tree");
    }
    total += tree.nodes().size();
  }
  if (total > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument("FlatForest::compile: ensemble too large");
  }
  FlatForest out;
  out.output_ = output;
  out.per_tree_scale_ = per_tree_scale;
  out.base_ = base;
  out.inv_trees_ = 1.0 / static_cast<double>(trees.size());
  out.feat_.resize(total);
  out.thr_.resize(total);
  out.left_.resize(total);
  out.fl_.resize(total);
  out.roots_.reserve(trees.size());

  // Per tree: breadth-first renumbering with the two children of every
  // split allocated adjacently (right child = left child + 1, so no right_
  // array exists). The BFS pair queue doubles as the slot allocator.
  std::vector<std::pair<std::int32_t, std::int32_t>> queue;  // (src, dst)
  std::int32_t next = 0;
  for (const auto& tree : trees) {
    const auto& nodes = tree.nodes();
    out.roots_.push_back(next);
    queue.clear();
    queue.emplace_back(0, next++);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto [src, dst] = queue[head];
      const TreeNode& n = nodes[static_cast<std::size_t>(src)];
      if (n.feature < 0) {
        out.feat_[static_cast<std::size_t>(dst)] = -1;
        out.thr_[static_cast<std::size_t>(dst)] = n.value;
        out.left_[static_cast<std::size_t>(dst)] = dst;  // leaves self-loop
      } else {
        const std::int32_t l = next;
        next += 2;
        out.feat_[static_cast<std::size_t>(dst)] = n.feature;
        out.thr_[static_cast<std::size_t>(dst)] = n.threshold;
        out.left_[static_cast<std::size_t>(dst)] = l;
        queue.emplace_back(n.left, l);
        queue.emplace_back(n.right, l + 1);
      }
      out.fl_[static_cast<std::size_t>(dst)] =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               out.left_[static_cast<std::size_t>(dst)]))
           << 32) |
          static_cast<std::uint32_t>(out.feat_[static_cast<std::size_t>(dst)]);
    }
  }
  return out;
}

std::size_t FlatForest::bytes() const noexcept {
  return feat_.size() * sizeof(std::int32_t) + thr_.size() * sizeof(double) +
         left_.size() * sizeof(std::int32_t) +
         fl_.size() * sizeof(std::uint64_t) +
         roots_.size() * sizeof(std::int32_t);
}

void FlatForest::accumulate_range(const data::Matrix& X, std::size_t row_lo,
                                  std::size_t row_hi, double* acc) const {
  const detail::ForestView view{feat_.data(), thr_.data(), left_.data(),
                                fl_.data(),  roots_.data(), per_tree_scale_};
  const double* x = X.data().data();
  const std::size_t cols = X.cols();
  // Whole 24-row groups go to the vector kernel, the rest to the scalar
  // one. Each row is summed by exactly one kernel in tree order, so the
  // split never changes a probability.
  std::size_t split = row_lo;
  if (const auto avx2 = avx2_kernel()) {
    split += (row_hi - row_lo) / detail::kAvx2GroupRows *
             detail::kAvx2GroupRows;
    if (split > row_lo) {
      avx2(view, x, cols, row_lo, split, 0, roots_.size(), acc);
    }
  }
  if (split < row_hi) {
    accumulate_scalar(view, x, cols, split, row_hi, 0, roots_.size(),
                      acc + (split - row_lo));
  }
}

void FlatForest::finish_range(const double* acc, std::span<double> out,
                              std::size_t lo, std::size_t hi) const {
  if (output_ == Output::kMeanClamp) {
    for (std::size_t r = lo; r < hi; ++r) {
      out[r] = std::clamp(acc[r - lo] * inv_trees_, 0.0, 1.0);
    }
  } else {
    for (std::size_t r = lo; r < hi; ++r) {
      out[r] = stable_sigmoid(acc[r - lo]);
    }
  }
}

void FlatForest::predict_into(const data::Matrix& X, std::span<double> out,
                              std::size_t threads) const {
  if (empty()) {
    throw std::logic_error("FlatForest: predict on an empty forest");
  }
  if (out.size() != X.rows()) {
    throw std::invalid_argument("FlatForest::predict_into: size mismatch");
  }
  parallel_for_blocks(X.rows(), threads, [&](std::size_t lo, std::size_t hi) {
    double acc[kRowBlock];
    for (std::size_t block = lo; block < hi; block += kRowBlock) {
      const std::size_t block_hi = std::min(block + kRowBlock, hi);
      std::fill(acc, acc + (block_hi - block), base_);
      accumulate_range(X, block, block_hi, acc);
      finish_range(acc, out, block, block_hi);
    }
  });
}

std::vector<double> FlatForest::predict(const data::Matrix& X,
                                        std::size_t threads) const {
  std::vector<double> out(X.rows());
  predict_into(X, out, threads);
  return out;
}

}  // namespace mfpa::ml
