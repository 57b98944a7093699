// AVX2 build of the FlatForest descend kernel (see flat_forest_kernels.hpp
// for the contract). This translation unit is compiled with -mavx2 (and
// -ffp-contract=off, so the separate multiply/add of leaf accumulation can
// never be fused into an FMA that would break bit-identity); nothing in it
// is reachable unless the runtime cpuid probe in ml/simd.cpp reported AVX2.
//
// Lane mapping: FOUR rows per 64-bit-lane group, not eight per 32-bit
// lane. The whole lane state — node index, and the node's packed
// (feat, left) pair from fl_ — lives in 64-bit lanes, which makes every
// descend level exactly three gathers and a handful of cheap ALU ops:
//
//   keep = (pair << 32) <s 0            leaf mask from feat's sign bit
//   xv   = i64gather_pd(x, rowoff + feat)        the lanes' split values
//   th   = i64gather_pd(thr, n)
//   le   = cmp_pd(xv, th, LE_OQ)        NaN lanes false -> right child
//   n    = blend(( pair >> 32 ) + 1 + le, n, keep)
//   pair = i64gather_epi64(fl, n)
//
// This shape is load-budget driven: the descend is bound on its loads
// (x, thr, node metadata, every level). The packed pair fetches feature
// and child base as ONE 8-byte lane — 3 loads per row per level versus
// the scalar kernel's 4 — and the 64-bit layout needs none of the
// dword-narrowing shuffles an 8-lane formulation pays for its masks and
// unpacking (they were the port-5 bottleneck of that variant). The
// compare itself is the vector transcription of the scalar kernel's
// `!(x <= thr)` step, so predictions stay bit-identical.
//
// Six groups (24 rows) run interleaved so six independent gather chains
// are in flight per level — a single chain is latency-bound on its
// dependent gather sequence, and loses to the scalar kernel's 8-row
// lockstep. So the kernel takes whole 24-row groups only, and the caller
// hands the rest of a block to the scalar kernel. Groups retire
// individually: with deep trees, adjacent 4-row groups finish at very
// different levels, and a finished group stepping along to the slowest one
// would burn its gathers on self-looping lanes.
#include "ml/flat_forest_kernels.hpp"

#if defined(__AVX2__) && !defined(MFPA_FORCE_SCALAR)

#include <immintrin.h>

namespace mfpa::ml::detail {
namespace {

/// Lane state of one 4-row group: node indices, the nodes' packed
/// (feat, left) pairs, and the element offsets of the four rows.
struct LaneGroup {
  __m256i n;
  __m256i p;
  __m256i rowoff;
};

inline LaneGroup make_group(std::int64_t root, std::uint64_t root_pair,
                            std::int64_t base, std::int64_t icols) noexcept {
  LaneGroup g;
  g.n = _mm256_set1_epi64x(root);
  g.p = _mm256_set1_epi64x(static_cast<long long>(root_pair));
  g.rowoff = _mm256_add_epi64(
      _mm256_set1_epi64x(base),
      _mm256_setr_epi64x(0, icols, 2 * icols, 3 * icols));
  return g;
}

/// True when every lane of the group sits on a leaf: the pair's feat dword
/// is negative, i.e. bit 31 of the lane — bit 63 after the shift.
inline bool all_leaves(const LaneGroup& g) noexcept {
  return _mm256_movemask_pd(
             _mm256_castsi256_pd(_mm256_slli_epi64(g.p, 32))) == 0xF;
}

/// One descend level for one group. Leaf lanes clamp their gather index to
/// 0 and keep their node via the blend — the discarded compare on whatever
/// thr[n] holds (the leaf value) mirrors the scalar kernel.
inline void step(LaneGroup& g, const double* x, const std::uint64_t* fl,
                 const double* thr) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi64x(-1);
  // feat sign bit -> full-lane leaf mask (no 64-bit arithmetic shift in
  // AVX2; shift feat's dword up and compare against zero instead).
  const __m256i keep = _mm256_cmpgt_epi64(zero, _mm256_slli_epi64(g.p, 32));
  // Live lanes: low dword is feat >= 0 (high bits cleared by the mask);
  // leaf lanes: clamped to 0.
  const __m256i idx = _mm256_andnot_si256(
      keep, _mm256_and_si256(g.p, _mm256_set1_epi64x(0x7fffffff)));
  const __m256i off = _mm256_add_epi64(g.rowoff, idx);
  const __m256d xv =
      _mm256_mask_i64gather_pd(_mm256_setzero_pd(), x, off,
                               _mm256_castsi256_pd(ones), 8);
  const __m256d th =
      _mm256_mask_i64gather_pd(_mm256_setzero_pd(), thr, g.n,
                               _mm256_castsi256_pd(ones), 8);
  // Ordered <=: NaN lanes produce zero (false) and descend right.
  const __m256i le = _mm256_castpd_si256(_mm256_cmp_pd(xv, th, _CMP_LE_OQ));
  // next = left + (le ? 0 : 1) — left is the pair's high dword; adding the
  // -1/0 mask plus one turns the compare into the child select.
  const __m256i next = _mm256_add_epi64(
      _mm256_srli_epi64(g.p, 32),
      _mm256_add_epi64(_mm256_and_si256(ones, le), _mm256_set1_epi64x(1)));
  // keep is all-ones or all-zero per lane, so the byte blend is lane-exact:
  // leaf lanes self-loop, live lanes advance.
  g.n = _mm256_blendv_epi8(next, g.n, keep);
  // One 8-byte lane hands back the new node's feature and left child.
  g.p = _mm256_mask_i64gather_epi64(
      zero, reinterpret_cast<const long long*>(fl), g.n, ones, 8);
}

/// acc[0..3] += scale * thr[n lanes] — separate mul and add, never an FMA.
inline void deposit(const LaneGroup& g, const double* thr, double scale,
                    double* acc) noexcept {
  const __m256d leaf = _mm256_mask_i64gather_pd(
      _mm256_setzero_pd(), thr, g.n,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
  _mm256_storeu_pd(
      acc, _mm256_add_pd(_mm256_loadu_pd(acc),
                         _mm256_mul_pd(_mm256_set1_pd(scale), leaf)));
}

void accumulate_avx2(const ForestView& forest, const double* x,
                     std::size_t cols, std::size_t row_lo, std::size_t row_hi,
                     std::size_t tree_lo, std::size_t tree_hi, double* acc) {
  const double* thr = forest.thr;
  const std::uint64_t* fl = forest.fl;
  const double scale = forest.scale;
  const std::int64_t icols = static_cast<std::int64_t>(cols);
  for (std::size_t t = tree_lo; t < tree_hi; ++t) {
    const std::int32_t root = forest.roots[t];
    const std::uint64_t root_pair = fl[root];
    // Six interleaved 4-lane groups (24 rows); see the file comment for
    // why this interleave depth and the individual retirement. A root leaf
    // needs no special case: its first step is a self-loop.
    for (std::size_t r = row_lo; r + kAvx2GroupRows <= row_hi;
         r += kAvx2GroupRows) {
      const std::int64_t base = static_cast<std::int64_t>(r) * icols;
      LaneGroup g0 = make_group(root, root_pair, base, icols);
      LaneGroup g1 = make_group(root, root_pair, base + 4 * icols, icols);
      LaneGroup g2 = make_group(root, root_pair, base + 8 * icols, icols);
      LaneGroup g3 = make_group(root, root_pair, base + 12 * icols, icols);
      LaneGroup g4 = make_group(root, root_pair, base + 16 * icols, icols);
      LaneGroup g5 = make_group(root, root_pair, base + 20 * icols, icols);
      unsigned live = 0x3F;
      do {
        if (live & 0x01) {
          step(g0, x, fl, thr);
          if (all_leaves(g0)) live &= ~0x01u;
        }
        if (live & 0x02) {
          step(g1, x, fl, thr);
          if (all_leaves(g1)) live &= ~0x02u;
        }
        if (live & 0x04) {
          step(g2, x, fl, thr);
          if (all_leaves(g2)) live &= ~0x04u;
        }
        if (live & 0x08) {
          step(g3, x, fl, thr);
          if (all_leaves(g3)) live &= ~0x08u;
        }
        if (live & 0x10) {
          step(g4, x, fl, thr);
          if (all_leaves(g4)) live &= ~0x10u;
        }
        if (live & 0x20) {
          step(g5, x, fl, thr);
          if (all_leaves(g5)) live &= ~0x20u;
        }
      } while (live);
      deposit(g0, thr, scale, acc + (r - row_lo));
      deposit(g1, thr, scale, acc + (r - row_lo) + 4);
      deposit(g2, thr, scale, acc + (r - row_lo) + 8);
      deposit(g3, thr, scale, acc + (r - row_lo) + 12);
      deposit(g4, thr, scale, acc + (r - row_lo) + 16);
      deposit(g5, thr, scale, acc + (r - row_lo) + 20);
    }
  }
}

}  // namespace

AccumulateFn avx2_accumulate_kernel() noexcept { return &accumulate_avx2; }

}  // namespace mfpa::ml::detail

#else  // !__AVX2__ || MFPA_FORCE_SCALAR

namespace mfpa::ml::detail {

AccumulateFn avx2_accumulate_kernel() noexcept { return nullptr; }

}  // namespace mfpa::ml::detail

#endif
