// Internal kernel interface behind FlatForest::accumulate_range.
//
// Every kernel executes the same algorithm on the same flattened arrays:
// for each tree in [tree_lo, tree_hi), walk rows [row_lo, row_hi) of the
// row-major feature storage `x` (row r starts at x + r * cols) from the
// tree's root to a leaf with the predicate `x <= thr` (NaN right), and add
// `scale * leaf_value` into acc[r - row_lo]. Additions happen in tree
// order with separate multiply and add — no FMA contraction — so every
// kernel is bit-identical to the scalar reference and to the node-pointer
// path (see flat_forest.hpp for the equivalence contract).
//
// The vector kernel lives in a dedicated translation unit
// (flat_forest_avx2.cpp, built with -mavx2) and is only reachable through
// its registration function, which returns nullptr when the kernel was not
// built in. Dispatch — the runtime cpuid probe plus set_simd_override() —
// happens in flat_forest.cpp via ml/simd.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfpa::ml::detail {

/// Borrowed view of a FlatForest's node arrays (SoA; see flat_forest.hpp
/// for the layout and the leaf self-loop convention).
struct ForestView {
  const std::int32_t* feat = nullptr;
  const double* thr = nullptr;
  const std::int32_t* left = nullptr;
  /// Packed (feat, left) pairs, feat in the low dword — lets a vector
  /// kernel fetch both with one 8-byte gather lane (see flat_forest.hpp).
  const std::uint64_t* fl = nullptr;
  const std::int32_t* roots = nullptr;
  double scale = 1.0;
};

using AccumulateFn = void (*)(const ForestView& forest, const double* x,
                              std::size_t cols, std::size_t row_lo,
                              std::size_t row_hi, std::size_t tree_lo,
                              std::size_t tree_hi, double* acc);

/// AVX2 gather/blend build of the blocked lockstep kernel; nullptr when the
/// TU was compiled without AVX2 support (non-x86, or -DMFPA_FORCE_SCALAR).
/// Caller must ensure the CPU supports AVX2 *and* rows * cols fits int32
/// (the gather indices are 32-bit) before invoking the returned kernel.
AccumulateFn avx2_accumulate_kernel() noexcept;

}  // namespace mfpa::ml::detail
