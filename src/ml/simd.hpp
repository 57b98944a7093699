// Runtime SIMD capability detection and kernel selection for the compiled
// inference paths (ml/flat_forest).
//
// The FlatForest blocked kernel exists in two builds of the same
// algorithm: portable scalar (always present, the reference) and AVX2
// (x86-64, compiled in a dedicated -mavx2 translation unit and only ever
// called after a cpuid probe). Both execute the identical operation
// sequence per row — same descend predicate, same tree-order additions — so
// they are bit-identical and the parity suites gate both against the
// node-pointer path.
//
// Selection: `active_simd_level()` = the strongest kernel the CPU supports,
// clamped by an optional process-wide override (set_simd_override(), used
// by the parity tests and micro-benchmarks). Requesting a level the
// hardware lacks silently degrades to the best available one. The serving
// commands (serve-replay, fleet-replay, shard-serve) print the resolved
// level at start-up ("simd kernel: ...") so an operator can see what
// actually ran. Building with -DMFPA_FORCE_SCALAR=ON removes
// the vector kernel from the dispatch entirely (the CI fallback leg).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace mfpa::ml {

/// Kernel instruction-set tiers, ordered weakest first.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable 8-row lockstep kernel (reference)
  kAvx2 = 2,    ///< x86-64 AVX2 gather/blend build
};

/// Strongest level this process can execute (cpuid probe on x86, scalar
/// elsewhere). Constant for the process lifetime; cheap to call.
SimdLevel detected_simd_level() noexcept;

/// Process-wide override: clamp dispatch to `level` (nullopt restores
/// auto-detection). Levels above detected_simd_level() degrade to it.
void set_simd_override(std::optional<SimdLevel> level) noexcept;
std::optional<SimdLevel> simd_override() noexcept;

/// The level the next kernel dispatch will use: the override (if any)
/// clamped to what the hardware supports.
SimdLevel active_simd_level() noexcept;

/// "scalar" / "avx2".
std::string_view to_string(SimdLevel level) noexcept;

}  // namespace mfpa::ml
