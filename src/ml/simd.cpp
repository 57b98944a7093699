#include "ml/simd.hpp"

#include <atomic>

namespace mfpa::ml {
namespace {

// Override encoding in one atomic int: -1 = auto (no override), else the
// SimdLevel value. Relaxed ordering is enough — the flag is configuration,
// set before serving traffic starts, and every load observes *a* valid
// level (dispatch re-reads it per predict call).
std::atomic<int> g_override{-1};

SimdLevel probe() noexcept {
#if defined(MFPA_FORCE_SCALAR)
  return SimdLevel::kScalar;
#elif defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2
                                        : SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

}  // namespace

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel detected = probe();
  return detected;
}

void set_simd_override(std::optional<SimdLevel> level) noexcept {
  g_override.store(level ? static_cast<int>(*level) : -1,
                   std::memory_order_relaxed);
}

std::optional<SimdLevel> simd_override() noexcept {
  const int raw = g_override.load(std::memory_order_relaxed);
  if (raw < 0) return std::nullopt;
  return static_cast<SimdLevel>(raw);
}

SimdLevel active_simd_level() noexcept {
  const SimdLevel detected = detected_simd_level();
  const auto forced = simd_override();
  if (!forced) return detected;
  // A forced level the hardware lacks degrades to the detected one; forcing
  // a *weaker* level than detected is honored (that is the point of the
  // override: scalar-vs-vector A/B runs and parity bisects).
  return static_cast<int>(*forced) <= static_cast<int>(detected) ? *forced
                                                                 : detected;
}

std::string_view to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
    default:
      return "scalar";
  }
}

}  // namespace mfpa::ml
