// Geometric skip sampling for tail-sketch updates (NitroSketch-style).
//
// Instead of flipping a Bernoulli(p) coin per tuple, the sampler draws
// the number of *skipped* tuples between two applied ones from the
// geometric distribution Geom(p) once, then counts down with a plain
// decrement — the hot path is one branch and one subtraction. Each
// applied update is scaled by 1/p so the expected contribution of
// every tuple is exactly its weight:
//
//   E[contribution] = p * (w / p) + (1 - p) * 0 = w
//
// which keeps the tail estimator unbiased. The scaled increment is
// stochastically rounded (floor plus a Bernoulli on the fractional
// part), so unbiasedness is exact even with integer counters. Note
// the bound change this buys: a sampled tail estimate is unbiased but
// no longer one-sided — individual estimates can fall below the true
// count (ALGORITHMS.md §8). The exact filter head is never sampled.
//
// Rates are quantized to permille (1/1000 steps); 1000 means
// "inactive", and the inactive sampler never touches its RNG, which is
// what makes rate 1.0 bit-identical to the unsampled path.

#ifndef ASKETCH_COMMON_SAMPLING_H_
#define ASKETCH_COMMON_SAMPLING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/random.h"
#include "src/common/types.h"

namespace asketch {

class GeometricSampler {
 public:
  GeometricSampler() = default;
  explicit GeometricSampler(uint64_t seed) : rng_(seed) {}

  /// Sets the sampling probability to permille / 1000, clamped to
  /// [1, 1000]. Resets the skip counter so a rate change takes effect
  /// on the next tuple rather than after a stale countdown.
  void SetPermille(uint32_t permille) {
    permille_ = std::clamp<uint32_t>(permille, 1, 1000);
    skip_ = 0;
  }

  uint32_t permille() const { return permille_; }

  /// False at rate 1.0: the sampler is pass-through and consumes no
  /// randomness, so the unsampled path stays bit-identical.
  bool active() const { return permille_ < 1000; }

  /// One countdown step: true when this tuple's update should be
  /// applied (scaled via ScaleDelta), false when it is elided.
  /// Callers must only consult this while active().
  bool ShouldApply() {
    if (skip_ > 0) {
      --skip_;
      return false;
    }
    skip_ = NextSkip();
    return true;
  }

  /// Scales an applied positive delta by 1/p with stochastic rounding:
  /// floor(delta / p) plus one with probability frac(delta / p).
  /// E[ScaleDelta(d)] = d / p exactly, so sampling stays unbiased
  /// under integer counters.
  delta_t ScaleDelta(delta_t delta) {
    const double scaled = static_cast<double>(delta) * 1000.0 /
                          static_cast<double>(permille_);
    const double floor_part = std::floor(scaled);
    const double frac = scaled - floor_part;
    delta_t result = static_cast<delta_t>(floor_part);
    if (frac > 0.0 && rng_.NextDouble() < frac) ++result;
    return result;
  }

 private:
  /// Number of tuples to elide before the next applied one, drawn
  /// from Geom(p): floor(log(u) / log(1 - p)) for u ~ Uniform(0, 1].
  /// NextDoublePositive never returns 0, so the log is finite.
  uint64_t NextSkip() {
    const double p = static_cast<double>(permille_) / 1000.0;
    const double u = rng_.NextDoublePositive();
    const double skips = std::floor(std::log(u) / std::log1p(-p));
    // Clamp pathological draws (u ~ DBL_MIN at tiny p) to a sane cap.
    return static_cast<uint64_t>(std::min(skips, 1e18));
  }

  Rng rng_;
  uint32_t permille_ = 1000;
  uint64_t skip_ = 0;
};

}  // namespace asketch

#endif  // ASKETCH_COMMON_SAMPLING_H_
