// ISING: Metropolis Monte-Carlo simulation of a 2D spin glass on an n x n
// periodic lattice, block-row decomposition with halo exchange per sweep.
// The per-rank RNG is part of the registered state so rollbacks replay the
// exact same trajectory.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/common.hpp"

namespace chk::apps {

struct IsingParams {
  std::size_t n = 512;
  std::uint32_t sweeps = 100;
  double beta = 0.4407;  ///< inverse temperature (near-critical)
  std::uint64_t seed = 424242;
  /// true: quenched couplings drawn uniformly from [-1, 1) (spin glass, as
  /// in the paper); false: uniform ferromagnet (useful for physics sanity
  /// tests).
  bool glass = true;
};

/// Work per lattice site per sweep (4 coupling products, dE, accept test).
inline constexpr double kIsingFlopsPerSite = 22.0;

[[nodiscard]] AppFn make_ising(IsingParams params);

/// One rank's Metropolis sweep over its block of lattice rows: the only
/// implementation of the ISING update. Every spin, every accept decision and
/// every RNG draw equals the literal loop's
///
///   for each local row i, for each column j (row-major):
///     field = Jup*s(i-1,j) + Jdown*s(i+1,j) + Jleft*s(i,j-1) + Jright*s(i,j+1)
///     delta = 2 * s(i,j) * field
///     if (delta <= 0 || rng.uniform() < exp(-beta * delta)) flip s(i,j)
///
/// (float field summed left to right, periodic columns), which the tests
/// keep as the oracle. It is faster because the accept test is decided by
/// an exact table bracket of exp(-beta * delta) and the site update is
/// branch-free; see DESIGN.md.
class IsingKernel {
 public:
  /// The bracket table splits |delta| in [0, kBuckets / kScale) into
  /// buckets of width 1 / kScale (a power of 2, so delta * kScale is
  /// exact). The grid ends just past 8, the largest |delta| that couplings
  /// in [-1, 1] allow; beyond it the literal exp test runs.
  static constexpr std::size_t kBuckets = 1025;
  static constexpr double kScale = 128.0;

  IsingKernel(std::size_t n, double beta);

  /// One sweep over local rows 1..rows of `spins` ((rows + 2) x n, rows 0
  /// and rows + 1 holding the neighbours' halos). `j_right` is rows x n and
  /// `j_down` (rows + 1) x n, as in make_ising. Advances `rng` by exactly
  /// the draws the literal loop takes.
  void sweep(std::span<std::int8_t> spins, std::span<const float> j_right,
             std::span<const float> j_down, util::Rng& rng);

  /// The kernel's accept decision for a proposal with energy change `delta`
  /// and uniform `u` in [0, 1): always equal to
  /// `delta <= 0 || u < std::exp(-beta * delta)`.
  [[nodiscard]] bool accepts(double delta, double u) const;

  /// Bucket k's bracket [lo, hi] of exp(-beta * delta) over
  /// delta in [k, k + 1) / kScale. Every u < lo accepts and every u >= hi
  /// rejects without calling exp.
  struct Bracket {
    double lo;
    double hi;
  };
  [[nodiscard]] Bracket bracket(std::size_t k) const { return table_[k + 1]; }

 private:
  /// Table slot for `delta`: 0 for delta <= 0 (always accepts), 1 + k for
  /// bucket k, kBuckets + 1 past the grid (always undecided).
  [[nodiscard]] static std::size_t slot(double delta);

  std::size_t n_;
  double beta_;
  std::array<Bracket, kBuckets + 2> table_{};
  std::vector<std::uint64_t> uniforms_;  ///< one row's draws, as bit patterns
};

}  // namespace chk::apps
