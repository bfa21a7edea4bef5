#include "apps/ising.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace chk::apps {

namespace {

constexpr int kTagUp = 1;
constexpr int kTagDown = 2;

// A spin glass: quenched couplings, uniform on [-1, 1), on every lattice
// bond. The coupling arrays are part of the process state (CHK-LIB
// checkpoints the application's data), which makes ISING checkpoints
// substantial — as on the paper's 4 MB nodes.
struct IsingState {
  std::uint32_t iter = 0;
  util::Rng rng;
  std::vector<std::int8_t> spins;  ///< (rows + 2) x n with periodic halos
  std::vector<float> j_right;      ///< bond (i,j)-(i,j+1), rows x n
  std::vector<float> j_down;       ///< bond (i,j)-(i+1,j), (rows + 1) x n (one halo row above)
};

/// Deterministic coupling for the bond identified by (global row, col, dir).
float coupling(std::size_t n, std::size_t row, std::size_t col, int dir, bool glass) {
  if (!glass) return 1.0f;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(dir) << 60) ^ (row * n + col) * 2654435761ull;
  return static_cast<float>(2.0 * hash_unit(key) - 1.0);
}

}  // namespace

AppFn make_ising(IsingParams params) {
  return [params](AppContext& ctx) {
    const std::size_t n = params.n;
    const std::size_t nprocs = ctx.nprocs();
    const Block block = block_range(n, nprocs, ctx.rank());
    const std::size_t rows = block.size();

    auto& st = ctx.state<IsingState>();
    if (ctx.fresh()) {
      st.iter = 0;
      st.rng = util::Rng(params.seed).fork(ctx.rank());
      st.spins.assign((rows + 2) * n, 0);
      for (std::size_t i = 1; i <= rows; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          st.spins[i * n + j] = st.rng.bernoulli(0.5) ? 1 : -1;
        }
      }
      st.j_right.resize(rows * n);
      st.j_down.resize((rows + 1) * n);
      for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t global = block.begin + i;
        for (std::size_t j = 0; j < n; ++j) {
          st.j_right[i * n + j] = coupling(n, global, j, 0, params.glass);
          // j_down row i+1 is the bond below local row i; row 0 is the bond
          // above our first row (owned by the neighbour's last row).
          st.j_down[(i + 1) * n + j] = coupling(n, global, j, 1, params.glass);
        }
      }
      const std::size_t above = (block.begin + n - 1) % n;  // periodic
      for (std::size_t j = 0; j < n; ++j) {
        st.j_down[j] = coupling(n, above, j, 1, params.glass);
      }
    }
    ctx.register_value("iter", st.iter);
    ctx.register_value("rng", st.rng);
    ctx.register_vector("spins", st.spins);
    ctx.register_vector("j_right", st.j_right);
    ctx.register_vector("j_down", st.j_down);
    ctx.ready();

    auto spin = [&](std::size_t i, std::size_t j) -> std::int8_t& {
      return st.spins[i * n + j];
    };

    IsingKernel kernel(n, params.beta);
    const Rank up = (ctx.rank() + nprocs - 1) % nprocs;
    const Rank down = (ctx.rank() + 1) % nprocs;

    for (; st.iter < params.sweeps; ++st.iter) {
      ctx.checkpoint_here();
      // Periodic halo exchange (ring).
      ctx.send_span<std::int8_t>(up, kTagUp, std::span<const std::int8_t>(&spin(1, 0), n));
      ctx.send_span<std::int8_t>(down, kTagDown,
                                 std::span<const std::int8_t>(&spin(rows, 0), n));
      const auto top = ctx.recv_vector<std::int8_t>(static_cast<int>(up), kTagDown);
      const auto bottom = ctx.recv_vector<std::int8_t>(static_cast<int>(down), kTagUp);
      for (std::size_t j = 0; j < n; ++j) {
        spin(0, j) = top[j];
        spin(rows + 1, j) = bottom[j];
      }

      ctx.compute(static_cast<double>(rows * n) * kIsingFlopsPerSite);
      kernel.sweep(st.spins, st.j_right, st.j_down, st.rng);
    }

    // Magnetization: integer, hence order-independent under reduction.
    double partial = 0.0;
    for (std::size_t i = 1; i <= rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) partial += spin(i, j);
    }
    const double digest = ctx.allreduce_sum(partial);
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

// ---- the sweep kernel -------------------------------------------------------
//
// Exactness of the bracket. Over bucket k, delta lies in [d_k, d_{k+1}) with
// d_k = k / kScale, so the true exp(-beta * delta) lies in
// (exp(-beta * d_{k+1}), exp(-beta * d_k)]. The computed
// std::exp(-beta * delta) differs from the true value by the library's
// error (a few ulp, 2^-51) plus the rounding of beta * delta, which moves
// the exponent by at most beta * kGridEnd * 2^-53 (2^-44 at kMaxExponent).
// The table's edge values carry the same errors, so widening them by
// kMargin = 2^-40 relative gives lo <= computed exp <= hi for every delta in
// the bucket, as long as the results stay normal doubles. For beta outside
// (0, kMaxExponent / kGridEnd] every bucket is undecided and the literal exp
// test runs.

namespace {

constexpr double kGridEnd = static_cast<double>(IsingKernel::kBuckets) / IsingKernel::kScale;
constexpr double kMargin = 0x1p-40;
constexpr double kMaxExponent = 512.0;

/// For the non-negative doubles compared here (draws and brackets),
/// a < b exactly when bits(a) < bits(b), so the tests run in integer
/// registers, where a mask can select between candidates.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The literal loop draws a uniform exactly when this holds.
bool uphill(double delta) { return !(delta <= 0.0); }

/// a where `mask` is all ones, b where it is zero.
std::uint64_t pick(std::uint64_t mask, std::uint64_t a, std::uint64_t b) {
  return (a & mask) | (b & ~mask);
}

/// The accept decision given the bracket of delta's slot, as bit patterns:
/// the table decides unless u falls inside [lo, hi). The common case is one
/// compare and one branch that is almost never taken (lo <= hi in every
/// slot, so the unsigned difference tests both ends at once).
bool decide(std::uint64_t lo, std::uint64_t hi, std::uint64_t u, double delta, double beta) {
  if (u - lo < hi - lo) [[unlikely]] {
    return std::bit_cast<double>(u) < std::exp(-beta * delta);
  }
  return u < lo;
}

}  // namespace

IsingKernel::IsingKernel(std::size_t n, double beta) : n_(n), beta_(beta), uniforms_(n) {
  const double inf = std::numeric_limits<double>::infinity();
  table_.front() = Bracket{inf, inf};  // delta <= 0: always flips
  table_.back() = Bracket{0.0, inf};   // delta beyond the grid: literal test
  const bool bracketed = beta > 0 && beta * kGridEnd <= kMaxExponent;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    const double near = static_cast<double>(k) / kScale;
    const double far = static_cast<double>(k + 1) / kScale;
    table_[k + 1] = bracketed ? Bracket{std::exp(-beta * far) * (1.0 - kMargin),
                                        std::exp(-beta * near) * (1.0 + kMargin)}
                              : table_.back();
  }
}

std::size_t IsingKernel::slot(double delta) {
  // Bucket by |delta| and mask the slot to 0 when delta <= 0: clamping
  // delta from below instead would compile to a branch on its sign, which
  // is a coin flip at every site. NaN, like the literal test, is uphill and
  // lands in the fallback slot.
  const double x = std::min(static_cast<double>(kBuckets), std::abs(delta) * kScale);
  const std::size_t bucket_slot = 1 + static_cast<std::uint32_t>(x);
  return bucket_slot & (0 - static_cast<std::size_t>(uphill(delta)));
}

bool IsingKernel::accepts(double delta, double u) const {
  const Bracket b = table_[slot(delta)];
  return decide(bits(b.lo), bits(b.hi), bits(u), delta, beta_);
}

void IsingKernel::sweep(std::span<std::int8_t> spins, std::span<const float> j_right,
                        std::span<const float> j_down, util::Rng& rng) {
  // Everything the loop reads lives in a local: a store through the int8_t
  // spin pointer may alias any memory, so a member or a pointer held in
  // memory would be reloaded at every site.
  const std::size_t n = n_;
  const std::size_t rows = n == 0 ? 0 : j_right.size() / n;
  const double beta = beta_;
  const Bracket* const table = table_.data();
  std::uint64_t* const draws = uniforms_.data();
  for (std::size_t i = 1; i <= rows; ++i) {
    // The row's candidate draws, from a copy of the stream. The row takes
    // them in order, one per uphill proposal; `rng` then skips the ones it
    // took, so it stands exactly where the literal loop leaves it.
    util::Rng ahead = rng;
    for (std::size_t j = 0; j < n; ++j) draws[j] = bits(ahead.uniform());
    std::size_t used = 0;

    const std::int8_t* const above = &spins[(i - 1) * n];
    std::int8_t* const row = &spins[i * n];
    const std::int8_t* const below = &spins[(i + 1) * n];
    const float* const j_above = &j_down[(i - 1) * n];
    const float* const j_below = &j_down[i * n];
    const float* const j_row = &j_right[(i - 1) * n];
    // The left neighbour's spin. The previous site's update changes only
    // this input, so each site prices both of its values off the critical
    // path and the new spin picks one with a mask.
    std::int32_t left = row[n - 1];
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t l = j == 0 ? n - 1 : j - 1;
      const std::size_t r = j + 1 == n ? 0 : j + 1;
      const float vertical = j_above[j] * static_cast<float>(above[j]) +
                             j_below[j] * static_cast<float>(below[j]);
      const float horizontal = j_row[j] * static_cast<float>(row[r]);
      const double twice_s = 2.0 * static_cast<double>(row[j]);
      const double delta_plus =
          twice_s * static_cast<double>((vertical + j_row[l]) + horizontal);
      const double delta_minus =
          twice_s * static_cast<double>((vertical - j_row[l]) + horizontal);
      const Bracket plus = table[slot(delta_plus)];
      const Bracket minus = table[slot(delta_minus)];

      const std::uint64_t mask = 0 - static_cast<std::uint64_t>(left > 0);
      const std::uint64_t u = draws[used];
      const bool flip =
          decide(pick(mask, bits(plus.lo), bits(minus.lo)),
                 pick(mask, bits(plus.hi), bits(minus.hi)), u,
                 std::bit_cast<double>(pick(mask, bits(delta_plus), bits(delta_minus))), beta);
      used += pick(mask, uphill(delta_plus), uphill(delta_minus));
      const std::int32_t negate = -static_cast<std::int32_t>(flip);
      left = (row[j] ^ negate) - negate;
      row[j] = static_cast<std::int8_t>(left);
    }

    for (std::size_t d = 0; d < used; ++d) (void)rng();
  }
}

}  // namespace chk::apps
