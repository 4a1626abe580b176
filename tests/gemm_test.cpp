// Property tests for the blocked GEMM kernels against a naive reference,
// parameterized across a sweep of (m, n, k) shapes including degenerate ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensor/gemm.hpp"

namespace splitmed {
namespace {

using Dims = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

void naive_nn(std::int64_t m, std::int64_t n, std::int64_t k,
              const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>& c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmSweep : public ::testing::TestWithParam<Dims> {};

TEST_P(GemmSweep, NnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  std::vector<float> c(static_cast<std::size_t>(m * n), -1.0F);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_nn(m, n, k, a, b, c);
  naive_nn(m, n, k, a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (1.0F + std::abs(ref[i])));
  }
}

TEST_P(GemmSweep, TnMatchesTransposedNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + n * 31 + k * 977));
  // A stored [k, m].
  std::vector<float> at(static_cast<std::size_t>(k * m));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : at) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  // Build row-major A [m, k] from At for the naive reference.
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      a[i * k + kk] = at[kk * m + i];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_tn(m, n, k, at, b, c);
  naive_nn(m, n, k, a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (1.0F + std::abs(ref[i])));
  }
}

TEST_P(GemmSweep, NtMatchesTransposedNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 7 + k * 11));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  // B stored [n, k].
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (auto& v : a) v = rng.normal();
  for (auto& v : bt) v = rng.normal();
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      b[kk * n + j] = bt[j * k + kk];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_nt(m, n, k, a, bt, c);
  naive_nn(m, n, k, a, b, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (1.0F + std::abs(ref[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(Dims{1, 1, 1}, Dims{1, 7, 3}, Dims{5, 1, 2},
                      Dims{4, 4, 4}, Dims{3, 5, 7}, Dims{17, 19, 23},
                      Dims{32, 32, 32}, Dims{33, 65, 70}, Dims{64, 2, 128},
                      Dims{2, 64, 128}));

// Restores the environment-default pool size on scope exit so thread-count
// sweeps don't leak into later tests.
class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() { set_global_threads(0); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;
};

bool bitwise_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

// The determinism contract (docs/PERFORMANCE.md): the packed, parallel,
// possibly-SIMD kernels must reproduce the serial naive reference BITWISE —
// same strict k-ascending write-first fold per element — for every shape
// (padded tails, partial blocks) and every thread count (row partitioning
// never regroups a fold). EXPECT_NEAR would hide regressions here; only
// memcmp proves the fold was preserved.
TEST(GemmBitwise, PackedMatchesReferenceAcrossShapesAndThreads) {
  const std::int64_t dims[] = {1, 3, 7, 17, 33, 64, 130};
  PoolGuard guard;
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    for (const std::int64_t m : dims) {
      for (const std::int64_t n : dims) {
        for (const std::int64_t k : dims) {
          Rng rng(static_cast<std::uint64_t>((m * 131 + n) * 131 + k));
          std::vector<float> amk(static_cast<std::size_t>(m * k));
          std::vector<float> akm(static_cast<std::size_t>(k * m));
          std::vector<float> bkn(static_cast<std::size_t>(k * n));
          std::vector<float> bnk(static_cast<std::size_t>(n * k));
          for (auto& v : amk) v = rng.normal();
          for (auto& v : akm) v = rng.normal();
          for (auto& v : bkn) v = rng.normal();
          for (auto& v : bnk) v = rng.normal();
          std::vector<float> c(static_cast<std::size_t>(m * n), -2.0F);
          std::vector<float> ref(static_cast<std::size_t>(m * n), -3.0F);

          gemm_nn(m, n, k, amk, bkn, c);
          gemm_nn_ref(m, n, k, amk, bkn, ref);
          EXPECT_TRUE(bitwise_equal(c, ref))
              << "nn " << m << 'x' << n << 'x' << k << " threads=" << threads
              << " isa=" << gemm_kernel_isa();

          gemm_tn(m, n, k, akm, bkn, c);
          gemm_tn_ref(m, n, k, akm, bkn, ref);
          EXPECT_TRUE(bitwise_equal(c, ref))
              << "tn " << m << 'x' << n << 'x' << k << " threads=" << threads
              << " isa=" << gemm_kernel_isa();

          gemm_nt(m, n, k, amk, bnk, c);
          gemm_nt_ref(m, n, k, amk, bnk, ref);
          EXPECT_TRUE(bitwise_equal(c, ref))
              << "nt " << m << 'x' << n << 'x' << k << " threads=" << threads
              << " isa=" << gemm_kernel_isa();
        }
      }
    }
  }
}

// Degenerate dimensions: packed and reference paths must agree that
// m==0 / n==0 write nothing and k==0 writes zeros.
TEST(GemmBitwise, ZeroDimsMatchReference) {
  const std::int64_t shapes[][3] = {
      {0, 5, 4}, {5, 0, 4}, {5, 4, 0}, {0, 0, 0}, {1, 1, 0}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    std::vector<float> a(static_cast<std::size_t>(m * k), 1.0F);
    std::vector<float> b(static_cast<std::size_t>(k * n), 1.0F);
    std::vector<float> c(static_cast<std::size_t>(m * n), -1.0F);
    std::vector<float> ref(static_cast<std::size_t>(m * n), -1.0F);
    gemm_nn(m, n, k, a, b, c);
    gemm_nn_ref(m, n, k, a, b, ref);
    EXPECT_TRUE(bitwise_equal(c, ref)) << m << 'x' << n << 'x' << k;
  }
}

// Applies the epilogue sequence to an already-computed GEMM result with the
// exact scalar expressions the unfused layer code uses (bias add, then the
// left-associated eval-BN map, then ReLU). The fused kernels must reproduce
// this BITWISE — the epilogue runs per element on the finished fold, so
// fusion must never change a single rounding.
void apply_epilogue_ref(std::int64_t m, std::int64_t n, std::vector<float>& c,
                        const gemmk::Epilogue& ep) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t p = ep.per_row ? i : j;
      float x = c[static_cast<std::size_t>(i * n + j)];
      if (ep.bias != nullptr) x = x + ep.bias[p];
      if (ep.bn_gamma != nullptr) {
        x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
            ep.bn_beta[p];
      }
      if (ep.relu) x = x > 0.0F ? x : 0.0F;
      c[static_cast<std::size_t>(i * n + j)] = x;
    }
  }
}

// Fused-epilogue bitwise sweep: gemm_nn_ep / gemm_nt_ep against plain GEMM +
// the scalar reference epilogue, across shapes (full tiles, padded tails),
// thread counts, bias orientation, and every legal epilogue composition.
// Run under all three ISA variants via the gemm_test_base_isa / avx dispatch
// (same mechanism as the GemmBitwise sweep above).
TEST(GemmEpilogue, FusedWriteBackMatchesUnfusedBitwise) {
  const std::int64_t dims[] = {1, 3, 7, 17, 33, 64, 130};
  PoolGuard guard;
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    for (const std::int64_t m : dims) {
      for (const std::int64_t n : dims) {
        for (const std::int64_t k : dims) {
          Rng rng(static_cast<std::uint64_t>((m * 151 + n) * 151 + k));
          std::vector<float> a(static_cast<std::size_t>(m * k));
          std::vector<float> bkn(static_cast<std::size_t>(k * n));
          std::vector<float> bnk(static_cast<std::size_t>(n * k));
          for (auto& v : a) v = rng.normal();
          for (auto& v : bkn) v = rng.normal();
          for (auto& v : bnk) v = rng.normal();
          const std::size_t pmax = static_cast<std::size_t>(std::max(m, n));
          std::vector<float> bias(pmax), g(pmax), mean(pmax), inv(pmax),
              beta(pmax);
          for (std::size_t p = 0; p < pmax; ++p) {
            bias[p] = rng.normal();
            g[p] = rng.normal();
            mean[p] = rng.normal();
            inv[p] = 1.0F + 0.25F * rng.normal();  // plausible 1/sqrt scale
            beta[p] = rng.normal();
          }
          gemmk::Epilogue eps[3];
          // conv-style: per-row bias + relu
          eps[0].bias = bias.data();
          eps[0].relu = true;
          eps[0].per_row = true;
          // conv+bn+relu: the full inference stack
          eps[1] = eps[0];
          eps[1].bn_gamma = g.data();
          eps[1].bn_mean = mean.data();
          eps[1].bn_inv_std = inv.data();
          eps[1].bn_beta = beta.data();
          // linear-style: per-COLUMN bias + relu
          eps[2].bias = bias.data();
          eps[2].relu = true;
          eps[2].per_row = false;
          std::vector<float> c(static_cast<std::size_t>(m * n), -2.0F);
          std::vector<float> ref(static_cast<std::size_t>(m * n), -3.0F);
          for (int e = 0; e < 3; ++e) {
            gemm_nn_ep(m, n, k, a, bkn, c, eps[e]);
            gemm_nn(m, n, k, a, bkn, ref);
            apply_epilogue_ref(m, n, ref, eps[e]);
            EXPECT_TRUE(bitwise_equal(c, ref))
                << "nn_ep[" << e << "] " << m << 'x' << n << 'x' << k
                << " threads=" << threads << " isa=" << gemm_kernel_isa();

            gemm_nt_ep(m, n, k, a, bnk, c, eps[e]);
            gemm_nt(m, n, k, a, bnk, ref);
            apply_epilogue_ref(m, n, ref, eps[e]);
            EXPECT_TRUE(bitwise_equal(c, ref))
                << "nt_ep[" << e << "] " << m << 'x' << n << 'x' << k
                << " threads=" << threads << " isa=" << gemm_kernel_isa();
          }
        }
      }
    }
  }
}

TEST(GemmEpilogue, ZeroKAppliesEpilogueToZeroMatrix) {
  // k == 0: the unfused sequence is "zero the output, then run the tail" —
  // the fused entry point must match (bias/BN/ReLU of 0, not untouched 0).
  const std::vector<float> bias = {1.5F, -2.0F, 0.25F};
  gemmk::Epilogue ep;
  ep.bias = bias.data();
  ep.relu = true;
  ep.per_row = false;
  std::vector<float> c(2 * 3, -7.0F);
  gemm_nn_ep(2, 3, 0, {}, {}, c, ep);
  std::vector<float> ref(2 * 3, 0.0F);
  apply_epilogue_ref(2, 3, ref, ep);
  EXPECT_TRUE(bitwise_equal(c, ref));
  for (std::size_t j = 0; j < 3; ++j) {
    const float expect = bias[j] > 0.0F ? bias[j] : 0.0F;
    EXPECT_EQ(c[j], expect);
    EXPECT_EQ(c[3 + j], expect);
  }
}

TEST(GemmEpilogue, NegativeZeroAndNanFollowScalarRelu) {
  // The vector select lane must match the scalar `x > 0 ? x : 0` exactly in
  // the edge cases: -0.0 is not > 0 (→ +0.0 out), NaN is not > 0 (→ 0 out).
  // Build a k=1 product that lands -0.0 and NaN in C, with a wide n so the
  // vectorized full-tile path (not just the scalar edge) sees them.
  const std::int64_t n = 64;
  std::vector<float> a = {1.0F};
  std::vector<float> b(static_cast<std::size_t>(n), 1.0F);
  b[3] = -0.0F;
  b[7] = std::numeric_limits<float>::quiet_NaN();
  b[11] = -5.0F;
  std::vector<float> zero_bias(static_cast<std::size_t>(n), 0.0F);
  gemmk::Epilogue ep;
  ep.bias = zero_bias.data();
  ep.relu = true;
  ep.per_row = false;
  std::vector<float> c(static_cast<std::size_t>(n), -1.0F);
  gemm_nn_ep(1, n, 1, a, b, c, ep);
  std::vector<float> ref(static_cast<std::size_t>(n), -1.0F);
  gemm_nn(1, n, 1, a, b, ref);
  apply_epilogue_ref(1, n, ref, ep);
  EXPECT_TRUE(bitwise_equal(c, ref)) << "isa=" << gemm_kernel_isa();
  EXPECT_EQ(c[3], 0.0F);
  EXPECT_FALSE(std::signbit(c[3]));  // -0.0 + 0 bias → +0.0, relu keeps +0.0
  EXPECT_EQ(c[7], 0.0F);             // NaN is not > 0 → clamped to 0
  EXPECT_EQ(c[11], 0.0F);
  EXPECT_EQ(c[0], 1.0F);
}

// The accumulating drivers against a test-local reference: the per-segment
// reference fold into scratch, then a serial `c = c + r` onto C in segment
// order. C starts random and nonzero, with -0.0 entries: -0.0 + +0.0 is
// +0.0 but -0.0 + -0.0 stays -0.0, so a kernel that dropped C's old value
// or reseeded it shows. m and n are not multiples of MR or NR, so every
// call has edge tiles.
void acc_ref(bool a_transposed, std::int64_t m, std::int64_t n,
             std::int64_t seg_len, std::int64_t segs,
             const std::vector<float>& a, const std::vector<float>& b,
             std::vector<float>& c) {
  const auto at = [](std::int64_t v) { return static_cast<std::size_t>(v); };
  const std::int64_t k = seg_len * segs;
  std::vector<float> as(at(m * seg_len)), bs(at(n * seg_len)), r(at(m * n));
  for (std::int64_t s = 0; s < segs; ++s) {
    for (std::int64_t kk = 0; kk < seg_len; ++kk) {
      const std::int64_t kg = s * seg_len + kk;  // global k step
      for (std::int64_t i = 0; i < m; ++i) {
        as[at(i * seg_len + kk)] =
            a_transposed ? a[at(kg * m + i)] : a[at(i * k + kg)];
      }
      for (std::int64_t j = 0; j < n; ++j) {
        bs[at(j * seg_len + kk)] =
            a_transposed ? b[at(kg * n + j)] : b[at(j * k + kg)];
      }
    }
    gemm_nt_ref(m, n, seg_len, as, bs, r);
    for (std::size_t e = 0; e < c.size(); ++e) c[e] = c[e] + r[e];
  }
}

TEST(GemmAccumulate, SegmentedFoldMatchesReferenceBitwise) {
  PoolGuard guard;
  const std::int64_t ms[] = {1, 7, 37};
  const std::int64_t ns[] = {5, 33, 70};
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    for (const std::int64_t seg_len : {1, 2, 4, 16, 64, 256}) {
      for (const std::int64_t segs : {1, 2, 3, 17}) {
        for (const std::int64_t m : ms) {
          for (const std::int64_t n : ns) {
            const std::int64_t k = seg_len * segs;
            Rng rng(static_cast<std::uint64_t>(
                ((seg_len * 131 + segs) * 131 + m) * 131 + n));
            std::vector<float> a(static_cast<std::size_t>(m * k));
            std::vector<float> b(static_cast<std::size_t>(n * k));
            std::vector<float> c0(static_cast<std::size_t>(m * n));
            for (auto& v : a) v = rng.normal();
            for (auto& v : b) v = rng.normal();
            for (auto& v : c0) v = rng.normal();
            for (std::size_t e = 0; e < c0.size(); e += 3) c0[e] = -0.0F;
            // Zero products land in some folds, so -0.0 meets +0.0 too.
            for (std::size_t e = 0; e < a.size(); e += 5) a[e] = 0.0F;
            const std::string what =
                std::to_string(m) + 'x' + std::to_string(n) + " seg_len=" +
                std::to_string(seg_len) + " segs=" + std::to_string(segs) +
                " threads=" + std::to_string(threads) +
                " isa=" + gemm_kernel_isa();
            for (const bool transposed : {false, true}) {
              std::vector<float> c = c0, ref = c0;
              if (transposed) {
                gemm_tn_acc(m, n, seg_len, segs, a, b, c);
              } else {
                gemm_nt_acc(m, n, seg_len, segs, a, b, c);
              }
              acc_ref(transposed, m, n, seg_len, segs, a, b, ref);
              EXPECT_TRUE(bitwise_equal(c, ref))
                  << (transposed ? "tn_acc " : "nt_acc ") << what;
            }
          }
        }
      }
    }
  }
}

TEST(GemmAccumulate, DegenerateShapes) {
  // segs == 0 adds nothing; seg_len == 0 adds the empty fold +0 (so -0.0
  // turns +0.0, as gemm_nt with k == 0 into scratch plus an add would).
  std::vector<float> c = {-0.0F, 1.5F, -2.0F, 3.0F};
  gemm_nt_acc(2, 2, 4, 0, {}, {}, c);
  EXPECT_TRUE(std::signbit(c[0]));
  EXPECT_EQ(c[1], 1.5F);
  gemm_nt_acc(2, 2, 0, 3, {}, {}, c);
  EXPECT_FALSE(std::signbit(c[0]));
  EXPECT_EQ(c[0], 0.0F);
  EXPECT_EQ(c[2], -2.0F);
  std::vector<float> one(1);
  EXPECT_THROW(gemm_nt_acc(1, 1, -1, 1, one, one, one), InvalidArgument);
  EXPECT_THROW(gemm_tn_acc(2, 2, 1, 1, one, one, c), InvalidArgument);
}

TEST(Gemm, KernelIsaIsReported) {
  const std::string isa = gemm_kernel_isa();
  EXPECT_TRUE(isa == "base" || isa == "avx2" || isa == "avx512f" ||
              isa == "scalar")
      << isa;
}

TEST(Gemm, ZeroKProducesZeroMatrix) {
  std::vector<float> a, b;
  std::vector<float> c(6, 5.0F);
  gemm_nn(2, 3, 0, a, b, c);
  for (const float v : c) EXPECT_EQ(v, 0.0F);
}

TEST(Gemm, OverflowingDimensionProductThrows) {
  // m * k overflows int64; before the overflow check this wrapped to a small
  // (even negative) product and the size precondition silently passed.
  const std::int64_t big = std::int64_t{1} << 32;
  std::vector<float> a(1), b(1), c(1);
  EXPECT_THROW(gemm_nn(big, big, big, a, b, c), InvalidArgument);
  EXPECT_THROW(gemm_tn(big, 1, big, a, b, c), InvalidArgument);
  EXPECT_THROW(gemm_nt(big, big, 1, a, b, c), InvalidArgument);
}

}  // namespace
}  // namespace splitmed
