// Packed, register-blocked GEMM.
//
// Each kernel has three stages:
//   1. Pack B once (calling thread) into NR-column panels, k-major with the
//      NR columns interleaved, tail columns zero-padded.
//   2. parallel_for over rows of C; each chunk packs its own A rows into
//      MR-row blocks in its thread's workspace arena.
//   3. An MR×NR micro-kernel (src/tensor/gemm_kernels.hpp) computes each C
//      tile with one register accumulator per element, write-first.
//
// Determinism: every C element is the strict left fold
//   c = a[i,0]*b[0,j]; c += a[i,1]*b[1,j]; ... (k ascending)
// exactly as in the *_ref kernels — packing is pure data movement, row
// partitioning never splits a row, and the micro-kernel keeps one
// accumulator per element. Results are bitwise identical for any thread
// count and any dispatched ISA variant; gemm_test asserts this against the
// reference.
//
// The accumulating *_acc drivers (gemm_acc_packed) add one such fold per k
// segment onto C's old value, segments in ascending order; they split C's
// tiles, not its rows, over threads and walk k in cache-sized chunks.
#include "src/tensor/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed {
namespace {

/// Accounts one gemm call against the pre-registered observability counters.
/// gemm runs inside parallel_for bodies (conv2d parallelizes over the
/// batch), so this must never touch the registry mutex: the counters are
/// fetched as single atomic pointer loads, null when observability is off —
/// the disabled path is two relaxed loads and two branches, no clock read.
class GemmTimer {
 public:
  GemmTimer()
      : seconds_(obs::gemm_seconds_counter()),
        calls_(obs::gemm_calls_counter()) {
    if (seconds_ != nullptr) begin_ = std::chrono::steady_clock::now();
  }
  ~GemmTimer() {
    if (calls_ != nullptr) calls_->inc();
    if (seconds_ != nullptr) {
      seconds_->inc(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin_)
                        .count());
    }
  }
  GemmTimer(const GemmTimer&) = delete;
  GemmTimer& operator=(const GemmTimer&) = delete;

 private:
  obs::Counter* seconds_;
  obs::Counter* calls_;
  std::chrono::steady_clock::time_point begin_;
};

// Matrices below this many multiply-adds are not worth a fork-join; also
// sets the minimum per-chunk work when partitioning rows across threads.
constexpr std::int64_t kParallelFlops = 32 * 1024;

/// Multiplies non-negative int64 dims, throwing instead of overflowing.
std::int64_t checked_mul(std::int64_t x, std::int64_t y) {
  std::int64_t out = 0;
  SPLITMED_CHECK(!__builtin_mul_overflow(x, y, &out),
                 "gemm: dimension product " << x << " * " << y
                                            << " overflows int64");
  return out;
}

void check_sizes(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::size_t a, std::size_t b, std::size_t c) {
  SPLITMED_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  SPLITMED_CHECK(a >= static_cast<std::size_t>(checked_mul(m, k)) &&
                     b >= static_cast<std::size_t>(checked_mul(k, n)) &&
                     c >= static_cast<std::size_t>(checked_mul(m, n)),
                 "gemm: span smaller than m/n/k imply");
}

/// Minimum rows per parallel chunk so each chunk does >= kParallelFlops
/// multiply-adds (rows below that run serially inline).
std::int64_t row_grain(std::int64_t n, std::int64_t k) {
  const std::int64_t per_row = std::max<std::int64_t>(n * k, 1);
  return std::max<std::int64_t>(1, kParallelFlops / per_row);
}

/// Handles the degenerate shapes every kernel shares: nothing to write when
/// m or n is zero; an empty reduction writes zeros (the write-first kernels
/// need k >= 1). Returns true when the call is fully handled.
bool handle_empty(std::int64_t m, std::int64_t n, std::int64_t k, float* c) {
  if (m <= 0 || n <= 0) return true;
  if (k <= 0) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return true;
  }
  return false;
}

/// Scalar epilogue pass over all of C, used only for the degenerate k <= 0
/// shape (where no micro-kernel runs): the same per-element op sequence as
/// gemmk's epilogue_apply, applied to the zeroed C. This TU compiles with
/// the project's default flags (generic x86-64, no FMA), so each step stays
/// one separately-rounded op exactly like the kernel write-back path.
void apply_epilogue_full(std::int64_t m, std::int64_t n, float* c,
                         const gemmk::Epilogue& ep) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t p = ep.per_row ? i : j;
      float x = c[i * n + j];
      if (ep.bias != nullptr) x = x + ep.bias[p];
      if (ep.bn_gamma != nullptr) {
        x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
            ep.bn_beta[p];
      }
      if (ep.relu) x = x > 0.0F ? x : 0.0F;
      c[i * n + j] = x;
    }
  }
}

// A's element (i, kk) lives at a[i*k + kk] (kNormal, A is [m,k]) or at
// a[kk*m + i] (kTransposed, A is [k,m]). Likewise B's (kk, j) is
// b[kk*n + j] (kNormal, B is [k,n]) or b[j*k + kk] (kTransposed, B [n,k]).
enum class AKind { kNormal, kTransposed };
enum class BKind { kNormal, kTransposed };

/// Packs B panels [p0, p1) over the k steps [k0, k0 + kc) of a k-step B;
/// panel jp holds columns [jp*NR, jp*NR+NR) as kc k-major rows of NR
/// interleaved floats at bp + (jp - p0)*kc*NR, tail columns zero-padded so
/// the micro-kernel never branches on column bounds.
void pack_b(BKind kind, std::int64_t n, std::int64_t k, std::int64_t k0,
            std::int64_t kc, const float* b, std::int64_t p0, std::int64_t p1,
            std::int64_t nr_max, float* bp) {
  for (std::int64_t jp = p0; jp < p1; ++jp) {
    const std::int64_t j0 = jp * nr_max;
    const std::int64_t nr = std::min(nr_max, n - j0);
    float* dst = bp + (jp - p0) * kc * nr_max;
    if (kind == BKind::kNormal) {
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* src = b + (k0 + kk) * n + j0;
        float* d = dst + kk * nr_max;
        for (std::int64_t j = 0; j < nr; ++j) d[j] = src[j];
        for (std::int64_t j = nr; j < nr_max; ++j) d[j] = 0.0F;
      }
    } else {
      // Four source rows at a time, so each k step stores four adjacent
      // floats instead of one.
      std::int64_t j = 0;
      for (; j + 4 <= nr; j += 4) {
        const float* s0 = b + (j0 + j) * k + k0;
        const float* s1 = s0 + k;
        const float* s2 = s1 + k;
        const float* s3 = s2 + k;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          float* d = dst + kk * nr_max + j;
          d[0] = s0[kk];
          d[1] = s1[kk];
          d[2] = s2[kk];
          d[3] = s3[kk];
        }
      }
      for (; j < nr; ++j) {
        const float* src = b + (j0 + j) * k + k0;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          dst[kk * nr_max + j] = src[kk];
        }
      }
      for (j = nr; j < nr_max; ++j) {
        for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * nr_max + j] = 0.0F;
      }
    }
  }
}

/// Packs A rows [r0, r1) over the k steps [k0, k0 + kc) of a k-step A into
/// ceil((r1-r0)/MR) blocks; block ib holds rows [r0+ib*MR, +MR) as kc
/// k-major groups of MR interleaved floats, tail rows zero-padded.
void pack_a(AKind kind, std::int64_t m, std::int64_t k, std::int64_t k0,
            std::int64_t kc, const float* a, std::int64_t r0, std::int64_t r1,
            std::int64_t mr_max, float* ap) {
  const std::int64_t blocks = (r1 - r0 + mr_max - 1) / mr_max;
  for (std::int64_t ib = 0; ib < blocks; ++ib) {
    const std::int64_t i0 = r0 + ib * mr_max;
    const std::int64_t mr = std::min(mr_max, r1 - i0);
    float* dst = ap + ib * kc * mr_max;
    if (kind == AKind::kNormal) {
      // Four source rows at a time, as in pack_b.
      std::int64_t r = 0;
      for (; r + 4 <= mr; r += 4) {
        const float* s0 = a + (i0 + r) * k + k0;
        const float* s1 = s0 + k;
        const float* s2 = s1 + k;
        const float* s3 = s2 + k;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          float* d = dst + kk * mr_max + r;
          d[0] = s0[kk];
          d[1] = s1[kk];
          d[2] = s2[kk];
          d[3] = s3[kk];
        }
      }
      for (; r < mr; ++r) {
        const float* src = a + (i0 + r) * k + k0;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          dst[kk * mr_max + r] = src[kk];
        }
      }
      for (r = mr; r < mr_max; ++r) {
        for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mr_max + r] = 0.0F;
      }
    } else {
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (k0 + kk) * m + i0;
        float* d = dst + kk * mr_max;
        for (std::int64_t r = 0; r < mr; ++r) d[r] = src[r];
        for (std::int64_t r = mr; r < mr_max; ++r) d[r] = 0.0F;
      }
    }
  }
}

/// The shared driver behind gemm_nn/tn/nt. Preconditions: m, n, k >= 1 and
/// spans validated. C rows are partitioned across threads; chunks never
/// split a row, so any partition is bitwise identical to serial execution.
void gemm_packed(AKind ak, BKind bk, std::int64_t m, std::int64_t n,
                 std::int64_t k, const float* a, const float* b, float* c,
                 const gemmk::Epilogue* ep = nullptr) {
  const gemmk::MicroKernel& mk = gemmk::active_kernel();
  const std::int64_t mr_max = mk.block_rows;
  const std::int64_t nr_max = mk.panel_cols;
  const std::int64_t panels = (n + nr_max - 1) / nr_max;
  // B is packed once by the calling thread and read by every worker; the
  // pool's fork ordering publishes it before any chunk runs.
  ws::WorkspaceScope bscope;
  float* bp = bscope.floats(checked_mul(panels * nr_max, k)).data();
  pack_b(bk, n, k, 0, k, b, 0, panels, nr_max, bp);
  parallel_for(0, m, row_grain(n, k), [&](std::int64_t r0, std::int64_t r1) {
    // Each chunk packs its rows of A into its own thread's arena.
    ws::WorkspaceScope ascope;
    const std::int64_t blocks = (r1 - r0 + mr_max - 1) / mr_max;
    float* ap = ascope.floats(checked_mul(blocks * mr_max, k)).data();
    pack_a(ak, m, k, 0, k, a, r0, r1, mr_max, ap);
    // A block (k*MR floats) stays hot in L1 while the B panels stream by.
    for (std::int64_t ib = 0; ib < blocks; ++ib) {
      const std::int64_t i0 = r0 + ib * mr_max;
      const std::int64_t mr = std::min(mr_max, r1 - i0);
      const float* ablock = ap + ib * k * mr_max;
      for (std::int64_t jp = 0; jp < panels; ++jp) {
        const std::int64_t j0 = jp * nr_max;
        const std::int64_t nr = std::min(nr_max, n - j0);
        mk.fn(k, ablock, bp + jp * k * nr_max, c + i0 * n + j0, n, mr, nr, ep,
              i0, j0);
      }
    }
  });
}

/// Target k steps per cache block of the accumulating driver. A chunk of
/// kAccKc steps keeps one NR-wide B panel (NR*kAccKc floats, 32 KiB at
/// AVX-512's NR = 32) in L1 while the lane's A blocks stream by. Once one
/// segment is that deep (vgg-mini's 16x16 conv, 256 steps per sample) a
/// chunk is one segment: the per-sample GEMM without its product slab.
constexpr std::int64_t kAccKc = 256;

/// A lane grid over C's (MR block × NR panel) tiles: lane (ir, ic) owns the
/// tiles of row-block band ir and panel band ic.
struct TileGrid {
  std::int64_t rows = 1;
  std::int64_t cols = 1;
};

/// Uses as many lanes as the pool offers and the work pays for (each lane
/// gets >= kParallelFlops multiply-adds), never more than there are tiles.
/// Among grids with that many lanes it picks the one that repacks least:
/// every grid row packs its own copy of B's k steps for its panels, every
/// grid column its own copy of A's.
TileGrid tile_grid(std::int64_t blocks, std::int64_t panels, std::int64_t m,
                   std::int64_t n, std::int64_t k) {
  const std::int64_t pool = in_parallel_region() ? 1 : global_threads();
  const double pays = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k) / kParallelFlops;
  const std::int64_t lanes =
      pays >= static_cast<double>(pool)
          ? pool
          : std::max<std::int64_t>(1, static_cast<std::int64_t>(pays));
  TileGrid best;
  std::int64_t best_used = 1, best_cost = n + m;
  for (std::int64_t rows = 1; rows <= std::min(lanes, blocks); ++rows) {
    const std::int64_t cols = std::min(panels, lanes / rows);
    const std::int64_t used = rows * cols;
    const std::int64_t cost = rows * n + cols * m;
    if (used > best_used || (used == best_used && cost < best_cost)) {
      best = {rows, cols};
      best_used = used;
      best_cost = cost;
    }
  }
  return best;
}

/// The accumulating driver behind gemm_nt_acc/gemm_tn_acc. Preconditions:
/// m, n, seg_len, segs >= 1 and spans validated.
///
/// One fork splits C's (MR block × NR panel) tiles over a TileGrid, and
/// each lane packs only the A rows and B panels its tiles use. K is walked
/// in chunks of whole segments, about kAccKc steps each: the lane packs a
/// chunk's k range and runs all its tiles over it before the next, so the
/// chunk's panels stay cache-resident (the Goto kc loop) and every element
/// still sees its segments in ascending order. No tile's k range is split
/// across lanes, so the result is the same bits for any thread count.
void gemm_acc_packed(AKind ak, BKind bk, std::int64_t m, std::int64_t n,
                     std::int64_t seg_len, std::int64_t segs, const float* a,
                     const float* b, float* c) {
  const gemmk::MicroKernel& mk = gemmk::active_kernel();
  const std::int64_t mr_max = mk.block_rows;
  const std::int64_t nr_max = mk.panel_cols;
  const std::int64_t k = seg_len * segs;
  const std::int64_t blocks = (m + mr_max - 1) / mr_max;
  const std::int64_t panels = (n + nr_max - 1) / nr_max;
  const std::int64_t chunk_segs = std::max<std::int64_t>(1, kAccKc / seg_len);
  const std::int64_t kc_max = std::min(segs, chunk_segs) * seg_len;
  const TileGrid grid = tile_grid(blocks, panels, m, n, k);
  parallel_for(0, grid.rows * grid.cols, 1,
               [&](std::int64_t l0, std::int64_t l1) {
    for (std::int64_t lane = l0; lane < l1; ++lane) {
      const std::int64_t ir = lane / grid.cols, ic = lane % grid.cols;
      const std::int64_t b0 = ir * blocks / grid.rows;
      const std::int64_t b1 = (ir + 1) * blocks / grid.rows;
      const std::int64_t p0 = ic * panels / grid.cols;
      const std::int64_t p1 = (ic + 1) * panels / grid.cols;
      const std::int64_t r0 = b0 * mr_max, r1 = std::min(m, b1 * mr_max);
      ws::WorkspaceScope scope;
      float* ap = scope.floats(checked_mul((b1 - b0) * mr_max, kc_max)).data();
      float* bp = scope.floats(checked_mul((p1 - p0) * nr_max, kc_max)).data();
      for (std::int64_t s0 = 0; s0 < segs; s0 += chunk_segs) {
        const std::int64_t cs = std::min(chunk_segs, segs - s0);
        const std::int64_t k0 = s0 * seg_len, kc = cs * seg_len;
        pack_a(ak, m, k, k0, kc, a, r0, r1, mr_max, ap);
        pack_b(bk, n, k, k0, kc, b, p0, p1, nr_max, bp);
        // Each B panel stays in L1 while the lane's A blocks stream by.
        for (std::int64_t jp = p0; jp < p1; ++jp) {
          const std::int64_t j0 = jp * nr_max;
          const std::int64_t nr = std::min(nr_max, n - j0);
          const float* bpanel = bp + (jp - p0) * kc * nr_max;
          for (std::int64_t ib = b0; ib < b1; ++ib) {
            const std::int64_t i0 = ib * mr_max;
            mk.acc_fn(seg_len, cs, ap + (ib - b0) * kc * mr_max, bpanel,
                      c + i0 * n + j0, n, std::min(mr_max, m - i0), nr);
          }
        }
      }
    }
  });
}

/// Validates an accumulating call and settles its degenerate shapes:
/// nothing to do when m, n or segs is zero; with seg_len == 0 every
/// segment's fold is the empty fold +0, and c + 0 + 0 == c + 0, so C
/// gets one `c = c + 0`. Returns true when the call is fully handled.
bool handle_acc(std::int64_t m, std::int64_t n, std::int64_t seg_len,
                std::int64_t segs, std::size_t a, std::size_t b,
                std::span<float> c) {
  SPLITMED_CHECK(seg_len >= 0 && segs >= 0, "gemm: negative segment count");
  check_sizes(m, n, checked_mul(seg_len, segs), a, b, c.size());
  if (m <= 0 || n <= 0 || segs <= 0) return true;
  if (seg_len == 0) {
    for (float& x : c.first(static_cast<std::size_t>(m * n))) x = x + 0.0F;
    return true;
  }
  return false;
}

/// Picks the widest micro-kernel this CPU supports; SPLITMED_GEMM_ISA
/// narrows it (values: base, avx2, avx512 — unsupported requests fall back
/// to the best available, never up).
gemmk::MicroKernel pick_kernel() {
#if defined(__x86_64__) && defined(__GNUC__)
  const char* env = std::getenv("SPLITMED_GEMM_ISA");
  const std::string want = (env != nullptr) ? env : "";
  const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool has_avx512 = __builtin_cpu_supports("avx512f") != 0;
  if (want == "base") return gemmk::base_kernel();
  if (want == "avx2" && has_avx2) return gemmk::avx2_kernel();
  if (want != "avx2" && has_avx512) return gemmk::avx512_kernel();
  if (has_avx2) return gemmk::avx2_kernel();
#endif
  return gemmk::base_kernel();
}

}  // namespace

namespace gemmk {

const MicroKernel& active_kernel() {
  static const MicroKernel kernel = pick_kernel();
  return kernel;
}

}  // namespace gemmk

const char* gemm_kernel_isa() { return gemmk::active_kernel().isa; }

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) {
  const GemmTimer timer;
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  gemm_packed(AKind::kNormal, BKind::kNormal, m, n, k, a.data(), b.data(),
              c.data());
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) {
  const GemmTimer timer;
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  gemm_packed(AKind::kTransposed, BKind::kNormal, m, n, k, a.data(), b.data(),
              c.data());
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) {
  const GemmTimer timer;
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  gemm_packed(AKind::kNormal, BKind::kTransposed, m, n, k, a.data(), b.data(),
              c.data());
}

void gemm_nn_ep(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const float> a, std::span<const float> b,
                std::span<float> c, const gemmk::Epilogue& ep) {
  const GemmTimer timer;
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) {
    if (m > 0 && n > 0) apply_epilogue_full(m, n, c.data(), ep);
    return;
  }
  gemm_packed(AKind::kNormal, BKind::kNormal, m, n, k, a.data(), b.data(),
              c.data(), &ep);
}

void gemm_nt_ep(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const float> a, std::span<const float> b,
                std::span<float> c, const gemmk::Epilogue& ep) {
  const GemmTimer timer;
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) {
    if (m > 0 && n > 0) apply_epilogue_full(m, n, c.data(), ep);
    return;
  }
  gemm_packed(AKind::kNormal, BKind::kTransposed, m, n, k, a.data(), b.data(),
              c.data(), &ep);
}

void gemm_nt_acc(std::int64_t m, std::int64_t n, std::int64_t seg_len,
                 std::int64_t segs, std::span<const float> a,
                 std::span<const float> b, std::span<float> c) {
  const GemmTimer timer;
  if (handle_acc(m, n, seg_len, segs, a.size(), b.size(), c)) return;
  gemm_acc_packed(AKind::kNormal, BKind::kTransposed, m, n, seg_len, segs,
                  a.data(), b.data(), c.data());
}

void gemm_tn_acc(std::int64_t m, std::int64_t n, std::int64_t seg_len,
                 std::int64_t segs, std::span<const float> a,
                 std::span<const float> b, std::span<float> c) {
  const GemmTimer timer;
  if (handle_acc(m, n, seg_len, segs, a.size(), b.size(), c)) return;
  gemm_acc_packed(AKind::kTransposed, BKind::kNormal, m, n, seg_len, segs,
                  a.data(), b.data(), c.data());
}

// ---------------------------------------------------------------------------
// Reference kernels: the ground-truth fold, serial and pack-free. The first
// k term is WRITTEN (never read-modify-write of stale C), later terms are
// added in ascending k — exactly what the packed path reproduces.

void gemm_nn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c) {
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * n;
    const float ai0 = ai[0];
    const float* b0 = b.data();
    for (std::int64_t j = 0; j < n; ++j) ci[j] = ai0 * b0[j];
    for (std::int64_t kk = 1; kk < k; ++kk) {
      const float aik = ai[kk];
      const float* bk = b.data() + kk * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_tn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c) {
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  // A is [k, m]; k outermost keeps both A and B rows contiguous.
  const float* a0 = a.data();
  const float* b0 = b.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float a0i = a0[i];
    float* ci = c.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = a0i * b0[j];
  }
  for (std::int64_t kk = 1; kk < k; ++kk) {
    const float* ak = a.data() + kk * m;
    const float* bk = b.data() + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aki = ak[i];
      float* ci = c.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
}

void gemm_nt_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c) {
  check_sizes(m, n, k, a.size(), b.size(), c.size());
  if (handle_empty(m, n, k, c.data())) return;
  // B is [n, k]; dot products over contiguous rows of A and B.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b.data() + j * k;
      float acc = ai[0] * bj[0];
      for (std::int64_t kk = 1; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] = acc;
    }
  }
}

}  // namespace splitmed
