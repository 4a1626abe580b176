// Micro-kernel definition shared by the per-ISA translation units.
//
// Everything here lives in an ANONYMOUS namespace on purpose: each variant
// TU that includes this header gets its own internal-linkage copy, compiled
// with that TU's vector flags. Nothing may have external or vague (inline/
// template COMDAT) linkage — a linker merging identically-named symbols
// across variant TUs would silently route every variant through one ISA's
// code, crashing CPUs that lack it. For the same reason this header may
// include nothing beyond <cstdint> and gemm_kernels.hpp (types and plain
// function declarations only — nothing with vague linkage).
//
// The kernel is hand-vectorized with GCC/Clang vector extensions rather
// than left to the auto-vectorizer (which produces shuffle-heavy code for
// this accumulator shape). The vector width tracks the ISA macros the TU
// was compiled with; MR×NR accumulators fill 8 vector registers at every
// width.
//
// Determinism: each C element is one accumulator advanced by exactly one
// separately-rounded multiply and one add per k step, k ascending, seeded
// by the k=0 product (write-first). Vector lanes are independent element
// accumulators — width never changes any element's operation sequence, so
// every variant is bitwise identical (TUs compile with -ffp-contract=off,
// which keeps FMA-capable ISAs from fusing the mul and add). The splat
// helper broadcasts by copy, never via `0 + x`, which would flip the sign
// of a negative zero.
#pragma once

#include <cstdint>

#include "src/tensor/gemm_kernels.hpp"  // Epilogue (POD only; linkage-safe)

namespace splitmed::gemmk {
namespace {

// Scalar epilogue application for edge tiles and the portable fallback.
// Must stay the exact op-for-op sequence of the vector path below (and of
// the unfused layer code): each step is one separately-rounded IEEE op, so
// an element gets identical bits whether it was written by a full vector
// tile, an edge-tile spill, or any ISA variant. (pi, pj) are the element's
// global row/column in C.
inline float epilogue_apply(float x, const Epilogue& ep, std::int64_t pi,
                            std::int64_t pj) {
  const std::int64_t p = ep.per_row ? pi : pj;
  if (ep.bias != nullptr) x = x + ep.bias[p];
  if (ep.bn_gamma != nullptr) {
    x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
        ep.bn_beta[p];
  }
  if (ep.relu) x = x > 0.0F ? x : 0.0F;
  return x;
}

#if defined(__GNUC__) || defined(__clang__)

// vsplat uses an explicit initializer list (not a lane-assignment loop,
// which GCC lowers through the stack at 512 bits) so it compiles to one
// vbroadcastss. It must stay a pure copy — a `0 + s` style broadcast would
// flip the sign of a negative zero.
#if defined(__AVX512F__)
typedef float VecF __attribute__((vector_size(64), may_alias, aligned(4)));
constexpr const char* kIsaName = "avx512f";
inline VecF vsplat(float s) {
  return (VecF){s, s, s, s, s, s, s, s, s, s, s, s, s, s, s, s};
}
#elif defined(__AVX2__)
typedef float VecF __attribute__((vector_size(32), may_alias, aligned(4)));
constexpr const char* kIsaName = "avx2";
inline VecF vsplat(float s) { return (VecF){s, s, s, s, s, s, s, s}; }
#else
typedef float VecF __attribute__((vector_size(16), may_alias, aligned(4)));
constexpr const char* kIsaName = "base";
inline VecF vsplat(float s) { return (VecF){s, s, s, s}; }
#endif

constexpr int kW = static_cast<int>(sizeof(VecF) / sizeof(float));
constexpr int kMR = 4;        // A-block rows
constexpr int kNV = 2;        // vectors per row
constexpr int kNR = kW * kNV; // B-panel columns

inline VecF vload(const float* p) {
  return *reinterpret_cast<const VecF*>(p);
}
inline void vstore(float* p, VecF v) { *reinterpret_cast<VecF*>(p) = v; }

// The write-first, k-ascending fold of one full MR×NR tile over k >= 1
// packed steps. micro_kernel and acc_kernel both compute every product
// through this one body, so an element's fold is the same op sequence in
// either kernel.
__attribute__((always_inline)) inline void fold_tile(
    std::int64_t k, const float* ap, const float* bp, VecF (&acc)[kMR][kNV]) {
  for (int r = 0; r < kMR; ++r) {
    const VecF ar = vsplat(ap[r]);
    for (int v = 0; v < kNV; ++v) acc[r][v] = ar * vload(bp + v * kW);
  }
  for (std::int64_t kk = 1; kk < k; ++kk) {
    const float* a = ap + kk * kMR;
    const float* b = bp + kk * kNR;
    VecF bv[kNV];
    for (int v = 0; v < kNV; ++v) bv[v] = vload(b + v * kW);
    for (int r = 0; r < kMR; ++r) {
      const VecF ar = vsplat(a[r]);
      for (int v = 0; v < kNV; ++v) acc[r][v] += ar * bv[v];
    }
  }
}

void micro_kernel(std::int64_t k, const float* ap, const float* bp, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  const Epilogue* ep, std::int64_t i0, std::int64_t j0) {
  VecF acc[kMR][kNV];
  fold_tile(k, ap, bp, acc);
  if (mr == kMR && nr == kNR) {
    if (ep == nullptr) {
      for (int r = 0; r < kMR; ++r) {
        for (int v = 0; v < kNV; ++v) vstore(c + r * ldc + v * kW, acc[r][v]);
      }
      return;
    }
    // Vectorized write-back epilogue on the full tile. Per-row parameters
    // broadcast (vsplat is a pure copy); per-column parameters load the
    // lane-aligned slice [j0 + v*kW, +kW) — in bounds on a full tile. Every
    // lane runs the identical scalar op sequence of epilogue_apply, one
    // separately-rounded IEEE op per step (the vector ?: selects lanes,
    // matching `x > 0 ? x : 0` including -0.0 and NaN-to-zero).
    const VecF vzero = vsplat(0.0F);
    for (int r = 0; r < kMR; ++r) {
      for (int v = 0; v < kNV; ++v) {
        VecF x = acc[r][v];
        if (ep->bias != nullptr) {
          x = x + (ep->per_row ? vsplat(ep->bias[i0 + r])
                               : vload(ep->bias + j0 + v * kW));
        }
        if (ep->bn_gamma != nullptr) {
          VecF g, mean, inv, beta;
          if (ep->per_row) {
            g = vsplat(ep->bn_gamma[i0 + r]);
            mean = vsplat(ep->bn_mean[i0 + r]);
            inv = vsplat(ep->bn_inv_std[i0 + r]);
            beta = vsplat(ep->bn_beta[i0 + r]);
          } else {
            g = vload(ep->bn_gamma + j0 + v * kW);
            mean = vload(ep->bn_mean + j0 + v * kW);
            inv = vload(ep->bn_inv_std + j0 + v * kW);
            beta = vload(ep->bn_beta + j0 + v * kW);
          }
          x = ((g * (x - mean)) * inv) + beta;
        }
        if (ep->relu) x = x > vzero ? x : vzero;
        vstore(c + r * ldc + v * kW, x);
      }
    }
  } else {
    // Edge tile: spill the full block, then copy only the live mr×nr
    // corner (the packed panels are zero-padded past mr/nr, so the spilled
    // values are well-defined; identical floats to the full-tile path).
    // The epilogue runs scalarly on the live corner — elementwise, so bits
    // match the vector path exactly.
    float tmp[kMR][kNR];
    for (int r = 0; r < kMR; ++r) {
      for (int v = 0; v < kNV; ++v) vstore(&tmp[r][v * kW], acc[r][v]);
    }
    if (ep == nullptr) {
      for (std::int64_t r = 0; r < mr; ++r) {
        for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = tmp[r][j];
      }
    } else {
      for (std::int64_t r = 0; r < mr; ++r) {
        for (std::int64_t j = 0; j < nr; ++j) {
          c[r * ldc + j] =
              epilogue_apply(tmp[r][j], *ep, i0 + r, j0 + j);
        }
      }
    }
  }
}

// Segmented accumulation (AccKernelFn): the C tile is loaded into
// registers once, each segment's fold is computed fresh by fold_tile and
// added as `tot = tot + acc` (C's old value first), and the tile is stored
// once. An edge tile never touches C past its live mr×nr corner: the
// corner is copied into the zero-padded `tmp` spill, which the vectors
// load and store instead.
void acc_kernel(std::int64_t seg_len, std::int64_t segs, const float* ap,
                const float* bp, float* c, std::int64_t ldc, std::int64_t mr,
                std::int64_t nr) {
  const bool full = mr == kMR && nr == kNR;
  float tmp[kMR][kNR];
  float* t = full ? c : &tmp[0][0];
  const std::int64_t ldt = full ? ldc : kNR;
  if (!full) {
    for (std::int64_t r = 0; r < kMR; ++r) {
      for (std::int64_t j = 0; j < kNR; ++j) {
        tmp[r][j] = (r < mr && j < nr) ? c[r * ldc + j] : 0.0F;
      }
    }
  }
  VecF tot[kMR][kNV];
  for (int r = 0; r < kMR; ++r) {
    for (int v = 0; v < kNV; ++v) tot[r][v] = vload(t + r * ldt + v * kW);
  }
  for (std::int64_t s = 0; s < segs; ++s) {
    VecF acc[kMR][kNV];
    fold_tile(seg_len, ap + s * seg_len * kMR, bp + s * seg_len * kNR, acc);
    for (int r = 0; r < kMR; ++r) {
      for (int v = 0; v < kNV; ++v) tot[r][v] = tot[r][v] + acc[r][v];
    }
  }
  for (int r = 0; r < kMR; ++r) {
    for (int v = 0; v < kNV; ++v) vstore(t + r * ldt + v * kW, tot[r][v]);
  }
  if (!full) {
    for (std::int64_t r = 0; r < mr; ++r) {
      for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = tmp[r][j];
    }
  }
}

#else  // portable scalar fallback, same fold

constexpr const char* kIsaName = "scalar";
constexpr int kMR = 4;
constexpr int kNR = 8;

void fold_tile(std::int64_t k, const float* ap, const float* bp,
               float (&acc)[kMR][kNR]) {
  for (int r = 0; r < kMR; ++r) {
    const float ar = ap[r];
    for (int j = 0; j < kNR; ++j) acc[r][j] = ar * bp[j];
  }
  for (std::int64_t kk = 1; kk < k; ++kk) {
    const float* a = ap + kk * kMR;
    const float* b = bp + kk * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float ar = a[r];
      for (int j = 0; j < kNR; ++j) acc[r][j] += ar * b[j];
    }
  }
}

void micro_kernel(std::int64_t k, const float* ap, const float* bp, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  const Epilogue* ep, std::int64_t i0, std::int64_t j0) {
  float acc[kMR][kNR];
  fold_tile(k, ap, bp, acc);
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) {
      c[r * ldc + j] = (ep != nullptr)
                           ? epilogue_apply(acc[r][j], *ep, i0 + r, j0 + j)
                           : acc[r][j];
    }
  }
}

void acc_kernel(std::int64_t seg_len, std::int64_t segs, const float* ap,
                const float* bp, float* c, std::int64_t ldc, std::int64_t mr,
                std::int64_t nr) {
  float tot[kMR][kNR] = {};
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) tot[r][j] = c[r * ldc + j];
  }
  for (std::int64_t s = 0; s < segs; ++s) {
    float acc[kMR][kNR];
    fold_tile(seg_len, ap + s * seg_len * kMR, bp + s * seg_len * kNR, acc);
    for (int r = 0; r < kMR; ++r) {
      for (int j = 0; j < kNR; ++j) tot[r][j] = tot[r][j] + acc[r][j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = tot[r][j];
  }
}

#endif

}  // namespace
}  // namespace splitmed::gemmk
