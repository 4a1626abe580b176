// Packed, register-blocked single-precision GEMM kernels on raw spans.
// ops::matmul* wrap these with shape checking; nn::Conv2d uses them via
// im2col, and the layers' weight gradients accumulate through the
// segmented *_acc drivers. See docs/PERFORMANCE.md for the kernel design
// and the bitwise-determinism contract (identical results for any thread
// count and any micro-kernel ISA variant, bitwise equal to the *_ref
// kernels below).
#pragma once

#include <cstdint>
#include <span>

#include "src/tensor/gemm_kernels.hpp"

namespace splitmed {

/// C[m,n] = A[m,k] * B[k,n]  (C is overwritten).
void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

/// C[m,n] = A[k,m]^T * B[k,n].
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

/// C[m,n] = A[m,k] * B[n,k]^T.
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

/// gemm_nn with a fused write-back epilogue (gemmk::Epilogue): each C
/// element gets the elementwise tail applied AFTER its k-fold completes, at
/// write-back — bitwise identical to gemm_nn followed by the same
/// elementwise passes, for any thread count and ISA variant. When k <= 0
/// the epilogue is applied to the zero matrix (matching the unfused
/// sequence). Parameter spans must cover m (per_row) or n (per-column).
void gemm_nn_ep(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const float> a, std::span<const float> b,
                std::span<float> c, const gemmk::Epilogue& ep);

/// gemm_nt with a fused write-back epilogue; see gemm_nn_ep.
void gemm_nt_ep(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const float> a, std::span<const float> b,
                std::span<float> c, const gemmk::Epilogue& ep);

/// Segmented, accumulating C[m,n] += A[m,k] * B[n,k]^T with
/// k = seg_len * segs, cut into `segs` segments of seg_len steps. Each C
/// element becomes
///   ((c + fold_0) + fold_1) + ... + fold_{segs-1}
/// where fold_s is gemm_nt's write-first, k-ascending fold over segment s
/// alone: bitwise what a gemm_nt per segment into scratch followed by
/// `c = c + scratch` in segment order produces, for any thread count and
/// ISA variant. Conv2d folds a sample group's weight gradient this way,
/// one segment per sample. With seg_len == 0 every fold is +0.
void gemm_nt_acc(std::int64_t m, std::int64_t n, std::int64_t seg_len,
                 std::int64_t segs, std::span<const float> a,
                 std::span<const float> b, std::span<float> c);

/// gemm_nt_acc with A stored transposed: C[m,n] += A[k,m]^T * B[k,n], the
/// same per-segment fold as gemm_tn (Linear's weight gradient).
void gemm_tn_acc(std::int64_t m, std::int64_t n, std::int64_t seg_len,
                 std::int64_t segs, std::span<const float> a,
                 std::span<const float> b, std::span<float> c);

/// Serial naive reference kernels: the strict k-ascending, write-first left
/// fold that the packed kernels above must reproduce BITWISE (asserted
/// across shapes and thread counts by gemm_test). Single-threaded, no
/// packing, no scratch — the semantic ground truth and the benchmark
/// baseline.
void gemm_nn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c);
void gemm_tn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c);
void gemm_nt_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c);

/// Name of the micro-kernel variant the packed kernels dispatched to for
/// this process: "base", "avx2", or "avx512f" (see
/// src/tensor/gemm_kernels.hpp).
[[nodiscard]] const char* gemm_kernel_isa();

}  // namespace splitmed
