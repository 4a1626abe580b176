// 2-D convolution (NCHW) via im2col + GEMM, lowered one sample group at a
// time: a group's samples sit side by side in one column slab and share one
// GEMM (docs/PERFORMANCE.md, "Batched conv lowering").
#pragma once

#include <span>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/im2col.hpp"

namespace splitmed::nn {

class Conv2d final : public Layer {
 public:
  /// Square kernel, symmetric padding. He-normal init, zero bias.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng);

  /// Caches the input and runs the GEMM with a bias-only epilogue — the
  /// same kernel every forward and infer of this layer goes through.
  Tensor forward(const Tensor& input, bool training) override;
  /// The input gradient runs one gemm_tn per sample group; dW is one
  /// gemm_nt_acc per group, adding each sample's fold to the gradient in
  /// ascending sample order, and db adds per-sample sums in that order.
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_channels() const { return in_c_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_c_; }
  /// The bias-only write-back epilogue of this layer's GEMM: bias per C
  /// row (= output channel). Fused groups add their tail to it.
  [[nodiscard]] gemmk::Epilogue bias_epilogue() const;

  /// Plan executor entry points (src/nn/plan.hpp). forward() with the
  /// elementwise tail `ep` (built on bias_epilogue()) fused into the GEMM
  /// write-back. Caches the input for backward; the fused OUTPUT is the
  /// caller's to cache (dReLU masks on it).
  Tensor forward_ep(const Tensor& input, const gemmk::Epilogue& ep);
  /// Raw-span variant for slab-chained inference: input/out are NCHW with
  /// the given geometry; out must hold batch*out_channels*out_h*out_w.
  /// Every forward and infer of this layer runs here: one
  /// gemm_nn_ep(out_c, g*out_h*out_w, in_c*k*k) per group of g samples.
  void run_fused(std::span<const float> input, std::int64_t batch,
                 std::int64_t in_h, std::int64_t in_w, std::span<float> out,
                 const gemmk::Epilogue& ep) const;

 private:
  [[nodiscard]] ConvGeometry geometry(std::int64_t in_h,
                                      std::int64_t in_w) const;

  std::int64_t in_c_;
  std::int64_t out_c_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  Parameter weight_;  // [out_c, in_c * k * k]
  Parameter bias_;    // [out_c]
  Tensor cached_input_;
};

}  // namespace splitmed::nn
