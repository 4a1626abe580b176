// Fully-connected layer: y = x·Wᵀ + b, x: [batch, in], W: [out, in].
#pragma once

#include <span>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/tensor/gemm_kernels.hpp"

namespace splitmed::nn {

class Linear final : public Layer {
 public:
  /// He-normal weight init (library default: layers feed ReLUs), zero bias.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  /// Caches the input and runs x·Wᵀ with a bias-only epilogue — the same
  /// kernel every forward and infer of this layer goes through.
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_features() const { return in_; }
  [[nodiscard]] std::int64_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  /// The bias-only write-back epilogue of this layer's GEMM: x·Wᵀ puts
  /// output features in C COLUMNS, so the bias is indexed per column.
  [[nodiscard]] gemmk::Epilogue bias_epilogue() const;

  /// Plan executor entry points (src/nn/plan.hpp); see Conv2d for the
  /// contract.
  Tensor forward_ep(const Tensor& input, const gemmk::Epilogue& ep);
  void run_fused(std::span<const float> input, std::int64_t batch,
                 std::span<float> out, const gemmk::Epilogue& ep) const;

 private:
  std::int64_t in_;
  std::int64_t out_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace splitmed::nn
