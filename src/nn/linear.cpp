#include "src/nn/linear.hpp"

#include <sstream>

#include "src/common/error.hpp"
#include "src/nn/init.hpp"
#include "src/tensor/gemm.hpp"

namespace splitmed::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("linear.weight",
              he_normal(Shape{out_features, in_features}, in_features, rng)),
      bias_("linear.bias", Tensor::zeros(Shape{out_features})) {
  SPLITMED_CHECK(in_features > 0 && out_features > 0,
                 "Linear: feature counts must be positive");
}

gemmk::Epilogue Linear::bias_epilogue() const {
  gemmk::Epilogue ep;
  ep.bias = bias_.value.data().data();
  ep.per_row = false;  // bias indexed by output feature = C column
  return ep;
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  return forward_ep(input, bias_epilogue());
}

Tensor Linear::forward_ep(const Tensor& input, const gemmk::Epilogue& ep) {
  SPLITMED_CHECK(input.shape().rank() == 2 && input.shape().dim(1) == in_,
                 "Linear(" << in_ << "->" << out_ << "): bad input "
                           << input.shape().str());
  cached_input_ = input;
  Tensor out(Shape{input.shape().dim(0), out_});
  run_fused(input.data(), input.shape().dim(0), out.data(), ep);
  return out;
}

void Linear::run_fused(std::span<const float> input, std::int64_t batch,
                       std::span<float> out,
                       const gemmk::Epilogue& ep) const {
  SPLITMED_CHECK(input.size() >= static_cast<std::size_t>(batch * in_) &&
                     out.size() >= static_cast<std::size_t>(batch * out_),
                 name() << ": run_fused span too small");
  // out = ep(x[b,in]·W[out,in]ᵀ): the elementwise tail is applied per C
  // column at write-back, after each element's k-fold.
  gemm_nt_ep(batch, out_, in_, input.first(static_cast<std::size_t>(
                                  batch * in_)),
             weight_.value.data(),
             out.first(static_cast<std::size_t>(batch * out_)), ep);
}

Tensor Linear::backward(const Tensor& grad_output) {
  const Shape& grad_shape = grad_output.shape();
  SPLITMED_CHECK(grad_shape.rank() == 2 && grad_shape.dim(1) == out_,
                 "Linear backward: bad grad " << grad_shape.str());
  SPLITMED_CHECK(cached_input_.shape().rank() == 2,
                 "Linear backward before forward");
  // dW += gᵀ·x : [out,b]·[b,in]; db += column sums of g; dx = g·W.
  // dW is one accumulating GEMM straight into the gradient: one segment
  // of k = batch steps, so each element becomes wg + fold, bitwise what
  // gemm_tn into scratch followed by an elementwise add gives.
  const std::int64_t batch = grad_shape.dim(0);
  gemm_tn_acc(out_, in_, batch, 1, grad_output.data(), cached_input_.data(),
              weight_.grad.data());
  auto bg = bias_.grad.data();
  for (std::int64_t r = 0; r < batch; ++r) {
    const float* row = grad_output.data().data() + r * out_;
    for (std::int64_t c = 0; c < out_; ++c) bg[c] += row[c];
  }
  // dx = g·W — the same gemm_nn call ops::matmul(grad_output, weight_.value)
  // lowers to (ops.cpp), bitwise identical.
  Tensor dx(Shape{batch, in_});
  gemm_nn(batch, in_, out_, grad_output.data(), weight_.value.data(),
          dx.data());
  return dx;
}

Shape Linear::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 2 && input.dim(1) == in_,
                 "Linear::output_shape: bad input " << input.str());
  return Shape{input.dim(0), out_};
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_ << "->" << out_ << ')';
  return os.str();
}

}  // namespace splitmed::nn
