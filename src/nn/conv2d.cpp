#include "src/nn/conv2d.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/init.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {

namespace {

std::size_t at(std::int64_t i) { return static_cast<std::size_t>(i); }

// Minimum floats a chunk of the weight-gradient lowering moves before a
// fork-join pays off.
constexpr std::int64_t kLowerGrain = 16 * 1024;

/// Splits [0, batch) into lowering groups and runs body(b0, b1, most) once
/// per group, where `most` is the size of the largest group. There are
/// enough groups to keep each within g.group_size() samples, and at least
/// as many as the pool has free lanes while the batch allows; sizes differ
/// by at most one. Groups write disjoint outputs and run in parallel. A
/// single group runs inline, and its GEMM partitions its own rows over the
/// pool. Bodies size their scratch by `most`, so every lane's arena settles
/// at one high-water mark whichever groups it draws.
void for_each_group(
    const ConvGeometry& g, std::int64_t batch,
    FunctionRef<void(std::int64_t, std::int64_t, std::int64_t)> body) {
  const std::int64_t lanes = in_parallel_region() ? 1 : global_threads();
  const std::int64_t groups =
      std::max((batch + g.group_size() - 1) / g.group_size(),
               std::min(batch, lanes));
  const std::int64_t most = groups > 0 ? (batch + groups - 1) / groups : 0;
  parallel_for(0, groups, 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      body(i * batch / groups, (i + 1) * batch / groups, most);
    }
  });
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("conv.weight",
              he_normal(Shape{out_channels, in_channels * kernel * kernel},
                        in_channels * kernel * kernel, rng)),
      bias_("conv.bias", Tensor::zeros(Shape{out_channels})) {
  SPLITMED_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0 && pad >= 0,
                 "Conv2d: bad hyperparameters");
}

ConvGeometry Conv2d::geometry(std::int64_t in_h, std::int64_t in_w) const {
  ConvGeometry g;
  g.channels = in_c_;
  g.in_h = in_h;
  g.in_w = in_w;
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  g.validate();
  return g;
}

gemmk::Epilogue Conv2d::bias_epilogue() const {
  gemmk::Epilogue ep;
  ep.bias = bias_.value.data().data();
  ep.per_row = true;  // conv GEMM rows are output channels
  return ep;
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  return forward_ep(input, bias_epilogue());
}

Tensor Conv2d::forward_ep(const Tensor& input, const gemmk::Epilogue& ep) {
  SPLITMED_CHECK(input.shape().rank() == 4 && input.shape().dim(1) == in_c_,
                 name() << ": bad input " << input.shape().str());
  cached_input_ = input;
  Tensor out(output_shape(input.shape()));
  run_fused(input.data(), input.shape().dim(0), input.shape().dim(2),
            input.shape().dim(3), out.data(), ep);
  return out;
}

void Conv2d::run_fused(std::span<const float> input, std::int64_t batch,
                       std::int64_t in_h, std::int64_t in_w,
                       std::span<float> out,
                       const gemmk::Epilogue& ep) const {
  const ConvGeometry g = geometry(in_h, in_w);
  const std::int64_t crk = g.col_rows(), ohw = g.col_cols();
  const std::int64_t image_elems = in_c_ * g.in_h * g.in_w;
  const std::int64_t out_elems = out_c_ * ohw;
  SPLITMED_CHECK(
      input.size() >= static_cast<std::size_t>(batch * image_elems) &&
          out.size() >= static_cast<std::size_t>(batch * out_elems),
      name() << ": run_fused span too small");
  // One GEMM per sample group: the group's samples lower side by side into
  // cols[crk, n = gs*ohw], and C[out_c, n] = ep(W · cols). Every C element
  // is the same k-ascending fold it is per sample; the epilogue (bias / bn
  // / relu, per output channel = per C row) is applied at write-back. Each
  // sample's [out_c, ohw] block of C is then copied to its output plane.
  // Scratch comes from the running thread's arena.
  for_each_group(g, batch, [&](std::int64_t b0, std::int64_t b1,
                               std::int64_t most) {
    const std::int64_t gs = b1 - b0, n = gs * ohw;
    ws::WorkspaceScope scratch;
    std::span<float> cols = scratch.floats(crk * most * ohw);
    for (std::int64_t s = 0; s < gs; ++s) {
      im2col(g, input.subspan(at((b0 + s) * image_elems), at(image_elems)),
             cols.subspan(at(s * ohw)), n);
    }
    // With one sample per group, C is the sample's output plane.
    std::span<float> c =
        most == 1 ? out.subspan(at(b0 * out_elems), at(out_elems))
                  : scratch.floats(out_c_ * most * ohw);
    gemm_nn_ep(out_c_, n, crk, weight_.value.data(), cols, c, ep);
    if (most == 1) return;
    for (std::int64_t s = 0; s < gs; ++s) {
      for (std::int64_t oc = 0; oc < out_c_; ++oc) {
        std::copy_n(c.data() + oc * n + s * ohw, ohw,
                    out.data() + (b0 + s) * out_elems + oc * ohw);
      }
    }
  });
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(cached_input_.shape().rank() == 4,
                 "Conv2d backward before forward");
  const std::int64_t batch = cached_input_.shape().dim(0);
  const ConvGeometry g =
      geometry(cached_input_.shape().dim(2), cached_input_.shape().dim(3));
  const std::int64_t crk = g.col_rows(), ohw = g.col_cols();
  check_same_shape(grad_output.shape(), Shape{batch, out_c_, g.out_h(),
                                              g.out_w()},
                   "Conv2d backward");

  Tensor grad_input(cached_input_.shape());

  const std::int64_t image_elems = in_c_ * g.in_h * g.in_w;
  const std::int64_t out_elems = out_c_ * ohw;
  auto id = cached_input_.data();
  auto gd = grad_output.data();
  auto gi = grad_input.data();
  auto wg = weight_.grad.data();
  auto bg = bias_.grad.data();

  // Input gradient, one GEMM per sample group: the group's grad_output
  // planes are gathered side by side into g_out[out_c, n = gs*ohw],
  // dcol[crk, n] = Wᵀ · g_out (gemm_tn), and col2im scatter-adds each
  // sample's column block into its own disjoint grad_input planes.
  for_each_group(g, batch, [&](std::int64_t b0, std::int64_t b1,
                               std::int64_t most) {
    const std::int64_t gs = b1 - b0, n = gs * ohw;
    ws::WorkspaceScope scratch;
    // With one sample per group, the sample's plane is read in place.
    std::span<const float> g_out =
        gd.subspan(at(b0 * out_elems), at(out_elems));
    if (most > 1) {
      std::span<float> gathered = scratch.floats(out_c_ * most * ohw);
      for (std::int64_t s = 0; s < gs; ++s) {
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
          std::copy_n(gd.data() + (b0 + s) * out_elems + oc * ohw, ohw,
                      gathered.data() + oc * n + s * ohw);
        }
      }
      g_out = gathered;
    }
    std::span<float> dcol = scratch.floats(crk * most * ohw);
    gemm_tn(crk, n, out_c_, weight_.value.data(), g_out, dcol);
    for (std::int64_t s = 0; s < gs; ++s) {
      col2im(g, dcol.subspan(at(s * ohw)), n,
             gi.subspan(at((b0 + s) * image_elems), at(image_elems)));
    }
  });

  // Weight and bias gradients, one segmented accumulating GEMM per
  // lowering group, groups in ascending sample order. A group's samples
  // lower side by side into cols[crk, n = gs*ohw] as in forward, its
  // grad_output planes gather into g_out[out_c, n] as above, and
  // gemm_nt_acc adds each sample's k = ohw fold to wg in sample order:
  // wg = ((wg + dW_b0) + dW_b0+1) + ..., bitwise the per-sample sum for
  // any thread count. Each bg[oc] gets the sample's spatial sum, in the
  // same order. Both loops below split by channel, so chunks write
  // disjoint rows.
  const std::int64_t gmax = std::min(batch, g.group_size());
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t plane = g.in_h * g.in_w;
  ws::WorkspaceScope scratch;
  std::span<float> cols = scratch.floats(crk * gmax * ohw);
  std::span<float> gathered =
      gmax > 1 ? scratch.floats(out_c_ * gmax * ohw) : std::span<float>{};
  for (std::int64_t b0 = 0; b0 < batch; b0 += gmax) {
    const std::int64_t gs = std::min(gmax, batch - b0), n = gs * ohw;
    // Input channel c fills only col rows [c*taps, (c+1)*taps) of every
    // sample's column block, so a channel range lowers as a narrower
    // geometry over its slice of the planes.
    parallel_for(0, in_c_, std::max<std::int64_t>(1, kLowerGrain / (taps * n)),
                 [&](std::int64_t c0, std::int64_t c1) {
      ConvGeometry sub = g;
      sub.channels = c1 - c0;
      for (std::int64_t s = 0; s < gs; ++s) {
        im2col(sub,
               id.subspan(at((b0 + s) * image_elems + c0 * plane),
                          at((c1 - c0) * plane)),
               cols.subspan(at(c0 * taps * n + s * ohw)), n);
      }
    });
    parallel_for(0, out_c_, std::max<std::int64_t>(1, kLowerGrain / n),
                 [&](std::int64_t o0, std::int64_t o1) {
      for (std::int64_t oc = o0; oc < o1; ++oc) {
        for (std::int64_t s = 0; s < gs; ++s) {
          const float* src = gd.data() + (b0 + s) * out_elems + oc * ohw;
          if (gs > 1) std::copy_n(src, ohw, gathered.data() + oc * n + s * ohw);
          float acc = src[0];
          for (std::int64_t i = 1; i < ohw; ++i) acc += src[i];
          bg[oc] += acc;
        }
      }
    });
    std::span<const float> g_out =
        gs > 1 ? std::span<const float>(gathered)
               : gd.subspan(at(b0 * out_elems), at(out_elems));
    gemm_nt_acc(out_c_, crk, ohw, gs, g_out, cols, wg);
  }
  return grad_input;
}

Shape Conv2d::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 4 && input.dim(1) == in_c_,
                 name() << "::output_shape: bad input " << input.str());
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  return Shape{input.dim(0), out_c_, g.out_h(), g.out_w()};
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_c_ << "->" << out_c_ << ", k" << kernel_ << " s"
     << stride_ << " p" << pad_ << ')';
  return os.str();
}

}  // namespace splitmed::nn
