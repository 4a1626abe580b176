#include "src/tensor/im2col.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"

namespace splitmed {
namespace {

// Minimum per-chunk element traffic before a fork-join pays off.
constexpr std::int64_t kParallelElems = 16 * 1024;

/// The x range [x0, x1) for which ix = x*stride + shift stays inside
/// [0, in_w), clamped to [0, ow) — the branch-free interior of the output
/// row; everything outside is padding. x0 <= x1 always.
struct XRange {
  std::int64_t x0 = 0;
  std::int64_t x1 = 0;
};

XRange interior_range(std::int64_t shift, std::int64_t stride,
                      std::int64_t in_w, std::int64_t ow) {
  XRange r;
  r.x0 = shift < 0 ? (-shift + stride - 1) / stride : 0;
  r.x0 = std::min(r.x0, ow);
  const std::int64_t hi = in_w - 1 - shift;  // largest valid x*stride
  r.x1 = hi < 0 ? 0 : std::min(ow, hi / stride + 1);
  r.x1 = std::max(r.x1, r.x0);
  return r;
}

/// Channels per parallel chunk; each channel moves kernel_h*kernel_w*oh*ow
/// elements and touches only its own slice of both buffers.
std::int64_t channel_grain(const ConvGeometry& g) {
  const std::int64_t per_channel = std::max<std::int64_t>(
      g.kernel_h * g.kernel_w * g.out_h() * g.out_w(), 1);
  return std::max<std::int64_t>(1, kParallelElems / per_channel);
}

/// A column block of col_rows() rows at row stride col_stride must fit in
/// col_size floats; its last row needs only col_cols() of them.
void check_col_block(const ConvGeometry& g, std::size_t col_size,
                     std::int64_t col_stride, const char* who) {
  SPLITMED_CHECK(col_stride >= g.col_cols(),
                 who << ": col_stride " << col_stride << " < col_cols "
                     << g.col_cols());
  const std::int64_t need = (g.col_rows() - 1) * col_stride + g.col_cols();
  SPLITMED_CHECK(col_size >= static_cast<std::size_t>(need),
                 who << ": col span too small");
}

}  // namespace

void ConvGeometry::validate() const {
  SPLITMED_CHECK(channels > 0 && in_h > 0 && in_w > 0,
                 "conv geometry: non-positive input dims");
  SPLITMED_CHECK(kernel_h > 0 && kernel_w > 0, "conv geometry: bad kernel");
  SPLITMED_CHECK(stride > 0, "conv geometry: stride must be positive");
  SPLITMED_CHECK(pad >= 0, "conv geometry: negative padding");
  SPLITMED_CHECK(out_h() > 0 && out_w() > 0,
                 "conv geometry: kernel larger than padded input");
}

std::int64_t ConvGeometry::group_size() const {
  return std::max<std::int64_t>(1, kColSlabFloats / (col_rows() * col_cols()));
}

void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> col, std::int64_t col_stride) {
  SPLITMED_CHECK(image.size() >=
                     static_cast<std::size_t>(g.channels * g.in_h * g.in_w),
                 "im2col: image span too small");
  check_col_block(g, col.size(), col_stride, "im2col");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Channel c fills exactly col rows [c*kh*kw, (c+1)*kh*kw) from its own
  // image plane — disjoint reads and writes, so any channel partition (and
  // the tap-major sweep inside a chunk) is bitwise identical to the serial
  // channel-major sweep.
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  parallel_for(0, g.channels, channel_grain(g), [&](std::int64_t c0,
                                                    std::int64_t c1) {
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
      // Split each output row into zero prefix / branch-free interior /
      // zero suffix instead of testing bounds per element — identical
      // values, and the interior copy vectorizes. The split depends only
      // on the tap, so it is worked out once per tap, not per channel.
      const std::int64_t shift = kw - g.pad;
      const auto [x0, x1] = interior_range(shift, g.stride, g.in_w, ow);
      const std::int64_t tap = kh * g.kernel_w + kw;
      for (std::int64_t c = c0; c < c1; ++c) {
        const float* chan = image.data() + c * g.in_h * g.in_w;
        float* out_row = col.data() + (c * taps + tap) * col_stride;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          float* out = out_row + y * ow;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t x = 0; x < ow; ++x) out[x] = 0.0F;
            continue;
          }
          const float* in_row = chan + iy * g.in_w;
          for (std::int64_t x = 0; x < x0; ++x) out[x] = 0.0F;
          if (g.stride == 1) {
            const float* src = in_row + shift;
            for (std::int64_t x = x0; x < x1; ++x) out[x] = src[x];
          } else {
            for (std::int64_t x = x0; x < x1; ++x) {
              out[x] = in_row[x * g.stride + shift];
            }
          }
          for (std::int64_t x = x1; x < ow; ++x) out[x] = 0.0F;
        }
      }
    }
  }
  });
}

void col2im(const ConvGeometry& g, std::span<const float> col,
            std::int64_t col_stride, std::span<float> image) {
  SPLITMED_CHECK(image.size() >=
                     static_cast<std::size_t>(g.channels * g.in_h * g.in_w),
                 "col2im: image span too small");
  check_col_block(g, col.size(), col_stride, "col2im");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Channel c accumulates only into its own image plane, from its own col
  // rows, in the serial kh/kw/y/x order — the accumulation order within a
  // plane is identical for every channel partition and for the tap-major
  // sweep inside a chunk.
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  parallel_for(0, g.channels, channel_grain(g), [&](std::int64_t c0,
                                                    std::int64_t c1) {
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
      // Only the in-bounds interior contributes; x still ascends, so the
      // accumulation order per image element is unchanged.
      const std::int64_t shift = kw - g.pad;
      const auto [x0, x1] = interior_range(shift, g.stride, g.in_w, ow);
      const std::int64_t tap = kh * g.kernel_w + kw;
      for (std::int64_t c = c0; c < c1; ++c) {
        float* chan = image.data() + c * g.in_h * g.in_w;
        const float* in_row_base = col.data() + (c * taps + tap) * col_stride;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          const float* in = in_row_base + y * ow;
          float* out_row = chan + iy * g.in_w;
          if (g.stride == 1) {
            float* dst = out_row + shift;
            for (std::int64_t x = x0; x < x1; ++x) dst[x] += in[x];
          } else {
            for (std::int64_t x = x0; x < x1; ++x) {
              out_row[x * g.stride + shift] += in[x];
            }
          }
        }
      }
    }
  }
  });
}

}  // namespace splitmed
