// im2col / col2im lowering for convolutions.
//
// Conv2d forward is im2col + GEMM; its backward passes are GEMMs + col2im.
// Layout: images are NCHW. Each image lowers to a column block of
// [C*kh*kw, out_h*out_w] that sits inside a wider column matrix with row
// stride `col_stride`, so a group of g samples lowers side by side into one
// [C*kh*kw, g*out_h*out_w] slab and the conv runs one GEMM per group
// (docs/PERFORMANCE.md, "Batched conv lowering"). A lone image is the
// degenerate group: col_stride == col_cols().
#pragma once

#include <cstdint>
#include <span>

namespace splitmed {

/// Cap on a lowering group's column slab, [col_rows, g*col_cols] floats
/// (1 MiB): room for enough images to fill the GEMM's NR-wide column panels
/// when one image has only a handful of columns, while bounding each
/// lane's scratch.
inline constexpr std::int64_t kColSlabFloats = std::int64_t{1} << 18;

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  [[nodiscard]] std::int64_t out_h() const {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w() const {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
  /// Rows of the column matrix: channels * kernel_h * kernel_w.
  [[nodiscard]] std::int64_t col_rows() const {
    return channels * kernel_h * kernel_w;
  }
  /// Columns of one image's column block: out_h * out_w.
  [[nodiscard]] std::int64_t col_cols() const { return out_h() * out_w(); }
  /// Samples per lowering group: the most whose column blocks fit side by
  /// side in kColSlabFloats, and never fewer than one.
  [[nodiscard]] std::int64_t group_size() const;

  /// Throws InvalidArgument if the geometry is degenerate.
  void validate() const;
};

/// image: CHW contiguous (channels*in_h*in_w floats). Overwrites the
/// image's column block: element (r, j) of the [col_rows, col_cols] block
/// lands at col[r*col_stride + j], and col_stride >= col_cols(). Columns
/// outside the block are left untouched.
void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> col, std::int64_t col_stride);

/// Inverse scatter-add from the column block laid out as in im2col:
/// accumulates it back into image (image must be zeroed by the caller when
/// a fresh gradient is wanted).
void col2im(const ConvGeometry& g, std::span<const float> col,
            std::int64_t col_stride, std::span<float> image);

}  // namespace splitmed
