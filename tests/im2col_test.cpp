// Tests for tensor/im2col.hpp: geometry, known lowering results, and the
// adjointness property <im2col(x), y> == <x, col2im(y)> that conv backward
// relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/im2col.hpp"

namespace splitmed {
namespace {

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 32, 32, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 1024);

  ConvGeometry strided{1, 8, 8, 3, 3, 2, 0};
  EXPECT_EQ(strided.out_h(), 3);
  EXPECT_EQ(strided.out_w(), 3);
}

TEST(ConvGeometry, ValidateRejectsDegenerate) {
  ConvGeometry bad{1, 2, 2, 5, 5, 1, 0};  // kernel larger than input
  EXPECT_THROW(bad.validate(), InvalidArgument);
  ConvGeometry neg{0, 4, 4, 3, 3, 1, 0};
  EXPECT_THROW(neg.validate(), InvalidArgument);
}

TEST(Im2col, Identity1x1Kernel) {
  // 1x1 kernel, stride 1, no pad: col == image.
  ConvGeometry g{2, 3, 3, 1, 1, 1, 0};
  std::vector<float> img(18);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(g, img, col, g.col_cols());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(col[i], img[i]);
}

TEST(Im2col, KnownSmallCase) {
  // 1 channel 2x2 image, 2x2 kernel, no pad: single output column holding
  // the whole image in kernel order.
  ConvGeometry g{1, 2, 2, 2, 2, 1, 0};
  const std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> col(4);
  im2col(g, img, col, g.col_cols());
  EXPECT_EQ(col, (std::vector<float>{1, 2, 3, 4}));
}

TEST(Im2col, PaddingProducesZeros) {
  // 1x1 image, 3x3 kernel, pad 1: only the center tap sees the pixel.
  ConvGeometry g{1, 1, 1, 3, 3, 1, 1};
  const std::vector<float> img = {5.0F};
  std::vector<float> col(9);
  im2col(g, img, col, g.col_cols());
  for (std::size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(col[r], r == 4 ? 5.0F : 0.0F) << "tap " << r;
  }
}

TEST(Col2im, AccumulatesOverlaps) {
  // 3x3 image, 2x2 kernel, stride 1: center pixel is covered by all 4
  // windows. col2im of all-ones must count coverage.
  ConvGeometry g{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()),
                         1.0F);
  std::vector<float> img(9, 0.0F);
  col2im(g, col, g.col_cols(), img);
  EXPECT_EQ(img[4], 4.0F);  // center: 4 windows
  EXPECT_EQ(img[0], 1.0F);  // corner: 1 window
  EXPECT_EQ(img[1], 2.0F);  // edge: 2 windows
}

TEST(Col2imAdjoint, InnerProductIdentity) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — exactly the identity
  // that makes conv's input-gradient correct.
  const ConvGeometry g{3, 7, 6, 3, 3, 2, 1};
  Rng rng(77);
  std::vector<float> x(static_cast<std::size_t>(g.channels * g.in_h * g.in_w));
  std::vector<float> y(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  std::vector<float> cx(y.size());
  im2col(g, x, cx, g.col_cols());
  std::vector<float> ay(x.size(), 0.0F);
  col2im(g, y, g.col_cols(), ay);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * ay[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

TEST(Im2col, RejectsTooSmallSpans) {
  ConvGeometry g{1, 4, 4, 3, 3, 1, 0};
  std::vector<float> img(15);  // needs 16
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  EXPECT_THROW(im2col(g, img, col, g.col_cols()), InvalidArgument);
}

TEST(Im2col, RejectsStrideNarrowerThanBlock) {
  ConvGeometry g{1, 4, 4, 3, 3, 1, 0};
  std::vector<float> img(16);
  std::vector<float> col(64);
  EXPECT_THROW(im2col(g, img, col, g.col_cols() - 1), InvalidArgument);
  EXPECT_THROW(col2im(g, col, g.col_cols() - 1, img), InvalidArgument);
  // The last row needs only col_cols() floats past its start.
  std::vector<float> short_col(
      static_cast<std::size_t>((g.col_rows() - 1) * 10 + g.col_cols() - 1));
  EXPECT_THROW(im2col(g, img, short_col, 10), InvalidArgument);
}

TEST(Im2col, StridedBlockMatchesContiguousAndLeavesNeighboursAlone) {
  // A batch lowers side by side: sample s's block starts at column
  // s*col_cols() of a [col_rows, g*col_cols] slab. Each block must hold
  // exactly the contiguous lowering, col2im must read it back the same
  // way, and a block must never write its neighbours' columns.
  const ConvGeometry g{3, 5, 5, 3, 3, 2, 1};
  constexpr std::int64_t kSamples = 3;
  const std::int64_t rows = g.col_rows(), cols = g.col_cols();
  const std::int64_t stride = kSamples * cols;
  const std::int64_t image = g.channels * g.in_h * g.in_w;
  Rng rng(79);
  std::vector<float> x(static_cast<std::size_t>(kSamples * image));
  for (auto& v : x) v = rng.normal();
  std::vector<float> slab(static_cast<std::size_t>(rows * stride), -7.0F);
  const auto at = [](std::int64_t i) { return static_cast<std::size_t>(i); };
  const std::span<const float> xs(x);
  const std::span<float> ss(slab);
  im2col(g, xs.subspan(at(image), at(image)), ss.subspan(at(cols)), stride);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < stride; ++j) {
      if (j < cols || j >= 2 * cols) {
        EXPECT_EQ(slab[at(r * stride + j)], -7.0F) << r << "," << j;
      }
    }
  }
  for (std::int64_t s = 0; s < kSamples; s += 2) {
    im2col(g, xs.subspan(at(s * image), at(image)), ss.subspan(at(s * cols)),
           stride);
  }
  for (std::int64_t s = 0; s < kSamples; ++s) {
    std::vector<float> one(static_cast<std::size_t>(rows * cols));
    im2col(g, xs.subspan(at(s * image), at(image)), one, cols);
    std::vector<float> back_one(static_cast<std::size_t>(image), 0.0F);
    std::vector<float> back_slab(back_one.size(), 0.0F);
    col2im(g, one, cols, back_one);
    col2im(g, ss.subspan(at(s * cols)), stride, back_slab);
    EXPECT_EQ(back_slab, back_one) << "sample " << s;
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < cols; ++j) {
        ASSERT_EQ(slab[at(r * stride + s * cols + j)], one[at(r * cols + j)])
            << "sample " << s << " row " << r << " col " << j;
      }
    }
  }
}

TEST(ConvGeometry, GroupSizeFillsTheColumnSlabCap) {
  // 128 channels, 3x3, 1x1 output: 1152 floats per sample.
  const ConvGeometry deep{128, 2, 2, 3, 3, 2, 1};
  EXPECT_EQ(deep.group_size(), kColSlabFloats / 1152);
  EXPECT_LE(deep.group_size() * deep.col_rows() * deep.col_cols(),
            kColSlabFloats);
  // One sample's block already over the cap: a group of one.
  const ConvGeometry wide{64, 128, 128, 3, 3, 1, 1};
  EXPECT_EQ(wide.group_size(), 1);
}

}  // namespace
}  // namespace splitmed
