// Dataset: a fixed set of labelled images held in memory.
//
// Images are CHW float tensors stored back to back in one contiguous
// [N, C, H, W] tensor, and a batch is a bounds-checked gather copy of rows
// into an NCHW tensor. The synthetic stand-ins for CIFAR / patient records
// render every example once, at construction, deterministically from
// (seed, index), so two runs with the same seed see identical data. The
// pixels cost N·C·H·W·4 bytes for the dataset's lifetime: 6.3 MB for 8192
// RGB images of 8×8, 3.1 MB for 1024 of 3×16×16.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace splitmed::data {

class Dataset {
 public:
  /// Takes `images` as [N, C, H, W] and one label in [0, num_classes) per
  /// image.
  Dataset(Tensor images, std::vector<std::int64_t> labels,
          std::int64_t num_classes);

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(labels_.size());
  }
  [[nodiscard]] const Shape& image_shape() const { return image_shape_; }  // CHW
  [[nodiscard]] std::int64_t num_classes() const { return num_classes_; }

  /// Example i as a CHW tensor (a copy of row i).
  [[nodiscard]] Tensor image(std::int64_t i) const;
  [[nodiscard]] std::int64_t label(std::int64_t i) const;

  /// Gathers examples into an NCHW batch.
  [[nodiscard]] Tensor batch_images(std::span<const std::int64_t> indices) const;
  [[nodiscard]] std::vector<std::int64_t> batch_labels(
      std::span<const std::int64_t> indices) const;

 private:
  void check_index(std::int64_t i) const;
  /// Copies row i of the image slab to `out`.
  void copy_image(std::int64_t i, float* out) const;

  Tensor images_;  // [N, C, H, W]
  Shape image_shape_;
  std::vector<std::int64_t> labels_;
  std::int64_t num_classes_;
};

}  // namespace splitmed::data
