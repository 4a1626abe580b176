#include "src/data/dataset.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace splitmed::data {

Dataset::Dataset(Tensor images, std::vector<std::int64_t> labels,
                 std::int64_t num_classes)
    : images_(std::move(images)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  const Shape& nchw = images_.shape();
  SPLITMED_CHECK(nchw.rank() == 4, "dataset images must be NCHW, got "
                                       << nchw.str());
  SPLITMED_CHECK(nchw.dim(0) == size(), "dataset has " << nchw.dim(0)
                                                       << " images but "
                                                       << size() << " labels");
  SPLITMED_CHECK(num_classes_ > 0, "need at least one class");
  for (const auto y : labels_) {
    SPLITMED_CHECK(y >= 0 && y < num_classes_,
                   "label " << y << " out of range [0, " << num_classes_
                            << ')');
  }
  image_shape_ = Shape{nchw.dim(1), nchw.dim(2), nchw.dim(3)};
}

void Dataset::check_index(std::int64_t i) const {
  SPLITMED_CHECK(i >= 0 && i < size(),
                 "dataset index " << i << " out of range [0, " << size()
                                  << ')');
}

void Dataset::copy_image(std::int64_t i, float* out) const {
  check_index(i);
  const std::int64_t elems = image_shape_.numel();
  const float* row = images_.data().data() + i * elems;
  std::copy(row, row + elems, out);
}

Tensor Dataset::image(std::int64_t i) const {
  Tensor img(image_shape_);
  copy_image(i, img.data().data());
  return img;
}

std::int64_t Dataset::label(std::int64_t i) const {
  check_index(i);
  return labels_[static_cast<std::size_t>(i)];
}

Tensor Dataset::batch_images(std::span<const std::int64_t> indices) const {
  const auto rows = static_cast<std::int64_t>(indices.size());
  Tensor batch{Shape{rows, image_shape_.dim(0), image_shape_.dim(1),
                     image_shape_.dim(2)}};
  float* out = batch.data().data();
  const std::int64_t elems = image_shape_.numel();
  for (std::int64_t r = 0; r < rows; ++r) {
    copy_image(indices[static_cast<std::size_t>(r)], out + r * elems);
  }
  return batch;
}

std::vector<std::int64_t> Dataset::batch_labels(
    std::span<const std::int64_t> indices) const {
  std::vector<std::int64_t> out;
  out.reserve(indices.size());
  for (const auto i : indices) out.push_back(label(i));
  return out;
}

}  // namespace splitmed::data
