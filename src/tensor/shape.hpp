// Tensor shapes. A Shape is an ordered list of non-negative dimensions
// (row-major layout throughout the library) whose element count fits in
// int64. Rank 0 denotes a scalar.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace splitmed {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  [[nodiscard]] std::size_t rank() const { return dims_.size(); }

  /// Dimension at axis; negative axes count from the back (-1 == last).
  [[nodiscard]] std::int64_t dim(std::int64_t axis) const;

  [[nodiscard]] const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Product of all dims (1 for a scalar shape).
  [[nodiscard]] std::int64_t numel() const;

  /// Row-major strides in elements.
  [[nodiscard]] std::vector<std::int64_t> strides() const;

  /// "[2, 3, 32, 32]"
  [[nodiscard]] std::string str() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

 private:
  /// Rejects negative dims and dims whose product overflows int64.
  void validate() const;

  std::vector<std::int64_t> dims_;
};

/// Throws ShapeError with a readable message when a != b.
void check_same_shape(const Shape& a, const Shape& b, const char* context);

}  // namespace splitmed
