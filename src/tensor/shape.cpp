#include "src/tensor/shape.hpp"

#include <sstream>

#include "src/common/error.hpp"

namespace splitmed {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  validate();
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  validate();
}

void Shape::validate() const {
  // The product of the non-zero dims bounds every prefix and suffix product,
  // so once it fits, numel() and strides() cannot overflow.
  std::int64_t product = 1;
  for (const auto d : dims_) {
    SPLITMED_CHECK(d >= 0, "negative dimension in shape " << str());
    SPLITMED_CHECK(d == 0 || !__builtin_mul_overflow(product, d, &product),
                   "shape " << str() << " has more elements than int64 holds");
  }
}

std::int64_t Shape::dim(std::int64_t axis) const {
  const auto r = static_cast<std::int64_t>(rank());
  if (axis < 0) axis += r;
  SPLITMED_CHECK(axis >= 0 && axis < r,
                 "axis " << axis << " out of range for shape " << str());
  return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (const auto d : dims_) n *= d;
  return n;
}

std::vector<std::int64_t> Shape::strides() const {
  std::vector<std::int64_t> s(rank(), 1);
  for (std::size_t i = rank(); i-- > 1;) {
    s[i - 1] = s[i] * dims_[i];
  }
  return s;
}

std::string Shape::str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

void check_same_shape(const Shape& a, const Shape& b, const char* context) {
  if (a != b) {
    throw ShapeError(std::string(context) + ": shape mismatch " + a.str() +
                     " vs " + b.str());
  }
}

}  // namespace splitmed
