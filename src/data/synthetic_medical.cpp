#include "src/data/synthetic_medical.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace splitmed::data {
namespace {

/// Renders the scan at `virtual_index` (lesion grade `grade`) into `out`, an
/// n×n buffer. Each scan draws from its own Rng stream.
void render_image(const SyntheticMedicalOptions& o, std::int64_t grade,
                  std::uint64_t virtual_index, float* out) {
  Rng rng(o.seed ^ (0xBF58476D1CE4E5B9ULL +
                    virtual_index * 0x94D049BB133111EBULL));
  const std::int64_t n = o.image_size;

  // Anatomical background: radial ring structure + smooth gradient, shared by
  // all grades so only the lesion is informative.
  const float cx = static_cast<float>(n) / 2 + rng.uniform(-2.0F, 2.0F);
  const float cy = static_cast<float>(n) / 2 + rng.uniform(-2.0F, 2.0F);
  const float ring_freq = rng.uniform(0.5F, 0.7F);
  const float gx = rng.uniform(-0.3F, 0.3F) / static_cast<float>(n);
  const float gy = rng.uniform(-0.3F, 0.3F) / static_cast<float>(n);

  // Lesion parameters scale with grade; grade 0 has no lesion.
  const float grade_frac =
      static_cast<float>(grade) / static_cast<float>(o.num_grades - 1);
  const float lesion_sigma = 1.5F + 2.5F * grade_frac;
  const float lesion_gain = grade == 0 ? 0.0F : 0.5F + 0.5F * grade_frac;
  const float lx = rng.uniform(0.25F, 0.75F) * static_cast<float>(n);
  const float ly = rng.uniform(0.25F, 0.75F) * static_cast<float>(n);

  for (std::int64_t y = 0; y < n; ++y) {
    for (std::int64_t x = 0; x < n; ++x) {
      const float dx = static_cast<float>(x) - cx;
      const float dy = static_cast<float>(y) - cy;
      const float r = std::sqrt(dx * dx + dy * dy);
      float v = 0.45F + 0.15F * std::sin(ring_freq * r) +
                gx * static_cast<float>(x) + gy * static_cast<float>(y);
      if (lesion_gain > 0.0F) {
        const float ldx = static_cast<float>(x) - lx;
        const float ldy = static_cast<float>(y) - ly;
        v += lesion_gain *
             std::exp(-(ldx * ldx + ldy * ldy) /
                      (2.0F * lesion_sigma * lesion_sigma));
      }
      v += o.noise_stddev * rng.normal();
      out[y * n + x] = v;
    }
  }
}

Dataset render(const SyntheticMedicalOptions& o) {
  SPLITMED_CHECK(o.num_examples >= 0, "negative example count");
  SPLITMED_CHECK(o.num_grades >= 2, "need at least healthy + 1 grade");
  SPLITMED_CHECK(o.image_size >= 8, "image too small for lesions");
  SPLITMED_CHECK(o.index_offset >= 0 &&
                     o.index_offset <= std::numeric_limits<std::int64_t>::max() -
                                           o.num_examples,
                 "index_offset " << o.index_offset << " with "
                                 << o.num_examples
                                 << " examples leaves [0, int64 max]");
  Tensor images(Shape{o.num_examples, 1, o.image_size, o.image_size});
  std::vector<std::int64_t> labels(static_cast<std::size_t>(o.num_examples));
  const std::int64_t elems = o.image_size * o.image_size;
  float* out = images.data().data();
  for (std::int64_t i = 0; i < o.num_examples; ++i) {
    const std::int64_t virtual_index = i + o.index_offset;
    const std::int64_t grade = virtual_index % o.num_grades;
    labels[static_cast<std::size_t>(i)] = grade;
    render_image(o, grade, static_cast<std::uint64_t>(virtual_index),
                 out + i * elems);
  }
  return Dataset(std::move(images), std::move(labels), o.num_grades);
}

}  // namespace

SyntheticMedical::SyntheticMedical(const SyntheticMedicalOptions& options)
    : Dataset(render(options)) {}

}  // namespace splitmed::data
