#include "src/data/synthetic_cifar.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace splitmed::data {
namespace {

struct ClassSignature {
  std::vector<float> base;      // per channel
  std::vector<float> freq_x;    // per channel
  std::vector<float> freq_y;
  std::vector<float> phase;
  float patch_x = 0.0F;         // patch centre, fraction of width/height
  float patch_y = 0.0F;
  float patch_intensity = 0.0F;
};

std::vector<ClassSignature> class_signatures(const SyntheticCifarOptions& o) {
  std::vector<ClassSignature> signatures;
  signatures.reserve(static_cast<std::size_t>(o.num_classes));
  for (std::int64_t c = 0; c < o.num_classes; ++c) {
    Rng rng(o.seed * 0x9E3779B9ULL + static_cast<std::uint64_t>(c));
    ClassSignature sig;
    for (std::int64_t ch = 0; ch < o.channels; ++ch) {
      sig.base.push_back(rng.uniform(0.2F, 0.8F));
      sig.freq_x.push_back(rng.uniform(0.5F, 3.0F));
      sig.freq_y.push_back(rng.uniform(0.5F, 3.0F));
      sig.phase.push_back(rng.uniform(0.0F, 6.28F));
    }
    sig.patch_x = rng.uniform(0.2F, 0.8F);
    sig.patch_y = rng.uniform(0.2F, 0.8F);
    sig.patch_intensity = rng.uniform(0.3F, 0.6F);
    signatures.push_back(std::move(sig));
  }
  return signatures;
}

/// Renders the example at `virtual_index` (of class `sig`) into `out`, a CHW
/// buffer. Each example draws from its own Rng stream.
void render_image(const SyntheticCifarOptions& o, const ClassSignature& sig,
                  std::uint64_t virtual_index, float* out) {
  Rng rng(o.seed ^ (0xA24BAED4963EE407ULL +
                    virtual_index * 0x9E3779B97F4A7C15ULL));
  const std::int64_t n = o.image_size;

  // Per-example jitter keeps within-class variety high.
  const float jitter_x = rng.uniform(-0.08F, 0.08F);
  const float jitter_y = rng.uniform(-0.08F, 0.08F);
  const float amp = rng.uniform(0.15F, 0.3F);
  const float patch_half = rng.uniform(0.10F, 0.16F);

  const float px = (sig.patch_x + jitter_x) * static_cast<float>(n);
  const float py = (sig.patch_y + jitter_y) * static_cast<float>(n);
  const float ph = patch_half * static_cast<float>(n);

  const float two_pi_over_n = 6.28318530718F / static_cast<float>(n);
  for (std::int64_t ch = 0; ch < o.channels; ++ch) {
    float* plane = out + ch * n * n;
    const float base = sig.base[static_cast<std::size_t>(ch)];
    const float fx = sig.freq_x[static_cast<std::size_t>(ch)];
    const float fy = sig.freq_y[static_cast<std::size_t>(ch)];
    const float phase = sig.phase[static_cast<std::size_t>(ch)];
    for (std::int64_t y = 0; y < n; ++y) {
      for (std::int64_t x = 0; x < n; ++x) {
        float v = base +
                  amp * std::sin(two_pi_over_n * (fx * static_cast<float>(x) +
                                                  fy * static_cast<float>(y)) +
                                 phase);
        if (std::abs(static_cast<float>(x) - px) < ph &&
            std::abs(static_cast<float>(y) - py) < ph) {
          v += sig.patch_intensity;
        }
        v += o.noise_stddev * rng.normal();
        plane[y * n + x] = v;
      }
    }
  }
}

Dataset render(const SyntheticCifarOptions& o) {
  SPLITMED_CHECK(o.num_examples >= 0, "negative example count");
  SPLITMED_CHECK(o.num_classes > 0, "need at least one class");
  SPLITMED_CHECK(o.image_size > 0 && o.channels > 0, "bad image geometry");
  SPLITMED_CHECK(o.index_offset >= 0 &&
                     o.index_offset <= std::numeric_limits<std::int64_t>::max() -
                                           o.num_examples,
                 "index_offset " << o.index_offset << " with "
                                 << o.num_examples
                                 << " examples leaves [0, int64 max]");
  const std::vector<ClassSignature> signatures = class_signatures(o);
  Tensor images(
      Shape{o.num_examples, o.channels, o.image_size, o.image_size});
  std::vector<std::int64_t> labels(static_cast<std::size_t>(o.num_examples));
  const std::int64_t elems = o.channels * o.image_size * o.image_size;
  float* out = images.data().data();
  for (std::int64_t i = 0; i < o.num_examples; ++i) {
    const std::int64_t virtual_index = i + o.index_offset;
    // Uniform class distribution, deterministic in the (offset) index.
    const std::int64_t cls = virtual_index % o.num_classes;
    labels[static_cast<std::size_t>(i)] = cls;
    render_image(o, signatures[static_cast<std::size_t>(cls)],
                 static_cast<std::uint64_t>(virtual_index), out + i * elems);
  }
  return Dataset(std::move(images), std::move(labels), o.num_classes);
}

}  // namespace

SyntheticCifar::SyntheticCifar(const SyntheticCifarOptions& options)
    : Dataset(render(options)) {}

}  // namespace splitmed::data
