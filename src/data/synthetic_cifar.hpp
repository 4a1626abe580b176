// Synthetic CIFAR-shaped dataset (3x32x32 by default, 10 or 100 classes).
//
// Substitution for the real CIFAR-10/100 used in the paper's Fig. 4 (see
// DESIGN.md): byte accounting depends only on tensor shapes, and the accuracy
// axis needs a learnable task of identical shape, which this provides.
//
// Each class c has a deterministic signature drawn from Rng(seed, c):
//   * a base colour per channel,
//   * an oriented sinusoidal texture (frequency + phase per channel),
//   * a bright square patch whose position is class-dependent.
// Each example adds per-example jitter (patch offset, amplitude) and pixel
// noise, so the task is non-trivial but solvable by small conv nets.
#pragma once

#include "src/data/dataset.hpp"

namespace splitmed::data {

struct SyntheticCifarOptions {
  std::int64_t num_examples = 1024;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 32;   // height == width
  std::int64_t channels = 3;
  float noise_stddev = 0.15F;     // per-pixel Gaussian noise
  std::uint64_t seed = 42;
  /// Shifts the per-example generator: examples are drawn at virtual indices
  /// [index_offset, index_offset + num_examples). A held-out test set uses
  /// the SAME seed (same class signatures = same task) with an offset past
  /// the training range (fresh examples). Must be >= 0, and
  /// index_offset + num_examples must fit in int64.
  std::int64_t index_offset = 0;
};

/// Renders every example at construction; see Dataset for the memory cost.
class SyntheticCifar final : public Dataset {
 public:
  explicit SyntheticCifar(const SyntheticCifarOptions& options);
};

}  // namespace splitmed::data
