// Synthetic medical-imaging dataset.
//
// Stand-in for the patient scans the paper's motivating scenario distributes
// across hospitals (real PHI is unavailable by definition — see DESIGN.md
// substitution table). Single-channel "scans": smooth anatomical background
// (low-frequency gradients + ring structure) with an optional lesion — a
// bright Gaussian blob whose size/intensity depend on the lesion grade.
// Labels are lesion grades 0..num_grades-1, grade 0 meaning "healthy".
#pragma once

#include "src/data/dataset.hpp"

namespace splitmed::data {

struct SyntheticMedicalOptions {
  std::int64_t num_examples = 1024;
  std::int64_t num_grades = 4;   // classes: healthy + 3 lesion grades
  std::int64_t image_size = 32;
  float noise_stddev = 0.08F;
  std::uint64_t seed = 7;
  /// Virtual index shift; see SyntheticCifarOptions::index_offset.
  std::int64_t index_offset = 0;
};

/// Renders every example at construction; see Dataset for the memory cost.
class SyntheticMedical final : public Dataset {
 public:
  explicit SyntheticMedical(const SyntheticMedicalOptions& options);
};

}  // namespace splitmed::data
