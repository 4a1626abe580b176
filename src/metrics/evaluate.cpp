#include "src/metrics/evaluate.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/loss.hpp"

namespace splitmed::metrics {

namespace {

/// Counts label hits over the logits rows. The argmax of each row lands in a
/// per-row flag slot (disjoint writes), and the integer reduction runs
/// serially — bitwise-stable for every thread count.
std::int64_t count_correct(const Tensor& logits,
                           const std::vector<std::int64_t>& labels) {
  SPLITMED_CHECK(logits.shape().rank() == 2,
                 "evaluate: logits must be [batch, classes]");
  const std::int64_t rows = logits.shape().dim(0);
  const std::int64_t classes = logits.shape().dim(1);
  SPLITMED_CHECK(rows == static_cast<std::int64_t>(labels.size()),
                 "evaluate: prediction/label count mismatch");
  SPLITMED_CHECK(classes > 0, "evaluate: logits need at least one class");
  auto ld = logits.data();
  std::vector<unsigned char> hit(static_cast<std::size_t>(rows), 0);
  const std::int64_t grain = std::max<std::int64_t>(1, 1024 / classes);
  parallel_for(0, rows, grain, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* row = ld.data() + r * classes;
      std::int64_t best = 0;
      for (std::int64_t c = 1; c < classes; ++c) {
        if (row[c] > row[best]) best = c;
      }
      hit[static_cast<std::size_t>(r)] =
          best == labels[static_cast<std::size_t>(r)] ? 1 : 0;
    }
  });
  std::int64_t correct = 0;
  for (const unsigned char h : hit) correct += h;
  return correct;
}

}  // namespace

double evaluate_composite(nn::Layer& front, nn::Layer* back,
                          const data::Dataset& dataset,
                          std::int64_t batch_size) {
  SPLITMED_CHECK(batch_size > 0, "batch size must be positive");
  const std::int64_t n = dataset.size();
  SPLITMED_CHECK(n > 0, "cannot evaluate on an empty dataset");
  std::int64_t correct = 0;
  std::vector<std::int64_t> idx(static_cast<std::size_t>(batch_size));
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(begin + batch_size, n);
    idx.resize(static_cast<std::size_t>(end - begin));
    std::iota(idx.begin(), idx.end(), begin);
    Tensor x = dataset.batch_images(idx);
    const auto labels = dataset.batch_labels(idx);
    // infer(): bitwise identical to forward(x, false), but the plan
    // executor also fuses eval BN into the GEMM epilogue and chains the
    // GEMM groups through workspace slabs instead of per-layer Tensors.
    Tensor logits = front.infer(x);
    if (back != nullptr) logits = back->infer(logits);
    correct += count_correct(logits, labels);
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double evaluate_model(nn::Layer& model, const data::Dataset& dataset,
                      std::int64_t batch_size) {
  return evaluate_composite(model, nullptr, dataset, batch_size);
}

}  // namespace splitmed::metrics
