// Ordered container of layers — the unit the split-learning cut operates on.
//
// Every forward, backward and infer runs over the container's execution
// plan (src/nn/plan.hpp): a Conv2d or Linear and its fusible tail form one
// group executed as a single GEMM+epilogue (a lone Conv2d or Linear is a
// singleton group whose epilogue is only its bias); any other layer runs
// through its own forward/backward/infer.
#pragma once

#include <memory>

#include "src/nn/layer.hpp"
#include "src/nn/plan.hpp"

namespace splitmed::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Emplace-style append: seq.emplace<ReLU>(); seq.emplace<Linear>(4, 2, rng);
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Runs the plan's groups in order. Groups without a BN run fused (with
  /// their ReLU, if any, at GEMM write-back) in training and eval mode;
  /// BN groups run layer by layer.
  Tensor forward(const Tensor& input, bool training) override;
  /// Mirrors forward() group by group: a fused ReLU group masks dReLU on
  /// its cached output, then runs its GEMM layer's backward.
  Tensor backward(const Tensor& grad_output) override;
  /// Inference: runs of GEMM-rooted groups (including inference-mode BN)
  /// chain through lifetime-colored workspace slabs. Bitwise identical to
  /// forward(input, false).
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override;

  /// Recurses into children (prefixed with a layer-count self-check so a
  /// checkpoint from a differently built model fails loudly, not silently).
  void save_extra_state(BufferWriter& writer) const override;
  void load_extra_state(BufferReader& reader) override;

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i);
  [[nodiscard]] const Layer& layer(std::size_t i) const;

  /// Moves layers [begin, end) out into a new Sequential, erasing them from
  /// this one. This is the primitive the split framework uses to divide a
  /// network between platform (front) and server (back).
  Sequential extract(std::size_t begin, std::size_t end);

  /// Shapes of every intermediate activation for the given input shape:
  /// result[0] = input, result[i+1] = output of layer i. Pure.
  [[nodiscard]] std::vector<Shape> activation_shapes(const Shape& input) const;

  /// Builds (or rebuilds) the execution plan now instead of lazily on the
  /// first forward. Models call this once after construction.
  void prepare_plan();

  /// The current plan (building it first if stale). Test/introspection
  /// hook.
  [[nodiscard]] const ExecutionPlan& plan();

 private:
  void ensure_plan();
  /// Chains GEMM-rooted groups [g0, g1) of the plan through lifetime-
  /// colored arena slabs (inference only — no caches survive).
  Tensor infer_fused_run(const Tensor& input, std::size_t g0, std::size_t g1);

  std::vector<LayerPtr> layers_;
  // Plan cache, invalidated by structural edits (add/extract).
  ExecutionPlan plan_;
  std::uint64_t structure_version_ = 0;
  std::uint64_t planned_version_ = ~std::uint64_t{0};
};

}  // namespace splitmed::nn
