// Static execution planner over layer chains — the only way Sequential runs
// its layers.
//
// Two cooperating passes, both bitwise inert (docs/PROTOCOL.md):
//
//  Pass 1 — epilogue fusion. Partitions a Sequential into groups: every
//  Conv2d [+ BatchNorm2d] [+ ReLU] and Linear [+ ReLU] becomes one group
//  whose elementwise tail is folded into the producing GEMM's write-back
//  (gemmk::Epilogue), so the intermediate tensors are never materialized.
//  A Conv2d or Linear with no fusible tail is a singleton group whose
//  epilogue is only its bias; every other layer is a singleton group run
//  by its own forward/backward/infer. Legality is proved per edge:
//    - bias-add and ReLU are elementwise on the finished per-element
//      k-fold, so fusing them never reorders the reduction — legal in
//      training AND inference forward. Backward masks dReLU on the fused
//      OUTPUT (x > 0 on the output is exactly x > 0 on the pre-activation,
//      including -0.0 and NaN→0), then runs the producing layer's backward
//      — the identical float sequence to ReLU::backward followed by the
//      layer backward.
//    - inference-mode BatchNorm is a frozen per-channel affine map — legal
//      as an epilogue, but ONLY on the infer() path. Training-mode BN needs
//      batch statistics of the conv output, so groups with a BN run layer
//      by layer under forward() and fuse only under Sequential::infer().
//
//  Pass 2 — lifetime-based buffer reuse. Under Sequential::infer(), runs of
//  GEMM-rooted groups chain through workspace-arena slabs instead of
//  Tensors: each intermediate's lifetime is the closed interval [def group,
//  last-use group], and a greedy interval coloring assigns intervals to
//  reusable slabs (a straight chain ping-pongs between 2), so steady-state
//  peak memory stops scaling with depth. Measured via
//  ws::global_step_peak_bytes() / `splitmed_workspace_step_peak_bytes`.
//
// Fused execution is BITWISE IDENTICAL to running each layer's own
// forward/backward in order (asserted by plan_test against exactly that
// per-layer reference, and by the pinned golden curves).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/layer.hpp"
#include "src/tensor/gemm_kernels.hpp"

namespace splitmed::nn {

class Conv2d;
class Linear;
class BatchNorm2d;

/// One plan node: layers [begin, end) of the Sequential. A GEMM-rooted
/// group has `conv` or `linear` set, plus its fused tail: `bn` (inference
/// only) and `relu`. Any other layer is a singleton group with all three
/// unset. `fused_out` is per-forward state: the output of a fused
/// GEMM+ReLU group, cached for the dReLU backward mask.
struct FusedGroup {
  std::size_t begin = 0;
  std::size_t end = 0;
  Conv2d* conv = nullptr;
  Linear* linear = nullptr;
  BatchNorm2d* bn = nullptr;
  bool relu = false;
  Tensor fused_out;

  /// Whether the group is rooted at a Conv2d or Linear GEMM.
  [[nodiscard]] bool gemm() const {
    return conv != nullptr || linear != nullptr;
  }
  /// Whether forward() (training or eval) runs the group as one fused
  /// GEMM; groups with a BN run layer by layer there.
  [[nodiscard]] bool fuses_in_forward() const {
    return gemm() && bn == nullptr;
  }
};

/// Lifetime of one chained intermediate: defined by group `def`, last read
/// by group `last_use` (closed interval — two values conflict iff their
/// intervals intersect, so [i, i+1] and [i+1, i+2] DO conflict: both are
/// live while group i+1 runs).
struct LifeInterval {
  std::int64_t def = 0;
  std::int64_t last_use = 0;
  std::int64_t floats = 0;
};

/// Result of the greedy interval coloring: one slab per color, each sized
/// to the largest interval assigned to it.
struct SlabAssignment {
  std::vector<std::size_t> color;       ///< per interval, index into slabs
  std::vector<std::int64_t> slab_floats;  ///< per color, max floats needed
};

/// Greedy interval-graph coloring in def order: an interval reuses the
/// lowest color whose previous occupant's last_use is strictly before this
/// def, else opens a new color. For a straight chain this yields the
/// classic 2-slab ping-pong regardless of depth.
[[nodiscard]] SlabAssignment color_intervals(
    std::span<const LifeInterval> intervals);

/// Assembles the write-back epilogue for a conv-rooted group: conv bias
/// (per C row = output channel), optional inference-mode BN (caller
/// provides `inv_std` scratch of bn->channels() floats, filled here with
/// 1/sqrt(running_var + eps) — the exact expression batchnorm.cpp uses),
/// optional trailing ReLU. Pointers alias the layers' parameter tensors;
/// the epilogue is valid while the layers and scratch live.
[[nodiscard]] gemmk::Epilogue make_conv_epilogue(const Conv2d& conv,
                                                 const BatchNorm2d* bn,
                                                 std::span<float> inv_std,
                                                 bool relu);

/// The write-back epilogue of a GEMM-rooted group: make_conv_epilogue for
/// a conv root (`inv_std` as there; unused without BN), or for a linear
/// root its bias_epilogue() plus the optional ReLU.
[[nodiscard]] gemmk::Epilogue make_group_epilogue(const FusedGroup& group,
                                                  std::span<float> inv_std);

/// The static plan for one Sequential: its layer list partitioned into
/// FusedGroups. Rebuilt whenever the layer list changes (Sequential tracks
/// a structure version).
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Chain recognition over the layer list. Greedy, left to right:
  /// Conv2d [+ BatchNorm2d(channels match)] [+ ReLU] and Linear [+ ReLU]
  /// become GEMM-rooted groups; everything else is its own group.
  [[nodiscard]] static ExecutionPlan build(std::span<const LayerPtr> layers);

  [[nodiscard]] const std::vector<FusedGroup>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::vector<FusedGroup>& groups() { return groups_; }

 private:
  std::vector<FusedGroup> groups_;
};

}  // namespace splitmed::nn
