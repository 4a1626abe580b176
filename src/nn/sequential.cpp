#include "src/nn/sequential.hpp"

#include <optional>
#include <sstream>

#include "src/common/error.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {
namespace {

/// Trace label for one plan group, e.g. "Conv2d(3->16, k3 s1 p1)+ReLU".
std::string group_label(const FusedGroup& g,
                        const std::vector<LayerPtr>& layers) {
  std::string label;
  for (std::size_t i = g.begin; i < g.end; ++i) {
    if (i > g.begin) label += '+';
    label += layers[i]->name();
  }
  return label;
}

}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  SPLITMED_CHECK(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  ++structure_version_;
  return *this;
}

void Sequential::ensure_plan() {
  if (planned_version_ != structure_version_) {
    plan_ = ExecutionPlan::build(layers_);
    planned_version_ = structure_version_;
  }
}

void Sequential::prepare_plan() { ensure_plan(); }

const ExecutionPlan& Sequential::plan() {
  ensure_plan();
  return plan_;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  ensure_plan();
  Tensor x = input;
  std::uint64_t index = 0;
  for (FusedGroup& g : plan_.groups()) {
    std::optional<obs::Span> span;
    if (obs::detail_at_least(2)) {
      // Per-group spans (--trace-detail=2): where the compute time goes.
      span.emplace(obs::trace(), "nn." + group_label(g, layers_), "nn");
      span->arg("dir", "forward");
      span->arg("index", index);
    }
    ++index;
    if (g.fuses_in_forward()) {
      // One GEMM with bias (and ReLU) at write-back, in both modes. A
      // ReLU group's output is cached for the dReLU backward mask.
      const gemmk::Epilogue ep = make_group_epilogue(g, {});
      x = (g.conv != nullptr) ? g.conv->forward_ep(x, ep)
                              : g.linear->forward_ep(x, ep);
      if (g.relu) g.fused_out = x;
    } else {
      // BN groups run layer by layer: training-mode BN needs batch
      // statistics of the conv output, and eval-mode forward() must leave
      // BatchNorm's backward cache intact (privacy::reconstruct_inputs
      // differentiates an eval forward) — only infer() fuses BN.
      for (std::size_t i = g.begin; i < g.end; ++i) {
        x = layers_[i]->forward(x, training);
      }
    }
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  ensure_plan();
  Tensor g = grad_output;
  auto& groups = plan_.groups();
  for (std::size_t gi = groups.size(); gi-- > 0;) {
    FusedGroup& grp = groups[gi];
    std::optional<obs::Span> span;
    if (obs::detail_at_least(2)) {
      span.emplace(obs::trace(), "nn." + group_label(grp, layers_), "nn");
      span->arg("dir", "backward");
      span->arg("index", static_cast<std::uint64_t>(gi));
    }
    if (grp.fuses_in_forward()) {
      if (grp.relu) {
        // dReLU on the cached fused OUTPUT, in place on the gradient this
        // loop owns: out > 0 ⟺ pre-activation > 0 (including -0.0 and
        // NaN→0), so the masked bytes equal ReLU::backward's result.
        check_same_shape(g.shape(), grp.fused_out.shape(),
                         "Sequential fused backward");
        auto fd = grp.fused_out.data();
        auto gd = g.data();
        for (std::size_t i = 0; i < gd.size(); ++i) {
          if (!(fd[i] > 0.0F)) gd[i] = 0.0F;
        }
      }
      g = (grp.conv != nullptr) ? grp.conv->backward(g)
                                : grp.linear->backward(g);
    } else {
      for (std::size_t i = grp.end; i-- > grp.begin;) {
        g = layers_[i]->backward(g);
      }
    }
  }
  return g;
}

Tensor Sequential::infer(const Tensor& input) {
  ensure_plan();
  Tensor x = input;
  auto& groups = plan_.groups();
  std::size_t gi = 0;
  while (gi < groups.size()) {
    if (!groups[gi].gemm()) {
      x = layers_[groups[gi].begin]->infer(x);
      ++gi;
      continue;
    }
    // Maximal run of GEMM-rooted groups chains through arena slabs.
    std::size_t gj = gi + 1;
    while (gj < groups.size() && groups[gj].gemm()) ++gj;
    x = infer_fused_run(x, gi, gj);
    gi = gj;
  }
  return x;
}

Tensor Sequential::infer_fused_run(const Tensor& input, std::size_t g0,
                                   std::size_t g1) {
  auto& groups = plan_.groups();
  const std::size_t r = g1 - g0;
  // Output shape per group in the run.
  std::vector<Shape> shapes;
  shapes.reserve(r);
  Shape s = input.shape();
  for (std::size_t i = g0; i < g1; ++i) {
    for (std::size_t li = groups[i].begin; li < groups[i].end; ++li) {
      s = layers_[li]->output_shape(s);
    }
    shapes.push_back(s);
  }
  Tensor out(shapes.back());
  ws::WorkspaceScope scope;
  // Chained intermediates (every group output but the last, which writes
  // the result Tensor): value i is defined by group i and last read by
  // group i+1 — closed intervals, colored onto reusable slabs. A straight
  // chain ping-pongs between two slabs regardless of depth.
  std::vector<LifeInterval> intervals;
  intervals.reserve(r > 0 ? r - 1 : 0);
  for (std::size_t i = 0; i + 1 < r; ++i) {
    intervals.push_back({static_cast<std::int64_t>(i),
                         static_cast<std::int64_t>(i) + 1,
                         shapes[i].numel()});
  }
  const SlabAssignment assignment = color_intervals(intervals);
  std::vector<std::span<float>> slabs;
  slabs.reserve(assignment.slab_floats.size());
  for (std::int64_t f : assignment.slab_floats) {
    slabs.push_back(scope.floats(f));
  }
  std::span<const float> cur = input.data();
  Shape cur_shape = input.shape();
  for (std::size_t i = 0; i < r; ++i) {
    FusedGroup& g = groups[g0 + i];
    std::span<float> dst =
        (i + 1 == r)
            ? out.data()
            : slabs[assignment.color[i]].first(
                  static_cast<std::size_t>(shapes[i].numel()));
    std::span<float> inv_std = (g.bn != nullptr)
                                   ? scope.floats(g.bn->channels())
                                   : std::span<float>{};
    const gemmk::Epilogue ep = make_group_epilogue(g, inv_std);
    if (g.conv != nullptr) {
      g.conv->run_fused(cur, cur_shape.dim(0), cur_shape.dim(2),
                        cur_shape.dim(3), dst, ep);
    } else {
      g.linear->run_fused(cur, cur_shape.dim(0), dst, ep);
    }
    cur = dst;
    cur_shape = shapes[i];
  }
  return out;
}

Shape Sequential::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (const auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential(" << layers_.size() << " layers)";
  return os.str();
}

Layer& Sequential::layer(std::size_t i) {
  SPLITMED_CHECK(i < layers_.size(), "Sequential::layer: index " << i
                                         << " out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  SPLITMED_CHECK(i < layers_.size(), "Sequential::layer: index " << i
                                         << " out of range");
  return *layers_[i];
}

Sequential Sequential::extract(std::size_t begin, std::size_t end) {
  SPLITMED_CHECK(begin <= end && end <= layers_.size(),
                 "Sequential::extract [" << begin << ", " << end
                                         << ") out of range, size "
                                         << layers_.size());
  Sequential out;
  for (std::size_t i = begin; i < end; ++i) {
    out.add(std::move(layers_[i]));
  }
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(begin),
                layers_.begin() + static_cast<std::ptrdiff_t>(end));
  ++structure_version_;  // stale plan would hold dangling layer pointers
  return out;
}

void Sequential::save_extra_state(BufferWriter& writer) const {
  writer.write_u32(static_cast<std::uint32_t>(layers_.size()));
  for (const auto& layer : layers_) layer->save_extra_state(writer);
}

void Sequential::load_extra_state(BufferReader& reader) {
  const std::uint32_t count = reader.read_u32();
  if (count != layers_.size()) {
    throw SerializationError("Sequential extra state: checkpoint has " +
                             std::to_string(count) + " layers, model has " +
                             std::to_string(layers_.size()));
  }
  for (auto& layer : layers_) layer->load_extra_state(reader);
}

std::vector<Shape> Sequential::activation_shapes(const Shape& input) const {
  std::vector<Shape> shapes;
  shapes.reserve(layers_.size() + 1);
  shapes.push_back(input);
  Shape s = input;
  for (const auto& layer : layers_) {
    s = layer->output_shape(s);
    shapes.push_back(s);
  }
  return shapes;
}

}  // namespace splitmed::nn
