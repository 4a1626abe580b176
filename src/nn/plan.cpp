#include "src/nn/plan.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"

namespace splitmed::nn {

SlabAssignment color_intervals(std::span<const LifeInterval> intervals) {
  SlabAssignment out;
  out.color.resize(intervals.size());
  // Per color: last_use of its current occupant, and the slab size so far.
  std::vector<std::int64_t> expires;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const LifeInterval& iv = intervals[i];
    SPLITMED_CHECK(iv.def <= iv.last_use && iv.floats >= 0,
                   "color_intervals: malformed interval [" << iv.def << ", "
                                                           << iv.last_use
                                                           << ")");
    SPLITMED_CHECK(i == 0 || intervals[i - 1].def <= iv.def,
                   "color_intervals: intervals must be sorted by def");
    std::size_t c = expires.size();
    for (std::size_t j = 0; j < expires.size(); ++j) {
      // Closed intervals: reuse only when the occupant died strictly
      // before this value is defined.
      if (expires[j] < iv.def) {
        c = j;
        break;
      }
    }
    if (c == expires.size()) {
      expires.push_back(iv.last_use);
      out.slab_floats.push_back(iv.floats);
    } else {
      expires[c] = iv.last_use;
      out.slab_floats[c] = std::max(out.slab_floats[c], iv.floats);
    }
    out.color[i] = c;
  }
  return out;
}

gemmk::Epilogue make_conv_epilogue(const Conv2d& conv, const BatchNorm2d* bn,
                                   std::span<float> inv_std, bool relu) {
  gemmk::Epilogue ep = conv.bias_epilogue();
  if (bn != nullptr) {
    SPLITMED_CHECK(bn->channels() == conv.out_channels(),
                   "make_conv_epilogue: BN channels " << bn->channels()
                                                      << " != conv out "
                                                      << conv.out_channels());
    SPLITMED_CHECK(
        inv_std.size() >= static_cast<std::size_t>(bn->channels()),
        "make_conv_epilogue: inv_std scratch too small");
    auto rv = bn->running_var().data();
    const float eps = bn->eps();
    for (std::int64_t c = 0; c < bn->channels(); ++c) {
      // Exactly batchnorm.cpp's eval expression; precomputing it per
      // channel (instead of per element) changes nothing — the unfused
      // loop also hoists it per channel.
      inv_std[static_cast<std::size_t>(c)] =
          1.0F / std::sqrt(rv[static_cast<std::size_t>(c)] + eps);
    }
    ep.bn_gamma = bn->gamma_value().data().data();
    ep.bn_mean = bn->running_mean().data().data();
    ep.bn_inv_std = inv_std.data();
    ep.bn_beta = bn->beta_value().data().data();
  }
  ep.relu = relu;
  return ep;
}

gemmk::Epilogue make_group_epilogue(const FusedGroup& group,
                                    std::span<float> inv_std) {
  if (group.conv != nullptr) {
    return make_conv_epilogue(*group.conv, group.bn, inv_std, group.relu);
  }
  SPLITMED_CHECK(group.linear != nullptr,
                 "make_group_epilogue: group has no GEMM root");
  gemmk::Epilogue ep = group.linear->bias_epilogue();
  ep.relu = group.relu;
  return ep;
}

ExecutionPlan ExecutionPlan::build(std::span<const LayerPtr> layers) {
  ExecutionPlan plan;
  const auto is_relu = [&](std::size_t i) {
    return i < layers.size() &&
           dynamic_cast<ReLU*>(layers[i].get()) != nullptr;
  };
  std::size_t i = 0;
  while (i < layers.size()) {
    FusedGroup g;
    g.begin = i;
    g.end = i + 1;
    if (auto* conv = dynamic_cast<Conv2d*>(layers[i].get())) {
      g.conv = conv;
      auto* bn = (g.end < layers.size())
                     ? dynamic_cast<BatchNorm2d*>(layers[g.end].get())
                     : nullptr;
      if (bn != nullptr && bn->channels() == conv->out_channels()) {
        g.bn = bn;
        ++g.end;
      }
    } else {
      g.linear = dynamic_cast<Linear*>(layers[i].get());
    }
    if (g.gemm() && is_relu(g.end)) {
      g.relu = true;
      ++g.end;
    }
    i = g.end;
    plan.groups_.push_back(std::move(g));
  }
  return plan;
}

}  // namespace splitmed::nn
