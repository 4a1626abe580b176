// Execution-planner tests: chain recognition, fusion legality (training BN
// must NOT fuse), the lifetime interval coloring (no two overlapping
// intervals may share a slab), and — the load-bearing contract — bitwise
// equality of the plan executor with a per-layer reference (each layer's
// own forward/backward/infer called in order) across thread counts. Run
// twice by ctest: once with the dispatched ISA and once pinned to the base
// micro-kernel (plan_test_base_isa), mirroring gemm_test.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/plan.hpp"
#include "src/nn/pool.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {
namespace {

// Restores the pool default on scope exit so thread-count tweaks don't leak
// between tests.
class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() { set_global_threads(0); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;
};

bool bitwise_equal(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

Tensor random_input(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  for (auto& v : t.data()) v = rng.normal();
  return t;
}

// The per-layer references the plan executor must reproduce bitwise: every
// layer's own forward / backward / infer, called in order.
Tensor reference_forward(Sequential& seq, const Tensor& x, bool training) {
  Tensor y = x;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    y = seq.layer(i).forward(y, training);
  }
  return y;
}

Tensor reference_backward(Sequential& seq, const Tensor& grad) {
  Tensor g = grad;
  for (std::size_t i = seq.size(); i-- > 0;) g = seq.layer(i).backward(g);
  return g;
}

Tensor reference_infer(Sequential& seq, const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < seq.size(); ++i) y = seq.layer(i).infer(y);
  return y;
}

// Runs a few training batches so the BN running statistics are non-trivial
// (fresh mean=0/var=1 would make the BN epilogue nearly an identity map and
// hide indexing bugs).
void warm_up(Sequential& seq, const Shape& in_shape) {
  for (int i = 0; i < 3; ++i) {
    (void)seq.forward(random_input(in_shape, 900 + i), /*training=*/true);
  }
}

// Expected shape of one plan group: which GEMM roots it and its tail.
struct GroupSpec {
  bool conv = false;
  bool linear = false;
  bool bn = false;
  bool relu = false;
};

void expect_group(const FusedGroup& g, GroupSpec want, std::size_t index) {
  EXPECT_EQ(g.conv != nullptr, want.conv) << "group " << index;
  EXPECT_EQ(g.linear != nullptr, want.linear) << "group " << index;
  EXPECT_EQ(g.bn != nullptr, want.bn) << "group " << index;
  EXPECT_EQ(g.relu, want.relu) << "group " << index;
}

TEST(PlanBuild, RecognizesConvAndLinearChains) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Conv2d>(3, 8, 3, 1, 1, rng);   // ┐
  seq.emplace<BatchNorm2d>(8);               // ├ conv + bn + relu
  seq.emplace<ReLU>();                       // ┘
  seq.emplace<Conv2d>(8, 8, 3, 1, 1, rng);   // ┐ conv + relu
  seq.emplace<ReLU>();                       // ┘
  seq.emplace<MaxPool2d>(2);                 // not GEMM-rooted
  seq.emplace<Conv2d>(8, 4, 3, 1, 1, rng);   // ┐ conv + bn
  seq.emplace<BatchNorm2d>(4);               // ┘
  seq.emplace<Flatten>();                    // not GEMM-rooted
  seq.emplace<Linear>(4 * 4 * 4, 16, rng);   // ┐ linear + relu
  seq.emplace<ReLU>();                       // ┘
  seq.emplace<Linear>(16, 10, rng);          // linear, bias-only epilogue

  const auto& groups = seq.plan().groups();
  ASSERT_EQ(groups.size(), 7U);
  expect_group(groups[0], {.conv = true, .bn = true, .relu = true}, 0);
  expect_group(groups[1], {.conv = true, .relu = true}, 1);
  expect_group(groups[2], {}, 2);
  expect_group(groups[3], {.conv = true, .bn = true}, 3);
  expect_group(groups[4], {}, 4);
  expect_group(groups[5], {.linear = true, .relu = true}, 5);
  expect_group(groups[6], {.linear = true}, 6);
  // forward() fuses exactly the groups without a BN.
  const std::vector<bool> fuses = {false, true, false, false,
                                   false, true, true};
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].fuses_in_forward(), fuses[i]) << "group " << i;
  }

  // Group spans must tile the layer list exactly.
  std::size_t expect_begin = 0;
  for (const auto& g : groups) {
    EXPECT_EQ(g.begin, expect_begin);
    EXPECT_GT(g.end, g.begin);
    expect_begin = g.end;
  }
  EXPECT_EQ(expect_begin, seq.size());
}

TEST(PlanBuild, BnWithMismatchedChannelsDoesNotFuse) {
  // A BN whose channel count differs from the producing conv's output is
  // not this conv's tail (such a model fails at forward anyway) — the
  // recognizer must leave the conv a bias-only singleton and the BN its own
  // group rather than build an epilogue indexing out of bounds.
  Rng rng(11);
  Sequential seq;
  seq.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  const auto& groups = seq.plan().groups();
  ASSERT_EQ(groups.size(), 2U);
  expect_group(groups[0], {.conv = true}, 0);
  EXPECT_EQ(groups[0].end, 1U);
  expect_group(groups[1], {}, 1);
}

TEST(PlanBuild, StructuralEditInvalidatesPlan) {
  Rng rng(13);
  Sequential seq;
  seq.emplace<Linear>(6, 6, rng);
  seq.emplace<ReLU>();
  ASSERT_EQ(seq.plan().groups().size(), 1U);
  expect_group(seq.plan().groups()[0], {.linear = true, .relu = true}, 0);
  // Appending splits nothing retroactively, but the plan must rebuild and
  // cover the new layer.
  seq.emplace<Linear>(6, 2, rng);
  ASSERT_EQ(seq.plan().groups().size(), 2U);
  expect_group(seq.plan().groups()[1], {.linear = true}, 1);
  // extract() moves layers out; a stale plan would dangle.
  Sequential tail = seq.extract(2, 3);
  ASSERT_EQ(seq.plan().groups().size(), 1U);
  ASSERT_EQ(tail.plan().groups().size(), 1U);
}

TEST(PlanColoring, StraightChainPingPongsBetweenTwoSlabs) {
  // A depth-N chain of intermediates [i, i+1] needs exactly 2 slabs no
  // matter how deep — the heart of the depth-flat memory claim.
  std::vector<LifeInterval> chain;
  for (std::int64_t i = 0; i < 16; ++i) {
    chain.push_back({i, i + 1, 100 + i});
  }
  const SlabAssignment sa = color_intervals(chain);
  ASSERT_EQ(sa.color.size(), chain.size());
  EXPECT_EQ(sa.slab_floats.size(), 2U);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(sa.color[i], i % 2) << "interval " << i;
  }
  // Each slab is sized to its largest occupant.
  EXPECT_EQ(sa.slab_floats[0], 100 + 14);
  EXPECT_EQ(sa.slab_floats[1], 100 + 15);
}

TEST(PlanColoring, OverlappingIntervalsNeverShareASlab) {
  // Closed-interval semantics: [i, i+1] and [i+1, i+2] DO conflict (both
  // live while group i+1 runs). Sweep a mix of short and long lifetimes and
  // assert the invariant pairwise — an aliasing bug here silently corrupts
  // activations, so this is the safety net for any future coloring change.
  const std::vector<LifeInterval> ivs = {
      {0, 1, 10}, {1, 2, 20}, {1, 5, 30}, {2, 3, 40},
      {3, 4, 50}, {4, 6, 60}, {6, 7, 70},
  };
  const SlabAssignment sa = color_intervals(ivs);
  ASSERT_EQ(sa.color.size(), ivs.size());
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    for (std::size_t j = i + 1; j < ivs.size(); ++j) {
      const bool overlap = ivs[i].def <= ivs[j].last_use &&
                           ivs[j].def <= ivs[i].last_use;
      if (overlap) {
        EXPECT_NE(sa.color[i], sa.color[j])
            << "intervals " << i << " and " << j << " overlap but share slab "
            << sa.color[i];
      }
    }
    // Slab must be large enough for every occupant.
    EXPECT_GE(sa.slab_floats[sa.color[i]], ivs[i].floats);
  }
  // The long-lived [1,5] interval forces a third slab while [2,3]/[3,4]
  // run; the greedy coloring must not need more than that.
  EXPECT_EQ(sa.slab_floats.size(), 3U);
}

TEST(PlanTraining, TrainingBnStaysUnfused) {
  // Training-mode BN needs batch statistics of the conv output — fusing it
  // would compute statistics of a tensor that no longer exists. The plan
  // must run conv→bn→relu per-layer under training, and the BN running
  // statistics must advance exactly as under the per-layer reference.
  Rng rng(17);
  Sequential seq;
  seq.emplace<Conv2d>(2, 4, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  seq.emplace<ReLU>();
  const Shape in_shape({3, 2, 6, 6});

  const Tensor x = random_input(in_shape, 21);
  const Tensor out_planned = seq.forward(x, /*training=*/true);
  const auto& grp = seq.plan().groups();
  ASSERT_EQ(grp.size(), 1U);
  expect_group(grp[0], {.conv = true, .bn = true, .relu = true}, 0);
  EXPECT_FALSE(grp[0].fuses_in_forward()) << "training BN must not run fused";
  const Tensor mean_planned =
      dynamic_cast<BatchNorm2d&>(seq.layer(1)).running_mean();

  // Identical twin network through the per-layer reference: same forward
  // bytes, same stats.
  Rng rng2(17);
  Sequential ref;
  ref.emplace<Conv2d>(2, 4, 3, 1, 1, rng2);
  ref.emplace<BatchNorm2d>(4);
  ref.emplace<ReLU>();
  const Tensor out_ref = reference_forward(ref, x, /*training=*/true);
  EXPECT_TRUE(bitwise_equal(out_planned.data(), out_ref.data()));
  EXPECT_TRUE(bitwise_equal(
      mean_planned.data(),
      dynamic_cast<BatchNorm2d&>(ref.layer(1)).running_mean().data()));
}

TEST(PlanTraining, FusedTrainingStepIsBitwiseAcrossThreads) {
  // The contract for the training path: with conv→relu and linear→relu
  // fused (epilogue write-back forward, output-masked dReLU backward), a
  // conv→bn→relu group run per-layer, and bias-only conv/linear singletons,
  // the forward output, the input gradient AND every parameter gradient
  // are bitwise identical to the per-layer reference — at 1, 2, and 8
  // threads.
  PoolGuard guard;
  Rng rng(29);
  Sequential seq;
  seq.emplace<Conv2d>(2, 4, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(4, 4, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(4, 4, 3, 1, 1, rng);
  seq.emplace<Flatten>();
  seq.emplace<Linear>(4 * 5 * 5, 16, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(16, 3, rng);
  ASSERT_EQ(seq.plan().groups().size(), 6U);
  const Shape in_shape({4, 2, 5, 5});
  const Tensor x = random_input(in_shape, 31);
  const Tensor g = random_input(Shape({4, 3}), 37);

  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    const auto run = [&](bool planned) {
      for (Parameter* p : seq.parameters()) p->zero_grad();
      const Tensor out = planned ? seq.forward(x, /*training=*/true)
                                 : reference_forward(seq, x, true);
      const Tensor gin =
          planned ? seq.backward(g) : reference_backward(seq, g);
      std::vector<std::vector<float>> grads;
      for (Parameter* p : seq.parameters()) {
        const auto d = p->grad.data();
        grads.emplace_back(d.begin(), d.end());
      }
      return std::tuple{out, gin, grads};
    };
    const auto [out_f, gin_f, grads_f] = run(true);
    const auto [out_u, gin_u, grads_u] = run(false);
    EXPECT_TRUE(bitwise_equal(out_f.data(), out_u.data()))
        << "forward, threads=" << threads;
    EXPECT_TRUE(bitwise_equal(gin_f.data(), gin_u.data()))
        << "grad input, threads=" << threads;
    ASSERT_EQ(grads_f.size(), grads_u.size());
    for (std::size_t i = 0; i < grads_f.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(grads_f[i], grads_u[i]))
          << "param grad " << i << ", threads=" << threads;
    }
  }
}

// infer() must equal eval-mode forward() and both per-layer references.
void expect_infer_matches(Sequential& seq, const Tensor& x,
                          const char* what) {
  const Tensor ref = reference_forward(seq, x, /*training=*/false);
  const Tensor ref_infer = reference_infer(seq, x);
  const Tensor eval = seq.forward(x, /*training=*/false);
  const Tensor fused = seq.infer(x);
  EXPECT_EQ(fused.shape(), ref.shape()) << what;
  EXPECT_TRUE(bitwise_equal(fused.data(), ref.data())) << what;
  EXPECT_TRUE(bitwise_equal(fused.data(), ref_infer.data())) << what;
  EXPECT_TRUE(bitwise_equal(fused.data(), eval.data())) << what;
}

TEST(PlanInfer, InferMatchesEvalForwardBitwise) {
  // The inference path adds what training cannot have: fused eval-mode BN
  // and slab-chained intermediates. Still bitwise identical to eval-mode
  // forward and to the per-layer references, across thread counts — for
  // the mixed net (ending in a bias-only Linear) and for a lone Conv2d and
  // a lone Linear, which run as bias-only singleton groups.
  PoolGuard guard;
  Rng rng(41);
  Sequential seq;
  seq.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(8);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(8, 8, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<MaxPool2d>(2);
  seq.emplace<Conv2d>(8, 4, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  seq.emplace<Flatten>();
  seq.emplace<Linear>(4 * 4 * 4, 16, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(16, 10, rng);
  const Shape in_shape({2, 3, 8, 8});
  warm_up(seq, in_shape);
  Sequential lone_conv;
  lone_conv.emplace<Conv2d>(3, 5, 3, 2, 1, rng);
  Sequential lone_linear;
  lone_linear.emplace<Linear>(7, 4, rng);

  const Tensor x = random_input(in_shape, 43);
  const Tensor xl = random_input(Shape({3, 7}), 45);
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    const std::string at = " threads=" + std::to_string(threads);
    expect_infer_matches(seq, x, ("mixed net" + at).c_str());
    expect_infer_matches(lone_conv, x, ("lone conv" + at).c_str());
    expect_infer_matches(lone_linear, xl, ("lone linear" + at).c_str());
  }
}

TEST(PlanInfer, ResidualInferMatchesForwardBitwise) {
  // Both residual variants: identity skip and 1x1 projection skip. The
  // fused join must reproduce ops::add + in-place ReLU exactly.
  PoolGuard guard;
  Rng rng(47);
  ResidualBlock plain(4, 4, 1, rng);
  ResidualBlock proj(4, 8, 2, rng);
  const Shape in_shape({2, 4, 6, 6});
  // Warm the running stats through the training path.
  for (int i = 0; i < 3; ++i) {
    (void)plain.forward(random_input(in_shape, 700 + i), true);
    (void)proj.forward(random_input(in_shape, 800 + i), true);
  }
  const Tensor x = random_input(in_shape, 53);
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    const Tensor ref_plain = plain.forward(x, false);
    const Tensor ref_proj = proj.forward(x, false);
    const Tensor fused_plain = plain.infer(x);
    const Tensor fused_proj = proj.infer(x);
    EXPECT_TRUE(bitwise_equal(fused_plain.data(), ref_plain.data()))
        << "identity skip, threads=" << threads;
    EXPECT_TRUE(bitwise_equal(fused_proj.data(), ref_proj.data()))
        << "projection skip, threads=" << threads;
  }
}

TEST(PlanInfer, PeakWorkspaceIsFlatInDepth) {
  // The pass-2 claim: chained fused groups ping-pong between 2 lifetime-
  // colored slabs, so the peak arena footprint of an inference step must
  // not grow with chain depth. Measured with the step-peak watermark the
  // planner reports through `splitmed_workspace_step_peak_bytes`.
  PoolGuard guard;
  set_global_threads(1);
  const Shape in_shape({2, 4, 12, 12});
  const auto peak_at_depth = [&](int depth) {
    Rng rng(59);
    Sequential seq;
    for (int i = 0; i < depth; ++i) {
      seq.emplace<Conv2d>(4, 4, 3, 1, 1, rng);
      seq.emplace<ReLU>();
    }
    const Tensor x = random_input(in_shape, 61);
    (void)seq.infer(x);  // warm the arena to its high-water mark
    ws::reset_step_peak();
    (void)seq.infer(x);
    return ws::global_step_peak_bytes();
  };
  // Depth 2 has a single chained intermediate (1 slab); from depth 4 on the
  // coloring ping-pongs between exactly 2 slabs, so the footprint must stop
  // moving: depth 16 holds the same 2 slabs + per-conv scratch as depth 4.
  const std::size_t p4 = peak_at_depth(4);
  const std::size_t p16 = peak_at_depth(16);
  EXPECT_GT(p4, 0U);
  EXPECT_EQ(p16, p4) << "peak workspace grew with depth";
}

// ---------------------------------------------------------------------------
// The conv lowering oracle: Conv2d's forward, run_fused and backward against
// a per-sample reference assembled from the unpacked pieces — im2col, the
// naive gemm_*_ref kernels, a scalar epilogue and col2im, one sample at a
// time — for the small spatial sizes of resnet-mini's server stages, and for
// batches on both sides of the lowering's sample-group boundary.

struct ConvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, in_hw, out_hw;
};

// gemmk::Epilogue's per-element write-back sequence, in scalar code.
float apply_epilogue(float x, const gemmk::Epilogue& ep, std::int64_t p) {
  if (ep.bias != nullptr) x = x + ep.bias[p];
  if (ep.bn_gamma != nullptr) {
    x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
        ep.bn_beta[p];
  }
  if (ep.relu) x = x > 0.0F ? x : 0.0F;
  return x;
}

struct LoweringRef {
  std::vector<float> out;     // bias-only epilogue (= forward)
  std::vector<float> out_bn;  // bias + BN + ReLU epilogue
  std::vector<float> grad_in, dw, db;
  // dW/db after a second backward of the same gradient without zero_grad:
  // the per-sample reduction run again on top of dw/db.
  std::vector<float> dw2, db2;
};

LoweringRef reference_lowering(const ConvGeometry& g, std::int64_t out_c,
                               std::span<const float> w, std::int64_t batch,
                               std::span<const float> x,
                               std::span<const float> gout,
                               const gemmk::Epilogue& bias_ep,
                               const gemmk::Epilogue& bn_ep) {
  const std::int64_t crk = g.col_rows(), ohw = g.col_cols();
  const std::int64_t image = g.channels * g.in_h * g.in_w;
  const auto n = [](std::int64_t v) { return static_cast<std::size_t>(v); };
  LoweringRef r;
  r.out.resize(n(batch * out_c * ohw));
  r.out_bn.resize(r.out.size());
  r.grad_in.assign(n(batch * image), 0.0F);
  r.dw.assign(n(out_c * crk), 0.0F);
  r.db.assign(n(out_c), 0.0F);
  std::vector<float> col(n(crk * ohw)), dcol(col.size());
  std::vector<float> c(n(out_c * ohw)), dw_b(r.dw.size());
  for (std::int64_t b = 0; b < batch; ++b) {
    const auto x_b = x.subspan(n(b * image), n(image));
    const auto g_b = gout.subspan(n(b * out_c * ohw), n(out_c * ohw));
    im2col(g, x_b, col, ohw);
    gemm_nn_ref(out_c, ohw, crk, w, col, c);
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t j = 0; j < ohw; ++j) {
        const std::size_t at = n((b * out_c + oc) * ohw + j);
        r.out[at] = apply_epilogue(c[n(oc * ohw + j)], bias_ep, oc);
        r.out_bn[at] = apply_epilogue(c[n(oc * ohw + j)], bn_ep, oc);
      }
    }
    gemm_tn_ref(crk, ohw, out_c, w, g_b, dcol);
    col2im(g, dcol, ohw, std::span<float>(r.grad_in).subspan(n(b * image)));
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      float acc = g_b[n(oc * ohw)];
      for (std::int64_t j = 1; j < ohw; ++j) acc += g_b[n(oc * ohw + j)];
      r.db[n(oc)] += acc;
    }
    gemm_nt_ref(out_c, crk, ohw, g_b, col, dw_b);
    for (std::size_t i = 0; i < dw_b.size(); ++i) r.dw[i] += dw_b[i];
  }
  r.dw2 = r.dw;
  r.db2 = r.db;
  for (std::int64_t b = 0; b < batch; ++b) {
    const auto g_b = gout.subspan(n(b * out_c * ohw), n(out_c * ohw));
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      float acc = g_b[n(oc * ohw)];
      for (std::int64_t j = 1; j < ohw; ++j) acc += g_b[n(oc * ohw + j)];
      r.db2[n(oc)] += acc;
    }
    im2col(g, x.subspan(n(b * image), n(image)), col, ohw);
    gemm_nt_ref(out_c, crk, ohw, g_b, col, dw_b);
    for (std::size_t i = 0; i < dw_b.size(); ++i) r.dw2[i] += dw_b[i];
  }
  return r;
}

TEST(ConvLowering, MatchesPerSampleReferenceBitwise) {
  // Every output element is the same k-ascending fold of the same products
  // however the batch is lowered, so forward, both fused epilogues, the
  // input gradient and the summed dW/db (fresh, and accumulated by a
  // second backward) must equal the per-sample reference bitwise — at
  // batches 1, 2, group-1, group, group+1 and 2·group+3, at 1, 2 and 8
  // threads. Odd out_c exercises partial MR row
  // blocks; every case's g·ohw crosses several NR column panels.
  PoolGuard guard;
  const ConvCase cases[] = {
      {128, 6, 3, 2, 1, 2, 1},  // 3×3 stride 2 → 1×1 (resnet-mini stage 4)
      {64, 5, 1, 2, 0, 2, 1},   // 1×1 stride-2 projection → 1×1
      {64, 6, 3, 2, 1, 4, 2},   // 3×3 stride 2 → 2×2
      {32, 5, 1, 2, 0, 4, 2},   // 1×1 stride-2 projection → 2×2
      {32, 6, 3, 1, 1, 4, 4},   // 3×3 → 4×4
      {16, 5, 3, 2, 1, 8, 4},   // 3×3 stride 2 → 4×4
      {16, 6, 3, 1, 1, 8, 8},   // 3×3 → 8×8
      {8, 5, 3, 2, 1, 16, 8},   // 3×3 stride 2 → 8×8
  };
  for (const ConvCase& cc : cases) {
    Rng rng(67);
    Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, rng);
    const std::vector<Parameter*> params = conv.parameters();
    for (auto& v : params[1]->value.data()) v = rng.normal();
    const ConvGeometry g{cc.in_c,  cc.in_hw,  cc.in_hw, cc.kernel,
                         cc.kernel, cc.stride, cc.pad};
    ASSERT_EQ(g.out_h(), cc.out_hw);
    std::vector<float> gamma, mean, inv_std, beta;
    for (std::int64_t c = 0; c < cc.out_c; ++c) {
      gamma.push_back(rng.normal());
      mean.push_back(rng.normal());
      inv_std.push_back(0.5F + rng.uniform());
      beta.push_back(rng.normal());
    }
    const gemmk::Epilogue bias_ep = conv.bias_epilogue();
    gemmk::Epilogue bn_ep = bias_ep;
    bn_ep.bn_gamma = gamma.data();
    bn_ep.bn_mean = mean.data();
    bn_ep.bn_inv_std = inv_std.data();
    bn_ep.bn_beta = beta.data();
    bn_ep.relu = true;

    const std::int64_t grp = g.group_size();
    for (const std::int64_t batch :
         {std::int64_t{1}, std::int64_t{2}, grp - 1, grp, grp + 1,
          2 * grp + 3}) {
      if (batch < 1) continue;
      const std::string what = conv.name() + " on " +
                               std::to_string(cc.in_hw) + "², batch " +
                               std::to_string(batch) + " (group " +
                               std::to_string(grp) + ")";
      const Tensor x =
          random_input(Shape({batch, cc.in_c, cc.in_hw, cc.in_hw}), 71);
      const Tensor gout =
          random_input(Shape({batch, cc.out_c, cc.out_hw, cc.out_hw}), 73);
      const LoweringRef ref =
          reference_lowering(g, cc.out_c, params[0]->value.data(), batch,
                             x.data(), gout.data(), bias_ep, bn_ep);
      std::vector<float> fused(ref.out.size());
      for (const int threads : {1, 2, 8}) {
        set_global_threads(threads);
        const std::string at = what + ", threads=" + std::to_string(threads);
        conv.zero_grad();
        const Tensor y = conv.forward(x, /*training=*/true);
        EXPECT_TRUE(bitwise_equal(y.data(), ref.out)) << "forward, " << at;
        conv.run_fused(x.data(), batch, cc.in_hw, cc.in_hw, fused, bias_ep);
        EXPECT_TRUE(bitwise_equal(fused, ref.out)) << "run_fused bias, " << at;
        conv.run_fused(x.data(), batch, cc.in_hw, cc.in_hw, fused, bn_ep);
        EXPECT_TRUE(bitwise_equal(fused, ref.out_bn))
            << "run_fused bias+bn+relu, " << at;
        const Tensor gin = conv.backward(gout);
        EXPECT_TRUE(bitwise_equal(gin.data(), ref.grad_in))
            << "grad input, " << at;
        EXPECT_TRUE(bitwise_equal(params[0]->grad.data(), ref.dw))
            << "dW, " << at;
        EXPECT_TRUE(bitwise_equal(params[1]->grad.data(), ref.db))
            << "db, " << at;
        // A second backward without zero_grad accumulates onto nonzero
        // gradients.
        (void)conv.backward(gout);
        EXPECT_TRUE(bitwise_equal(params[0]->grad.data(), ref.dw2))
            << "accumulated dW, " << at;
        EXPECT_TRUE(bitwise_equal(params[1]->grad.data(), ref.db2))
            << "accumulated db, " << at;
      }
    }
  }
}

}  // namespace
}  // namespace splitmed::nn
