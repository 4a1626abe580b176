// Tests for the thread-local workspace arena (src/tensor/workspace.hpp):
// scoped checkout/release, high-water growth and coalescing, 64-byte
// alignment, per-thread isolation, and the headline property the arena
// exists for — steady-state Conv2d training steps perform zero heap
// allocations for kernel scratch.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/tensor.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed {
namespace {

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Workspace, SpansAreAlignedAndDisjoint) {
  ws::Workspace::local().trim();
  ws::WorkspaceScope scope;
  std::span<float> a = scope.floats(7);    // odd size: next span must still
  std::span<float> b = scope.floats(100);  // come back 64-byte aligned
  std::span<float> c = scope.floats(1);
  ASSERT_EQ(a.size(), 7U);
  ASSERT_EQ(b.size(), 100U);
  ASSERT_EQ(c.size(), 1U);
  EXPECT_TRUE(aligned64(a.data()));
  EXPECT_TRUE(aligned64(b.data()));
  EXPECT_TRUE(aligned64(c.data()));
  // Later checkouts never overlap or move earlier ones.
  EXPECT_GE(b.data(), a.data() + 16);  // 7 floats pad to one 64B line
  EXPECT_GE(c.data(), b.data() + 100);
  for (auto& v : a) v = 1.0F;
  for (auto& v : b) v = 2.0F;
  for (auto& v : c) v = 3.0F;
  EXPECT_EQ(a[6], 1.0F);
  EXPECT_EQ(b[0], 2.0F);
}

TEST(Workspace, ZeroSizeCheckoutIsEmpty) {
  ws::WorkspaceScope scope;
  EXPECT_TRUE(scope.floats(0).empty());
}

TEST(Workspace, ScopeReleaseEnablesReuseWithoutNewBlocks) {
  ws::Workspace& arena = ws::Workspace::local();
  arena.trim();
  float* first = nullptr;
  {
    ws::WorkspaceScope scope;
    first = scope.floats(1024).data();
  }
  const std::uint64_t allocs_after_warmup = arena.stats().block_allocs;
  // Same-size checkouts after release must reuse the same storage: same
  // pointer, no new heap blocks, across many "steps".
  for (int step = 0; step < 32; ++step) {
    ws::WorkspaceScope scope;
    std::span<float> again = scope.floats(1024);
    EXPECT_EQ(again.data(), first);
  }
  EXPECT_EQ(arena.stats().block_allocs, allocs_after_warmup);
  EXPECT_EQ(arena.stats().bytes_in_use, 0U);
}

TEST(Workspace, GrowthCoalescesToOneHighWaterBlock) {
  ws::Workspace& arena = ws::Workspace::local();
  arena.trim();
  {
    ws::WorkspaceScope scope;
    scope.floats(100);
  }
  // A larger demand while the small block is live forces a second block...
  {
    ws::WorkspaceScope scope;
    scope.floats(100);
    scope.floats(50000);
    EXPECT_GE(arena.stats().blocks, 2U);
  }
  // ...and the outermost release coalesces back to a single block big
  // enough for the whole high-water footprint.
  const ws::WorkspaceStats s = arena.stats();
  EXPECT_EQ(s.blocks, 1U);
  EXPECT_EQ(s.bytes_in_use, 0U);
  EXPECT_GE(s.bytes_reserved, s.high_water);
  {
    ws::WorkspaceScope scope;
    scope.floats(100);
    scope.floats(50000);
    EXPECT_EQ(arena.stats().blocks, 1U);  // refit needs no new block
  }
}

TEST(Workspace, NestedScopesReleaseLifo) {
  ws::Workspace& arena = ws::Workspace::local();
  arena.trim();
  ws::WorkspaceScope outer;
  std::span<float> kept = outer.floats(64);
  kept[0] = 42.0F;
  float* inner_ptr = nullptr;
  {
    ws::WorkspaceScope inner;
    inner_ptr = inner.floats(64).data();
    EXPECT_NE(inner_ptr, kept.data());
  }
  {
    ws::WorkspaceScope inner;
    // The inner slot was released and is handed out again; the outer span
    // is untouched.
    EXPECT_EQ(inner.floats(64).data(), inner_ptr);
  }
  EXPECT_EQ(kept[0], 42.0F);
}

TEST(Workspace, ArenasAreThreadLocal) {
  ws::WorkspaceScope scope;
  std::span<float> mine = scope.floats(256);
  float* theirs = nullptr;
  std::uint64_t their_checkouts = 0;
  std::thread t([&] {
    ws::WorkspaceScope other;
    theirs = other.floats(256).data();
    their_checkouts = ws::Workspace::local().stats().checkouts;
  });
  t.join();
  EXPECT_NE(theirs, mine.data());
  EXPECT_GE(their_checkouts, 1U);  // the worker saw its own arena's counters
}

TEST(Workspace, GlobalCountersTrackReservation) {
  ws::Workspace::local().trim();
  const std::size_t reserved_before = ws::global_bytes_reserved();
  const std::size_t in_use_before = ws::global_bytes_in_use();
  {
    ws::WorkspaceScope scope;
    scope.floats(4096);
    EXPECT_GE(ws::global_bytes_in_use(), in_use_before + 4096 * sizeof(float));
    EXPECT_GE(ws::global_bytes_reserved(),
              reserved_before + 4096 * sizeof(float));
  }
  EXPECT_EQ(ws::global_bytes_in_use(), in_use_before);
  // Reservation persists after release — that's the point of the arena.
  EXPECT_GE(ws::global_bytes_reserved(), reserved_before);
}

// The acceptance property for the whole arena subsystem: after one warm-up
// step, Conv2d forward+backward training steps allocate NO new arena blocks
// on any thread — the global lifetime-allocation counter stands still.
TEST(Workspace, Conv2dSteadyStateMakesNoArenaAllocations) {
  set_global_threads(1);  // keep the measurement on one arena
  Rng rng(7);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{4, 3, 12, 12}, rng);
  // Warm-up grows every arena involved to its high-water mark.
  Tensor y = conv.forward(x, true);
  const Tensor g = Tensor::normal(y.shape(), rng);
  conv.backward(g);
  const std::uint64_t allocs = ws::global_block_allocs();
  for (int step = 0; step < 8; ++step) {
    conv.zero_grad();
    Tensor out = conv.forward(x, true);
    conv.backward(g);
  }
  EXPECT_EQ(ws::global_block_allocs(), allocs)
      << "steady-state Conv2d steps must not grow any workspace arena";
  set_global_threads(0);
}

// The same property when the batch lowers in several groups of unequal
// size: a small-spatial conv (1152 column rows x 16 columns per sample, so
// kColSlabFloats holds 14 samples) over a batch of 64 lowers in 5 groups.
// Forward, the slab-chained run_fused path and backward all reach their
// high-water mark in the warm-up step.
TEST(Workspace, GroupedConv2dSteadyStateMakesNoArenaAllocations) {
  set_global_threads(1);
  Rng rng(11);
  nn::Conv2d conv(128, 16, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{64, 128, 4, 4}, rng);
  const ConvGeometry geom{128, 4, 4, 3, 3, 1, 1};
  ASSERT_EQ(geom.group_size(), 14);
  std::vector<float> fused(static_cast<std::size_t>(64 * 16 * 4 * 4));
  const Tensor g = Tensor::normal(conv.output_shape(x.shape()), rng);
  const auto step = [&] {
    conv.zero_grad();
    (void)conv.forward(x, true);
    conv.run_fused(x.data(), 64, 4, 4, fused, conv.bias_epilogue());
    (void)conv.backward(g);
  };
  step();  // warm-up grows the arena to its high-water mark
  const std::uint64_t allocs = ws::global_block_allocs();
  for (int i = 0; i < 4; ++i) step();
  EXPECT_EQ(ws::global_block_allocs(), allocs)
      << "steady-state grouped Conv2d steps must not grow any arena";
  set_global_threads(0);
}

// The weight gradient folds each sample group straight into the gradient,
// so backward of a 128-channel 3x3 conv on 1x1 inputs at batch 64 needs
// scratch for one group's columns and packed panels, not one |W|-sized
// product per sample (64 x 128 x 1152 floats = 37.7 MB). Once a whole
// step has run, the next one grows no arena.
TEST(Workspace, Conv2dWeightGradientNeedsNoPerSampleSlabs) {
  set_global_threads(1);
  Rng rng(13);
  nn::Conv2d conv(128, 128, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{64, 128, 1, 1}, rng);
  const Tensor g = Tensor::normal(conv.output_shape(x.shape()), rng);
  (void)conv.forward(x, true);
  ws::Workspace& arena = ws::Workspace::local();
  arena.trim();
  (void)conv.backward(g);
  const std::size_t peak = arena.stats().high_water;
  const std::size_t slabs = std::size_t{64} * 128 * 1152 * sizeof(float);
  EXPECT_LT(peak, slabs / 16) << "backward arena peak " << peak << " bytes";
  const auto step = [&] {
    (void)conv.forward(x, true);
    (void)conv.backward(g);
  };
  step();  // the arena settles at a whole step's high-water mark
  const std::uint64_t allocs = ws::global_block_allocs();
  step();
  EXPECT_EQ(ws::global_block_allocs(), allocs)
      << "a second Conv2d step must not grow any arena";
  set_global_threads(0);
}

}  // namespace
}  // namespace splitmed
