// Tests for data/: synthetic datasets, partitioning, loaders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <set>

#include "src/common/error.hpp"
#include "src/data/dataloader.hpp"
#include "src/data/transforms.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/data/synthetic_medical.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

data::SyntheticCifar small_cifar(std::int64_t n = 64, std::int64_t classes = 10,
                                 std::uint64_t seed = 42) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = classes;
  opt.image_size = 16;
  opt.seed = seed;
  return data::SyntheticCifar(opt);
}

TEST(SyntheticCifar, ShapesAndLabels) {
  const auto ds = small_cifar();
  EXPECT_EQ(ds.size(), 64);
  EXPECT_EQ(ds.num_classes(), 10);
  EXPECT_EQ(ds.image_shape(), Shape({3, 16, 16}));
  EXPECT_EQ(ds.image(0).shape(), Shape({3, 16, 16}));
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.label(i), 0);
    EXPECT_LT(ds.label(i), 10);
  }
}

TEST(SyntheticCifar, DeterministicPerIndexAndSeed) {
  const auto a = small_cifar();
  const auto b = small_cifar();
  EXPECT_EQ(ops::max_abs_diff(a.image(7), b.image(7)), 0.0F);
  const auto c = small_cifar(64, 10, /*seed=*/1);
  EXPECT_GT(ops::max_abs_diff(a.image(7), c.image(7)), 0.0F);
}

TEST(SyntheticCifar, DistinctExamplesWithinClass) {
  const auto ds = small_cifar();
  // Examples 0 and 10 share a class (label = i % 10) but must differ.
  EXPECT_EQ(ds.label(0), ds.label(10));
  EXPECT_GT(ops::max_abs_diff(ds.image(0), ds.image(10)), 0.05F);
}

TEST(SyntheticCifar, ClassSignalExceedsNoise) {
  // Mean within-class distance should be smaller than between-class distance
  // (otherwise the task would be unlearnable).
  const auto ds = small_cifar(40, 2);
  double within = 0.0, between = 0.0;
  int nw = 0, nb = 0;
  for (std::int64_t i = 0; i < 10; ++i) {
    for (std::int64_t j = i + 1; j < 10; ++j) {
      const float d = ops::mse(ds.image(i), ds.image(j));
      if (ds.label(i) == ds.label(j)) {
        within += d;
        ++nw;
      } else {
        between += d;
        ++nb;
      }
    }
  }
  EXPECT_LT(within / nw, between / nb);
}

TEST(SyntheticCifar, IndexOutOfRangeThrows) {
  const auto ds = small_cifar(8);
  EXPECT_THROW(ds.image(8), InvalidArgument);
  EXPECT_THROW((void)ds.label(-1), InvalidArgument);
}

TEST(SyntheticCifar, NegativeOrOverflowingIndexOffsetRejected) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 4;
  opt.image_size = 8;
  opt.index_offset = -1;
  EXPECT_THROW(data::SyntheticCifar{opt}, InvalidArgument);
  opt.index_offset = std::numeric_limits<std::int64_t>::max() - 3;
  EXPECT_THROW(data::SyntheticCifar{opt}, InvalidArgument);
  opt.index_offset = std::numeric_limits<std::int64_t>::max() - 4;
  const data::SyntheticCifar last(opt);
  EXPECT_EQ(last.size(), 4);
}

TEST(SyntheticMedical, NegativeOrOverflowingIndexOffsetRejected) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 4;
  opt.image_size = 8;
  opt.index_offset = -3;
  EXPECT_THROW(data::SyntheticMedical{opt}, InvalidArgument);
  opt.index_offset = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(data::SyntheticMedical{opt}, InvalidArgument);
  opt.index_offset = std::numeric_limits<std::int64_t>::max() - 4;
  const data::SyntheticMedical last(opt);
  for (std::int64_t i = 0; i < last.size(); ++i) {
    EXPECT_GE(last.label(i), 0);
    EXPECT_LT(last.label(i), opt.num_grades);
  }
}

TEST(SyntheticMedical, ShapesAndGrades) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 32;
  opt.num_grades = 4;
  opt.image_size = 24;
  const data::SyntheticMedical ds(opt);
  EXPECT_EQ(ds.image_shape(), Shape({1, 24, 24}));
  EXPECT_EQ(ds.num_classes(), 4);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ds.label(i), i % 4);
  }
}

TEST(SyntheticMedical, HigherGradeBrighterLesion) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 400;
  opt.num_grades = 4;
  opt.noise_stddev = 0.0F;
  const data::SyntheticMedical ds(opt);
  // Max pixel intensity should grow with lesion grade on average.
  double mean_max[4] = {};
  int counts[4] = {};
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    mean_max[ds.label(i)] += ops::max(ds.image(i));
    ++counts[ds.label(i)];
  }
  for (int g = 0; g < 4; ++g) mean_max[g] /= counts[g];
  EXPECT_LT(mean_max[0], mean_max[2]);
  EXPECT_LT(mean_max[1], mean_max[3]);
}

TEST(Dataset, BatchGather) {
  const auto ds = small_cifar();
  const std::vector<std::int64_t> idx = {3, 0, 5};
  const Tensor batch = ds.batch_images(idx);
  EXPECT_EQ(batch.shape(), Shape({3, 3, 16, 16}));
  EXPECT_EQ(ops::max_abs_diff(batch.slice_rows(1, 2).reshape(ds.image_shape()),
                              ds.image(0)),
            0.0F);
  const auto labels = ds.batch_labels(idx);
  EXPECT_EQ(labels, (std::vector<std::int64_t>{3, 0, 5}));
}

// FNV-1a over the raw bytes of every element: a pin on the exact bits.
std::uint64_t fnv1a_bits(const Tensor& t) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const float v : t.data()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

std::vector<std::int64_t> iota_indices(std::int64_t n) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

// The pixels every golden curve was pinned on. A change to how examples are
// rendered or stored must leave these hashes as they are.
TEST(Dataset, PixelPinSyntheticCifar) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 40;
  opt.image_size = 16;
  opt.noise_stddev = 0.8F;
  opt.index_offset = 96;
  const data::SyntheticCifar ds(opt);
  EXPECT_EQ(fnv1a_bits(ds.batch_images(iota_indices(ds.size()))),
            0xDF983FBD42139655ULL);
}

TEST(Dataset, PixelPinSyntheticMedical) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 24;
  opt.image_size = 24;
  const data::SyntheticMedical ds(opt);
  EXPECT_EQ(fnv1a_bits(ds.batch_images(iota_indices(ds.size()))),
            0xAB68ABBF3DC00F0AULL);
}

TEST(Dataset, BatchImagesOutOfRangeThrows) {
  const auto ds = small_cifar(8);
  EXPECT_THROW((void)ds.batch_images(std::vector<std::int64_t>{0, 8}),
               InvalidArgument);
  EXPECT_THROW((void)ds.batch_images(std::vector<std::int64_t>{-1}),
               InvalidArgument);
  EXPECT_THROW((void)ds.batch_labels(std::vector<std::int64_t>{8}),
               InvalidArgument);
}

TEST(Dataset, ConstructorValidatesImagesAndLabels) {
  const Tensor images(Shape{2, 1, 2, 2});
  const data::Dataset ok(images, {0, 2}, 3);
  EXPECT_EQ(ok.size(), 2);
  EXPECT_EQ(ok.image_shape(), Shape({1, 2, 2}));
  EXPECT_THROW(data::Dataset(Tensor(Shape{2, 4}), {0, 1}, 2), InvalidArgument);
  EXPECT_THROW(data::Dataset(images, {0}, 2), InvalidArgument);
  EXPECT_THROW(data::Dataset(images, {0, 2}, 2), InvalidArgument);
  EXPECT_THROW(data::Dataset(images, {-1, 0}, 2), InvalidArgument);
}

TEST(Dataset, ImageIsBitwiseRowOfGather) {
  const auto ds = small_cifar(12);
  const Tensor all = ds.batch_images(iota_indices(ds.size()));
  const std::int64_t elems = ds.image_shape().numel();
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    const Tensor img = ds.image(i);
    ASSERT_EQ(img.shape(), ds.image_shape());
    EXPECT_EQ(std::memcmp(img.data().data(), all.data().data() + i * elems,
                          static_cast<std::size_t>(elems) * sizeof(float)),
              0)
        << "row " << i;
  }
}

TEST(Dataset, IndexOffsetMatchesRowsOfLargerSet) {
  constexpr std::int64_t kOffset = 5;
  data::SyntheticCifarOptions big_opt;
  big_opt.num_examples = 16;
  big_opt.image_size = 8;
  data::SyntheticCifarOptions small_opt = big_opt;
  small_opt.num_examples = big_opt.num_examples - kOffset;
  small_opt.index_offset = kOffset;
  const data::SyntheticCifar big(big_opt);
  const data::SyntheticCifar shifted(small_opt);
  std::vector<std::int64_t> tail = iota_indices(shifted.size());
  for (auto& i : tail) i += kOffset;
  EXPECT_EQ(fnv1a_bits(shifted.batch_images(iota_indices(shifted.size()))),
            fnv1a_bits(big.batch_images(tail)));
  EXPECT_EQ(shifted.batch_labels(iota_indices(shifted.size())),
            big.batch_labels(tail));

  data::SyntheticMedicalOptions big_med;
  big_med.num_examples = 12;
  big_med.image_size = 8;
  data::SyntheticMedicalOptions small_med = big_med;
  small_med.num_examples = big_med.num_examples - kOffset;
  small_med.index_offset = kOffset;
  const data::SyntheticMedical med(big_med);
  const data::SyntheticMedical med_shifted(small_med);
  std::vector<std::int64_t> med_tail = iota_indices(med_shifted.size());
  for (auto& i : med_tail) i += kOffset;
  EXPECT_EQ(
      fnv1a_bits(med_shifted.batch_images(iota_indices(med_shifted.size()))),
      fnv1a_bits(med.batch_images(med_tail)));
  EXPECT_EQ(med_shifted.batch_labels(iota_indices(med_shifted.size())),
            med.batch_labels(med_tail));
}

TEST(Partition, IidCoversAllIndicesDisjointly) {
  Rng rng(1);
  const auto p = data::partition_iid(100, 4, rng);
  ASSERT_EQ(p.size(), 4U);
  std::set<std::int64_t> seen;
  for (const auto& shard : p) {
    EXPECT_EQ(shard.size(), 25U);
    for (const auto i : shard) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), 100U);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(Partition, WeightedSizesProportional) {
  Rng rng(2);
  const auto p = data::partition_weighted(100, {3.0, 1.0}, rng);
  ASSERT_EQ(p.size(), 2U);
  EXPECT_EQ(p[0].size(), 75U);
  EXPECT_EQ(p[1].size(), 25U);
  EXPECT_EQ(data::partition_total(p), 100);
}

TEST(Partition, WeightedFloorsAtOne) {
  Rng rng(3);
  const auto p = data::partition_weighted(10, {1000.0, 1.0, 1.0}, rng);
  for (const auto& shard : p) EXPECT_GE(shard.size(), 1U);
  EXPECT_EQ(data::partition_total(p), 10);
}

TEST(Partition, ZipfMonotoneDecreasing) {
  Rng rng(4);
  const auto p = data::partition_zipf(1000, 5, 1.2, rng);
  for (std::size_t k = 1; k < p.size(); ++k) {
    EXPECT_LE(p[k].size(), p[k - 1].size());
  }
  EXPECT_EQ(data::partition_total(p), 1000);
}

TEST(Partition, ZipfAlphaZeroIsBalanced) {
  Rng rng(5);
  const auto p = data::partition_zipf(100, 4, 0.0, rng);
  for (const auto& shard : p) EXPECT_EQ(shard.size(), 25U);
}

TEST(Partition, LabelSkewConcentratesClasses) {
  const auto ds = small_cifar(200, 10);
  Rng rng(6);
  const auto p = data::partition_label_skew(ds, 5, 2, rng);
  EXPECT_EQ(data::partition_total(p), 200);
  // With 2 shards per platform over 10 sorted shards, each platform should
  // see few distinct labels (<= 4 given shard boundaries).
  for (const auto& shard : p) {
    std::set<std::int64_t> labels;
    for (const auto i : shard) labels.insert(ds.label(i));
    EXPECT_LE(labels.size(), 4U);
  }
}

TEST(Partition, Validation) {
  Rng rng(7);
  EXPECT_THROW(data::partition_iid(10, 0, rng), InvalidArgument);
  EXPECT_THROW(data::partition_weighted(1, {1.0, 1.0}, rng), InvalidArgument);
  EXPECT_THROW(data::partition_weighted(10, {1.0, -1.0}, rng),
               InvalidArgument);
}

TEST(DataLoader, EpochCoversShardOnce) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard = {1, 3, 5, 7, 9, 11, 13, 15};
  data::DataLoader loader(ds, shard, 3, Rng(1));
  std::multiset<std::int64_t> seen;
  // One epoch = ceil(8/3) = 3 batches (2 full + 1 of size 2).
  for (int b = 0; b < 3; ++b) {
    const auto batch = loader.next_batch();
    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      // Recover which dataset index produced this row via label uniqueness:
      // labels are index % 10, ambiguous; instead count rows.
      seen.insert(static_cast<std::int64_t>(batch.labels[i]));
    }
  }
  EXPECT_EQ(seen.size(), 8U);
}

TEST(DataLoader, BatchSizesAndEpochRollover) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard = {0, 1, 2, 3, 4};
  data::DataLoader loader(ds, shard, 2, Rng(2));
  EXPECT_EQ(loader.batches_per_epoch(), 3);
  EXPECT_EQ(loader.next_batch().labels.size(), 2U);
  EXPECT_EQ(loader.next_batch().labels.size(), 2U);
  EXPECT_EQ(loader.next_batch().labels.size(), 1U);  // epoch tail
  EXPECT_EQ(loader.next_batch().labels.size(), 2U);  // next epoch restarts
}

TEST(DataLoader, SetBatchSizeTakesEffect) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard(16);
  std::iota(shard.begin(), shard.end(), 0);
  data::DataLoader loader(ds, shard, 4, Rng(3));
  loader.set_batch_size(8);
  EXPECT_EQ(loader.next_batch().labels.size(), 8U);
}

TEST(DataLoader, ValidatesConstruction) {
  const auto ds = small_cifar(8);
  EXPECT_THROW(data::DataLoader(ds, {}, 2, Rng(1)), InvalidArgument);
  EXPECT_THROW(data::DataLoader(ds, {0, 99}, 2, Rng(1)), InvalidArgument);
  EXPECT_THROW(data::DataLoader(ds, {0, 1}, 0, Rng(1)), InvalidArgument);
}

TEST(DataLoader, FullShardIsSortedAndComplete) {
  const auto ds = small_cifar(16);
  data::DataLoader loader(ds, {5, 1, 3}, 2, Rng(4));
  const auto batch = loader.full_shard();
  EXPECT_EQ(batch.images.shape().dim(0), 3);
  EXPECT_EQ(batch.labels, (std::vector<std::int64_t>{1, 3, 5}));
}


TEST(DataLoader, TransformAppliedToBatchesNotFullShard) {
  const auto ds = small_cifar(16);
  std::vector<std::int64_t> shard = {0, 1, 2, 3};
  data::DataLoader loader(ds, shard, 4, Rng(5));
  const Tensor raw = loader.full_shard().images;
  // A normalize transform with huge scale makes transformed batches obvious.
  loader.set_transform(std::make_shared<data::Normalize>(
      std::vector<float>{0.0F, 0.0F, 0.0F},
      std::vector<float>{100.0F, 100.0F, 100.0F}));
  const Tensor transformed = loader.next_batch().images;
  EXPECT_LT(ops::max(transformed), 0.2F);
  // full_shard stays untransformed (evaluation path).
  EXPECT_EQ(ops::max_abs_diff(loader.full_shard().images, raw), 0.0F);
}

TEST(DataLoader, AugmentationKeepsShapesAndLabels) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard = {0, 1, 2, 3, 4, 5, 6, 7};
  data::DataLoader loader(ds, shard, 4, Rng(6));
  std::vector<std::unique_ptr<data::Transform>> ts;
  ts.push_back(std::make_unique<data::RandomHorizontalFlip>(0.5F));
  ts.push_back(std::make_unique<data::RandomCrop>(2));
  loader.set_transform(std::make_shared<data::Compose>(std::move(ts)));
  const auto batch = loader.next_batch();
  EXPECT_EQ(batch.images.shape(), Shape({4, 3, 16, 16}));
  EXPECT_EQ(batch.labels.size(), 4U);
}

}  // namespace
}  // namespace splitmed
