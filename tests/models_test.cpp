// Tests for models/: architectures produce correct shapes, the factory
// dispatches, and the analytic ModelStats byte model is internally coherent.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/models/factory.hpp"
#include "src/models/mlp.hpp"
#include "src/models/model_stats.hpp"
#include "src/models/resnet.hpp"
#include "src/models/vgg.hpp"
#include "src/serial/codec.hpp"
#include "src/serial/message.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

models::FactoryConfig mini_cfg(const std::string& name) {
  models::FactoryConfig cfg;
  cfg.name = name;
  cfg.image_size = 16;
  cfg.num_classes = 10;
  return cfg;
}

TEST(VggModel, MiniForwardShape) {
  auto model = models::build_model(mini_cfg("vgg-mini"));
  EXPECT_EQ(model.net.output_shape(Shape{2, 3, 16, 16}), Shape({2, 10}));
  const Tensor y = model.net.forward(Tensor(Shape{2, 3, 16, 16}), false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
  EXPECT_EQ(model.default_cut, 2U);
  EXPECT_EQ(model.name, "vgg-mini");
}

TEST(VggModel, Vgg16ParamCountMatchesLiterature) {
  models::VggConfig cfg;
  cfg.variant = models::VggVariant::kVgg16;
  cfg.image_size = 32;
  cfg.num_classes = 10;
  auto model = models::make_vgg(cfg);
  auto stats = models::ModelStats::analyze(model);
  // CIFAR VGG-16 with 4096-wide head: conv ~14.7M + fc (512*4096 + 4096*4096
  // + 4096*10) ~ 18.9M => ~33.6M total.
  EXPECT_GT(stats.total_params, 33'000'000);
  EXPECT_LT(stats.total_params, 34'500'000);
  // L1 = first conv (3->64, 3x3): 1792 params.
  EXPECT_EQ(stats.platform_params, 64 * 27 + 64);
  // Cut activation: 64x32x32.
  EXPECT_EQ(stats.cut_activation_chw, Shape({64, 32, 32}));
}

TEST(VggModel, RejectsIncompatibleImageSize) {
  models::VggConfig cfg;
  cfg.variant = models::VggVariant::kVgg16;
  cfg.image_size = 20;  // not divisible by 2^5
  EXPECT_THROW(models::make_vgg(cfg), InvalidArgument);
}

TEST(ResNetModel, MiniForwardShape) {
  auto model = models::build_model(mini_cfg("resnet-mini"));
  const Tensor y = model.net.forward(Tensor(Shape{2, 3, 16, 16}), false);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
  EXPECT_EQ(model.default_cut, 3U);  // conv + bn + relu
}

TEST(ResNetModel, ResNet18ParamCountMatchesLiterature) {
  models::ResNetConfig cfg;
  cfg.variant = models::ResNetVariant::kResNet18;
  cfg.image_size = 32;
  cfg.num_classes = 10;
  auto model = models::make_resnet(cfg);
  auto stats = models::ModelStats::analyze(model);
  // ~11.2M params (CIFAR stem variant).
  EXPECT_GT(stats.total_params, 10'500'000);
  EXPECT_LT(stats.total_params, 11'500'000);
}

TEST(ResNetModel, ResNet20ParamCountMatchesLiterature) {
  models::ResNetConfig cfg;
  cfg.variant = models::ResNetVariant::kResNet20;
  cfg.image_size = 32;
  auto model = models::make_resnet(cfg);
  auto stats = models::ModelStats::analyze(model);
  // He et al. report 0.27M for ResNet-20 on CIFAR.
  EXPECT_GT(stats.total_params, 250'000);
  EXPECT_LT(stats.total_params, 300'000);
}

TEST(MlpModel, ForwardShapeAndCut) {
  models::MlpConfig cfg;
  cfg.input_shape = Shape{1, 4, 4};
  cfg.hidden = {8};
  cfg.num_classes = 3;
  auto model = models::make_mlp(cfg);
  const Tensor y = model.net.forward(Tensor(Shape{5, 1, 4, 4}), false);
  EXPECT_EQ(y.shape(), Shape({5, 3}));
  EXPECT_EQ(model.default_cut, 3U);
}

TEST(Factory, AllNamesBuild) {
  for (const auto& name : models::model_names()) {
    models::FactoryConfig cfg = mini_cfg(name);
    cfg.image_size = 32;  // every variant supports 32
    auto model = models::build_model(cfg);
    EXPECT_EQ(model.name, name);
    EXPECT_GT(model.net.size(), model.default_cut);
    EXPECT_EQ(model.net.output_shape(Shape{1, 3, 32, 32}), Shape({1, 10}));
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(models::build_model(mini_cfg("alexnet")), InvalidArgument);
}

TEST(Factory, SameSeedGivesIdenticalWeights) {
  auto a = models::build_model(mini_cfg("vgg-mini"));
  auto b = models::build_model(mini_cfg("vgg-mini"));
  const auto pa = a.net.parameters();
  const auto pb = b.net.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(pa[i]->value, pb[i]->value), 0.0F);
  }
}


TEST(VggModel, BatchNormVariantShiftsCutAndAddsParams) {
  auto plain = models::build_model(mini_cfg("vgg-mini"));
  auto bn = models::build_model(mini_cfg("vgg-mini-bn"));
  EXPECT_EQ(plain.default_cut, 2U);   // conv + relu
  EXPECT_EQ(bn.default_cut, 3U);      // conv + bn + relu
  auto plain_stats = models::ModelStats::analyze(plain);
  auto bn_stats = models::ModelStats::analyze(bn);
  EXPECT_GT(bn_stats.total_params, plain_stats.total_params);
  // Same cut activation geometry (BN is shape-preserving).
  EXPECT_EQ(bn_stats.cut_activation_chw, plain_stats.cut_activation_chw);
  const Tensor y = bn.net.forward(Tensor(Shape{2, 3, 16, 16}), true);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(ModelStats, SplitsParamsAtCut) {
  auto model = models::build_model(mini_cfg("vgg-mini"));
  auto stats = models::ModelStats::analyze(model);
  EXPECT_EQ(stats.total_params, stats.platform_params + stats.server_params);
  EXPECT_GT(stats.platform_params, 0);
  EXPECT_GT(stats.server_params, stats.platform_params);
}

TEST(ModelStats, MessageBytesMatchCodec) {
  auto model = models::build_model(mini_cfg("vgg-mini"));
  auto stats = models::ModelStats::analyze(model);
  const std::int64_t batch = 5;
  std::vector<std::int64_t> dims = {batch};
  for (const auto d : stats.cut_activation_chw.dims()) dims.push_back(d);
  EXPECT_EQ(stats.activation_message_bytes(batch),
            Envelope::kEnvelopeHeaderBytes +
                encoded_tensor_bytes(Shape(dims), WireCodec::kF32));
  EXPECT_EQ(stats.logits_message_bytes(batch),
            Envelope::kEnvelopeHeaderBytes +
                encoded_tensor_bytes(Shape{batch, 10}, WireCodec::kF32));
  EXPECT_EQ(stats.parameter_message_bytes(),
            Envelope::kEnvelopeHeaderBytes +
                encoded_tensor_bytes(Shape{stats.total_params},
                                     WireCodec::kF32));
}

TEST(ModelStats, SplitStepSumsFourMessagesPerPlatform) {
  auto model = models::build_model(mini_cfg("vgg-mini"));
  auto stats = models::ModelStats::analyze(model);
  const std::vector<std::int64_t> batches = {4, 4};
  EXPECT_EQ(stats.split_step_bytes(batches),
            2 * (2 * stats.activation_message_bytes(4) +
                 2 * stats.logits_message_bytes(4)));
  EXPECT_EQ(stats.split_step_bytes_uniform(8, 2),
            stats.split_step_bytes(batches));
}

TEST(ModelStats, UnevenUniformSplitDistributesRemainder) {
  auto model = models::build_model(mini_cfg("vgg-mini"));
  auto stats = models::ModelStats::analyze(model);
  // 7 across 2 platforms = {4, 3}.
  EXPECT_EQ(stats.split_step_bytes_uniform(7, 2),
            stats.split_step_bytes(std::vector<std::int64_t>{4, 3}));
}

TEST(ModelStats, SyncSgdAndFedAvgScaleWithParticipants) {
  auto model = models::build_model(mini_cfg("resnet-mini"));
  auto stats = models::ModelStats::analyze(model);
  EXPECT_EQ(stats.syncsgd_step_bytes(4), 4 * stats.syncsgd_step_bytes(1));
  EXPECT_EQ(stats.fedavg_round_bytes(3),
            3 * 2 * stats.parameter_message_bytes());
  EXPECT_EQ(stats.cyclic_cycle_bytes(5),
            5 * stats.parameter_message_bytes());
}

TEST(ModelStats, PaperScaleSplitBeatsSyncSgdPerEpoch) {
  // The paper's headline: for VGG on CIFAR shapes, the proposed framework
  // moves fewer bytes than Large-Scale SGD. Check at paper scale (50k
  // images, batch 128, K=4) the per-epoch ordering holds.
  models::VggConfig cfg;
  cfg.variant = models::VggVariant::kVgg16;
  cfg.image_size = 32;
  auto model = models::make_vgg(cfg);
  auto stats = models::ModelStats::analyze(model);
  const std::int64_t dataset = 50'000, batch = 128, k = 4;
  const std::int64_t steps = (dataset + batch - 1) / batch;
  const auto split = stats.split_epoch_bytes(dataset, k, steps);
  const auto sgd = stats.syncsgd_epoch_bytes(dataset, batch, k);
  EXPECT_LT(split, sgd);
}

TEST(ModelStats, InvalidCutRejected) {
  auto model = models::build_model(mini_cfg("vgg-mini"));
  EXPECT_THROW(models::ModelStats::analyze(model, 0), InvalidArgument);
  EXPECT_THROW(models::ModelStats::analyze(model, model.net.size()),
               InvalidArgument);
}

}  // namespace
}  // namespace splitmed
