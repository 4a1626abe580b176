// §II data-imbalance ablation: the paper's mitigation sets s_k ∝ |D_k|.
// Sweeps imbalance severity (zipf alpha) and compares the proportional
// policy against the uniform control, plus local-only training as the
// motivating "each hospital trains alone" failure mode.
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/baselines/local_only.hpp"
#include "src/common/format.hpp"
#include "src/common/table.hpp"

namespace {

using namespace splitmed;
using namespace splitmed::bench;

constexpr std::int64_t kClasses = 4;
constexpr std::int64_t kTrain = 360;
constexpr std::int64_t kPlatforms = 4;
constexpr std::int64_t kRounds = 60;

double run_split(const data::Dataset& train, const data::Dataset& test,
                 const data::Partition& partition,
                 core::MinibatchPolicy policy, std::string* batches_out) {
  core::SplitConfig cfg;
  cfg.total_batch = 24;
  cfg.policy = policy;
  cfg.rounds = kRounds;
  cfg.eval_every = kRounds;
  cfg.sgd = comparison_sgd();
  core::SplitTrainer trainer(mini_builder("mlp", kClasses, 8), train,
                             partition, test, cfg);
  if (batches_out != nullptr) {
    std::string s;
    for (const auto b : trainer.minibatches()) {
      if (!s.empty()) s += '/';
      s += std::to_string(b);
    }
    *batches_out = s;
  }
  return trainer.run().final_accuracy;
}

}  // namespace

int main() {
  std::cout << "=== Data-imbalance mitigation (paper §II) ===\n"
            << "K=" << kPlatforms << " hospitals, shard sizes ~ zipf(alpha); "
            << "minibatch policy uniform vs proportional (s_k ∝ |D_k|)\n\n";

  const auto train = make_cifar(kTrain, kClasses, 42, 8, 0, /*noise_stddev=*/0.4F);
  const auto test = make_cifar(96, kClasses, 42, 8, /*index_offset=*/kTrain, /*noise_stddev=*/0.4F);

  Table table({"zipf alpha", "shard sizes", "s_k (proportional)",
               "acc uniform", "acc proportional", "acc local-only (min..max)"});

  for (const double alpha : {0.0, 1.0, 2.0}) {
    Rng prng(11);
    const auto partition =
        data::partition_zipf(train.size(), kPlatforms, alpha, prng);
    std::string shard_sizes;
    for (const auto& shard : partition) {
      if (!shard_sizes.empty()) shard_sizes += '/';
      shard_sizes += std::to_string(shard.size());
    }

    std::string prop_batches;
    const double uniform_acc =
        run_split(train, test, partition, core::MinibatchPolicy::kUniform,
                  nullptr);
    const double prop_acc =
        run_split(train, test, partition,
                  core::MinibatchPolicy::kProportional, &prop_batches);

    baselines::BaselineConfig local_cfg;
    local_cfg.total_batch = 24;
    local_cfg.steps = kRounds;
    local_cfg.eval_every = kRounds;
    local_cfg.sgd = comparison_sgd();
    baselines::LocalOnlyTrainer local(mini_builder("mlp", kClasses, 8), train,
                                      partition, test, local_cfg);
    const auto local_report = local.run();

    table.add_row({format_fixed(alpha, 1), shard_sizes, prop_batches,
                   format_percent(uniform_acc), format_percent(prop_acc),
                   format_percent(local_report.min_accuracy) + " .. " +
                       format_percent(local_report.max_accuracy)});
  }
  table.print(std::cout);
  std::cout << "\nreading: the split framework (either policy) avoids the "
               "local-only accuracy floor of small hospitals; the "
               "proportional policy keeps every example's sampling rate "
               "equal under imbalance (paper's mitigation).\n"
            << std::endl;
  return 0;
}
