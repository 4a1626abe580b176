// §II privacy claim, quantified: the paper argues the server "cannot look at
// the original data" because only L1 outputs are shared. This bench measures
// how much those outputs actually reveal, as a function of where the cut
// falls: distance correlation between inputs and smashed data, and the MSE
// of a gradient-descent reconstruction attack by an honest-but-curious
// server that knows the L1 weights.
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/common/format.hpp"
#include "src/common/table.hpp"
#include "src/core/split_model.hpp"
#include "src/models/model_stats.hpp"
#include "src/privacy/distance_correlation.hpp"
#include "src/privacy/reconstruction.hpp"

namespace {

using namespace splitmed;
using namespace splitmed::bench;

constexpr std::int64_t kClasses = 10;
constexpr std::int64_t kSamples = 24;

}  // namespace

int main() {
  std::cout << "=== Privacy leakage vs cut depth (vgg-mini) ===\n"
            << "attack: server inverts smashed data by gradient descent on "
               "the inputs (knows L1 weights — worst case)\n\n";

  const auto data = make_cifar(kSamples, kClasses, 42);
  std::vector<std::int64_t> idx(kSamples);
  for (std::int64_t i = 0; i < kSamples; ++i) idx[i] = i;
  const Tensor x = data.batch_images(idx);

  Table table({"cut (layers on platform)", "smashed shape/img",
               "act bytes/img", "dCor(x, smashed)", "recon MSE",
               "input variance"});

  // Input variance = the MSE a knows-nothing attacker achieves by guessing
  // the mean; reconstruction MSE well below it means leakage.
  float mean = 0.0F;
  for (const float v : x.data()) mean += v;
  mean /= static_cast<float>(x.numel());
  float variance = 0.0F;
  for (const float v : x.data()) variance += (v - mean) * (v - mean);
  variance /= static_cast<float>(x.numel());

  for (const std::int64_t cut : {1L, 2L, 3L, 6L}) {
    auto model = mini_builder("vgg-mini", kClasses)();
    auto stats = models::ModelStats::analyze(model, cut);
    auto parts = core::split_at(std::move(model.net), cut);

    const Tensor smashed = parts.platform.forward(x, /*training=*/false);
    const double dcor = privacy::distance_correlation(x, smashed);

    privacy::ReconstructionOptions attack;
    attack.iterations = 200;
    const auto result = privacy::reconstruct_inputs(parts.platform, x, attack);

    std::string desc;
    for (std::size_t i = 0; i < static_cast<std::size_t>(cut); ++i) {
      if (!desc.empty()) desc += '+';
      desc += parts.platform.layer(i).name();
    }
    table.add_row(
        {std::to_string(cut) + " (" + desc + ")",
         stats.cut_activation_chw.str(),
         format_bytes(static_cast<std::uint64_t>(
                          stats.cut_activation_chw.numel()) *
                      4),
         format_fixed(dcor, 3), format_fixed(result.input_mse, 4),
         format_fixed(variance, 4)});
  }
  table.print(std::cout);
  std::cout << "\nreading: the paper's cut (after L1 = conv+relu, row 2) "
               "still leaks under a white-box attack; deeper, compressive "
               "cuts (row 4, past pooling) reduce leakage toward the "
               "input-variance floor at the price of more platform compute. "
               "The framework's privacy rests on the server not knowing L1's "
               "weights.\n"
            << std::endl;
  return 0;
}
