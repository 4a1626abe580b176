// Thread-count sweep over the tensor substrate on the Fig. 4 VGG
// configuration: one platform/server training step (forward + loss backward
// + full backward) of the vgg-mini model, timed at --threads 1, 2, 4, ...
//
// Two things are reported per thread count:
//   * step latency and speedup vs the serial substrate, and
//   * a bitwise comparison of the logits and parameter state against the
//     serial run — the determinism contract (docs/PROTOCOL.md) requires
//     exact equality, not tolerance-equality.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/flags.hpp"
#include "src/common/format.hpp"
#include "src/common/stopwatch.hpp"
#include "src/common/table.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/loss.hpp"
#include "src/optim/sgd.hpp"
#include "src/tensor/ops.hpp"

namespace {

using namespace splitmed;

struct StepResult {
  double ms_per_step = 0.0;
  Tensor logits;                       // last step's logits
  std::vector<float> param_checksum;   // raw copy of every parameter value
};

/// Runs `steps` full training steps of the model at the current global
/// thread count and returns latency plus the exact final state.
StepResult run_steps(const std::string& model_name, std::int64_t classes,
                     std::int64_t batch, std::int64_t steps,
                     std::int64_t warmup) {
  models::BuiltModel model = bench::mini_builder(model_name, classes)();
  optim::SgdOptions sgd_opt = bench::comparison_sgd();
  optim::Sgd opt(model.net.parameters(), sgd_opt);
  const auto train = bench::make_cifar(batch, classes, /*seed=*/42);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) idx[static_cast<std::size_t>(i)] = i;
  const Tensor images = train.batch_images(idx);
  const auto labels = train.batch_labels(idx);
  nn::SoftmaxCrossEntropy loss;

  StepResult out;
  Stopwatch watch;
  for (std::int64_t s = 0; s < warmup + steps; ++s) {
    if (s == warmup) watch.reset();
    model.net.zero_grad();
    out.logits = model.net.forward(images, /*training=*/true);
    loss.forward(out.logits, labels);
    model.net.backward(loss.backward());
    opt.step();
  }
  out.ms_per_step = watch.milliseconds() / static_cast<double>(steps);
  for (const nn::Parameter* p : model.net.parameters()) {
    const auto d = p->value.data();
    out.param_checksum.insert(out.param_checksum.end(), d.begin(), d.end());
  }
  return out;
}

bool bitwise_equal(const StepResult& a, const StepResult& b) {
  if (a.param_checksum.size() != b.param_checksum.size()) return false;
  for (std::size_t i = 0; i < a.param_checksum.size(); ++i) {
    if (a.param_checksum[i] != b.param_checksum[i]) return false;
  }
  const auto la = a.logits.data();
  const auto lb = b.logits.data();
  if (la.size() != lb.size()) return false;
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (la[i] != lb[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "vgg-mini";
  std::int64_t classes = 10;
  std::int64_t batch = 32;
  std::int64_t steps = 8;
  std::int64_t warmup = 2;
  std::int64_t max_threads = std::max(4, ThreadPool::default_threads());
  const auto read = [&](Flags& flags) {
    model = flags.get_string("model", model);
    classes = flags.get_int("classes", classes);
    batch = flags.get_int("batch", batch);
    steps = flags.get_int("steps", steps);
    warmup = flags.get_int("warmup", warmup);
    max_threads = flags.get_int("max_threads", max_threads);
  };
  if (!parse_cli(argc, argv, read)) return 2;

  std::cout << "=== substrate thread sweep (" << model << ", batch " << batch
            << ", " << steps << " timed steps) ===\n"
            << "default threads (SPLITMED_THREADS or hardware_concurrency): "
            << ThreadPool::default_threads()
            << " (speedup saturates at the physical core count)\n\n";

  set_global_threads(1);
  const StepResult serial = run_steps(model, classes, batch, steps, warmup);

  Table table({"threads", "ms/step", "speedup", "bitwise == serial"});
  table.add_row({"1", format_fixed(serial.ms_per_step, 2), "1.00x", "yes"});

  bool all_identical = true;
  for (std::int64_t t = 2; t <= max_threads; t *= 2) {
    set_global_threads(static_cast<int>(t));
    const StepResult r = run_steps(model, classes, batch, steps, warmup);
    const bool same = bitwise_equal(serial, r);
    all_identical = all_identical && same;
    table.add_row({std::to_string(t), format_fixed(r.ms_per_step, 2),
                   format_fixed(serial.ms_per_step / r.ms_per_step, 2) + "x",
                   same ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << '\n'
            << (all_identical
                    ? "determinism contract holds: every thread count "
                      "reproduced the serial run bit-for-bit\n"
                    : "DETERMINISM VIOLATION: some thread count diverged "
                      "from the serial run\n");
  return all_identical ? 0 : 1;
}
