// Fig. 4 (VGG curves): proposed split framework vs Large-Scale SGD (and
// FedAvg) at equal transmitted bytes, VGG family on CIFAR-10-shaped data.
// Paper: proposed ~0.8 GB @ 95% accuracy vs Large-Scale SGD ~2 GB @ 55%.
#include "bench/fig4_runner.hpp"
#include "src/common/flags.hpp"

int main(int argc, char** argv) {
  splitmed::bench::Fig4Config cfg;
  const auto read = [&](splitmed::Flags& flags) {
    cfg.model = flags.get_string("model", "vgg-mini");
    cfg.classes = flags.get_int("classes", 10);
    cfg.platforms = flags.get_int("platforms", cfg.platforms);
    cfg.split_rounds = flags.get_int("rounds", cfg.split_rounds);
    cfg.zipf_alpha = flags.get_double("zipf", cfg.zipf_alpha);
    cfg.threads = flags.get_int("threads", cfg.threads);
    cfg.checkpoint_every = flags.get_int("checkpoint-every", cfg.checkpoint_every);
    cfg.checkpoint_dir = flags.get_string("checkpoint-dir", cfg.checkpoint_dir);
    cfg.resume_from = flags.get_string("resume", cfg.resume_from);
    cfg.trace_out = flags.get_string("trace-out", cfg.trace_out);
    cfg.metrics_out = flags.get_string("metrics-out", cfg.metrics_out);
    cfg.attribution_out = flags.get_string("attribution-out", cfg.attribution_out);
    cfg.trace_detail = flags.get_int("trace-detail", cfg.trace_detail);
    cfg.codec = flags.get_string("codec", cfg.codec);
  };
  if (!splitmed::parse_cli(argc, argv, read)) return 2;
  cfg.paper_line =
      "VGG + CIFAR-10/100: proposed 0.8 GB @ 95% vs Large-Scale SGD "
      "2 GB @ 55% (shape target: proposed wins at equal bytes)";
  cfg.csv_path = "fig4_vgg_curves.csv";
  return splitmed::bench::run_fig4(cfg);
}
