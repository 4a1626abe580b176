// Platform churn sweep (extension): split training under the membership
// subsystem while seeded ChurnPlans crash hospitals, hold them offline for
// simulated minutes, and occasionally poison their updates. Sweeps the
// per-platform-round crash rate at two fleet sizes and reports what churn
// actually costs: accuracy, wire bytes, and the examples hospitals never
// contributed — plus the quarantine ledger showing the policing at work.
//
//   --smoke             one fast K=64 run with a scripted outage + poison
//                       spell; prints a machine-parseable `churn-smoke:`
//                       line for CI
//   --json-out F        machine-readable sweep rows
//   --rounds N          rounds per run (default 24; smoke always uses 8)
//   --attribution-out F per-round critical-path attribution JSONL, one file
//                       per run (suffixed _k<K>_r<rate%> in sweep mode);
//                       render with scripts/trace_report.py
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/flags.hpp"
#include "src/common/format.hpp"
#include "src/common/table.hpp"

namespace {

using namespace splitmed;
using namespace splitmed::bench;

constexpr std::int64_t kClasses = 4;
constexpr std::uint64_t kChurnSeed = 29;

struct Row {
  std::int64_t k = 0;
  double crash_rate = 0.0;
  std::int64_t crashes = 0;
  metrics::TrainReport report;
};

/// "attr.jsonl" + tag "_k16_r2" -> "attr_k16_r2.jsonl": every sweep row is
/// its own training run (and ObsSession), so each gets its own file.
std::string tag_suffixed(const std::string& path, const std::string& tag) {
  if (path.empty()) return path;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

core::SplitConfig churn_config(std::int64_t platforms, std::int64_t rounds) {
  core::SplitConfig cfg;
  cfg.total_batch = 2 * platforms;
  cfg.rounds = rounds;
  cfg.eval_every = rounds;
  cfg.sgd = comparison_sgd();
  cfg.membership.enabled = true;
  // Outages last simulated minutes; the deadline must not throttle the
  // larger fleet's sequential round, so it is effectively off — deadline
  // economics have their own test (TightDeadlineDegradesToOneStepPerRound).
  cfg.membership.round_deadline_sec = 3600.0;
  // Fleet-scale policing: once training converges, most logit-grads are
  // tiny while a platform with a hard shard still sends an honest ~100x-1000x
  // outlier, so the default 8x-of-32 policy strikes out clean hospitals.
  // 1024x over a 128-deep history never fires on honest traffic here and
  // still sits three orders of magnitude under the 1e6x bombs.
  cfg.membership.norm_bomb_factor = 1024.0;
  cfg.membership.norm_window = 128;
  return cfg;
}

Row run_rate(std::int64_t platforms, double crash_rate, std::int64_t rounds,
             const std::string& attribution_out) {
  const auto train = make_cifar(4 * platforms, kClasses, 42, 8, 0, 0.4F);
  const auto test = make_cifar(96, kClasses, 42, 8, 4 * platforms, 0.4F);
  const auto builder = mini_builder("mlp", kClasses, 8);
  Rng prng(7);
  const auto partition =
      data::partition_iid(train.size(), static_cast<std::size_t>(platforms),
                          prng);

  core::SplitConfig cfg = churn_config(platforms, rounds);
  core::ChurnRates rates;
  rates.crash_rate = crash_rate;
  rates.mean_offline_sec = 30.0;
  rates.cold_fraction = 0.5;
  // A small constant poison rate keeps the quarantine machinery exercised
  // at every churn level; the sweep variable is the crash rate alone.
  rates.poison_rate = crash_rate > 0.0 ? 0.002 : 0.0;
  rates.poison_rounds = 4;
  cfg.churn = core::ChurnPlan::random(
      kChurnSeed, static_cast<std::size_t>(platforms), rounds, rates);
  if (!attribution_out.empty()) {
    cfg.obs.enabled = true;
    cfg.obs.attribution_path = attribution_out;
  }

  core::SplitTrainer trainer(builder, train, partition, test, cfg);
  Row row;
  row.k = platforms;
  row.crash_rate = crash_rate;
  row.crashes = static_cast<std::int64_t>(cfg.churn.crashes.size());
  row.report = trainer.run();
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                std::int64_t rounds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return;
  }
  out << "{\n  \"rounds\": " << rounds << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"k\": " << r.k << ", \"crash_rate\": " << r.crash_rate
        << ", \"crashes\": " << r.crashes
        << ", \"final_accuracy\": " << r.report.final_accuracy
        << ", \"total_bytes\": " << r.report.total_bytes
        << ", \"examples_lost\": " << r.report.examples_lost
        << ", \"rejected_updates\": " << r.report.rejected_updates
        << ", \"quarantines\": " << r.report.quarantines
        << ", \"void_rounds\": " << r.report.void_rounds
        << ", \"deadline_misses\": " << r.report.deadline_misses << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << rows.size() << " rows to " << path << "\n";
}

/// CI smoke: a scripted plan (not rate-sampled) so the assertions are
/// deterministic — two crashes (one cold) plus a norm-bomb spell long
/// enough to strike the platform out. Prints one parseable line.
int run_smoke(std::int64_t rounds, const std::string& attribution_out) {
  constexpr std::int64_t kPlatforms = 64;
  const auto train = make_cifar(4 * kPlatforms, kClasses, 42, 8, 0, 0.4F);
  const auto test = make_cifar(96, kClasses, 42, 8, 4 * kPlatforms, 0.4F);
  const auto builder = mini_builder("mlp", kClasses, 8);
  Rng prng(7);
  const auto partition = data::partition_iid(train.size(), kPlatforms, prng);

  core::SplitConfig cfg = churn_config(kPlatforms, rounds);
  cfg.churn.crashes.push_back({5, 2, 20.0, core::RejoinMode::kWarm});
  cfg.churn.crashes.push_back({11, 3, 45.0, core::RejoinMode::kCold});
  cfg.churn.poisons.push_back(
      {23, 2, 4, core::PoisonKind::kNormBomb, 1.0e6F});
  if (!attribution_out.empty()) {
    cfg.obs.enabled = true;
    cfg.obs.attribution_path = attribution_out;
  }

  core::SplitTrainer trainer(builder, train, partition, test, cfg);
  const auto report = trainer.run();
  const double final_loss = report.curve.empty()
                                ? std::nan("")
                                : report.curve.back().train_loss;
  std::cout << "churn-smoke: quarantines=" << report.quarantines
            << " rejected_updates=" << report.rejected_updates
            << " examples_lost=" << report.examples_lost
            << " void_rounds=" << report.void_rounds
            << " final_loss=" << final_loss
            << " final_acc=" << report.final_accuracy << "\n";
  // CI greps the line above; the exit code is the hard gate.
  if (report.quarantines < 1) {
    std::cerr << "smoke FAILED: poison spell produced no quarantine\n";
    return 1;
  }
  if (!std::isfinite(final_loss)) {
    std::cerr << "smoke FAILED: final loss is not finite\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_out;
  std::string attribution_out;
  std::int64_t rounds = 24;
  const auto read = [&](splitmed::Flags& flags) {
    smoke = flags.get_bool("smoke", smoke);
    json_out = flags.get_string("json-out", json_out);
    attribution_out = flags.get_string("attribution-out", attribution_out);
    rounds = flags.get_int("rounds", rounds);
  };
  if (!splitmed::parse_cli(argc, argv, read)) return 2;

  if (smoke) {
    return run_smoke(/*rounds=*/8, attribution_out);
  }

  std::cout << "=== Platform churn sweep (mlp, K in {16, 256}, " << rounds
            << " rounds, membership + quarantine on, seed " << kChurnSeed
            << ") ===\n\n";

  Table table({"K", "crash rate", "crashes", "bytes", "ex lost", "rejected",
               "quarantined", "void", "final acc"});
  std::vector<Row> rows;
  for (const std::int64_t k : {std::int64_t{16}, std::int64_t{256}}) {
    // At K=256 a full sweep round is 256 sequential protocol steps; a third
    // of the rounds keeps the bench in seconds at the same churn regimes.
    const std::int64_t r = k > 64 ? std::max<std::int64_t>(rounds / 3, 4)
                                  : rounds;
    for (const double rate : {0.0, 0.005, 0.02, 0.05}) {
      const std::string tag =
          "_k" + std::to_string(k) + "_r" +
          std::to_string(static_cast<int>(rate * 1000.0 + 0.5));
      Row row = run_rate(k, rate, r, tag_suffixed(attribution_out, tag));
      table.add_row({std::to_string(row.k), format_percent(rate, 1),
                     std::to_string(row.crashes),
                     format_bytes(row.report.total_bytes),
                     std::to_string(row.report.examples_lost),
                     std::to_string(row.report.rejected_updates),
                     std::to_string(row.report.quarantines),
                     std::to_string(row.report.void_rounds),
                     format_percent(row.report.final_accuracy)});
      rows.push_back(std::move(row));
    }
  }
  table.print(std::cout);
  if (!json_out.empty()) write_json(json_out, rows, rounds);
  if (!attribution_out.empty()) {
    std::cout << "\nper-round attribution written per run (e.g. "
              << tag_suffixed(attribution_out, "_k16_r20")
              << "; render with scripts/trace_report.py)\n";
  }
  std::cout << "\nreading: every row is bit-reproducible from the churn "
               "seed. examples_lost grows with the crash rate — outages are "
               "paid in silence, not corruption. The byte trend flips with "
               "fleet size: at K=16 an offline hospital's missing steps "
               "dominate (bytes drop with churn) while at K=256 the "
               "rejoin/heartbeat control traffic and cold-rejoin genesis L1 "
               "pulls outweigh the silence (bytes rise). Sampled poison "
               "spells are struck out wherever they run long enough, and "
               "accuracy degrades gracefully because every surviving round "
               "still aggregates the arrived quorum.\n"
            << std::endl;
  return 0;
}
