// Round-driver oracle: literal fingerprints of every round-driving regime —
// sequential under WAN faults, membership with scripted churn, the chaos
// harness (churn + faults + a mid-outage checkpoint), the overlapped and
// bounded-staleness event schedules, and the L1-sync barrier. Each run is
// pinned at 1 and 4 compute threads against the SAME literals, so the pins
// assert both the exact protocol behaviour and its thread invariance.
//
// A fingerprint records, per curve point, the cumulative wire bytes and the
// bit pattern of the simulated clock, plus the quantized loss/accuracy
// (1/32 resolution, as in golden_curve_test), the skip/loss counters, the
// network's fault counters, and — for membership runs — the ledger
// fingerprint. Any change to message order, timeout timing, retransmission
// count or admission order moves at least one of these numbers.
//
// If an INTENDED change shifts them, the failure message prints the actual
// fingerprint in copy-pasteable form. Update the pins in the same commit as
// the change and say why in the commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/serial/crc32.hpp"

namespace splitmed {
namespace {

namespace fs = std::filesystem;

data::SyntheticCifar make_data(std::int64_t n) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = 4;
  opt.image_size = 8;
  opt.noise_stddev = 0.1F;
  return data::SyntheticCifar(opt);
}

core::ModelBuilder mlp_builder() {
  return [] {
    models::FactoryConfig cfg;
    cfg.name = "mlp";
    cfg.image_size = 8;
    cfg.num_classes = 4;
    return models::build_model(cfg);
  };
}

long quantize(double v) { return std::lround(v * 32.0); }

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

struct Fingerprint {
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> sim_bits;
  std::vector<long> loss;
  std::vector<long> acc;
  std::int64_t skipped_steps = 0;
  std::int64_t examples_lost = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t ledger = 0;

  bool operator==(const Fingerprint&) const = default;
};

template <typename T>
std::string series(const std::vector<T>& v, bool hex) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "");
    if (hex) {
      os << "0x" << std::hex << std::uppercase << v[i] << std::dec << "ULL";
    } else {
      os << v[i];
    }
  }
  os << "}";
  return os.str();
}

std::string render(const Fingerprint& f) {
  std::ostringstream os;
  os << "{\n    " << series(f.bytes, false) << ",\n    "
     << series(f.sim_bits, true) << ",\n    " << series(f.loss, false)
     << ",\n    " << series(f.acc, false) << ",\n    " << f.skipped_steps
     << ", " << f.examples_lost << ", " << f.dropped << ", " << f.corrupted
     << ", " << f.retransmits << ", 0x" << std::hex << std::uppercase
     << f.ledger << "ULL}";
  return os.str();
}

/// Trains `cfg` on the shared 3-hospital fixture and fingerprints the run.
Fingerprint run(const core::SplitConfig& cfg) {
  const auto train = make_data(96);
  const auto test = make_data(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const metrics::TrainReport report = trainer.run();
  Fingerprint f;
  for (const auto& p : report.curve) {
    f.bytes.push_back(p.cumulative_bytes);
    f.sim_bits.push_back(bits(p.sim_seconds));
    f.loss.push_back(quantize(p.train_loss));
    f.acc.push_back(quantize(p.test_accuracy));
  }
  f.skipped_steps = report.skipped_steps;
  f.examples_lost = report.examples_lost;
  const auto& stats = trainer.network().stats();
  f.dropped = stats.dropped();
  f.corrupted = stats.corrupted();
  f.retransmits = stats.retransmits();
  if (const core::MembershipService* m = trainer.membership()) {
    f.ledger = m->ledger().fingerprint();
  }
  return f;
}

/// Runs `cfg` at 1 and 4 threads; both must match the pinned fingerprint.
void expect_pinned(core::SplitConfig cfg, const Fingerprint& golden) {
  for (const int threads : {1, 4}) {
    cfg.threads = threads;
    const Fingerprint actual = run(cfg);
    EXPECT_EQ(actual, golden)
        << "threads=" << threads << " — actual fingerprint:\n"
        << render(actual);
  }
}

core::SplitConfig base_config() {
  core::SplitConfig cfg;
  cfg.total_batch = 12;
  cfg.rounds = 12;
  cfg.eval_every = 2;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  return cfg;
}

/// fault_test's faulted_config: drops, duplicates, corruption and delay
/// spikes on every link, recovered by timeout + retransmission.
core::SplitConfig faulted_config() {
  auto cfg = base_config();
  cfg.total_batch = 16;
  cfg.rounds = 40;
  cfg.eval_every = 4;
  cfg.faults.drop_rate = 0.05;
  cfg.faults.duplicate_rate = 0.05;
  cfg.faults.corrupt_rate = 0.05;
  cfg.faults.delay_spike_rate = 0.02;
  cfg.faults.delay_spike_sec = 2.0;
  return cfg;
}

/// churn_test's chaos_config: random poison spells, a scripted cold outage
/// spanning the round-6 checkpoint, and WAN faults, all at once.
core::SplitConfig chaos_config() {
  auto cfg = base_config();
  cfg.eval_every = 3;
  cfg.membership.enabled = true;
  cfg.membership.strikes_to_quarantine = 2;
  cfg.membership.quarantine_rounds = 2;
  cfg.membership.probation_readmit_prob = 1.0;
  core::ChurnRates rates;
  rates.poison_rate = 0.05;
  rates.poison_rounds = 2;
  cfg.churn = core::ChurnPlan::random(cfg.seed, 3, cfg.rounds, rates);
  cfg.churn.crashes.push_back(
      core::CrashEvent{1, /*round=*/5, 1.0, core::RejoinMode::kCold});
  cfg.faults.drop_rate = 0.03;
  cfg.faults.duplicate_rate = 0.03;
  cfg.faults.corrupt_rate = 0.03;
  cfg.recovery.timeout_sec = 5.0;
  cfg.recovery.backoff = 1.0;
  cfg.recovery.max_retries = 2;
  return cfg;
}

/// CRC-32 over every file of a checkpoint round directory, in file-name
/// order, names included.
std::uint32_t directory_crc(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::uint32_t crc = 0;
  for (const auto& path : files) {
    const std::string name = path.filename().string();
    crc = crc32({reinterpret_cast<const std::uint8_t*>(name.data()),
                 name.size()},
                crc);
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    crc = crc32(bytes, crc);
  }
  return crc;
}

// --- pins -------------------------------------------------------------------

const Fingerprint kSequentialFaulted{
    {81584, 172984, 267128, 362944, 457072, 551584, 643116, 719444, 798284,
     900512},
    {0x40509CBCDA4CA35CULL, 0x40714E5E48A19B5CULL, 0x40802AC6C127AAE4ULL,
     0x408A7E5E5CFEFB36ULL, 0x4092E8FAF3031A47ULL, 0x409552C6B786B6FFULL,
     0x409E4C927C5131A8ULL, 0x409F565E40D4CE60ULL, 0x409FD02A05586B18ULL,
     0x40A114FAE51172D4ULL},
    {28, 13, 8, 3, 4, 2, 1, 1, 1, 1},
    {21, 32, 32, 32, 32, 32, 32, 32, 32, 32},
    0, 0, 33, 28, 101, 0x0ULL};
const Fingerprint kSequentialAbandoning{
    {91884, 202988, 295896, 394076, 472800, 559804, 633204, 720144, 791016,
     890352},
    {0x4080E23EB66A1550ULL, 0x4091DA7E6088254EULL, 0x409D939590109518ULL,
     0x40A4A65B83FCFD1FULL, 0x40AA46D49DD13107ULL, 0x40AFEF63470083A3ULL,
     0x40B24FFA81355AEBULL, 0x40B57A435E829195ULL, 0x40B7B6936B29B098ULL,
     0x40BA4ADD4F45C6C7ULL},
    {39, 18, 16, 10, 6, 4, 4, 2, 2, 2},
    {16, 29, 32, 32, 32, 32, 32, 32, 32, 32},
    56, 301, 169, 23, 166, 0x0ULL};
const Fingerprint kMembershipScripted{
    {26640, 44304, 59682, 70644, 83892, 101556},
    {0x3FCEA38BAD3F3542ULL, 0x3FD5FCCBBA757EAAULL, 0x3FDC03ADDF76C88AULL,
     0x3FE06126E16B3F69ULL, 0x3FE31288B285679FULL, 0x3FE6680BA470599FULL},
    {45, 36, 33, 27, 26, 27},
    {20, 28, 27, 30, 30, 31},
    0, 48, 0, 0, 0, 0xD663228029749C8CULL};
const Fingerprint kChaos{
    {46732, 80360, 212848, 257364},
    {0x402EBBACA858E8F0ULL, 0x4034A76B7FFDE447ULL, 0x4041FAB523158C65ULL,
     0x404999597ED7D7D8ULL},
    {35, 26, 18, 14},
    {22, 26, 29, 32},
    0, 24, 6, 6, 19, 0xAC4C927C836ED979ULL};
const std::uint32_t kChaosCheckpointCrc = 0x28723DD5;
const Fingerprint kOverlapped{
    {26496, 52992, 79488, 105984, 132480, 158976},
    {0x3FC379305F350B6CULL, 0x3FD379305F350B6CULL, 0x3FDD35C88ECF9120ULL,
     0x3FE379305F350B6CULL, 0x3FE8577C77024E48ULL, 0x3FED35C88ECF9124ULL},
    {44, 33, 26, 15, 14, 10},
    {21, 20, 29, 31, 32, 32},
    0, 0, 0, 0, 0, 0x0ULL};
const Fingerprint kBoundedStaleness{
    {11040, 19872, 30688, 42064, 52880, 61824},
    {0x3FA3FE4B919585D6ULL, 0x3FB482FBBFCBD4CDULL, 0x3FBB29B39F45F29CULL,
     0x3FC6CF0C145D823AULL, 0x3FC95F9097A0A968ULL, 0x3FD045D221FC03F8ULL},
    {62, 52, 48, 32, 33, 25},
    {9, 12, 19, 20, 26, 28},
    0, 0, 0, 0, 0, 0x0ULL};
const Fingerprint kSequentialSyncL1{
    {619632, 1239264, 1858896, 2478528, 3098160, 3717792},
    {0x3FD2776487E157C2ULL, 0x3FE2776487E157C1ULL, 0x3FEBB316CBD203A1ULL,
     0x3FF2776487E157BDULL, 0x3FF7153DA9D9ADA5ULL, 0x3FFBB316CBD2038DULL},
    {44, 32, 27, 13, 13, 10},
    {24, 21, 32, 32, 32, 32},
    0, 0, 0, 0, 0, 0x0ULL};

TEST(DriverGolden, SequentialUnderFaults) {
  expect_pinned(faulted_config(), kSequentialFaulted);
}

TEST(DriverGolden, SequentialAbandonsUnreachableSteps) {
  // Harsh enough that whole steps exhaust their retries: pins the abandon
  // path's clock (the final timeout window is waited out) and its counters.
  auto cfg = faulted_config();
  cfg.faults.drop_rate = 0.3;
  cfg.recovery.max_retries = 1;
  expect_pinned(cfg, kSequentialAbandoning);
}

TEST(DriverGolden, FaultFreeMembershipWithScriptedCrashAndPoison) {
  auto cfg = base_config();
  cfg.membership.enabled = true;
  cfg.membership.strikes_to_quarantine = 2;
  cfg.membership.quarantine_rounds = 2;
  cfg.membership.probation_readmit_prob = 1.0;
  cfg.churn.crashes.push_back(
      core::CrashEvent{2, /*round=*/3, 0.5, core::RejoinMode::kWarm});
  cfg.churn.poisons.push_back(core::PoisonEvent{
      0, /*round=*/6, /*duration_rounds=*/2, core::PoisonKind::kNormBomb,
      1.0e6F});
  expect_pinned(cfg, kMembershipScripted);
}

TEST(DriverGolden, ChaosWithRoundSixCheckpoint) {
  for (const int threads : {1, 4}) {
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("driver_golden_chaos_" + std::to_string(threads));
    fs::remove_all(dir);
    auto cfg = chaos_config();
    cfg.threads = threads;
    cfg.checkpoint_every = 6;
    cfg.checkpoint_dir = dir.string();
    const Fingerprint actual = run(cfg);
    EXPECT_EQ(actual, kChaos) << "threads=" << threads
                              << " — actual fingerprint:\n"
                              << render(actual);
    const std::uint32_t crc = directory_crc(dir / "round_000006");
    EXPECT_EQ(crc, kChaosCheckpointCrc)
        << "threads=" << threads << " — actual checkpoint crc: 0x" << std::hex
        << std::uppercase << crc;
    fs::remove_all(dir);
  }
}

TEST(DriverGolden, Overlapped) {
  auto cfg = base_config();
  cfg.schedule = core::Schedule::kOverlapped;
  expect_pinned(cfg, kOverlapped);
}

TEST(DriverGolden, BoundedStalenessWithPartialParticipation) {
  auto cfg = base_config();
  cfg.schedule = core::Schedule::kBoundedStaleness;
  cfg.staleness_bound = 2;
  cfg.participation = 0.7;
  expect_pinned(cfg, kBoundedStaleness);
}

TEST(DriverGolden, SequentialWithL1Sync) {
  auto cfg = base_config();
  cfg.sync_l1_every = 2;
  expect_pinned(cfg, kSequentialSyncL1);
}

}  // namespace
}  // namespace splitmed
