// splitbench — one repetition of one splitmed benchmark workload.
//
// run.py starts this binary once per repetition, so a crash or a hang costs
// that repetition and not the whole run, and aggregates the JSON object it
// prints as its last stdout line. Every workload does what a hospital
// consortium does with the system: train the split model for a fixed number
// of rounds through core::SplitTrainer (one evaluation at the end), then
// serve closed-loop inference requests of 1-64 scans from each hospital's
// composite model (its L1 plus the shared server body), round-robin over the
// hospitals. The workloads differ in which of those two phases dominates and
// in the regime (model, hospital count, codec, schedule, threads).
//
// --mode timed   set-up, SplitTrainer::run(), serving; checks afterwards.
// --mode traced  the timed repetition, then a second identical trainer with
//                the program's ObsSession on (trace detail 2) whose rounds
//                this file drives itself through the public node calls,
//                with a span around each call. The traced run must
//                reproduce the untraced fingerprint bit for bit.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/flags.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/protocol.hpp"
#include "src/core/trainer.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/metrics/evaluate.hpp"
#include "src/models/factory.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/serial/codec.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/workspace.hpp"

#ifndef SPLITBENCH_BUILD_TYPE
#define SPLITBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace splitmed;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  const char* model;
  std::int64_t classes;
  std::int64_t image;
  std::int64_t train_examples;
  std::int64_t test_examples;
  std::int64_t platforms;
  /// Zipf shard sizes (alpha > 0) or iid shards (alpha == 0).
  double zipf_alpha;
  std::int64_t total_batch;
  core::Schedule schedule;
  WireCodec codec;
  /// Every core the process may use, or the serial path.
  bool all_threads;
  float noise;
  /// Work per repetition: training rounds, then inference requests.
  std::int64_t rounds;
  std::int64_t requests;
};

constexpr std::int64_t kMaxRequestScans = 64;

/// paper-train and paper-train-mt share every input; only the thread count
/// differs, so their fingerprints must be identical (docs/PROTOCOL.md).
constexpr Workload paper_train(const char* name, bool all_threads) {
  return {name, "vgg-mini", 10, 16, 512, 256, 4, 0.8, 32,
          core::Schedule::kSequential, WireCodec::kF32, all_threads, 0.4F,
          80, 128};
}

// Why each workload exists is recorded in README.md beside this file.
const Workload kWorkloads[] = {
    paper_train("paper-train", false),
    paper_train("paper-train-mt", true),
    {"composite-infer", "resnet-mini", 4, 8, 512, 256, 4, 0.8, 32,
     core::Schedule::kSequential, WireCodec::kF32, false, 0.3F, 24, 64},
    {"many-hospitals", "mlp", 4, 8, 8192, 128, 1024, 0.0, 1024,
     core::Schedule::kOverlapped, WireCodec::kI8, false, 0.15F, 16, 1024},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += '|';
    out += w.name;
  }
  return out;
}

std::string usage() {
  return "usage: splitbench --workload " + workload_names() +
         " --seed N [--mode timed|traced] [--out DIR]\n";
}

/// The task (each class's signature image) is fixed, like a real imaging
/// task; the seed picks which examples are drawn from it. Seeding the class
/// signatures instead changes how hard the task is, and test accuracy with
/// it, by more than any bound a regression check could use.
constexpr std::uint64_t kTaskSeed = 42;

data::SyntheticCifar make_data(const Workload& w, std::uint64_t seed,
                               std::int64_t examples, std::int64_t offset) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = examples;
  opt.num_classes = w.classes;
  opt.image_size = w.image;
  opt.noise_stddev = w.noise;
  opt.seed = kTaskSeed;
  opt.index_offset =
      static_cast<std::int64_t>(seed % 1000003ULL) * 100000 + offset;
  return data::SyntheticCifar(opt);
}

struct Request {
  std::size_t hospital = 0;
  Tensor scans;
  std::vector<std::int64_t> labels;
};

/// Everything one repetition needs, generated from the seed.
struct Inputs {
  Inputs(const Workload& w, std::uint64_t seed)
      : train(make_data(w, seed, w.train_examples, 0)),
        test(make_data(w, seed, w.test_examples, w.train_examples)) {
    Rng prng(seed ^ 0x5eedULL);
    partition = w.zipf_alpha > 0.0
                    ? data::partition_zipf(train.size(), w.platforms,
                                           w.zipf_alpha, prng)
                    : data::partition_iid(train.size(), w.platforms, prng);
    // Request sizes walk a seeded shuffle of the ladder 1..64, so every
    // block of 64 requests holds each size once: the size mix, and with it
    // the latency percentiles, does not drift with the seed.
    Rng rrng(seed ^ 0x4e9ULL);
    std::vector<std::int64_t> ladder(kMaxRequestScans);
    std::iota(ladder.begin(), ladder.end(), 1);
    std::int64_t cursor = 0;
    for (std::int64_t r = 0; r < w.requests; ++r) {
      if (r % kMaxRequestScans == 0) {
        for (std::size_t i = ladder.size() - 1; i > 0; --i) {
          const auto j = rrng.uniform_int(0, static_cast<std::int64_t>(i));
          std::swap(ladder[i], ladder[static_cast<std::size_t>(j)]);
        }
      }
      const std::int64_t n =
          ladder[static_cast<std::size_t>(r % kMaxRequestScans)];
      std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
      for (auto& i : idx) i = cursor++ % test.size();
      Request req;
      req.hospital = static_cast<std::size_t>(r % w.platforms);
      req.scans = test.batch_images(idx);
      req.labels = test.batch_labels(idx);
      requests.push_back(std::move(req));
    }
  }

  data::SyntheticCifar train;
  data::SyntheticCifar test;
  data::Partition partition;
  std::vector<Request> requests;
};

core::SplitConfig split_config(const Workload& w, std::uint64_t seed,
                               int threads) {
  core::SplitConfig cfg;
  cfg.total_batch = w.total_batch;
  cfg.policy = core::MinibatchPolicy::kProportional;
  cfg.rounds = w.rounds;
  cfg.eval_every = w.rounds;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.schedule = w.schedule;
  cfg.codec = w.codec;
  cfg.threads = threads;
  cfg.seed = seed;
  return cfg;
}

core::ModelBuilder model_builder(const Workload& w, std::uint64_t seed) {
  return [&w, seed] {
    models::FactoryConfig cfg;
    cfg.name = w.model;
    cfg.image_size = w.image;
    cfg.num_classes = w.classes;
    cfg.seed = seed;
    return models::build_model(cfg);
  };
}

// ---------------------------------------------------------------------------
// Spans recorded by this file around each public call (traced mode only).

struct SpanRecord {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t id = 0;
  std::uint64_t bytes = 0;
};

class Tracer {
 public:
  int open(const char* name, std::uint64_t id) {
    SpanRecord s;
    s.name = name;
    s.parent = current_;
    s.id = id;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    spans_.back().start_us = now_us();
    return current_;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }
  SpanRecord& at(int index) { return spans_[static_cast<std::size_t>(index)]; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

/// Scoped span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer ? tracer->open(name, id) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// The step id, when it is known only once the call returned.
  void set_id(std::uint64_t id) {
    if (tracer_ != nullptr) tracer_->at(index_).id = id;
  }
  void set_bytes(std::uint64_t bytes) {
    if (tracer_ != nullptr) tracer_->at(index_).bytes = bytes;
  }

 private:
  Tracer* tracer_;
  int index_;
};

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  SPLITMED_CHECK(out.good(), "cannot write " << path);
  out << "{\"traceEvents\":[\n";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << ",\"bytes\":" << s.bytes << "}}";
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// The outside-driven round loop (traced mode).

/// Receives the next frame for `node` and, on a copy of its payload, times
/// the tagged tensor codec both ways (the protocol decodes the original).
Envelope traced_receive(Tracer& tr, net::Network& network, NodeId node) {
  std::optional<Envelope> env;
  {
    Scope s(&tr, "net.receive", 0);
    env = network.receive(node);
    s.set_id(env->round);
  }
  const std::uint64_t step = env->round;
  const std::vector<std::uint8_t> copy = env->payload;
  std::optional<TaggedTensor> tagged;
  {
    Scope s(&tr, "serial.decode_tensor_tagged", step);
    s.set_bytes(copy.size());
    BufferReader r(copy);
    tagged = decode_tensor_tagged(r);
  }
  {
    Scope s(&tr, "serial.encode_tensor_tagged", step);
    BufferWriter w;
    encode_tensor_tagged(tagged->tensor, tagged->codec, w);
    s.set_bytes(w.size());
  }
  return std::move(*env);
}

void traced_server_handle(Tracer& tr, core::CentralServer& server,
                          net::Network& network, const Envelope& env) {
  const bool activation =
      static_cast<core::MsgKind>(env.kind) == core::MsgKind::kActivation;
  Scope s(&tr,
          activation ? "core.server.handle_activation"
                     : "core.server.handle_logit_grad",
          env.round);
  server.handle(network, env);
}

void traced_platform_handle(Tracer& tr, core::PlatformNode& platform,
                            net::Network& network, const Envelope& env) {
  const bool logits =
      static_cast<core::MsgKind>(env.kind) == core::MsgKind::kLogits;
  Scope s(&tr,
          logits ? "core.platform.handle_logits"
                 : "core.platform.handle_cut_grad",
          env.round);
  platform.handle(network, env);
}

void traced_send_activation(Tracer& tr, core::PlatformNode& platform,
                            net::Network& network, std::uint64_t step) {
  Scope s(&tr, "core.platform.send_activation", step);
  platform.send_activation(network, step);
}

/// One sequential round: the Fig. 3 workflow, platform after platform,
/// exactly as SplitTrainer::run_platform_step drives it.
void sequential_round(Tracer& tr, core::SplitTrainer& t, std::uint64_t& step) {
  net::Network& net = t.network();
  core::CentralServer& server = t.server();
  for (std::size_t p = 0; p < t.num_platforms(); ++p) {
    core::PlatformNode& node = t.platform(p);
    ++step;
    traced_send_activation(tr, node, net, step);
    traced_server_handle(tr, server, net,
                         traced_receive(tr, net, server.id()));
    traced_platform_handle(tr, node, net,
                           traced_receive(tr, net, node.id()));
    traced_server_handle(tr, server, net,
                         traced_receive(tr, net, server.id()));
    traced_platform_handle(tr, node, net,
                           traced_receive(tr, net, node.id()));
  }
}

/// One overlapped round: every platform uploads, then frames are delivered
/// in global arrival order until every step completed — the order
/// core::EventScheduler::drain produces under a full barrier.
void overlapped_round(Tracer& tr, core::SplitTrainer& t, std::uint64_t& step) {
  net::Network& net = t.network();
  core::CentralServer& server = t.server();
  std::vector<std::size_t> node_to_platform(net.node_count(), 0);
  for (std::size_t p = 0; p < t.num_platforms(); ++p) {
    node_to_platform[t.platform(p).id()] = p;
    traced_send_activation(tr, t.platform(p), net, ++step);
  }
  std::size_t in_flight = t.num_platforms();
  while (in_flight > 0) {
    const auto event = net.next_event();
    SPLITMED_CHECK(event.has_value(), "steps in flight but no frame");
    if (event->node == server.id()) {
      traced_server_handle(tr, server, net,
                           traced_receive(tr, net, server.id()));
      continue;
    }
    core::PlatformNode& node = t.platform(node_to_platform[event->node]);
    const Envelope env = traced_receive(tr, net, event->node);
    const bool cut_grad =
        static_cast<core::MsgKind>(env.kind) == core::MsgKind::kCutGrad;
    traced_platform_handle(tr, node, net, env);
    if (cut_grad && node.state() == core::PlatformState::kIdle) --in_flight;
  }
}

// ---------------------------------------------------------------------------
// Outputs and checks.

struct Fingerprint {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  double final_loss = 0.0;
  double accuracy = 0.0;
  std::uint64_t pred_hash = 0;

  bool operator==(const Fingerprint& o) const {
    return bytes == o.bytes && messages == o.messages &&
           std::bit_cast<std::uint64_t>(final_loss) ==
               std::bit_cast<std::uint64_t>(o.final_loss) &&
           std::bit_cast<std::uint64_t>(accuracy) ==
               std::bit_cast<std::uint64_t>(o.accuracy) &&
           pred_hash == o.pred_hash;
  }
  [[nodiscard]] std::string hex() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%llx-%llx-%016llx-%016llx-%016llx",
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(final_loss)),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(accuracy)),
                  static_cast<unsigned long long>(pred_hash));
    return buf;
  }
};

/// The curve's final training loss: SplitTrainer's all-platform mean once
/// every platform has stepped (true after the first full round here).
double final_loss(core::SplitTrainer& t) {
  double loss = 0.0;
  for (std::size_t p = 0; p < t.num_platforms(); ++p) {
    loss += t.platform(p).last_loss();
  }
  return loss / static_cast<double>(t.num_platforms());
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  const std::int64_t rows = logits.shape().dim(0);
  const std::int64_t classes = logits.shape().dim(1);
  auto d = logits.data();
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = d.data() + r * classes;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

struct ServeResult {
  std::vector<double> latency_ms;
  std::vector<std::vector<std::int64_t>> predictions;
  double seconds = 0.0;
  std::int64_t scans = 0;
};

/// The closed loop: one client, the next request leaves when the previous
/// one's predictions are back.
ServeResult serve(core::SplitTrainer& t, const std::vector<Request>& requests,
                  Tracer* tr) {
  ServeResult out;
  Scope all(tr, "serve", 0);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Request& req = requests[r];
    const auto q0 = Clock::now();
    Tensor logits;
    {
      Scope s(tr, "infer.request", r);
      Tensor h;
      {
        Scope l1(tr, "nn.l1.infer", r);
        h = t.platform(req.hospital).l1().infer(req.scans);
      }
      {
        Scope body(tr, "nn.body.infer", r);
        logits = t.server().body().infer(h);
      }
    }
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - q0).count());
    out.predictions.push_back(argmax_rows(logits));
    out.scans += req.scans.shape().dim(0);
  }
  out.seconds = seconds_since(t0);
  return out;
}

/// infer() must predict what eval-mode forward() predicts, request by
/// request. Returns the number of requests that disagree.
std::int64_t check_infer_matches_forward(core::SplitTrainer& t,
                                         const std::vector<Request>& requests,
                                         const ServeResult& served) {
  std::int64_t mismatched = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Request& req = requests[r];
    const Tensor h = t.platform(req.hospital).l1().forward(req.scans, false);
    const Tensor logits = t.server().body().forward(h, false);
    if (argmax_rows(logits) != served.predictions[r]) ++mismatched;
  }
  return mismatched;
}

std::uint64_t hash_predictions(const ServeResult& served) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& preds : served.predictions) {
    for (const std::int64_t p : preds) {
      h = (h ^ static_cast<std::uint64_t>(p)) * 0x100000001b3ULL;
    }
    h = (h ^ 0xffULL) * 0x100000001b3ULL;
  }
  return h;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ',';
    out += num(vs[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Workload& w, std::uint64_t seed, bool traced,
        const std::string& out_dir) {
  // What `nproc` prints: the CPUs this process may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? std::max(1, CPU_COUNT(&cpus))
                        : 1;
  const int threads = w.all_threads ? nproc : 1;

  // Announced before any work, so a repetition that dies still tells the
  // parent how many operations it lost.
  std::cout << "plan steps=" << w.rounds * w.platforms
            << " requests=" << w.requests << std::endl;

  const auto setup0 = Clock::now();
  const Inputs in(w, seed);
  const auto builder = model_builder(w, seed);
  std::ostringstream js;
  Fingerprint fp;
  {
    // Scoped: the traced run below never holds two trainers at once.
    core::SplitTrainer trainer(builder, in.train, in.partition, in.test,
                               split_config(w, seed, threads));
    const double setup_s = seconds_since(setup0);

    const auto run0 = Clock::now();
    const metrics::TrainReport report = trainer.run();
    const double run_s = seconds_since(run0);
    const ServeResult served = serve(trainer, in.requests, nullptr);

    // Checks, outside the timed sections.
    const std::int64_t infer_mismatches =
        check_infer_matches_forward(trainer, in.requests, served);
    fp.bytes = report.total_bytes;
    fp.messages = trainer.network().stats().total_messages();
    fp.final_loss = report.curve.back().train_loss;
    fp.accuracy = report.final_accuracy;
    fp.pred_hash = hash_predictions(served);
    const bool loss_matches =
        std::bit_cast<std::uint64_t>(fp.final_loss) ==
        std::bit_cast<std::uint64_t>(final_loss(trainer));

    std::int64_t step_examples = 0;
    for (const std::int64_t s : trainer.minibatches()) step_examples += s;
    std::uint64_t uplink = 0;
    std::uint64_t downlink = 0;
    const NodeId server_id = trainer.server().id();
    for (std::size_t p = 0; p < trainer.num_platforms(); ++p) {
      const NodeId pid = trainer.platform(p).id();
      uplink += trainer.network().stats().bytes_between(pid, server_id);
      downlink += trainer.network().stats().bytes_between(server_id, pid);
    }

    js << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
       << ",\"build_type\":\"" << SPLITBENCH_BUILD_TYPE << "\",\"isa\":\""
       << gemm_kernel_isa() << "\",\"threads\":" << global_threads()
       << ",\"nproc\":" << nproc << ",\"setup_s\":" << num(setup_s)
       << ",\"run_s\":" << num(run_s) << ",\"rounds\":" << w.rounds
       << ",\"steps\":" << w.rounds * w.platforms
       << ",\"examples\":" << w.rounds * step_examples
       << ",\"bytes\":" << fp.bytes << ",\"messages\":" << fp.messages
       << ",\"uplink_bytes\":" << uplink << ",\"downlink_bytes\":" << downlink
       << ",\"sim_s\":" << num(report.total_sim_seconds)
       << ",\"final_loss\":" << num(fp.final_loss)
       << ",\"accuracy\":" << num(fp.accuracy)
       << ",\"requests\":" << in.requests.size()
       << ",\"scans\":" << served.scans
       << ",\"serve_s\":" << num(served.seconds)
       << ",\"latency_ms\":" << num_list(served.latency_ms)
       << ",\"infer_mismatches\":" << infer_mismatches
       << ",\"loss_matches_platforms\":" << (loss_matches ? "true" : "false")
       << ",\"fingerprint\":\"" << fp.hex() << "\"";
  }

  if (traced) {
    // A second trainer from the same inputs, rounds driven from here.
    const core::SplitConfig cfg = split_config(w, seed, threads);
    core::SplitTrainer t(builder, in.train, in.partition, in.test, cfg);
    // The program's own spans (trace detail 2) time the nn layers inside
    // the node handlers. At 1024 hospitals they would hold ~1M events
    // (~0.8 GB), so the session covers only the last rounds, up to
    // kObsSteps protocol steps, plus the evaluation and serving.
    constexpr std::int64_t kObsSteps = 2048;
    const std::int64_t obs_rounds =
        std::clamp<std::int64_t>(kObsSteps / w.platforms, 1, w.rounds);
    obs::ObsConfig obs_cfg;
    obs_cfg.enabled = true;
    obs_cfg.detail = 2;
    obs_cfg.trace_path = out_dir + "/obs_trace_" + w.name + ".json";
    std::optional<obs::ObsSession> session;
    Tracer tr;
    ws::reset_step_peak();
    const auto traced0 = Clock::now();
    std::uint64_t step = 0;
    double accuracy = 0.0;
    {
      Scope run_span(&tr, "core.trainer.run", 0);
      for (std::int64_t round = 1; round <= w.rounds; ++round) {
        if (round == w.rounds - obs_rounds + 1) {
          session.emplace(obs_cfg);
          session->set_sim_source(
              [&t] { return t.network().clock().now(); });
        }
        Scope round_span(&tr, "core.round", static_cast<std::uint64_t>(round));
        if (w.schedule == core::Schedule::kSequential) {
          sequential_round(tr, t, step);
        } else {
          overlapped_round(tr, t, step);
        }
      }
      for (std::size_t p = 0; p < t.num_platforms(); ++p) {
        Scope s(&tr, "metrics.evaluate_composite", p);
        accuracy += metrics::evaluate_composite(t.platform(p).l1(),
                                                &t.server().body(), in.test,
                                                cfg.eval_batch);
      }
      accuracy /= static_cast<double>(t.num_platforms());
    }
    const double traced_run_s = seconds_since(traced0);
    const ServeResult traced_served = serve(t, in.requests, &tr);
    obs::Counter* gemm_calls = obs::gemm_calls_counter();
    obs::Counter* gemm_seconds = obs::gemm_seconds_counter();
    const double gemm_calls_v = gemm_calls ? gemm_calls->value() : 0.0;
    const double gemm_seconds_v = gemm_seconds ? gemm_seconds->value() : 0.0;
    const std::size_t ws_peak = ws::global_step_peak_bytes();
    session->close();

    Fingerprint tfp;
    tfp.bytes = t.network().stats().total_bytes();
    tfp.messages = t.network().stats().total_messages();
    tfp.final_loss = final_loss(t);
    tfp.accuracy = accuracy;
    tfp.pred_hash = hash_predictions(traced_served);
    write_chrome_trace(out_dir + "/trace_" + w.name + ".json", tr.spans());
    js << ",\"traced\":{\"fingerprint\":\"" << tfp.hex()
       << "\",\"matches_untraced\":" << (tfp == fp ? "true" : "false")
       << ",\"run_s\":" << num(traced_run_s)
       << ",\"serve_s\":" << num(traced_served.seconds)
       << ",\"obs_rounds\":" << obs_rounds
       << ",\"gemm_calls\":" << num(gemm_calls_v)
       << ",\"gemm_seconds\":" << num(gemm_seconds_v)
       << ",\"workspace_peak_bytes\":" << ws_peak
       << ",\"sim_s\":" << num(t.network().clock().now()) << "}";
  }
  js << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << "}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode;
  std::string out_dir;
  try {
    Flags flags(argc, argv);
    const bool help = flags.get_bool("help", false);
    workload = flags.get_string("workload", "");
    seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    mode = flags.get_string("mode", "timed");
    out_dir = flags.get_string("out", ".");
    flags.validate_no_unknown();
    if (help) {
      std::cerr << usage();
      return 2;
    }
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << usage();
    return 2;
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || (mode != "timed" && mode != "traced")) {
    std::cerr << usage();
    return 2;
  }
  try {
    return run(*w, seed, mode == "traced", out_dir);
  } catch (const Error& e) {
    std::cerr << "splitbench: " << e.what() << "\n";
    return 1;
  }
}
