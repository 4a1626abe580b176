#include "src/obs/obs.hpp"

#include <atomic>
#include <mutex>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/obs/critical_path.hpp"

namespace splitmed::obs {

namespace {

// The installed session's pieces. Written only by ObsSession install/
// uninstall (main thread, outside parallel regions); read from anywhere,
// including pool workers — hence acquire/release atomics, which also keeps
// the TSan build honest.
std::atomic<TraceRecorder*> g_trace{nullptr};
std::atomic<MetricsRegistry*> g_metrics{nullptr};
std::atomic<FlightRecorder*> g_flight{nullptr};
std::atomic<CriticalPathAnalyzer*> g_attribution{nullptr};
std::atomic<int> g_detail{0};
std::atomic<Counter*> g_gemm_seconds{nullptr};
std::atomic<Counter*> g_gemm_calls{nullptr};
std::atomic<Gauge*> g_ws_reserved{nullptr};
std::atomic<Gauge*> g_ws_in_use{nullptr};
std::atomic<Gauge*> g_ws_step_peak{nullptr};
std::atomic<Gauge*> g_event_queue_depth{nullptr};
std::atomic<bool> g_session_active{false};

// Flight-dump destination for postmortem(); guarded by g_mu (error paths
// are not hot).
std::mutex g_mu;
std::string g_flight_dump_path;
std::function<std::string(std::uint32_t)> g_kind_namer;
std::uint64_t g_postmortems = 0;

}  // namespace

TraceRecorder* trace() { return g_trace.load(std::memory_order_acquire); }
MetricsRegistry* metrics() {
  return g_metrics.load(std::memory_order_acquire);
}
FlightRecorder* flight() { return g_flight.load(std::memory_order_acquire); }

CriticalPathAnalyzer* attribution() {
  return g_attribution.load(std::memory_order_acquire);
}

bool detail_at_least(int level) {
  return g_detail.load(std::memory_order_acquire) >= level;
}

Counter* gemm_seconds_counter() {
  return g_gemm_seconds.load(std::memory_order_acquire);
}
Counter* gemm_calls_counter() {
  return g_gemm_calls.load(std::memory_order_acquire);
}

Gauge* workspace_reserved_gauge() {
  return g_ws_reserved.load(std::memory_order_acquire);
}
Gauge* workspace_in_use_gauge() {
  return g_ws_in_use.load(std::memory_order_acquire);
}
Gauge* workspace_step_peak_gauge() {
  return g_ws_step_peak.load(std::memory_order_acquire);
}

Gauge* event_queue_depth_gauge() {
  return g_event_queue_depth.load(std::memory_order_acquire);
}

void set_kind_namer(std::function<std::string(std::uint32_t)> namer) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_kind_namer = std::move(namer);
}

std::string kind_name(std::uint32_t kind) {
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    if (g_kind_namer) return g_kind_namer(kind);
  }
  return "kind" + std::to_string(kind);
}

void postmortem(const std::string& reason) {
  FlightRecorder* fr = flight();
  if (TraceRecorder* tr = trace()) {
    tr->instant("postmortem", "error", {arg("reason", reason)});
  }
  if (MetricsRegistry* m = metrics()) {
    m->counter("splitmed_postmortems_total",
               "Flight-recorder dumps triggered by protocol or "
               "serialization errors")
        .inc();
  }
  if (fr == nullptr) return;
  fr->note(-1.0, "POSTMORTEM: " + reason);
  std::string path;
  std::uint64_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    path = g_flight_dump_path;
    n = g_postmortems++;
  }
  if (!path.empty()) {
    // Successive failures get distinct files: first at the configured path,
    // later ones suffixed, so the dump that explains the FIRST error is
    // never overwritten by a cascade.
    if (n > 0) {
      path += '.';
      path += std::to_string(n);
    }
    fr->dump_to_file(path, reason);
    SPLITMED_LOG(kError) << "flight recorder dumped to '" << path << "' ("
                         << reason << ")";
  } else {
    std::ostringstream os;
    fr->dump(os, reason);
    SPLITMED_LOG(kError) << os.str();
  }
}

void flight_note(double sim_s, const std::string& what) {
  if (FlightRecorder* fr = flight()) fr->note(sim_s, what);
}

ObsSession::ObsSession(const ObsConfig& config) : config_(config) {
  if (!config_.enabled) return;
  SPLITMED_CHECK(config_.detail >= 1 && config_.detail <= 2,
                 "ObsConfig::detail must be 1 or 2, got " << config_.detail);
  SPLITMED_CHECK(!g_session_active.exchange(true),
                 "an ObsSession is already active — only one observability "
                 "session may exist at a time");
  trace_ = std::make_unique<TraceRecorder>(config_.max_trace_events);
  metrics_ = std::make_unique<MetricsRegistry>();
  flight_ = std::make_unique<FlightRecorder>(config_.flight_capacity);
  // The analyzer runs whenever the session does (it only reads sim-clock
  // values the network hands it), so the inertness tests cover it and its
  // metric families land in every snapshot, JSONL export or not.
  attribution_ = std::make_unique<CriticalPathAnalyzer>();
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_flight_dump_path = config_.flight_dump_path;
    g_postmortems = 0;
  }
  // Pre-register the hot-path counters before publishing the registry so a
  // worker can never observe the registry without them.
  g_gemm_seconds.store(
      &metrics_->counter("splitmed_gemm_seconds_total",
                         "Wall-clock seconds spent inside gemm kernels"),
      std::memory_order_release);
  g_gemm_calls.store(&metrics_->counter("splitmed_gemm_calls_total",
                                        "Number of gemm kernel invocations"),
                     std::memory_order_release);
  g_ws_reserved.store(
      &metrics_->gauge("splitmed_workspace_reserved_bytes",
                       "Workspace-arena bytes reserved across all threads"),
      std::memory_order_release);
  g_ws_in_use.store(
      &metrics_->gauge("splitmed_workspace_in_use_bytes",
                       "Workspace-arena bytes currently checked out"),
      std::memory_order_release);
  g_ws_step_peak.store(
      &metrics_->gauge("splitmed_workspace_step_peak_bytes",
                       "Peak workspace-arena bytes checked out since the "
                       "last step-peak reset"),
      std::memory_order_release);
  g_event_queue_depth.store(
      &metrics_->gauge("splitmed_event_queue_depth",
                       "Frames in flight across every inbox (sampled on "
                       "every scheduler pump and at round boundaries)"),
      std::memory_order_release);
  g_detail.store(config_.detail, std::memory_order_release);
  g_attribution.store(attribution_.get(), std::memory_order_release);
  g_flight.store(flight_.get(), std::memory_order_release);
  g_metrics.store(metrics_.get(), std::memory_order_release);
  g_trace.store(trace_.get(), std::memory_order_release);
  installed_ = true;
}

void ObsSession::set_sim_source(std::function<double()> source) {
  if (trace_) trace_->set_sim_source(std::move(source));
}

void ObsSession::flush() {
  if (!installed_) return;
  if (!config_.trace_path.empty()) {
    trace_->write_chrome_trace(config_.trace_path);
  }
  if (!config_.trace_jsonl_path.empty()) {
    trace_->write_jsonl(config_.trace_jsonl_path);
  }
  if (!config_.metrics_path.empty()) {
    metrics_->write_prometheus(config_.metrics_path);
  }
  if (!config_.attribution_path.empty()) {
    attribution_->write_jsonl(config_.attribution_path);
  }
}

ObsSession::~ObsSession() { close(); }

void ObsSession::close() {
  if (!installed_) return;
  // Unpublish before exporting/destroying (readers may race the export but
  // never the teardown: instrumentation runs on threads this process joins
  // before any trainer teardown begins).
  g_trace.store(nullptr, std::memory_order_release);
  g_metrics.store(nullptr, std::memory_order_release);
  g_flight.store(nullptr, std::memory_order_release);
  g_attribution.store(nullptr, std::memory_order_release);
  g_gemm_seconds.store(nullptr, std::memory_order_release);
  g_gemm_calls.store(nullptr, std::memory_order_release);
  g_ws_reserved.store(nullptr, std::memory_order_release);
  g_ws_in_use.store(nullptr, std::memory_order_release);
  g_ws_step_peak.store(nullptr, std::memory_order_release);
  g_event_queue_depth.store(nullptr, std::memory_order_release);
  g_detail.store(0, std::memory_order_release);
  flush();
  // The black box lands on EVERY exit when a dump path is configured: a
  // "kill" (trainer destruction mid-experiment) then leaves its post-mortem
  // event log behind without anyone having had a chance to ask for it. An
  // error-triggered postmortem() already wrote a more precise dump to the
  // same path — don't overwrite it with the exit snapshot.
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    if (!config_.flight_dump_path.empty() && g_postmortems == 0) {
      flight_->dump_to_file(config_.flight_dump_path,
                            "session exit (last protocol events)");
    }
    g_flight_dump_path.clear();
  }
  installed_ = false;
  g_session_active.store(false, std::memory_order_release);
}

}  // namespace splitmed::obs
