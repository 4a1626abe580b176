// EventScheduler — the one round driver.
//
// Every protocol frame moved during a round goes through this class: the
// paper's sequential workflow (an admission window of one step), the
// overlapped and bounded-staleness schedules (unbounded windows), the
// membership control plane (heartbeat batches, rejoin handshakes) and, under
// WAN fault injection, timeout-driven retransmission. Steps are per-platform
// state machines driven off the network's global arrival index
// (Network::next_event()): each pump delivers exactly the globally earliest
// in-flight frame to its destination node — or, under faults, fires the
// earliest retry timer when it comes before that frame — so every event is
// O(log n) and a round costs O(active events), not O(platforms) per tick.
//
// Determinism: the only ordering sources are the network's (arrival time,
// send sequence) total order and the timers' (deadline, platform) order,
// both pure functions of the configuration. Two runs of the same config
// execute the identical event sequence; thread count, observability, and ISA
// never enter the ordering.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/core/platform.hpp"
#include "src/core/server.hpp"
#include "src/net/fault.hpp"
#include "src/net/network.hpp"
#include "src/obs/trace.hpp"

namespace splitmed::core {

class EventScheduler {
 public:
  /// How a platform's protocol step ended.
  enum class Outcome {
    kCompleted,    ///< optimizer stepped on both sides
    kRejected,     ///< the server refused the update (kUpdateReject)
    kUnreachable,  ///< retransmissions exhausted, step abandoned
  };
  struct StepEnd {
    std::size_t platform = 0;
    Outcome outcome = Outcome::kCompleted;
    double at = 0.0;  ///< simulated time the step ended
  };

  /// Holds references only — the trainer owns the nodes. `platforms` must be
  /// fully populated before construction. `recovery` arms the per-step retry
  /// timers (WAN fault injection); nullopt = fault-free, no timer
  /// bookkeeping at all.
  EventScheduler(net::Network& network, CentralServer& server,
                 const std::vector<std::unique_ptr<PlatformNode>>& platforms,
                 std::optional<net::RetryPolicy> recovery);

  /// Starts a protocol step for an idle platform: ships its activation and
  /// tracks the step as in flight, tagged with the round it started in.
  void begin_step(std::size_t platform, std::uint64_t step_id,
                  std::int64_t round);

  /// True while the platform's step is in flight (a straggler at a round
  /// boundary under bounded staleness).
  [[nodiscard]] bool busy(std::size_t platform) const {
    return tasks_[platform].has_value();
  }
  [[nodiscard]] std::size_t steps_in_flight() const {
    return steps_in_flight_;
  }
  /// True when some in-flight step started at or before `round` — the
  /// staleness-horizon predicate.
  [[nodiscard]] bool has_step_at_or_before(std::int64_t round) const {
    return !inflight_by_round_.empty() &&
           inflight_by_round_.begin()->first <= round;
  }

  /// Processes one event: delivers the globally earliest in-flight frame to
  /// its node's state machine, or fires the earliest retry timer when it is
  /// due first. Steps ended by the event are appended to `ended`. Requires a
  /// frame in flight or an armed timer.
  void pump(std::vector<StepEnd>& ended);

  /// Pumps until every step with start_round <= `horizon` has ended AND at
  /// least one step ended during this call (liveness: every round folds in
  /// work, however stale) — or nothing is left in flight. With horizon >=
  /// the newest start round this is a full drain barrier.
  void drain(std::int64_t horizon, std::vector<StepEnd>& ended);

  /// Delivers every frame in flight (heartbeat batches; under fault
  /// injection also strays, which the state machines absorb).
  void settle();

  /// Runs platform p's rejoin handshake to completion. False = the request or
  /// its accept was lost beyond the retry budget; the handshake is abandoned
  /// and retried next round.
  bool join(std::size_t platform, std::uint64_t round, RejoinMode mode);

 private:
  /// Retransmission state of one outstanding exchange (fault injection
  /// only): the deadline is the last state change (or retransmission) plus
  /// timeout × backoff^attempt.
  struct Timer {
    double deadline = 0.0;
    double timeout = 0.0;
    int attempt = 0;
  };
  /// One platform's outstanding exchange: a protocol step or a join
  /// handshake.
  struct Task {
    bool join = false;
    std::uint64_t step_id = 0;
    std::int64_t start_round = 0;
    std::int64_t completed_before = 0;
    PlatformState state = PlatformState::kIdle;  ///< last observed
    Timer timer;
    /// The step's trainer.step trace span (null when tracing is off).
    std::unique_ptr<obs::Span> span;
  };

  void dispatch(const Envelope& envelope, std::vector<StepEnd>& ended);
  /// Notes the progress a delivery made on platform p's task.
  void observe(std::size_t p, std::vector<StepEnd>& ended);
  /// Starts (or restarts, after progress) platform p's retry timer.
  void arm(std::size_t p);
  void fire_timeout(std::size_t p, std::vector<StepEnd>& ended);
  void end_step(std::size_t p, Outcome outcome, std::vector<StepEnd>& ended);
  /// Publishes the current in-flight frame count to the pre-registered
  /// splitmed_event_queue_depth gauge. One atomic load when observability is
  /// off; called after every delivery so the gauge tracks the scheduler's
  /// actual pump cadence, not just round boundaries.
  void sample_queue_depth() const;

  net::Network& network_;
  CentralServer& server_;
  const std::vector<std::unique_ptr<PlatformNode>>& platforms_;
  std::optional<net::RetryPolicy> recovery_;
  /// Dense node id -> platform index (kNoPlatform for the server).
  std::vector<std::size_t> node_to_platform_;
  std::vector<std::optional<Task>> tasks_;
  /// (deadline, platform) of every armed timer; the head is the next to fire.
  std::set<std::pair<double, std::size_t>> deadlines_;
  /// start_round -> number of in-flight steps begun that round; the head is
  /// the oldest outstanding round, so the staleness predicate is O(1).
  std::map<std::int64_t, std::size_t> inflight_by_round_;
  std::size_t steps_in_flight_ = 0;
};

}  // namespace splitmed::core
