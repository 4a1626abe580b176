#include "src/core/scheduler.hpp"

#include <limits>
#include <string>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/obs/critical_path.hpp"
#include "src/obs/obs.hpp"

namespace splitmed::core {

namespace {
constexpr std::size_t kNoPlatform = std::numeric_limits<std::size_t>::max();
}  // namespace

EventScheduler::EventScheduler(
    net::Network& network, CentralServer& server,
    const std::vector<std::unique_ptr<PlatformNode>>& platforms,
    std::optional<net::RetryPolicy> recovery)
    : network_(network),
      server_(server),
      platforms_(platforms),
      recovery_(recovery) {
  node_to_platform_.assign(network.node_count(), kNoPlatform);
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    const NodeId node = platforms_[p]->id();
    SPLITMED_CHECK(node < node_to_platform_.size(),
                   "platform node id " << node << " outside the network");
    node_to_platform_[node] = p;
  }
  tasks_.resize(platforms_.size());
}

void EventScheduler::sample_queue_depth() const {
  if (obs::Gauge* g = obs::event_queue_depth_gauge()) {
    g->set(static_cast<double>(network_.total_in_flight()));
  }
}

void EventScheduler::begin_step(std::size_t platform, std::uint64_t step_id,
                                std::int64_t round) {
  SPLITMED_CHECK(platform < platforms_.size(), "platform index out of range");
  SPLITMED_ASSERT(!tasks_[platform],
                  "platform " << platform << " already has a step in flight");
  PlatformNode& node = *platforms_[platform];
  Task task;
  task.step_id = step_id;
  task.start_round = round;
  if (obs::TraceRecorder* tr = obs::trace()) {
    task.span = std::make_unique<obs::Span>(tr, "trainer.step", "trainer");
    task.span->arg("platform", static_cast<std::uint64_t>(node.id()));
    task.span->arg("step", step_id);
  }
  task.completed_before = node.steps_completed();
  // Retransmissions of abandoned steps must not start training.
  if (recovery_) server_.expect_round(step_id);
  node.send_activation(network_, step_id);
  task.state = node.state();
  tasks_[platform] = std::move(task);
  if (recovery_) arm(platform);
  ++inflight_by_round_[round];
  ++steps_in_flight_;
}

bool EventScheduler::join(std::size_t platform, std::uint64_t round,
                          RejoinMode mode) {
  SPLITMED_ASSERT(steps_in_flight_ == 0 && !tasks_[platform],
                  "join handshake at a round boundary with work in flight");
  PlatformNode& node = *platforms_[platform];
  const std::int64_t before = node.rejoins_completed();
  node.send_join_request(network_, static_cast<std::uint32_t>(platform),
                         round, mode);
  tasks_[platform].emplace().join = true;
  if (recovery_) arm(platform);
  std::vector<StepEnd> ended;
  while (tasks_[platform]) pump(ended);
  return node.rejoins_completed() > before;
}

void EventScheduler::settle() {
  SPLITMED_ASSERT(steps_in_flight_ == 0,
                  "settle at a round boundary with steps in flight");
  std::vector<StepEnd> ended;
  while (network_.next_event()) pump(ended);
}

void EventScheduler::pump(std::vector<StepEnd>& ended) {
  const auto event = network_.next_event();
  if (!recovery_) {
    SPLITMED_ASSERT(event.has_value(), "pump with nothing in flight");
    dispatch(network_.receive(event->node), ended);
    return;
  }
  const double deadline = deadlines_.empty()
                              ? std::numeric_limits<double>::infinity()
                              : deadlines_.begin()->first;
  if (!event || event->arrival > deadline) {
    SPLITMED_ASSERT(!deadlines_.empty(), "pump with nothing in flight");
    fire_timeout(deadlines_.begin()->second, ended);
    return;
  }
  // nullopt: the window held only corrupted frames (now discarded and
  // counted) — the next pump re-evaluates the queue.
  if (const auto envelope = network_.receive_before(event->node, deadline)) {
    dispatch(*envelope, ended);
  }
}

void EventScheduler::drain(std::int64_t horizon,
                           std::vector<StepEnd>& ended) {
  const std::size_t entry_count = ended.size();
  while (steps_in_flight_ > 0 &&
         (has_step_at_or_before(horizon) || ended.size() == entry_count)) {
    pump(ended);
  }
}

void EventScheduler::dispatch(const Envelope& envelope,
                              std::vector<StepEnd>& ended) {
  if (envelope.dst == server_.id()) {
    server_.handle(network_, envelope);
    sample_queue_depth();
    return;
  }
  const std::size_t p = node_to_platform_[envelope.dst];
  SPLITMED_ASSERT(p != kNoPlatform,
                  "frame addressed to unknown node " << envelope.dst);
  // Frames for a platform without a task are late replies to completed or
  // abandoned exchanges — its state machine counts and ignores them.
  platforms_[p]->handle(network_, envelope);
  sample_queue_depth();
  if (tasks_[p]) observe(p, ended);
}

void EventScheduler::observe(std::size_t p, std::vector<StepEnd>& ended) {
  Task& task = *tasks_[p];
  const PlatformNode& node = *platforms_[p];
  if (task.join) {
    if (node.awaiting_join()) return;
    if (recovery_) deadlines_.erase({task.timer.deadline, p});
    tasks_[p].reset();
    return;
  }
  if (node.state() == task.state) return;
  if (node.state() != PlatformState::kIdle) {
    // Mid-step progress (logits applied): the next stage gets a fresh
    // timeout window.
    task.state = node.state();
    if (recovery_) arm(p);
    return;
  }
  // A delivery returned the platform to kIdle: the cut gradient was applied,
  // or a kUpdateReject aborted the step.
  end_step(p,
           node.steps_completed() > task.completed_before ? Outcome::kCompleted
                                                          : Outcome::kRejected,
           ended);
}

void EventScheduler::arm(std::size_t p) {
  Task& task = *tasks_[p];
  deadlines_.erase({task.timer.deadline, p});
  task.timer.timeout = recovery_->timeout_sec;
  task.timer.attempt = 0;
  task.timer.deadline = network_.clock().now() + task.timer.timeout;
  deadlines_.emplace(task.timer.deadline, p);
}

void EventScheduler::fire_timeout(std::size_t p, std::vector<StepEnd>& ended) {
  Task& task = *tasks_[p];
  Timer& timer = task.timer;
  PlatformNode& node = *platforms_[p];
  deadlines_.erase({timer.deadline, p});
  if (obs::CriticalPathAnalyzer* cp = obs::attribution()) {
    // Waiting out the rest of the timeout window is pure recovery overhead,
    // owned by the unresponsive platform.
    cp->note_timeout_wait(network_.clock().now(), timer.deadline, node.id());
  }
  network_.clock().advance_to(timer.deadline);
  if (timer.attempt == recovery_->max_retries) {
    const std::string what = task.join
                                 ? std::string("join")
                                 : "step " + std::to_string(task.step_id);
    if (obs::FlightRecorder* fr = obs::flight()) {
      fr->note(network_.clock().now(),
               "ABANDON " + what + ": platform " + std::to_string(node.id()) +
                   " unreachable, retries exhausted");
    }
    if (task.join) {
      // begin_round re-promotes the platform to REJOINING next round.
      node.abort_join();
      tasks_[p].reset();
      return;
    }
    SPLITMED_LOG(kWarn) << "platform " << node.id() << " unreachable in round "
                        << task.step_id << " — skipping its step";
    node.abort_step();
    server_.abort_pending(node.id());
    end_step(p, Outcome::kUnreachable, ended);
    return;
  }
  ++timer.attempt;
  if (obs::TraceRecorder* tr = obs::trace()) {
    tr->instant(
        "trainer.timeout", "fault",
        {obs::arg("platform", static_cast<std::uint64_t>(node.id())),
         obs::arg("attempt", static_cast<std::uint64_t>(timer.attempt))});
  }
  if (obs::FlightRecorder* fr = obs::flight()) {
    fr->note(network_.clock().now(),
             "TIMEOUT platform " + std::to_string(node.id()) + " attempt " +
                 std::to_string(timer.attempt) + " — retransmitting");
  }
  node.resend_last(network_);
  timer.timeout *= recovery_->backoff;
  timer.deadline = network_.clock().now() + timer.timeout;
  deadlines_.emplace(timer.deadline, p);
}

void EventScheduler::end_step(std::size_t p, Outcome outcome,
                              std::vector<StepEnd>& ended) {
  Task& task = *tasks_[p];
  if (recovery_) deadlines_.erase({task.timer.deadline, p});
  if (task.span && outcome == Outcome::kUnreachable) {
    task.span->arg("abandoned", true);
  }
  if (task.span && outcome == Outcome::kRejected) {
    task.span->arg("rejected", true);
  }
  const auto round_it = inflight_by_round_.find(task.start_round);
  SPLITMED_ASSERT(round_it != inflight_by_round_.end(),
                  "in-flight round accounting out of sync");
  if (--round_it->second == 0) inflight_by_round_.erase(round_it);
  --steps_in_flight_;
  tasks_[p].reset();  // closes the trainer.step span
  ended.push_back(StepEnd{p, outcome, network_.clock().now()});
}

}  // namespace splitmed::core
