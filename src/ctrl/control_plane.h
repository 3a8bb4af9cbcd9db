// Replicated fleet control plane: leader election, heartbeats, and the
// bounded re-dispatch log that makes dispatcher failover exactly-once.
//
// The fleet dispatcher is a single point of failure: every arrival flows
// through it, and an arrival routed but not yet delivered when the
// dispatcher dies would simply vanish. This module replicates the
// dispatcher as one leader plus N-1 followers that shadow its routing
// state, all running inside the fleet's serial barrier stage:
//
//   * Transport. Replicas exchange messages (heartbeats, votes, crash and
//     recovery injections) through one min-heap inbox processed in strict
//     (time, source, send order) key order; the fault injector is the
//     highest source id. Timers are self-messages. Nothing in
//     here reads the wall clock or an RNG, so a run is a pure function of
//     (trace, config, fault plan) and stays bit-identical for every shard
//     and worker count.
//
//   * Election. Term-based, raft-shaped: replica 0 boots as leader of term
//     1 and heartbeats every `heartbeat_interval`. A follower whose
//     heartbeat timeout expires (timeouts are deterministically staggered
//     per replica — no randomized timers) becomes a candidate, increments
//     the term, votes for itself, and requests votes; a strict majority
//     makes it leader, and its first act is to replay the re-dispatch log.
//     A crashed replica recovers as a follower and rejoins via the same
//     machine — with replicas == 1 the sole replica re-elects itself
//     (majority of one) after its own recovery.
//
//   * Re-dispatch log, exactly once. Routing a request produces a delivery
//     due at route_time + dispatch_latency. A delivery whose due time is
//     at or before the next scheduled dispatcher crash cannot be lost and
//     commits immediately (bit-identical to the unreplicated fleet — this
//     is the golden-tested disabled path). Otherwise the entry enters the
//     log as in-flight: it either commits when simulated time passes its
//     due time, or the leader dies first (route_time < T_crash < due) and
//     the entry is lost — moved back, in seq order, to the front-door
//     queue the successor replays. Every entry therefore commits exactly
//     once: the log is the only delivery path, entries leave it only by
//     committing, and a lost entry re-enters the queue exactly once per
//     loss. Arrivals offered while no leader is alive wait in the same
//     queue. Both the queue and the log are capacity-bounded
//     (`redispatch_log_capacity`); overflow aborts the run — it means the
//     modeled front door could not have buffered the outage.
//
//   * Lookahead interaction. The fleet's epoch planner must never open a
//     window past a pending external effect of the control plane, so
//     NextPendingTime() exposes the earliest uncommitted delivery or — when
//     arrivals are queued behind a dead leader — the next internal event
//     that can advance the election. Heartbeats between live replicas have
//     no external effect and never bound an epoch; they are processed
//     lazily when the planner advances the machine to each barrier
//     horizon. See DESIGN.md §12.
//
// The control plane knows nothing about cells: the fleet injects routing,
// delivery, and un-routing as callbacks (Hooks), keeping this module pure
// protocol.

#ifndef AEGAEON_CTRL_CONTROL_PLANE_H_
#define AEGAEON_CTRL_CONTROL_PLANE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "analysis/metrics.h"
#include "core/request.h"
#include "sim/time.h"

namespace aegaeon {

struct ControlPlaneConfig {
  // Dispatcher replicas. 1 = replication disabled: a sole always-leader
  // replica, no heartbeats, bit-identical to the unreplicated fleet.
  int replicas = 1;
  // Leader -> follower heartbeat period (simulated seconds).
  Duration heartbeat_interval = 0.5;
  // Base heartbeat timeout; replica i times out after
  // election_timeout + i * election_stagger. Deterministic staggering
  // replaces raft's randomized timers so elections cannot split forever
  // and results stay reproducible.
  Duration election_timeout = 2.0;
  Duration election_stagger = 0.25;
  // One replica -> replica message hop.
  Duration ctrl_latency = 0.01;
  // Upper bound on in-flight log entries plus queued arrivals; exceeding
  // it aborts the run (the modeled front door could not buffer the
  // outage).
  size_t redispatch_log_capacity = 1 << 16;
};

class ControlPlane {
 public:
  struct Hooks {
    // Picks the target cell for an arrival (and accounts it as pending
    // there). Called at route time, in simulated-time order.
    std::function<int(const ArrivalEvent&)> route;
    // Commits a routed arrival: the cell must see it at `deliver_at`.
    // Calls arrive in nondecreasing deliver_at order.
    std::function<void(const ArrivalEvent&, int target, TimePoint deliver_at)> deliver;
    // A routed-but-undelivered arrival was lost with its leader; undo the
    // pending accounting on `target` (the replay routes it afresh).
    std::function<void(int target)> unroute;
  };

  ControlPlane(ControlPlaneConfig config, Duration dispatch_latency, Hooks hooks);

  // Schedules the replica leading at `when` to crash and recover
  // `downtime` seconds later. A crash while no leader is alive is a no-op.
  // Call before Begin(); plans persist across runs.
  void ScheduleLeaderCrash(TimePoint when, Duration downtime);

  // Resets protocol state for a run and re-arms scheduled crashes.
  // Replica 0 leads term 1 from t = 0.
  void Begin();

  // Offers one arrival at event.time (nondecreasing across calls).
  // Internally advances the machine to event.time first, then routes the
  // arrival (live leader) or queues it (no leader).
  void Offer(const ArrivalEvent& event);

  // Processes every internal message and commits every due delivery with
  // timestamp <= t.
  void AdvanceTo(TimePoint t);

  // Advances until no dispatch is queued or in flight (single-cell runs
  // and the end-of-trace drain). Heartbeat traffic alone never blocks
  // this: it stops as soon as the dispatch pipeline is empty.
  void Drain();

  // No queued arrivals and no in-flight log entries.
  bool Drained() const { return queued_.empty() && log_.empty(); }

  // Earliest pending external effect: the fleet's epoch planner must not
  // open a window beyond this. kTimeNever when idle (live leader, empty
  // log) — then only arrivals bound epochs, exactly as without
  // replication.
  TimePoint NextPendingTime() const;

  // Live leader replica, or -1 while leaderless.
  int leader() const { return leader_; }
  uint64_t term() const { return term_; }
  const CtrlStats& stats() const { return stats_; }

 private:
  enum class Role : uint8_t { kFollower, kCandidate, kLeader };

  enum class MsgKind : uint8_t {
    kHeartbeat,      // leader -> follower: term + latest routed seq
    kHeartbeatTick,  // leader self-timer: send the next round
    kTimeoutCheck,   // follower/candidate self-timer: silence detector
    kVoteRequest,    // candidate -> all: term
    kVoteGrant,      // voter -> candidate: term
    kCrash,          // fault injector -> the replica leading at delivery
    kRecover,        // fault injector -> a specific replica
  };

  struct Msg {
    MsgKind kind = MsgKind::kHeartbeat;
    uint32_t from = 0;
    uint64_t term = 0;
    // kHeartbeat: leader's latest routed seq (shadow-log replication).
    // kTimeoutCheck / kHeartbeatTick: the arming replica's timer marker.
    // kCrash: downtime in microseconds would lose precision — the plan
    // index instead.
    uint64_t marker = 0;
  };

  struct Replica {
    Role role = Role::kFollower;
    bool down = false;
    uint64_t term = 1;
    uint64_t voted_term = 0;  // highest term this replica granted a vote in
    int votes = 0;            // grants gathered as a candidate (incl. self)
    // Bumped on every state change that invalidates armed timers; timer
    // self-messages carry the marker they were armed with.
    uint64_t timer_marker = 0;
    // Highest routed seq known here via heartbeat piggyback: the shadow
    // re-dispatch log. Entries a successor replays beyond its own shadow
    // were recovered through the front door, not replication.
    uint64_t shadow_seq = 0;
  };

  struct Pending {
    uint64_t seq = 0;
    ArrivalEvent event{};
    // True when this arrival was routed by a dead leader and re-entered
    // the queue (counted as a re-dispatch when the successor replays it).
    bool replay = false;
  };

  struct LogEntry {
    uint64_t seq = 0;
    ArrivalEvent event{};
    int target = 0;
    TimePoint deliver_at = 0.0;
  };

  // One message in flight, keyed (time, source, seq). `seq` counts every
  // send, so among messages of one source and one time it keeps send order.
  struct NetEvent {
    TimePoint time = 0.0;
    uint32_t source = 0;
    uint64_t seq = 0;
    int target = 0;  // receiving replica; -1 for a crash (whoever leads then)
    Msg payload{};
  };
  struct NetAfter {
    bool operator()(const NetEvent& a, const NetEvent& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.source != b.source) {
        return a.source > b.source;
      }
      return a.seq > b.seq;
    }
  };

  Duration TimeoutOf(uint32_t replica) const {
    return config_.election_timeout +
           static_cast<double>(replica) * config_.election_stagger;
  }
  // Earliest scheduled crash not yet fired; kTimeNever when none remain.
  TimePoint NextCrashTime() const;
  // Source id of the fault injector: one past the last replica.
  uint32_t Injector() const { return static_cast<uint32_t>(config_.replicas); }

  void Handle(const NetEvent& event);
  void Send(uint32_t from, int target, TimePoint at, Msg msg);
  void ArmTimer(uint32_t replica, TimePoint now);
  void StartCampaign(uint32_t replica, TimePoint now);
  void BecomeLeader(uint32_t replica, TimePoint now);
  void SendHeartbeats(uint32_t replica, TimePoint now);
  void CrashLeader(TimePoint now, Duration downtime);
  void RouteNow(Pending pending, TimePoint now);
  void CommitFront();
  void CheckCapacity();

  ControlPlaneConfig config_;
  Duration dispatch_latency_ = 0.0;
  Hooks hooks_;

  std::priority_queue<NetEvent, std::vector<NetEvent>, NetAfter> inbox_;
  uint64_t next_msg_seq_ = 0;

  std::vector<Replica> replicas_;
  int leader_ = 0;
  uint64_t term_ = 1;
  TimePoint now_ = 0.0;
  TimePoint down_since_ = kTimeUnset;

  // Front-door queue (awaiting a leader) and the in-flight log, both in
  // seq order; log deliver_at is nondecreasing by construction.
  std::deque<Pending> queued_;
  std::deque<LogEntry> log_;
  uint64_t next_seq_ = 0;
  uint64_t routed_seq_ = 0;  // latest seq the current leader has routed

  struct CrashPlan {
    TimePoint when = 0.0;
    Duration downtime = 0.0;
  };
  std::vector<CrashPlan> crash_plans_;  // sorted by `when`
  size_t next_crash_ = 0;               // first plan not yet fired

  CtrlStats stats_;
};

}  // namespace aegaeon

#endif  // AEGAEON_CTRL_CONTROL_PLANE_H_
