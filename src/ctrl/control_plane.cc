#include "ctrl/control_plane.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace aegaeon {

namespace {

// kCrash target: resolved at delivery to whichever replica leads then.
constexpr int kToLeader = -1;

}  // namespace

ControlPlane::ControlPlane(ControlPlaneConfig config, Duration dispatch_latency, Hooks hooks)
    : config_(config),
      dispatch_latency_(dispatch_latency),
      hooks_(std::move(hooks)) {
  config_.replicas = std::max(config_.replicas, 1);
}

void ControlPlane::ScheduleLeaderCrash(TimePoint when, Duration downtime) {
  if (!(when >= 0.0) || !(downtime > 0.0)) {
    std::fprintf(stderr,
                 "ControlPlane::ScheduleLeaderCrash: invalid plan (when=%f downtime=%f)\n",
                 when, downtime);
    std::abort();
  }
  CrashPlan plan;
  plan.when = when;
  plan.downtime = downtime;
  // Keep the plans sorted by fire time (ties keep insertion order) so the
  // plan index doubles as the "next crash" cursor.
  auto it = std::upper_bound(
      crash_plans_.begin(), crash_plans_.end(), plan,
      [](const CrashPlan& a, const CrashPlan& b) { return a.when < b.when; });
  crash_plans_.insert(it, plan);
}

void ControlPlane::Begin() {
  // Drop anything a previous run left in the transport.
  while (!inbox_.empty()) {
    inbox_.pop();
  }
  replicas_.assign(static_cast<size_t>(config_.replicas), Replica{});
  queued_.clear();
  log_.clear();
  next_seq_ = 1;
  routed_seq_ = 0;
  now_ = 0.0;
  down_since_ = kTimeUnset;
  next_crash_ = 0;
  stats_ = CtrlStats{};
  term_ = 1;
  leader_ = 0;
  replicas_[0].role = Role::kLeader;
  // Followers arm their silence detectors; the boot leader starts its
  // heartbeat cadence (a sole replica has no peers and stays silent).
  for (uint32_t i = 1; i < replicas_.size(); ++i) {
    ArmTimer(i, 0.0);
  }
  SendHeartbeats(0, 0.0);
  for (size_t i = 0; i < crash_plans_.size(); ++i) {
    Msg msg;
    msg.kind = MsgKind::kCrash;
    msg.marker = i;
    Send(Injector(), kToLeader, crash_plans_[i].when, msg);
  }
}

TimePoint ControlPlane::NextCrashTime() const {
  return next_crash_ < crash_plans_.size() ? crash_plans_[next_crash_].when : kTimeNever;
}

void ControlPlane::Send(uint32_t from, int target, TimePoint at, Msg msg) {
  inbox_.push(NetEvent{at, from, next_msg_seq_++, target, msg});
}

void ControlPlane::ArmTimer(uint32_t replica, TimePoint now) {
  Replica& r = replicas_[replica];
  ++r.timer_marker;
  Msg msg;
  msg.kind = MsgKind::kTimeoutCheck;
  msg.from = replica;
  msg.marker = r.timer_marker;
  Send(replica, static_cast<int>(replica), now + TimeoutOf(replica), msg);
}

void ControlPlane::SendHeartbeats(uint32_t replica, TimePoint now) {
  if (replicas_.size() <= 1) {
    return;
  }
  Replica& r = replicas_[replica];
  Msg beat;
  beat.kind = MsgKind::kHeartbeat;
  beat.from = replica;
  beat.term = r.term;
  beat.marker = routed_seq_;  // shadow-log replication piggybacks here
  for (uint32_t j = 0; j < replicas_.size(); ++j) {
    if (j == replica) {
      continue;
    }
    ++stats_.heartbeats_sent;
    Send(replica, static_cast<int>(j), now + config_.ctrl_latency, beat);
  }
  Msg tick;
  tick.kind = MsgKind::kHeartbeatTick;
  tick.from = replica;
  tick.marker = r.timer_marker;
  Send(replica, static_cast<int>(replica), now + config_.heartbeat_interval, tick);
}

void ControlPlane::StartCampaign(uint32_t replica, TimePoint now) {
  Replica& r = replicas_[replica];
  r.role = Role::kCandidate;
  r.term += 1;
  r.voted_term = r.term;  // votes for itself
  r.votes = 1;
  ++stats_.elections;
  if (r.votes * 2 > config_.replicas) {
    BecomeLeader(replica, now);  // a sole replica is its own majority
    return;
  }
  Msg msg;
  msg.kind = MsgKind::kVoteRequest;
  msg.from = replica;
  msg.term = r.term;
  for (uint32_t j = 0; j < replicas_.size(); ++j) {
    if (j != replica) {
      Send(replica, static_cast<int>(j), now + config_.ctrl_latency, msg);
    }
  }
  ArmTimer(replica, now);  // campaign retry on a split/failed election
}

void ControlPlane::BecomeLeader(uint32_t replica, TimePoint now) {
  Replica& r = replicas_[replica];
  r.role = Role::kLeader;
  ++r.timer_marker;  // kills the campaign-retry timer
  term_ = r.term;
  leader_ = static_cast<int>(replica);
  ++stats_.failovers;
  if (down_since_ >= 0.0) {
    stats_.leader_downtime += now - down_since_;
    down_since_ = kTimeUnset;
  }
  SendHeartbeats(replica, now);  // announces the new term immediately
  // Replay, oldest first: entries lost in flight with the previous leader
  // (each re-dispatched exactly once), then arrivals the outage queued.
  while (leader_ != -1 && !queued_.empty()) {
    Pending pending = queued_.front();
    queued_.pop_front();
    if (pending.replay) {
      ++stats_.redispatched_requests;
      if (pending.seq > r.shadow_seq) {
        // Routed within one replication hop of the crash: the successor's
        // shadow log never saw it; the front door re-submitted it.
        ++stats_.frontdoor_replays;
      }
    }
    RouteNow(pending, now);
  }
}

void ControlPlane::CrashLeader(TimePoint now, Duration downtime) {
  if (leader_ == -1) {
    return;  // nobody leads; the kill switch strikes air
  }
  const uint32_t dead = static_cast<uint32_t>(leader_);
  Replica& r = replicas_[dead];
  r.down = true;
  r.role = Role::kFollower;
  r.votes = 0;
  ++r.timer_marker;  // pending ticks/timeouts of the dead replica are void
  // Every delivery still in flight dies with its leader (anything due at
  // or before the crash already committed): back to the front-door queue,
  // in seq order, ahead of whatever the outage accumulates.
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    hooks_.unroute(it->target);
    Pending pending;
    pending.seq = it->seq;
    pending.event = it->event;
    pending.replay = true;
    queued_.push_front(pending);
  }
  log_.clear();
  CheckCapacity();
  Msg msg;
  msg.kind = MsgKind::kRecover;
  msg.from = Injector();
  Send(Injector(), static_cast<int>(dead), now + downtime, msg);
  leader_ = -1;
  down_since_ = now;
}

void ControlPlane::RouteNow(Pending pending, TimePoint now) {
  const int target = hooks_.route(pending.event);
  const TimePoint deliver_at = now + dispatch_latency_;
  routed_seq_ = std::max(routed_seq_, pending.seq);
  replicas_[static_cast<size_t>(leader_)].shadow_seq = routed_seq_;
  if (deliver_at <= NextCrashTime()) {
    // No dispatcher crash can intercept this delivery: commit immediately.
    // With no crash scheduled this is the only path — bit-identical to the
    // unreplicated fleet.
    hooks_.deliver(pending.event, target, deliver_at);
    return;
  }
  LogEntry entry;
  entry.seq = pending.seq;
  entry.event = pending.event;
  entry.target = target;
  entry.deliver_at = deliver_at;
  log_.push_back(entry);
  CheckCapacity();
}

void ControlPlane::CommitFront() {
  const LogEntry entry = log_.front();
  log_.pop_front();
  hooks_.deliver(entry.event, entry.target, entry.deliver_at);
}

void ControlPlane::CheckCapacity() {
  const size_t depth = log_.size() + queued_.size();
  stats_.max_log_depth = std::max(stats_.max_log_depth, static_cast<uint64_t>(depth));
  if (depth > config_.redispatch_log_capacity) {
    std::fprintf(stderr,
                 "ControlPlane: re-dispatch log overflow (%zu entries, capacity %zu) — "
                 "the modeled front door cannot buffer this outage\n",
                 depth, config_.redispatch_log_capacity);
    std::abort();
  }
}

void ControlPlane::Handle(const NetEvent& net) {
  const Msg& msg = net.payload;
  if (msg.kind == MsgKind::kCrash) {
    // The cursor advances even when the strike is a no-op, so the eager-
    // commit bound tracks the next *unfired* plan.
    next_crash_ = std::max(next_crash_, static_cast<size_t>(msg.marker) + 1);
    CrashLeader(net.time, crash_plans_[static_cast<size_t>(msg.marker)].downtime);
    return;
  }
  const uint32_t self = static_cast<uint32_t>(net.target);
  Replica& r = replicas_[self];
  if (msg.kind == MsgKind::kRecover) {
    r.down = false;
    r.role = Role::kFollower;
    r.votes = 0;
    ArmTimer(self, net.time);  // silence detector; re-election or a live
                               // leader's next heartbeat re-adopts it
    return;
  }
  if (r.down) {
    if (msg.kind == MsgKind::kHeartbeat) {
      ++stats_.heartbeats_missed;
    }
    return;  // every other message to a crashed replica is dropped
  }
  switch (msg.kind) {
    case MsgKind::kHeartbeat: {
      if (msg.term < r.term) {
        return;  // stale leader
      }
      r.term = msg.term;
      if (r.role != Role::kFollower) {
        // A deposed leader or candidate steps down (a newer term exists).
        r.role = Role::kFollower;
        r.votes = 0;
      }
      r.shadow_seq = std::max(r.shadow_seq, msg.marker);
      ArmTimer(self, net.time);
      return;
    }
    case MsgKind::kHeartbeatTick: {
      if (r.role != Role::kLeader || msg.marker != r.timer_marker) {
        return;
      }
      SendHeartbeats(self, net.time);
      return;
    }
    case MsgKind::kTimeoutCheck: {
      if (msg.marker != r.timer_marker || r.role == Role::kLeader) {
        return;
      }
      // Follower: silence for a full (staggered) timeout. Candidate: the
      // campaign stalled. Either way, campaign with a fresh term.
      StartCampaign(self, net.time);
      return;
    }
    case MsgKind::kVoteRequest: {
      // One vote per term: grant only terms strictly newer than both the
      // replica's own term and anything it already granted.
      if (msg.term <= r.term || msg.term <= r.voted_term) {
        return;
      }
      r.term = msg.term;
      r.voted_term = msg.term;
      r.role = Role::kFollower;
      r.votes = 0;
      ArmTimer(self, net.time);  // granting resets the silence detector
      Msg grant;
      grant.kind = MsgKind::kVoteGrant;
      grant.from = self;
      grant.term = msg.term;
      Send(self, static_cast<int>(msg.from), net.time + config_.ctrl_latency, grant);
      return;
    }
    case MsgKind::kVoteGrant: {
      if (r.role != Role::kCandidate || msg.term != r.term) {
        return;  // a grant for a campaign that already ended
      }
      r.votes += 1;
      if (r.votes * 2 > config_.replicas) {
        BecomeLeader(self, net.time);
      }
      return;
    }
    case MsgKind::kCrash:
    case MsgKind::kRecover:
      return;  // handled above
  }
}

void ControlPlane::AdvanceTo(TimePoint t) {
  while (true) {
    const TimePoint next_msg = inbox_.empty() ? kTimeNever : inbox_.top().time;
    // Due deliveries commit ahead of any same-time message: a delivery
    // landing exactly at a crash instant completes, it is not lost.
    const TimePoint commit_until = next_msg < t ? next_msg : t;
    while (!log_.empty() && log_.front().deliver_at <= commit_until) {
      CommitFront();
    }
    if (inbox_.empty() || inbox_.top().time > t) {
      break;
    }
    const NetEvent event = inbox_.top();
    inbox_.pop();
    now_ = event.time;
    Handle(event);
  }
  if (t < kTimeNever && t > now_) {
    now_ = t;
  }
}

void ControlPlane::Offer(const ArrivalEvent& event) {
  AdvanceTo(event.time);
  Pending pending;
  pending.seq = next_seq_++;
  pending.event = event;
  if (leader_ != -1 && queued_.empty()) {
    RouteNow(pending, event.time);
    return;
  }
  queued_.push_back(pending);
  CheckCapacity();
}

TimePoint ControlPlane::NextPendingTime() const {
  if (!log_.empty()) {
    // The in-flight delivery is the earliest external effect (queued
    // arrivals can only be routed at an even later leader transition).
    return log_.front().deliver_at;
  }
  if (queued_.empty()) {
    return kTimeNever;  // idle: only arrivals bound the fleet's epochs
  }
  // Leaderless with arrivals waiting: the next internal event (recovery,
  // timeout, vote) is what can eventually produce a leader and a replay.
  if (inbox_.empty()) {
    std::fprintf(stderr,
                 "ControlPlane: %zu arrival(s) queued but no event can ever elect a "
                 "leader — control plane wedged\n",
                 queued_.size());
    std::abort();
  }
  return inbox_.top().time;
}

void ControlPlane::Drain() {
  while (!Drained()) {
    const TimePoint next = NextPendingTime();
    AdvanceTo(next);
  }
}

}  // namespace aegaeon
