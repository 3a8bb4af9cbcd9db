// Tests for the replicated control plane (ctrl/): dispatcher policies, the
// fault-plan spec language, and the election / re-dispatch protocol driven
// through synthetic hooks (no cells involved — pure protocol).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/request.h"
#include "ctrl/control_plane.h"
#include "ctrl/dispatcher.h"
#include "ctrl/fault_plan.h"
#include "sim/time.h"

namespace aegaeon {
namespace {

ArrivalEvent At(TimePoint time, int model = 0) {
  ArrivalEvent event;
  event.time = time;
  event.model = model;
  event.prompt_tokens = 32;
  event.output_tokens = 16;
  return event;
}

TEST(DispatcherTest, LeastOutstandingPicksLowestLoadTiesLowestId) {
  LeastOutstandingDispatcher dispatcher;
  dispatcher.BeginRun(4);
  const std::vector<uint64_t> loads = {3, 1, 1, 2};
  const CellLoadFn load = [&](int cell) { return loads[static_cast<size_t>(cell)]; };
  EXPECT_EQ(dispatcher.Route(At(0.0), load, 4), 1);  // ties 1 vs 2 -> lowest id
  const std::vector<uint64_t> uniform = {5, 5, 5, 5};
  const CellLoadFn flat = [&](int cell) { return uniform[static_cast<size_t>(cell)]; };
  EXPECT_EQ(dispatcher.Route(At(1.0), flat, 4), 0);
}

TEST(DispatcherTest, RoundRobinCyclesAndResetsPerRun) {
  RoundRobinDispatcher dispatcher;
  const CellLoadFn load = [](int) { return uint64_t{0}; };
  dispatcher.BeginRun(3);
  EXPECT_EQ(dispatcher.Route(At(0.0), load, 3), 0);
  EXPECT_EQ(dispatcher.Route(At(1.0), load, 3), 1);
  EXPECT_EQ(dispatcher.Route(At(2.0), load, 3), 2);
  EXPECT_EQ(dispatcher.Route(At(3.0), load, 3), 0);
  dispatcher.BeginRun(3);  // a new run starts the cycle over
  EXPECT_EQ(dispatcher.Route(At(4.0), load, 3), 0);
}

TEST(FaultPlanTest, ParsesEveryKind) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultSpec("prefill:2@40+20", 1, &plan, &error));
  EXPECT_TRUE(ParseFaultSpec("cell/3/decode:1@60.5+15", 2, &plan, &error));
  EXPECT_TRUE(ParseFaultSpec("dispatcher@100", 3, &plan, &error));
  EXPECT_TRUE(ParseFaultSpec("dispatcher@100+30", 4, &plan, &error));
  EXPECT_TRUE(ParseFaultSpec("link:0.25@10+5", 5, &plan, &error));
  EXPECT_TRUE(ParseFaultSpec("aging:0.001", 6, &plan, &error));
  EXPECT_TRUE(ParseFaultSpec("cell/1/aging:0.001,0.002@50", 7, &plan, &error));
  ASSERT_EQ(plan.specs.size(), 7u);

  EXPECT_EQ(plan.specs[0].kind, FaultKind::kInstanceCrash);
  EXPECT_TRUE(plan.specs[0].prefill_partition);
  EXPECT_EQ(plan.specs[0].index, 2);
  EXPECT_EQ(plan.specs[0].cell, 0);
  EXPECT_DOUBLE_EQ(plan.specs[0].when, 40.0);
  EXPECT_DOUBLE_EQ(plan.specs[0].duration, 20.0);

  EXPECT_FALSE(plan.specs[1].prefill_partition);
  EXPECT_EQ(plan.specs[1].cell, 3);
  EXPECT_DOUBLE_EQ(plan.specs[1].when, 60.5);

  EXPECT_EQ(plan.specs[2].kind, FaultKind::kDispatcherCrash);
  EXPECT_DOUBLE_EQ(plan.specs[2].duration, 10.0);  // default re-bootstrap
  EXPECT_DOUBLE_EQ(plan.specs[3].duration, 30.0);
  EXPECT_TRUE(plan.HasDispatcherFault());

  EXPECT_EQ(plan.specs[4].kind, FaultKind::kLinkDegradation);
  EXPECT_DOUBLE_EQ(plan.specs[4].factor, 0.25);

  EXPECT_EQ(plan.specs[5].kind, FaultKind::kAgingDrift);
  EXPECT_DOUBLE_EQ(plan.specs[5].latency_rate, 0.001);
  EXPECT_DOUBLE_EQ(plan.specs[5].when, 0.0);
  EXPECT_EQ(plan.specs[6].cell, 1);
  EXPECT_DOUBLE_EQ(plan.specs[6].fragmentation_rate, 0.002);
  EXPECT_DOUBLE_EQ(plan.specs[6].when, 50.0);
}

TEST(FaultPlanTest, RejectsMalformedSpecsWithRowNumbers) {
  const struct {
    const char* text;
    const char* fragment;
  } kCases[] = {
      {"prefill:abc@5+2", "bad instance index"},
      {"prefill:1", "needs @T+DT"},
      {"prefill:1@5", "needs @T+DT"},
      {"decode:-1@5+2", "bad instance index"},
      {"dispatcher", "needs @T"},
      {"link:1.5@5+2", "bad link factor"},
      {"link:0@5+2", "bad link factor"},
      {"link:0.5@5", "needs @T+DT"},
      {"aging:0", "nonzero rate"},
      {"aging:0.1@5+2", "not @T+DT"},
      {"aging:x", "bad aging latency rate"},
      {"cell/x/decode:0@5+2", "bad cell index"},
      {"cell/1", "expected cell/C/<fault>"},
      {"prefill:1@-5+2", "out of range"},
      {"prefill:1@5+0", "out of range"},
      {"prefill:1@x+2", "bad time window"},
      {"warp:1@5+2", "unknown fault"},
  };
  int row = 0;
  for (const auto& test_case : kCases) {
    ++row;
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(ParseFaultSpec(test_case.text, row, &plan, &error)) << test_case.text;
    EXPECT_TRUE(plan.specs.empty()) << test_case.text;
    const std::string want_prefix = "spec " + std::to_string(row) + ": ";
    EXPECT_EQ(error.compare(0, want_prefix.size(), want_prefix), 0)
        << "error '" << error << "' must carry its row number";
    EXPECT_NE(error.find(test_case.fragment), std::string::npos)
        << "error '" << error << "' must mention '" << test_case.fragment << "'";
  }
}

TEST(FaultPlanTest, ListParsingStopsAtFirstBadRow) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultSpecs({"prefill:1@5+2", "decode:0@9+1", "bogus"}, &plan, &error));
  EXPECT_EQ(plan.specs.size(), 2u);  // the good rows before the bad one
  EXPECT_EQ(error.compare(0, 8, "spec 3: "), 0) << error;
  FaultPlan good;
  EXPECT_TRUE(ParseFaultSpecs({"prefill:1@5+2", "dispatcher@9"}, &good, &error));
  EXPECT_EQ(good.specs.size(), 2u);
}

// A deliver/unroute recorder: the control plane's only view of the fleet.
// Its deliver hook checks the commit order the fleet relies on.
struct HookLog {
  struct Delivery {
    TimePoint at = 0.0;
    TimePoint arrival = 0.0;
    int target = 0;
  };
  std::vector<Delivery> deliveries;
  int routes = 0;
  int unroutes = 0;

  ControlPlane::Hooks Hooks(int target = 0) {
    ControlPlane::Hooks hooks;
    hooks.route = [this, target](const ArrivalEvent&) {
      ++routes;
      return target;
    };
    hooks.deliver = [this](const ArrivalEvent& event, int cell, TimePoint at) {
      // The fleet appends deliveries to per-cell batches in call order, so
      // it relies on commits arriving in nondecreasing deliver_at order.
      if (!deliveries.empty()) {
        EXPECT_GE(at, deliveries.back().at) << "delivery out of order";
      }
      deliveries.push_back(Delivery{at, event.time, cell});
    };
    hooks.unroute = [this](int) { ++unroutes; };
    return hooks;
  }
};

ControlPlaneConfig Replicated(int replicas) {
  ControlPlaneConfig config;
  config.replicas = replicas;
  return config;
}

constexpr Duration kHop = 0.05;  // dispatch latency used throughout

TEST(ControlPlaneTest, SoloReplicaCommitsEverythingImmediately) {
  HookLog log;
  ControlPlane ctrl(Replicated(1), kHop, log.Hooks());
  ctrl.Begin();
  ctrl.Offer(At(1.0));
  ctrl.Offer(At(2.5));
  // Idle control plane: arrivals alone bound the fleet's epochs.
  EXPECT_EQ(ctrl.NextPendingTime(), kTimeNever);
  EXPECT_TRUE(ctrl.Drained());
  ASSERT_EQ(log.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(log.deliveries[0].at, 1.0 + kHop);
  EXPECT_DOUBLE_EQ(log.deliveries[1].at, 2.5 + kHop);
  EXPECT_EQ(log.unroutes, 0);
  EXPECT_EQ(ctrl.leader(), 0);
  EXPECT_EQ(ctrl.term(), 1u);
  EXPECT_FALSE(ctrl.stats().Any());  // all-zero: the unreplicated golden path
}

TEST(ControlPlaneTest, ReplicationWithoutFaultsChangesNothingObservable) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  ctrl.Begin();
  ctrl.Offer(At(1.0));
  ctrl.AdvanceTo(30.0);  // plenty of heartbeat rounds
  ctrl.Offer(At(30.5));
  EXPECT_EQ(ctrl.NextPendingTime(), kTimeNever);  // heartbeats never bound epochs
  ASSERT_EQ(log.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(log.deliveries[0].at, 1.0 + kHop);
  EXPECT_DOUBLE_EQ(log.deliveries[1].at, 30.5 + kHop);
  EXPECT_EQ(ctrl.leader(), 0);
  EXPECT_EQ(ctrl.term(), 1u);
  EXPECT_EQ(ctrl.stats().elections, 0u);
  EXPECT_EQ(ctrl.stats().failovers, 0u);
  EXPECT_GT(ctrl.stats().heartbeats_sent, 0u);
}

TEST(ControlPlaneTest, LeaderCrashElectsStaggeredSuccessorAndReplaysExactlyOnce) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  ctrl.ScheduleLeaderCrash(/*when=*/10.0, /*downtime=*/5.0);
  ctrl.Begin();
  ctrl.Offer(At(5.0));    // far from the crash: commits eagerly
  ctrl.Offer(At(9.99));   // due 10.04 > crash 10.0: enters the log
  EXPECT_FALSE(ctrl.Drained());
  // The in-flight delivery bounds the fleet's epoch planner.
  EXPECT_DOUBLE_EQ(ctrl.NextPendingTime(), 9.99 + kHop);
  ctrl.Drain();
  EXPECT_TRUE(ctrl.Drained());

  // The lost entry was un-routed once and re-delivered exactly once, by
  // the successor, after the crash.
  EXPECT_EQ(log.unroutes, 1);
  EXPECT_EQ(log.routes, 3);  // two originals + one replay
  ASSERT_EQ(log.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(log.deliveries[0].at, 5.0 + kHop);
  EXPECT_GT(log.deliveries[1].at, 10.0);
  EXPECT_DOUBLE_EQ(log.deliveries[1].arrival, 9.99);  // client time preserved

  // Replica 1 has the shortest staggered timeout, so it wins the election
  // with a fresh term; the machine never splits.
  EXPECT_EQ(ctrl.leader(), 1);
  EXPECT_EQ(ctrl.term(), 2u);
  const CtrlStats& stats = ctrl.stats();
  EXPECT_EQ(stats.elections, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.redispatched_requests, 1u);
  EXPECT_EQ(stats.max_log_depth, 1u);
  EXPECT_GT(stats.leader_downtime, 0.0);

  // Drain() stops the instant the replay commits; play the heartbeat
  // cadence out past the old leader's recovery (at 15) to observe the new
  // leader's beats bouncing off the still-down replica.
  ctrl.AdvanceTo(20.0);
  EXPECT_GT(stats.heartbeats_missed, 0u);
}

TEST(ControlPlaneTest, ReplayMissingFromShadowLogCountsAsFrontdoorRecovery) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  // Crash between the route (9.99) and the leader's next heartbeat round
  // (10.0): the successor's shadow log never learns of seq 2.
  ctrl.ScheduleLeaderCrash(/*when=*/9.995, /*downtime=*/5.0);
  ctrl.Begin();
  ctrl.Offer(At(5.0));
  ctrl.Offer(At(9.99));
  ctrl.Drain();
  EXPECT_EQ(ctrl.stats().redispatched_requests, 1u);
  EXPECT_EQ(ctrl.stats().frontdoor_replays, 1u);
  ASSERT_EQ(log.deliveries.size(), 2u);
}

TEST(ControlPlaneTest, ShadowedReplayIsNotAFrontdoorRecovery) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  // Crash at 10.0: the 10.0 heartbeat round (same instant, processed
  // before the fault injection) replicates seq 2 to the followers first.
  ctrl.ScheduleLeaderCrash(/*when=*/10.0, /*downtime=*/5.0);
  ctrl.Begin();
  ctrl.Offer(At(9.99));
  ctrl.Drain();
  EXPECT_EQ(ctrl.stats().redispatched_requests, 1u);
  EXPECT_EQ(ctrl.stats().frontdoor_replays, 0u);
}

TEST(ControlPlaneTest, ArrivalsDuringOutageQueueAndReplayInOrder) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  ctrl.ScheduleLeaderCrash(/*when=*/10.0, /*downtime=*/60.0);
  ctrl.Begin();
  ctrl.Offer(At(9.98));   // lost in flight
  ctrl.Offer(At(10.5));   // leaderless: queued
  ctrl.Offer(At(11.0));   // leaderless: queued
  // Queued arrivals: the next protocol event (the election machinery) is
  // what bounds the planner now.
  EXPECT_LT(ctrl.NextPendingTime(), kTimeNever);
  ctrl.Drain();
  ASSERT_EQ(log.deliveries.size(), 3u);
  // Replayed lost entry first, then the queued arrivals, in arrival order,
  // all delivered after the successor took over.
  EXPECT_DOUBLE_EQ(log.deliveries[0].arrival, 9.98);
  EXPECT_DOUBLE_EQ(log.deliveries[1].arrival, 10.5);
  EXPECT_DOUBLE_EQ(log.deliveries[2].arrival, 11.0);
  for (const HookLog::Delivery& d : log.deliveries) {
    EXPECT_GT(d.at, 10.0);
  }
  EXPECT_EQ(ctrl.stats().redispatched_requests, 1u);
  EXPECT_EQ(ctrl.stats().max_log_depth, 3u);  // lost entry + two queued arrivals
}

TEST(ControlPlaneTest, SoloReplicaReElectsItselfAfterRecovery) {
  HookLog log;
  ControlPlane ctrl(Replicated(1), kHop, log.Hooks());
  ctrl.ScheduleLeaderCrash(/*when=*/10.0, /*downtime=*/5.0);
  ctrl.Begin();
  ctrl.Offer(At(9.99));  // lost with the sole replica
  ctrl.Drain();
  ASSERT_EQ(log.deliveries.size(), 1u);
  // Recovery at 15, self-election after its own timeout: majority of one.
  EXPECT_GT(log.deliveries[0].at, 15.0);
  EXPECT_EQ(ctrl.leader(), 0);
  EXPECT_EQ(ctrl.term(), 2u);
  EXPECT_EQ(ctrl.stats().failovers, 1u);
  EXPECT_DOUBLE_EQ(ctrl.stats().leader_downtime,
                   log.deliveries[0].at - kHop - 10.0);
}

TEST(ControlPlaneTest, RepeatedCrashesFailOverEachTime) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  ctrl.ScheduleLeaderCrash(10.0, 5.0);
  ctrl.ScheduleLeaderCrash(30.0, 5.0);
  ctrl.Begin();
  ctrl.Offer(At(9.99));
  ctrl.Offer(At(29.99));
  ctrl.Drain();
  ASSERT_EQ(log.deliveries.size(), 2u);
  EXPECT_EQ(ctrl.stats().failovers, 2u);
  EXPECT_EQ(ctrl.stats().redispatched_requests, 2u);
  EXPECT_EQ(ctrl.term(), 3u);  // one fresh term per election
}

TEST(ControlPlaneTest, BeginResetsProtocolStateBetweenRuns) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  ctrl.ScheduleLeaderCrash(10.0, 5.0);
  for (int run = 0; run < 2; ++run) {
    log = HookLog{};
    ctrl.Begin();
    ctrl.Offer(At(9.99));
    ctrl.Drain();
    ASSERT_EQ(log.deliveries.size(), 1u) << "run " << run;
    EXPECT_EQ(ctrl.stats().failovers, 1u) << "run " << run;
    EXPECT_EQ(ctrl.term(), 2u) << "run " << run;
  }
}

TEST(ControlPlaneDeathTest, RejectsInvalidCrashPlans) {
  HookLog log;
  ControlPlane ctrl(Replicated(3), kHop, log.Hooks());
  EXPECT_DEATH(ctrl.ScheduleLeaderCrash(-1.0, 5.0), "invalid plan");
  EXPECT_DEATH(ctrl.ScheduleLeaderCrash(10.0, 0.0), "invalid plan");
}

TEST(ControlPlaneDeathTest, LogOverflowAborts) {
  HookLog log;
  // A sole replica: once it crashes no majority exists anywhere, so the
  // front-door queue can only grow. (With peers, a successor drains it.)
  ControlPlaneConfig config = Replicated(1);
  config.redispatch_log_capacity = 4;
  ControlPlane ctrl(config, kHop, log.Hooks());
  ctrl.ScheduleLeaderCrash(10.0, 1e6);  // never recovers within the run
  ctrl.Begin();
  EXPECT_DEATH(
      {
        for (int i = 0; i < 8; ++i) {
          ctrl.Offer(At(10.5 + static_cast<double>(i)));
        }
      },
      "re-dispatch log overflow");
}

}  // namespace
}  // namespace aegaeon
