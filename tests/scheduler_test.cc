// Tests for the token-level schedulers: Algorithm 1 (grouped FCFS prefill)
// and Algorithm 2 (weighted round-robin decoding with quota Eq. 2-3).

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "core/decode_scheduler.h"
#include "core/prefill_scheduler.h"
#include "core/request.h"
#include "sim/random.h"

namespace aegaeon {
namespace {

// --- Algorithm 1 -----------------------------------------------------------

class PrefillSchedulerTest : public ::testing::Test {
 protected:
  PrefillSchedulerTest() { Reset(3, 8); }

  void Reset(int instances, int max_group) {
    current_.assign(instances, kInvalidModel);
    PrefillScheduler::Estimators est;
    est.exec_estimate = [](const Request& r) {
      return 0.001 * static_cast<double>(r.prompt_tokens);
    };
    est.switch_estimate = [](ModelId from, ModelId to) { return from == to ? 0.0 : 1.0; };
    est.current_model = [this](int i) { return current_[i]; };
    sched_ = std::make_unique<PrefillScheduler>(instances, max_group, est);
  }

  Request* MakeRequest(ModelId model, int64_t prompt = 100) {
    auto r = std::make_unique<Request>();
    r->id = requests_.size();
    r->model = model;
    r->prompt_tokens = prompt;
    requests_.push_back(std::move(r));
    return requests_.back().get();
  }

  std::vector<ModelId> current_;
  std::unique_ptr<PrefillScheduler> sched_;
  std::vector<std::unique_ptr<Request>> requests_;
};

TEST_F(PrefillSchedulerTest, SameModelRequestsJoinExistingGroup) {
  int a = sched_->OnArrival(MakeRequest(1));
  int b = sched_->OnArrival(MakeRequest(1));
  EXPECT_EQ(a, b);  // joined the same group, hence the same instance
  EXPECT_EQ(sched_->QueuedRequests(a), 2u);
}

TEST_F(PrefillSchedulerTest, GroupSizeIsCapped) {
  // MAX_GPSIZE accumulated jobs per group; the 9th spills to a new group.
  Reset(1, 8);
  for (int i = 0; i < 9; ++i) {
    sched_->OnArrival(MakeRequest(1));
  }
  // Draining preserves arrival order regardless of the group split.
  for (int i = 0; i < 9; ++i) {
    Request* r = sched_->NextJob(0);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->id, static_cast<RequestId>(i));
  }
}

TEST_F(PrefillSchedulerTest, AccumulatedSizeDoesNotShrinkOnExecution) {
  // §4.2: executing a request does not decrease g.size, keeping FCFS-ness.
  Reset(1, 2);
  sched_->OnArrival(MakeRequest(1));
  sched_->OnArrival(MakeRequest(1));
  sched_->NextJob(0);  // executes one; accumulated stays 2
  sched_->OnArrival(MakeRequest(1));
  // The third request must have opened a NEW group behind, not joined.
  // Drain: ids 1 then 2 (from separate groups), FCFS preserved.
  EXPECT_EQ(sched_->NextJob(0)->id, 1u);
  EXPECT_EQ(sched_->NextJob(0)->id, 2u);
}

TEST_F(PrefillSchedulerTest, NewGroupsGoToLeastLoadedInstance) {
  Reset(2, 8);
  // Load instance 0 with an expensive group.
  sched_->OnArrival(MakeRequest(1, /*prompt=*/100000));
  // A different model should land on the empty instance 1.
  int i = sched_->OnArrival(MakeRequest(2, 10));
  EXPECT_EQ(i, 1);
}

TEST_F(PrefillSchedulerTest, LoadEstimateCountsSwitches) {
  Reset(1, 8);
  EXPECT_DOUBLE_EQ(sched_->LoadEstimate(0), 0.0);
  sched_->OnArrival(MakeRequest(1, 100));  // switch (1.0) + exec (0.1)
  EXPECT_DOUBLE_EQ(sched_->LoadEstimate(0), 1.1);
  sched_->OnArrival(MakeRequest(1, 100));  // same group: exec only
  EXPECT_DOUBLE_EQ(sched_->LoadEstimate(0), 1.2);
  sched_->OnArrival(MakeRequest(2, 100));  // new model: another switch
  EXPECT_DOUBLE_EQ(sched_->LoadEstimate(0), 2.3);
}

TEST_F(PrefillSchedulerTest, NoSwitchCostWhenModelResident) {
  Reset(1, 8);
  current_[0] = 1;
  sched_->OnArrival(MakeRequest(1, 100));
  EXPECT_DOUBLE_EQ(sched_->LoadEstimate(0), 0.1);
}

TEST_F(PrefillSchedulerTest, UpcomingModelReportsNextDistinctGroup) {
  Reset(1, 8);
  EXPECT_EQ(sched_->UpcomingModel(0), kInvalidModel);
  sched_->OnArrival(MakeRequest(1));
  EXPECT_EQ(sched_->UpcomingModel(0), kInvalidModel);  // only the front model
  sched_->OnArrival(MakeRequest(2));
  EXPECT_EQ(sched_->UpcomingModel(0), 2u);
}

TEST_F(PrefillSchedulerTest, NextJobRetiresEmptyGroups) {
  Reset(1, 8);
  sched_->OnArrival(MakeRequest(1));
  sched_->OnArrival(MakeRequest(2));
  EXPECT_EQ(sched_->NextJob(0)->model, 1u);
  EXPECT_EQ(sched_->NextJob(0)->model, 2u);
  EXPECT_EQ(sched_->NextJob(0), nullptr);
  EXPECT_FALSE(sched_->HasWork(0));
}

TEST_F(PrefillSchedulerTest, UnavailableInstancesReceiveNoWork) {
  Reset(2, 8);
  sched_->SetAvailable(0, false);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sched_->OnArrival(MakeRequest(static_cast<ModelId>(i))), 1);
  }
  sched_->SetAvailable(0, true);
  // Instance 1 now carries all the load; new models go back to 0.
  EXPECT_EQ(sched_->OnArrival(MakeRequest(99)), 0);
}

TEST_F(PrefillSchedulerTest, DrainQueueReturnsPendingInOrder) {
  Reset(1, 8);
  sched_->OnArrival(MakeRequest(1));
  sched_->OnArrival(MakeRequest(2));
  sched_->OnArrival(MakeRequest(1));
  sched_->NextJob(0);  // request 0 started; 2 pending remain
  std::vector<Request*> drained = sched_->DrainQueue(0);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_FALSE(sched_->HasWork(0));
  EXPECT_EQ(sched_->NextJob(0), nullptr);
}

// PrefillScheduler as it was before the running load sums: LoadEstimate
// walks every queued request. The randomized test checks the O(1) estimate
// and every scheduling decision against it.
class WalkingPrefillScheduler {
 public:
  WalkingPrefillScheduler(int instances, int max_group_size,
                          PrefillScheduler::Estimators estimators)
      : max_group_size_(max_group_size), est_(std::move(estimators)), queues_(instances) {}

  Duration LoadEstimate(int i) const {
    Duration load = 0.0;
    ModelId previous = est_.current_model(i);
    for (const Group& group : queues_[i].groups) {
      if (group.model != previous) {
        load += est_.switch_estimate(previous, group.model);
        previous = group.model;
      }
      for (const Request* request : group.pending) {
        load += est_.exec_estimate(*request);
      }
    }
    return load;
  }

  int OnArrival(Request* request) {
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (!queues_[i].available) {
        continue;
      }
      for (Group& group : queues_[i].groups) {
        if (group.model == request->model && group.accumulated < max_group_size_) {
          group.pending.push_back(request);
          group.accumulated++;
          return static_cast<int>(i);
        }
      }
    }
    int best = 0;
    Duration min_load = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (!queues_[i].available) {
        continue;
      }
      Duration load = LoadEstimate(static_cast<int>(i));
      if (load < min_load) {
        min_load = load;
        best = static_cast<int>(i);
      }
    }
    queues_[best].groups.push_back(Group{request->model, {request}, 1});
    return best;
  }

  Request* NextJob(int i) {
    std::deque<Group>& groups = queues_[i].groups;
    while (!groups.empty() && groups.front().pending.empty()) {
      groups.pop_front();
    }
    if (groups.empty()) {
      return nullptr;
    }
    Request* request = groups.front().pending.front();
    groups.front().pending.pop_front();
    return request;
  }

  void PushContinuation(int i, Request* request) {
    std::deque<Group>& groups = queues_[i].groups;
    while (!groups.empty() && groups.front().pending.empty()) {
      groups.pop_front();
    }
    auto pos = groups.empty() ? groups.begin() : std::next(groups.begin());
    groups.insert(pos, Group{request->model, {request}, max_group_size_});
  }

  std::vector<Request*> DrainQueue(int i) {
    std::vector<Request*> drained;
    for (const Group& group : queues_[i].groups) {
      drained.insert(drained.end(), group.pending.begin(), group.pending.end());
    }
    queues_[i].groups.clear();
    return drained;
  }

  void SetAvailable(int i, bool available) { queues_[i].available = available; }

 private:
  struct Group {
    ModelId model = kInvalidModel;
    std::deque<Request*> pending;
    int accumulated = 0;
  };
  struct Queue {
    std::deque<Group> groups;
    bool available = true;
  };

  int max_group_size_;
  PrefillScheduler::Estimators est_;
  std::vector<Queue> queues_;
};

class PrefillLoadSumTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefillLoadSumTest, RunningSumsMatchTheWalk) {
  constexpr int kInstances = 3;
  std::vector<ModelId> current(kInstances, kInvalidModel);
  PrefillScheduler::Estimators est;
  est.exec_estimate = [](const Request& r) {
    return 0.003 + 1.7e-4 * static_cast<double>(r.prompt_tokens);
  };
  est.switch_estimate = [](ModelId from, ModelId to) {
    return from == to ? 0.0 : 0.25 + 0.037 * static_cast<double>(to);
  };
  est.current_model = [&current](int i) { return current[i]; };
  PrefillScheduler sched(kInstances, /*max_group_size=*/4, est);
  WalkingPrefillScheduler walk(kInstances, /*max_group_size=*/4, est);

  Rng rng(GetParam());
  std::vector<std::unique_ptr<Request>> requests;
  for (int step = 0; step < 3000; ++step) {
    int i = static_cast<int>(rng.UniformInt(kInstances));
    double op = rng.NextDouble();
    if (op < 0.5) {
      auto r = std::make_unique<Request>();
      r->id = requests.size();
      r->model = static_cast<ModelId>(rng.UniformInt(6));
      r->prompt_tokens = 1 + static_cast<int64_t>(rng.UniformInt(4000));
      requests.push_back(std::move(r));
      ASSERT_EQ(sched.OnArrival(requests.back().get()), walk.OnArrival(requests.back().get()))
          << "step " << step;
    } else if (op < 0.85) {
      Request* r = sched.NextJob(i);
      ASSERT_EQ(r, walk.NextJob(i)) << "step " << step;
      if (r != nullptr) {
        current[i] = r->model;  // the instance switched to run it
        if (rng.Bernoulli(0.3)) {  // a chunked prefill yields the instance
          sched.PushContinuation(i, r);
          walk.PushContinuation(i, r);
        }
      }
    } else if (op < 0.9) {
      ASSERT_EQ(sched.DrainQueue(i), walk.DrainQueue(i)) << "step " << step;
    } else {
      bool available = rng.Bernoulli(0.6);
      sched.SetAvailable(i, available);
      walk.SetAvailable(i, available);
    }
    for (int k = 0; k < kInstances; ++k) {
      Duration expected = walk.LoadEstimate(k);
      EXPECT_NEAR(sched.LoadEstimate(k), expected, 1e-12 * expected)
          << "step " << step << " instance " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefillLoadSumTest, ::testing::Values(1, 7, 2025));

TEST(PrefillSchedulerCostTest, EstimatorCallsDoNotGrowWithQueueDepth) {
  // ROADMAP item 8's gate: the least-loaded choice costs O(instances)
  // estimator calls, however deep the queues are.
  constexpr int kInstances = 3;
  int calls = 0;
  PrefillScheduler::Estimators est;
  est.exec_estimate = [&calls](const Request&) {
    ++calls;
    return 0.1;
  };
  est.switch_estimate = [&calls](ModelId, ModelId) {
    ++calls;
    return 1.0;
  };
  est.current_model = [&calls](int) {
    ++calls;
    return kInvalidModel;
  };
  // Group size 1: every arrival opens a new group and runs the choice.
  PrefillScheduler sched(kInstances, /*max_group_size=*/1, est);
  std::vector<std::unique_ptr<Request>> requests;
  auto calls_for = [&](auto op) {
    int before = calls;
    op();
    return calls - before;
  };
  auto arrive = [&] {
    auto r = std::make_unique<Request>();
    r->id = requests.size();
    r->model = static_cast<ModelId>(requests.size() % 5);
    r->prompt_tokens = 100;
    requests.push_back(std::move(r));
    sched.OnArrival(requests.back().get());
  };
  auto churn = [&] {  // one job out and back in, as a chunk boundary does
    Request* r = sched.NextJob(0);
    sched.PushContinuation(0, r);
  };

  for (int i = 0; i < 10 * kInstances; ++i) {
    arrive();
  }
  int shallow_arrival = calls_for(arrive);
  int shallow_churn = calls_for(churn);
  for (int i = 0; i < 1000 * kInstances; ++i) {
    arrive();
  }
  EXPECT_EQ(calls_for(arrive), shallow_arrival);
  EXPECT_EQ(calls_for(churn), shallow_churn);
  // One exec estimate, one switch behind the new group's tail, and a
  // resident-model lookup plus a head switch per instance.
  EXPECT_LE(shallow_arrival, 2 + 2 * kInstances);
}

// --- Algorithm 2: quotas ----------------------------------------------------

TEST(ComputeQuotasTest, PaperWorkedExample) {
  // §4.3: three batches, d = 0.1, t_i = 0.025, c = 3, QMAX = 3
  // => n_i = 4, alpha = 1, q_i = 3.
  std::vector<BatchQuotaInput> batches(3, BatchQuotaInput{0.025, 0.1});
  QuotaResult result = ComputeQuotas(batches, /*c=*/3.0, /*qmax=*/3.0);
  EXPECT_NEAR(result.alpha, 1.0, 1e-9);
  EXPECT_NEAR(result.estimated_attainment, 1.0, 1e-9);
  for (double q : result.quotas) {
    EXPECT_NEAR(q, 3.0, 1e-9);
  }
}

TEST(ComputeQuotasTest, QuotasNeverExceedQmax) {
  for (double c : {0.5, 2.0, 10.0, 100.0}) {
    std::vector<BatchQuotaInput> batches = {
        {0.010, 0.1}, {0.025, 0.1}, {0.040, 0.1}, {0.015, 0.05}};
    QuotaResult result = ComputeQuotas(batches, c, /*qmax=*/4.0);
    for (double q : result.quotas) {
      EXPECT_LE(q, 4.0 + 1e-9) << "c=" << c;
      EXPECT_GT(q, 0.0);
    }
  }
}

TEST(ComputeQuotasTest, AlphaFloorGivesFlexibleQuotas) {
  // Comfortable SLOs (large n, tiny c): alpha floors at 0.5, and quotas
  // shrink well below QMAX ("smaller, more flexible q_i").
  std::vector<BatchQuotaInput> batches(2, BatchQuotaInput{0.001, 0.1});  // n = 100
  QuotaResult result = ComputeQuotas(batches, /*c=*/0.1, /*qmax=*/4.0);
  EXPECT_NEAR(result.alpha, 0.5, 1e-9);
  for (double q : result.quotas) {
    EXPECT_LT(q, 0.1);
  }
}

TEST(ComputeQuotasTest, SingleBatchDecodesFreely) {
  std::vector<BatchQuotaInput> one = {{0.02, 0.1}};
  QuotaResult result = ComputeQuotas(one, 5.0, 4.0);
  EXPECT_DOUBLE_EQ(result.quotas[0], 4.0);
  EXPECT_DOUBLE_EQ(result.estimated_attainment, 1.0);
}

TEST(ComputeQuotasTest, ZeroSwitchCostDecodesFreely) {
  std::vector<BatchQuotaInput> batches(3, BatchQuotaInput{0.02, 0.1});
  QuotaResult result = ComputeQuotas(batches, 0.0, 4.0);
  for (double q : result.quotas) {
    EXPECT_DOUBLE_EQ(q, 4.0);
  }
}

TEST(ComputeQuotasTest, SlowerBatchesGetLargerQuotas) {
  // q_i is inversely proportional to n_i = d/t_i: batches with longer step
  // times (smaller n) earn more contiguous time.
  std::vector<BatchQuotaInput> batches = {{0.010, 0.1}, {0.050, 0.1}};
  QuotaResult result = ComputeQuotas(batches, 2.0, 4.0);
  EXPECT_GT(result.quotas[1], result.quotas[0]);
  EXPECT_NEAR(result.quotas[1] / result.quotas[0], 5.0, 1e-6);
}

TEST(ComputeQuotasTest, StepTimeBeyondDeadlineClampsN) {
  // A batch whose step time exceeds its TBT target has no slack (n = 1);
  // the quota formula must stay finite and positive.
  std::vector<BatchQuotaInput> batches = {{0.2, 0.1}, {0.02, 0.1}};
  QuotaResult result = ComputeQuotas(batches, 1.0, 4.0);
  EXPECT_GT(result.quotas[0], 0.0);
  EXPECT_LT(result.estimated_attainment, 1.0);
}

// Property sweep: the round's estimated attainment math is self-consistent
// for a grid of configurations.
struct QuotaSweepParam {
  int batches;
  double step_time;
  double tbt;
  double c;
};

// Prints the fields, which ctest turns into the test name (gtest's default
// byte dump includes the padding after `batches`, which varies per process).
void PrintTo(const QuotaSweepParam& p, std::ostream* os) {
  *os << "batches" << p.batches << "_step" << p.step_time << "_tbt" << p.tbt << "_c" << p.c;
}

class QuotaSweepTest : public ::testing::TestWithParam<QuotaSweepParam> {};

TEST_P(QuotaSweepTest, RoundProducesTokensAtDeadlineRate) {
  const QuotaSweepParam& p = GetParam();
  std::vector<BatchQuotaInput> batches(p.batches, BatchQuotaInput{p.step_time, p.tbt});
  QuotaResult result = ComputeQuotas(batches, p.c, /*qmax=*/4.0);
  if (p.batches < 2 || p.c <= 0.0) {
    GTEST_SKIP();
  }
  // Round time = sum of quotas + c; tokens per batch = q_i / t. The
  // schedule sustains one token per (alpha * tbt): attainment 1/alpha.
  double round_time = p.c;
  for (double q : result.quotas) {
    round_time += q;
  }
  double tokens_per_batch = result.quotas[0] / p.step_time;
  double sustained_interval = round_time / tokens_per_batch;
  EXPECT_NEAR(sustained_interval, result.alpha * p.tbt, result.alpha * p.tbt * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QuotaSweepTest,
    ::testing::Values(QuotaSweepParam{2, 0.02, 0.1, 1.0}, QuotaSweepParam{4, 0.015, 0.1, 2.0},
                      QuotaSweepParam{7, 0.012, 0.1, 3.5}, QuotaSweepParam{3, 0.03, 0.05, 0.5},
                      QuotaSweepParam{5, 0.02, 0.2, 8.0}, QuotaSweepParam{10, 0.01, 0.1, 5.0}));

// --- Work-list helpers -------------------------------------------------------

TEST(GroupBatchesByModelTest, AdjacentByFirstAppearance) {
  std::vector<DecodeBatch> list(5);
  list[0].model = 3;
  list[1].model = 1;
  list[2].model = 3;
  list[3].model = 2;
  list[4].model = 1;
  GroupBatchesByModel(list);
  std::vector<ModelId> order;
  for (const DecodeBatch& b : list) {
    order.push_back(b.model);
  }
  EXPECT_EQ(order, (std::vector<ModelId>{3, 3, 1, 1, 2}));
}

TEST(PickDecodeInstanceTest, PrefersInstanceWithModel) {
  EXPECT_EQ(PickDecodeInstance({5, 1, 3}, {true, false, true}), 2);
  EXPECT_EQ(PickDecodeInstance({5, 1, 3}, {false, false, false}), 1);
  EXPECT_EQ(PickDecodeInstance({2, 2}, {false, true}), 1);
}

}  // namespace
}  // namespace aegaeon
