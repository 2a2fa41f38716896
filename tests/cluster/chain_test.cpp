#include "cluster/runner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/meta_scheduler.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::cluster {
namespace {

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

std::vector<mapred::JobConf> small_chain(int k = 2) {
  std::vector<mapred::JobConf> confs;
  for (int i = 0; i < k; ++i) {
    confs.push_back(workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB));
  }
  return confs;
}

TEST(ChainRunner, RunsJobsBackToBack) {
  const auto r = run_job_chain(tiny(), small_chain(3));
  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_GT(r.seconds, 0.0);
  // Strict ordering: job k+1 starts after job k ends.
  for (std::size_t i = 1; i < r.jobs.size(); ++i) {
    EXPECT_GE(r.jobs[i].t_start, r.jobs[i - 1].t_done);
  }
  EXPECT_NEAR(r.seconds, r.jobs.back().t_done.sec(), 1e-9);
}

TEST(ChainRunner, SingleJobChainMatchesPlainRun) {
  // A single job is a chain of one: same makespan, byte-identical trace.
  std::string chain_json, plain_json;
  double chain_s = 0.0, plain_s = 0.0;
  {
    trace::TraceSession session;
    chain_s = run_job_chain(tiny(), small_chain(1)).seconds;
    chain_json = session.tracer().to_json();
  }
  {
    trace::TraceSession session;
    plain_s = run_job(tiny(), small_chain(1)[0]).seconds;
    plain_json = session.tracer().to_json();
  }
  EXPECT_NEAR(chain_s, plain_s, 1e-9);
  EXPECT_EQ(chain_json.size(), plain_json.size());
  // Not EXPECT_EQ: a mismatch would print two multi-megabyte strings.
  EXPECT_TRUE(chain_json == plain_json);
}

TEST(ChainRunner, EventBudgetStopsTheChain) {
  // The cluster's budget holds for a chain exactly as for one job: the loop
  // stops mid-chain and the chain reports the stop.
  ClusterConfig cfg = tiny();
  cfg.budget.max_events = 10000;
  const auto r = run_job_chain(cfg, small_chain(2));
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.stop, sim::StopReason::kEventBudget);
  EXPECT_FALSE(r.failure.empty());
  ASSERT_EQ(r.jobs.size(), 1u);  // job 1 was never admitted
}

TEST(ChainRunner, SetupHookSeesEveryJob) {
  std::vector<int> indices;
  (void)run_job_chain(tiny(), small_chain(3),
                      [&](Cluster&, mapred::Job&, int idx) { indices.push_back(idx); });
  EXPECT_EQ(indices, (std::vector<int>{0, 1, 2}));
}

TEST(ChainRunner, MixedWorkloadsComplete) {
  std::vector<mapred::JobConf> confs = {
      workloads::make_job(workloads::wordcount(), 64 * mapred::kMiB),
      workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB),
  };
  const auto r = run_job_chain(tiny(), confs);
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_GT(r.jobs[1].t_done, r.jobs[0].t_done);
}

TEST(ChainRunner, AveragingIsDeterministic) {
  const auto a = run_job_chain_avg(tiny(), small_chain(2), 2);
  const auto b = run_job_chain_avg(tiny(), small_chain(2), 2);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(ChainExperiment, ProfileHasTwoPhasesPerJob) {
  const auto exp = core::make_chain_experiment(tiny(), small_chain(3));
  EXPECT_EQ(exp.phases, 6);
  const auto e = exp.profile(iosched::kDefaultPair);
  ASSERT_EQ(e.phase_seconds.size(), 6u);
  double sum = 0;
  for (double p : e.phase_seconds) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, e.total_seconds, e.total_seconds * 0.01);
}

TEST(ChainExperiment, ExecuteAppliesSwitches) {
  const auto exp = core::make_chain_experiment(tiny(), small_chain(2));
  core::PairSchedule sched;
  sched.phases.assign(4, std::nullopt);
  sched.phases[0] = iosched::kDefaultPair;
  sched.phases[2] = iosched::SchedulerPair{iosched::SchedulerKind::kDeadline,
                                           iosched::SchedulerKind::kDeadline};
  const auto r = exp.execute(sched);
  EXPECT_GT(r.seconds, 0.0);
  // A schedule with an extra switch can't be faster than... actually it
  // may be, if the pair is better; just check both execute paths work.
  const auto plain = exp.execute(core::PairSchedule::single(iosched::kDefaultPair, 4));
  EXPECT_GT(plain.seconds, 0.0);
}

TEST(ChainMetaScheduler, OptimizesSixPhaseSpace) {
  core::MetaSchedulerOptions opts;
  core::MetaScheduler ms(core::make_chain_experiment(tiny(), small_chain(3)), opts);
  const auto r = ms.optimize();
  EXPECT_EQ(r.solution.count(), 6);
  EXPECT_GT(r.adaptive_seconds, 0.0);
  // The P x S bound the paper argues for.
  EXPECT_LE(r.heuristic_evaluations, 6 * 16);
  EXPECT_LE(r.adaptive_seconds, r.best_single_seconds * 1.001);
}

}  // namespace
}  // namespace iosim::cluster
