#include "core/meta_scheduler.hpp"

#include <gtest/gtest.h>


#include "sim/random.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {
namespace {

using cluster::ClusterConfig;

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

mapred::JobConf small_sort() {
  return workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
}

MetaSchedulerOptions opts_for(const mapred::JobConf& jc, int n_vms) {
  MetaSchedulerOptions o;
  o.plan = PhasePlan::for_job(jc, n_vms);
  return o;
}

TEST(MetaScheduler, ProfileCoversAllSixteenPairs) {
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const auto profile = ms.profile_all_pairs();
  ASSERT_EQ(profile.size(), 16u);
  std::set<int> seen;
  for (const auto& e : profile) {
    seen.insert(e.pair.index());
    EXPECT_GT(e.total_seconds, 0.0);
    ASSERT_EQ(e.phase_seconds.size(),
              static_cast<std::size_t>(opts_for(jc, 4).plan.count()));
    double sum = 0;
    for (double p : e.phase_seconds) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, e.total_seconds, e.total_seconds * 0.01);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(MetaScheduler, OptimizeProducesValidSolution) {
  const auto jc = small_sort();
  const auto opts = opts_for(jc, 4);
  MetaScheduler ms(tiny(), jc, opts);
  const MetaResult r = ms.optimize();

  ASSERT_EQ(r.solution.count(), opts.plan.count());
  ASSERT_TRUE(r.solution.phases[0].has_value());
  EXPECT_GT(r.adaptive_seconds, 0.0);
  EXPECT_GT(r.default_seconds, 0.0);
  EXPECT_GT(r.best_single_seconds, 0.0);
  EXPECT_LE(r.best_single_seconds, r.default_seconds);
  EXPECT_EQ(r.profile.size(), 16u);
  // Algorithm 1's bound: at most P x S full executions beyond profiling.
  EXPECT_LE(r.heuristic_evaluations, opts.plan.count() * 16);
  EXPECT_GE(r.heuristic_evaluations, opts.plan.count());
}

TEST(MetaScheduler, AdaptiveNotMeaningfullyWorseThanBestSingle) {
  // The heuristic evaluates the best single pair as a candidate schedule,
  // so the solution can only beat it or tie it (up to one switch cost).
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const MetaResult r = ms.optimize();
  EXPECT_LE(r.adaptive_seconds, r.best_single_seconds * 1.05);
}

TEST(MetaScheduler, ExecuteMatchesOptimizeResult) {
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const MetaResult r = ms.optimize();
  const auto rerun = ms.execute(r.solution);
  EXPECT_NEAR(rerun.seconds, r.adaptive_seconds, 1e-9);  // deterministic
}

TEST(MetaScheduler, ImprovementAccessors) {
  MetaResult r;
  r.adaptive_seconds = 75;
  r.default_seconds = 100;
  r.best_single_seconds = 90;
  EXPECT_NEAR(r.improvement_vs_default(), 0.25, 1e-12);
  EXPECT_NEAR(r.improvement_vs_best_single(), 1.0 - 75.0 / 90.0, 1e-12);
}

TEST(MetaScheduler, ThreePhasePlanWorks) {
  // One-wave configuration: the plan keeps the shuffle tail separate.
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  MetaSchedulerOptions o;
  o.plan = PhasePlan{/*merge_shuffle_tail=*/false};
  MetaScheduler ms(tiny(), jc, o);
  const MetaResult r = ms.optimize();
  EXPECT_EQ(r.solution.count(), 3);
  EXPECT_GT(r.adaptive_seconds, 0.0);
}

TEST(MetaScheduler, SingleScheduleExecutesWithoutSwitch) {
  const auto jc = small_sort();
  const auto opts = opts_for(jc, 4);
  MetaScheduler ms(tiny(), jc, opts);
  // One entry per phase of the plan (128 MB on 2x2 is under two waves, so
  // the plan keeps three phases); only the first names a pair.
  const auto single = PairSchedule::single(iosched::kDefaultPair, opts.plan.count());
  const auto r = ms.execute(single);
  EXPECT_GT(r.seconds, 0.0);
  // Equals the plain fixed-pair run exactly. execute() averages over one
  // derived seed, so the reference run uses derive_run_seed(base, 0).
  ClusterConfig derived = tiny();
  derived.seed = sim::derive_run_seed(derived.seed, 0);
  const auto plain = cluster::run_job(derived, jc);
  EXPECT_NEAR(r.seconds, plain.seconds, 1e-9);
}


TEST(MetaScheduler, FailedProfileAndProbesRankLast) {
  // A fake three-phase experiment: pair p scores 10 + index + k seconds in
  // phase k, so without failures the lowest-index pair wins every phase.
  // That pair, (noop, noop), instead fails fast: its profile reports a
  // short partial time and a truncated phase vector, and every schedule
  // using it fails after 0.5 s. It must win nothing, and the rankings must
  // not read past its one phase entry.
  const SchedulerPair bad = SchedulerPair::from_index(0);
  constexpr int kPhases = 3;
  const auto phase_secs = [](SchedulerPair p, int k) { return 10.0 + p.index() + k; };
  Experiment e;
  e.phases = kPhases;
  e.profile = [&](SchedulerPair p) {
    ProfileEntry en;
    en.pair = p;
    if (p == bad) {
      en.failed = true;
      en.total_seconds = 1.0;
      en.phase_seconds = {0.5};
      return en;
    }
    for (int k = 0; k < kPhases; ++k) {
      en.phase_seconds.push_back(phase_secs(p, k));
      en.total_seconds += en.phase_seconds.back();
    }
    return en;
  };
  e.execute = [&](const PairSchedule& s) {
    cluster::RunResult r;
    for (int k = 0; k < kPhases; ++k) {
      if (s.effective(k) == bad) {
        r.failed = true;
        r.failure = "fake abort";
        r.seconds = 0.5;
        return r;
      }
      r.seconds += phase_secs(s.effective(k), k);
    }
    return r;
  };

  MetaScheduler ms(e, MetaSchedulerOptions{});
  const MetaResult res = ms.optimize();
  const SchedulerPair best = SchedulerPair::from_index(1);
  EXPECT_EQ(res.best_single, best);
  EXPECT_DOUBLE_EQ(res.best_single_seconds, 36.0);  // 11 + 12 + 13
  for (int k = 0; k < kPhases; ++k) EXPECT_EQ(res.solution.effective(k), best);
  EXPECT_FALSE(res.adaptive_run.failed);
  EXPECT_DOUBLE_EQ(res.adaptive_seconds, 36.0);
  for (const auto& en : res.profile) {
    ASSERT_EQ(en.phase_seconds.size(), static_cast<std::size_t>(kPhases));
    EXPECT_EQ(en.failed, en.pair == bad);
  }
}

}  // namespace
}  // namespace iosim::core
