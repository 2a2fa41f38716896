#include "core/pair_controller.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/switch_predictor.hpp"
#include "fault/fault_plan.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {
namespace {

using cluster::ClusterConfig;
using iosched::SchedulerKind;
using iosched::SchedulerPair;

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

ClusterConfig tiny_with_faults(const std::string& plan_text) {
  ClusterConfig cfg = tiny();
  std::string err;
  auto plan = fault::FaultPlan::parse(plan_text, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  cfg.faults = plan.value_or(fault::FaultPlan{});
  return cfg;
}

/// The cheap-switching setup (a 256 MB sort that switches on both hosts),
/// so a fault has switches to act on.
RegimeConfig eager() {
  RegimeConfig cfg;
  cfg.sample_period = sim::Time::from_sec(5);
  cfg.min_switch_gap = sim::Time::from_sec(5);
  cfg.predictor = SwitchPredictor{0.0};
  return cfg;
}

/// Regime switching on `cl` for `job`, sampling from the next period on.
std::shared_ptr<PairController> attach(cluster::Cluster& cl, mapred::Job& job,
                                       RegimeConfig cfg) {
  auto ctl = PairController::regimes(cl, std::move(cfg));
  ctl->attach_sampler(job);
  return ctl;
}

RegimeConfig with_predictor(double base_cost_seconds) {
  RegimeConfig cfg;
  cfg.predictor = SwitchPredictor{base_cost_seconds};
  return cfg;
}

TEST(SwitchPredictor, AnalyticSeedUniform) {
  SwitchPredictor p(3.0);
  const SchedulerPair a = iosched::kDefaultPair;
  const SchedulerPair b{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  EXPECT_DOUBLE_EQ(p.predict_seconds(a, b), 3.0);
  EXPECT_DOUBLE_EQ(p.predict_seconds(b, a), 3.0);
}

TEST(SwitchPredictor, ObserveMovesEstimate) {
  SwitchPredictor p(2.0);
  const SchedulerPair a = iosched::kDefaultPair;
  const SchedulerPair b{SchedulerKind::kNoop, SchedulerKind::kNoop};
  p.observe(a, b, 10.0);
  EXPECT_GT(p.predict_seconds(a, b), 2.0);
  EXPECT_LT(p.predict_seconds(a, b), 10.0);
  // Other transitions unaffected.
  EXPECT_DOUBLE_EQ(p.predict_seconds(b, a), 2.0);
}

TEST(SwitchPredictor, WorthwhileComparesBenefitToCost) {
  SwitchPredictor p(5.0);
  const SchedulerPair a = iosched::kDefaultPair;
  const SchedulerPair b{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  // 10% gain over 100s = 10s saving > 5s cost.
  EXPECT_TRUE(p.worthwhile(a, b, 0.10, sim::Time::from_sec(100)));
  // 1% gain over 100s = 1s saving < 5s cost.
  EXPECT_FALSE(p.worthwhile(a, b, 0.01, sim::Time::from_sec(100)));
}

TEST(FineGrained, JobCompletesUnderController) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = attach(cl, job, with_predictor(1.0));
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());
  EXPECT_GT(ctl->samples(), 0);
}

TEST(FineGrained, SamplingStopsAfterJob) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  RegimeConfig pol = with_predictor(1.0);
  pol.sample_period = sim::Time::from_sec(1);
  auto ctl = attach(cl, job, pol);
  job.run();
  cl.simr().run();  // must terminate: the controller stops rescheduling
  EXPECT_TRUE(job.done());
  // The simulator drained, i.e. no immortal sampling loop.
  EXPECT_FALSE(cl.simr().step());
}

TEST(FineGrained, HighPredictedCostBlocksSwitching) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = attach(cl, job, with_predictor(1e9));  // prohibitive
  job.run();
  cl.simr().run();
  EXPECT_EQ(ctl->switches(), 0);
  EXPECT_EQ(cl.host(0).dom0_layer().counters().scheduler_switches, 0u);
}

TEST(FineGrained, CheapSwitchingAdaptsToRegimes) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = attach(cl, job, eager());
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());
  // Sort flips from read-dominated (maps) to write-heavy (reduce): at least
  // one per-host switch should have happened somewhere.
  EXPECT_GT(ctl->switches(), 0);
}

TEST(FineGrained, MinGapRateLimitsSwitching) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  RegimeConfig pol = with_predictor(0.0);
  pol.sample_period = sim::Time::from_sec(1);
  pol.min_switch_gap = sim::Time::from_sec(100000);  // once per host, ever
  auto ctl = attach(cl, job, pol);
  job.run();
  cl.simr().run();
  EXPECT_LE(ctl->switches(), static_cast<int>(cl.n_hosts()));
}

TEST(FineGrained, FailedSwitchCommandsKeepEveryHostOnItsBootPair) {
  cluster::Cluster cl(tiny_with_faults("switchfail:p=1"));
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = attach(cl, job, eager());
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());
  for (std::size_t h = 0; h < cl.n_hosts(); ++h) {
    EXPECT_EQ(cl.host(h).dom0_layer().counters().scheduler_switches, 0u) << h;
    EXPECT_EQ(cl.host(h).pair(), iosched::kDefaultPair) << h;
  }
  EXPECT_EQ(ctl->switches(), 0);
  EXPECT_GT(ctl->switch_failures(), 0);
}

TEST(FineGrained, HostSwitchersRetryIndependently) {
  // Every command fails during the first second. Host 0's retry chain
  // (+0.5 s fails, +1.5 s lands) must survive host 1's switcher being
  // superseded in between.
  cluster::Cluster cl(tiny_with_faults("switchfail:p=1,until=1"));
  auto host0 = PairSwitcher::create(cl, 0);
  auto host1 = PairSwitcher::create(cl, 1);
  const SchedulerPair dd{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  host0->request(0, dd);
  host1->supersede();
  cl.simr().run();
  EXPECT_EQ(host0->failures(), 2);
  EXPECT_EQ(host0->switches(), 1);
  EXPECT_EQ(cl.host(0).pair(), dd);
  EXPECT_EQ(cl.host(1).pair(), iosched::kDefaultPair);
  EXPECT_EQ(cl.host(1).dom0_layer().counters().scheduler_switches, 0u);
}

TEST(FineGrained, DelayedSwitchLandsLateByTheDelay) {
  trace::TraceSession session;
  cluster::Cluster cl(tiny_with_faults("switchdelay:delay=2"));
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = attach(cl, job, eager());
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());

  // Per host: when the controller traced each switch (its core-track
  // `fg switch` instant) and when the host's elevators actually changed;
  // and when the samples that issue commands ran.
  trace::Tracer& tr = session.tracer();
  std::map<std::int64_t, std::vector<std::int64_t>> traced;
  std::map<std::int64_t, std::vector<std::int64_t>> landed;
  std::set<std::int64_t> samples;
  std::map<std::uint32_t, std::int64_t> host_of_track;
  for (std::int64_t h = 0; h < static_cast<std::int64_t>(cl.n_hosts()); ++h) {
    host_of_track[tr.track("host" + std::to_string(h))] = h;
  }
  tr.for_each([&](const trace::Event& ev) {
    if (ev.name == tr.ids.fg_switch) traced[ev.arg[0]].push_back(ev.ts_ns);
    if (ev.name == tr.ids.fg_sample) samples.insert(ev.ts_ns);
    if (ev.name == tr.ids.pair_switch && ev.cat == tr.ids.cat_virt) {
      landed[host_of_track.at(ev.track)].push_back(ev.ts_ns);
    }
  });
  ASSERT_FALSE(traced.empty());
  int switches = 0;
  for (const auto& [host, times] : landed) {
    // The controller counts and traces a switch when it lands, which is
    // the delay after the sample that issued the command.
    EXPECT_EQ(traced[host], times) << host;
    for (const std::int64_t t : times) {
      EXPECT_TRUE(samples.count(t - sim::Time::from_sec(2).ns())) << host << " " << t;
    }
    switches += static_cast<int>(times.size());
  }
  EXPECT_EQ(ctl->switches(), switches);
}

TEST(FineGrained, DecisionForTheBootPairCancelsADelayedSwitch) {
  // A command to dd is in flight when the next decision picks the boot
  // pair back: the stale command must never land.
  cluster::Cluster cl(tiny_with_faults("switchdelay:delay=2"));
  auto sw = PairSwitcher::create(cl);
  int landed = 0;
  sw->on_switched = [&landed](int, SchedulerPair) { ++landed; };
  const SchedulerPair dd{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  sw->request(0, dd);
  EXPECT_EQ(sw->heading(), dd);
  EXPECT_EQ(sw->switches(), 0);  // accepted, not landed
  cl.simr().after(sim::Time::from_sec(1),
                  [&sw] { sw->decide(1, iosched::kDefaultPair); });
  cl.simr().run();
  EXPECT_EQ(cl.pair(), iosched::kDefaultPair);
  EXPECT_EQ(sw->heading(), iosched::kDefaultPair);
  EXPECT_EQ(sw->switches(), 0);
  EXPECT_EQ(landed, 0);
  for (std::size_t h = 0; h < cl.n_hosts(); ++h) {
    EXPECT_EQ(cl.host(h).dom0_layer().counters().scheduler_switches, 0u) << h;
  }
}

TEST(FineGrained, DecisionForTheInFlightTargetKeepsItsLanding) {
  // Deciding again for the pair already in flight neither re-issues the
  // command nor restarts its delay.
  cluster::Cluster cl(tiny_with_faults("switchdelay:delay=2"));
  auto sw = PairSwitcher::create(cl);
  std::vector<std::int64_t> landed_at;
  sw->on_switched = [&cl, &landed_at](int, SchedulerPair) {
    landed_at.push_back(cl.simr().now().ns());
  };
  const SchedulerPair dd{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  sw->decide(0, dd);
  cl.simr().after(sim::Time::from_sec(1), [&sw, dd] { sw->decide(1, dd); });
  cl.simr().run();
  EXPECT_EQ(cl.pair(), dd);
  EXPECT_EQ(landed_at, std::vector<std::int64_t>{sim::Time::from_sec(2).ns()});
  EXPECT_EQ(cl.faults()->counters().switches_delayed, 1u);
}

}  // namespace
}  // namespace iosim::core
