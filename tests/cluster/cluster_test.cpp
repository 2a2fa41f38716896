#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "cluster/runner.hpp"
#include "sim/random.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::cluster {
namespace {

using iosched::SchedulerKind;
using iosched::SchedulerPair;

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

TEST(Cluster, BuildsRequestedTopology) {
  Cluster cl(tiny());
  EXPECT_EQ(cl.n_hosts(), 2u);
  EXPECT_EQ(cl.n_vms(), 4);
  EXPECT_EQ(cl.env().vms.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto& vm = cl.env().vms[static_cast<std::size_t>(i)];
    EXPECT_EQ(vm.global_id, i);
    EXPECT_EQ(vm.host, i / 2);
    ASSERT_NE(vm.vm, nullptr);
    ASSERT_NE(vm.cpu, nullptr);
  }
  ASSERT_NE(cl.env().net, nullptr);
  ASSERT_NE(cl.env().dfs, nullptr);
}

TEST(Cluster, BootsWithConfiguredPair) {
  ClusterConfig cfg = tiny();
  cfg.pair = {SchedulerKind::kAnticipatory, SchedulerKind::kDeadline};
  Cluster cl(cfg);
  EXPECT_EQ(cl.pair(), cfg.pair);
  EXPECT_EQ(cl.host(0).dom0_layer().scheduler_kind(), SchedulerKind::kAnticipatory);
  EXPECT_EQ(cl.host(1).vm(1).scheduler(), SchedulerKind::kDeadline);
  // Boot-time install is construction, not a runtime switch.
  EXPECT_EQ(cl.host(0).dom0_layer().counters().scheduler_switches, 0u);
}

TEST(Cluster, HostScopedSwitchReachesOnlyThatHost) {
  Cluster cl(tiny());
  const SchedulerPair p{SchedulerKind::kNoop, SchedulerKind::kAnticipatory};
  cl.switch_pair(p, 1);
  cl.simr().run();  // drain freeze timers
  EXPECT_EQ(cl.host(1).pair(), p);
  EXPECT_EQ(cl.host(0).pair(), iosched::kDefaultPair);
  EXPECT_EQ(cl.host(0).dom0_layer().counters().scheduler_switches, 0u);
  EXPECT_EQ(cl.pair(), iosched::kDefaultPair);  // host 0's pair
}

TEST(Cluster, SwitchPairReachesEveryHostAndGuest) {
  Cluster cl(tiny());
  const SchedulerPair p{SchedulerKind::kNoop, SchedulerKind::kAnticipatory};
  cl.switch_pair(p);
  cl.simr().run();  // drain freeze timers
  for (std::size_t h = 0; h < cl.n_hosts(); ++h) {
    EXPECT_EQ(cl.host(h).dom0_layer().scheduler_kind(), p.vmm);
    for (std::size_t v = 0; v < cl.host(h).vm_count(); ++v) {
      EXPECT_EQ(cl.host(h).vm(v).scheduler(), p.guest);
    }
  }
}

TEST(Runner, RunJobProducesConsistentResult) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  const RunResult r = run_job(tiny(), jc);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_NEAR(r.seconds, r.ph1_seconds + r.ph2_seconds + r.ph3_seconds, 1e-6);
  EXPECT_NEAR(r.ph23_seconds, r.ph2_seconds + r.ph3_seconds, 1e-6);
  EXPECT_EQ(r.stats.maps_total, jc.n_maps(4));
}

TEST(Runner, DeterministicForFixedSeed) {
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  const RunResult a = run_job(tiny(), jc);
  const RunResult b = run_job(tiny(), jc);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(Runner, SeedChangesResult) {
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  ClusterConfig c1 = tiny(), c2 = tiny();
  c2.seed = 999;
  EXPECT_NE(run_job(c1, jc).seconds, run_job(c2, jc).seconds);
}

TEST(Runner, AvgOfOneEqualsSingleRun) {
  // Repeat i of run_job_avg uses derive_run_seed(base, i) — including i=0,
  // so a 1-seed average equals a single run at the derived seed.
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  ClusterConfig derived = tiny();
  derived.seed = sim::derive_run_seed(tiny().seed, 0);
  EXPECT_DOUBLE_EQ(run_job_avg(tiny(), jc, 1).seconds, run_job(derived, jc).seconds);
}

TEST(Runner, AvgIsWithinSeedEnvelope) {
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  double lo = 1e30, hi = 0;
  for (int i = 0; i < 3; ++i) {
    ClusterConfig c = tiny();
    c.seed = sim::derive_run_seed(tiny().seed, static_cast<std::uint64_t>(i));
    const double s = run_job(c, jc).seconds;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  const double avg = run_job_avg(tiny(), jc, 3).seconds;
  EXPECT_GE(avg, lo - 1e-9);
  EXPECT_LE(avg, hi + 1e-9);
}

TEST(Runner, SetupHookRuns) {
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  bool hook_ran = false;
  (void)run_job(tiny(), jc, [&](Cluster& cl, mapred::Job& job) {
    hook_ran = true;
    EXPECT_EQ(cl.n_vms(), 4);
    EXPECT_FALSE(job.done());
  });
  EXPECT_TRUE(hook_ran);
}

TEST(Runner, PairAffectsRuntime) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  ClusterConfig good = tiny();
  ClusterConfig bad = tiny();
  bad.pair = {SchedulerKind::kNoop, SchedulerKind::kNoop};
  // Noop at the VMM with multiple VMs must be clearly slower (the paper's
  // headline observation).
  EXPECT_GT(run_job(bad, jc).seconds, run_job(good, jc).seconds * 1.1);
}

}  // namespace
}  // namespace iosim::cluster
