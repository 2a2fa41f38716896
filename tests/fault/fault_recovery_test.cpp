// End-to-end failure-recovery tests: a MapReduce job running on a faulted
// cluster must either complete with the exact fault-free output (retry,
// HDFS failover, speculation) or abort cleanly with a diagnostic when the
// data is genuinely gone. Also the determinism guard: the same seed and the
// same fault plan reproduce a byte-identical trace.
//
// The cluster seed honours IOSIM_FAULT_SEED (used by the CI fault-stress
// job to randomize while logging the seed); tests that assert specific
// fault counts use a fixed seed so they stay reproducible.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "cluster/runner.hpp"
#include "core/meta_scheduler.hpp"
#include "core/pair_controller.hpp"
#include "fault/fault_plan.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim {
namespace {

using cluster::ClusterConfig;
using cluster::RunResult;
using iosched::SchedulerKind;

std::uint64_t fault_seed() {
  if (const char* s = std::getenv("IOSIM_FAULT_SEED")) {
    const auto v = std::strtoull(s, nullptr, 10);
    std::fprintf(stderr, "IOSIM_FAULT_SEED=%llu\n", static_cast<unsigned long long>(v));
    return v;
  }
  return 1;
}

ClusterConfig faulted(const char* plan_text) {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  std::string err;
  auto plan = fault::FaultPlan::parse(plan_text, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  cfg.faults = plan.value_or(fault::FaultPlan{});
  return cfg;
}

mapred::JobConf sort_job() {
  return workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
}

// The PR's acceptance scenario: a sort job under a transient-error burst,
// one fail-slow disk, and an always-failing elevator switch completes
// correctly — same logical output as the fault-free run — via retry and
// replica failover, while the failed switch leaves the boot pair installed.
TEST(FaultRecovery, SortSurvivesBurstFailSlowAndFailedSwitch) {
  const auto jc = sort_job();
  const RunResult clean = cluster::run_job(faulted(""), jc);
  ASSERT_FALSE(clean.failed);

  const ClusterConfig cfg = faulted(
      "transient:host=0,p=0.02,from=1,until=20;"
      "failslow:host=1,factor=3,from=5,until=40;"
      "switchfail:p=1");
  std::shared_ptr<core::PairController> ctl;
  core::PairSchedule sched;
  sched.phases = {cfg.pair, iosched::SchedulerPair{SchedulerKind::kDeadline,
                                                   SchedulerKind::kDeadline}};
  const RunResult r =
      cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
        ctl = core::PairController::replay(cl, sched);
        ctl->attach_job(job, core::PhasePlan{true});
      });

  ASSERT_FALSE(r.failed) << r.failure;
  // Correctness: the faulted run produced the same logical work.
  EXPECT_EQ(r.stats.maps_total, clean.stats.maps_total);
  EXPECT_EQ(r.stats.reduces_total, clean.stats.reduces_total);
  EXPECT_EQ(r.stats.output_bytes, clean.stats.output_bytes);
  EXPECT_EQ(r.stats.shuffle_bytes, clean.stats.shuffle_bytes);
  // The recovery machinery actually fired.
  EXPECT_GT(r.stats.map_attempts_failed + r.stats.hdfs_failovers, 0);
  // Every switch command was rejected: old pair stays, retries were bounded.
  EXPECT_EQ(ctl->switches(), 0);
  EXPECT_GE(ctl->switch_failures(), 1);
  // Faults cost time, never save it.
  EXPECT_GE(r.seconds, clean.seconds - 1e-9);
}

TEST(FaultRecovery, VmOutageMidJobRecovers) {
  const auto jc = sort_job();
  const RunResult clean = cluster::run_job(faulted(""), jc);
  // VM 3 dies early in the map phase and comes back a minute later (i.e.
  // for most jobs: never). Its tasks must be re-placed on survivors.
  const RunResult r =
      cluster::run_job(faulted("vmdown:vm=3,from=3,until=120"), jc);
  ASSERT_FALSE(r.failed) << r.failure;
  EXPECT_EQ(r.stats.output_bytes, clean.stats.output_bytes);
  EXPECT_EQ(r.stats.maps_total, clean.stats.maps_total);
  EXPECT_GE(r.seconds, clean.seconds - 1e-9);
}

TEST(FaultRecovery, AllReplicasDeadAbortsWithDiagnostic) {
  // 2 hosts x 2 VMs, replication 2 on distinct hosts: killing VM 0 and both
  // VMs of host 1 leaves some block with every replica on a dead VM. The
  // job must abort cleanly (no hang, no partial success) and say why.
  const RunResult r = cluster::run_job(
      faulted("vmdown:vm=0,from=0.5;vmdown:vm=2,from=0.5;vmdown:vm=3,from=0.5"),
      sort_job());
  ASSERT_TRUE(r.failed);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_TRUE(r.stats.failed);
  EXPECT_GT(r.seconds, 0.0);  // aborted at a definite sim time
}

TEST(FaultRecovery, AllReplicasDeadAbortsAChain) {
  // The same plan under a two-job chain: job 0 aborts, job 1 never runs,
  // and the chain reports the abort instead of a short makespan that
  // Algorithm 1 would rank as the fastest schedule.
  const char* plan = "vmdown:vm=0,from=0.5;vmdown:vm=2,from=0.5;vmdown:vm=3,from=0.5";
  const std::vector<mapred::JobConf> confs = {sort_job(), sort_job()};
  const RunResult r = cluster::run_job_chain(faulted(plan), confs);
  ASSERT_TRUE(r.failed);
  EXPECT_FALSE(r.failure.empty());
  ASSERT_EQ(r.jobs.size(), 1u);  // stops at the aborted job
  EXPECT_TRUE(r.jobs.back().failed);
  EXPECT_TRUE(r.stats.failed);

  const core::Experiment e = core::make_chain_experiment(faulted(plan), confs);
  const RunResult x =
      e.execute(core::PairSchedule::single(iosched::kDefaultPair, e.phases));
  EXPECT_TRUE(x.failed);
  EXPECT_FALSE(x.failure.empty());
}

TEST(FaultRecovery, ExhaustedAttemptBudgetAborts) {
  // A latent-sector range pinned on every host makes some I/O fail no
  // matter where the task retries: the attempt budget runs out and the job
  // aborts rather than retrying forever.
  const RunResult r = cluster::run_job(
      faulted("transient:host=-1,p=0.9"), sort_job());
  ASSERT_TRUE(r.failed);
  EXPECT_FALSE(r.failure.empty());
}

TEST(FaultRecovery, SpeculationBeatsFailSlowDisk) {
  auto jc = sort_job();
  const ClusterConfig cfg = faulted("failslow:host=1,factor=8,from=0");
  const RunResult slow = cluster::run_job(cfg, jc);
  ASSERT_FALSE(slow.failed);

  jc.speculative_execution = true;
  const RunResult spec = cluster::run_job(cfg, jc);
  ASSERT_FALSE(spec.failed) << spec.failure;
  EXPECT_GT(spec.stats.maps_speculated, 0);
  EXPECT_EQ(spec.stats.output_bytes, slow.stats.output_bytes);
  // Winner-takes-first speculation must help against a straggling disk.
  EXPECT_LT(spec.seconds, slow.seconds);
}

// Satellite: determinism guard. Same seed + same fault plan => the flight
// recorder captures a byte-identical event stream (JSON and CSV exports).
TEST(FaultDeterminism, SameSeedSamePlanByteIdenticalTrace) {
  const auto jc = sort_job();
  auto trace_of = [&](std::uint64_t seed) {
    ClusterConfig cfg = faulted(
        "transient:host=0,p=0.02,from=1,until=20;"
        "failslow:host=1,factor=3,from=5,until=40;"
        "vmdown:vm=1,from=8,until=25;"
        "switchfail:p=0.5");
    cfg.seed = seed;
    trace::TraceSession session;
    const RunResult r = cluster::run_job(cfg, jc);
    (void)r;  // completion or abort both fine — the trace must replay either
    return std::pair<std::string, std::string>{session.tracer().to_json(),
                                               session.tracer().to_csv()};
  };
  const auto seed = fault_seed();
  const auto a = trace_of(seed);
  const auto b = trace_of(seed);
  EXPECT_EQ(a.first, b.first);    // byte-identical JSON
  EXPECT_EQ(a.second, b.second);  // byte-identical CSV
  const auto c = trace_of(seed + 17);
  EXPECT_NE(a.second, c.second);  // and the seed does matter
}

TEST(FaultDeterminism, FaultFreePlanMatchesNoPlanRun) {
  // An empty plan must not construct an injector, consume randomness, or
  // perturb event order: the run is bit-identical to a plain one.
  const auto jc = sort_job();
  auto trace_of = [&](bool with_empty_plan) {
    ClusterConfig cfg;
    cfg.n_hosts = 2;
    cfg.vms_per_host = 2;
    if (with_empty_plan) cfg.faults = fault::FaultPlan{};
    trace::TraceSession session;
    cluster::run_job(cfg, jc);
    return session.tracer().to_csv();
  };
  EXPECT_EQ(trace_of(true), trace_of(false));
}

TEST(FaultRecovery, FaultEventsAppearInTraceExports) {
  const auto jc = sort_job();
  ClusterConfig cfg = faulted(
      "transient:host=0,p=0.02,from=1,until=20;vmdown:vm=3,from=2,until=50");
  trace::TraceSession session;
  // Completion or abort are both acceptable here — the assertion is that
  // the fault/recovery markers survive into both exporters either way.
  const RunResult r = cluster::run_job(cfg, jc);
  (void)r;
  const std::string json = session.tracer().to_json();
  const std::string csv = session.tracer().to_csv();
  for (const char* name : {"fault on", "io error", "vm down", "vm up"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
    EXPECT_NE(csv.find(name), std::string::npos) << name;
  }
  // Retry markers ride on the mapred track.
  EXPECT_NE(csv.find("task fail"), std::string::npos);
}

}  // namespace
}  // namespace iosim
