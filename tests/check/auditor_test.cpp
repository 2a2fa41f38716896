// iosim: mutation tests proving the invariant auditor is not vacuous.
//
// Every test here is a deliberately broken execution — a test double that
// drops a bio completion, reorders stage stamps, leaks an event slot, and
// so on — and asserts that the auditor flags exactly the corresponding
// invariant. Deleting an invariant check from check.cpp makes its test
// fail, which is the whole point: the correctness net must itself be
// testable. Clean-path tests at the top pin the converse (a healthy run
// reports nothing).
#include "check/check.hpp"

#include <gtest/gtest.h>

#include "blk/block_layer.hpp"
#include "blk/request_sink.hpp"
#include "cluster/runner.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/simulator.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::check {
namespace {

using namespace iosim::sim::literals;
using sim::Time;

// ---- clean paths -----------------------------------------------------------

TEST(Auditor, CleanClusterRunReportsNothing) {
  // Whole-stack smoke: a real job through virt + blk + mapred + hdfs with
  // every hook armed must produce zero violations.
  const auto spec = exp::ScenarioSpec::parse(
      "name=clean\nmode=run\nbase_seed=7\nrepeats=1\npair=cc\n"
      "workload=sort\nhosts=1\nvms=2\nmb=16\nfault=none\n");
  ASSERT_TRUE(spec.has_value());
  const auto pts = spec->expand();
  ASSERT_EQ(pts.size(), 1u);

  AuditorSession cs(Auditor::Mode::kRecord);
  const exp::RunOutput out = exp::execute_point(pts[0], 42);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(cs.auditor().ok()) << cs.auditor().report().to_string();
}

TEST(Auditor, CleanFaultyRunReportsNothing) {
  // Injected faults (retries, failover) are legitimate simulated outcomes,
  // not invariant violations.
  const auto spec = exp::ScenarioSpec::parse(
      "name=faulty\nmode=run\nbase_seed=3\nrepeats=1\npair=nd\n"
      "workload=sort\nhosts=1\nvms=2\nmb=16\n"
      "fault=transient:host=-1,p=0.01;lse:host=0,lba=0-512\n");
  ASSERT_TRUE(spec.has_value());
  AuditorSession cs(Auditor::Mode::kRecord);
  (void)exp::execute_point(spec->expand()[0], 9);
  EXPECT_TRUE(cs.auditor().ok()) << cs.auditor().report().to_string();
}

/// The pinned three-job chain of trace_digest_test.
cluster::RunResult run_pinned_chain() {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  cfg.seed = 7;
  return cluster::run_job_chain(
      cfg, {workloads::make_job(workloads::wordcount(), 16 * mapred::kMiB),
            workloads::make_job(workloads::stream_sort(), 16 * mapred::kMiB),
            workloads::make_job(workloads::wordcount_no_combiner(), 16 * mapred::kMiB)});
}

TEST(Auditor, CleanChainRunReportsNothing) {
  // Back-to-back jobs on one cluster, with the runner's own end-of-run
  // checks after the last.
  AuditorSession cs(Auditor::Mode::kRecord);
  const cluster::RunResult r = run_pinned_chain();
  ASSERT_FALSE(r.failed) << r.failure;
  EXPECT_EQ(r.jobs.size(), 3u);
  EXPECT_TRUE(cs.auditor().ok()) << cs.auditor().report().to_string();
}

TEST(Auditor, ChainRunnerRunsEndOfRunChecks) {
  // The converse, so the clean chain above is not vacuous: a ring segment
  // planted before the chain never completes, and only the end-of-run
  // check after the chain's drain can see that.
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_ring_submit(&a, 999, /*before=*/0, /*n_segs=*/1, /*slots=*/32, 0);
  ASSERT_TRUE(a.ok());
  const cluster::RunResult r = run_pinned_chain();
  ASSERT_FALSE(r.failed) << r.failure;
  EXPECT_EQ(a.count(Invariant::kRingBounds), 1u) << a.report().to_string();
  EXPECT_EQ(a.violations_total(), 1u) << a.report().to_string();
}

TEST(Auditor, HealthySimulatorPassesAudit) {
  sim::Simulator s;
  int fired = 0;
  for (int i = 0; i < 100; ++i) s.after(Time::from_us(i), [&] { ++fired; });
  // Cancel a few to exercise the free list, then drain.
  auto id = s.after(1_ms, [&] { ++fired; });
  s.cancel(id);
  s.run();
  std::string why;
  EXPECT_TRUE(s.audit(&why)) << why;

  AuditorSession cs(Auditor::Mode::kRecord);
  verify_simulator(cs.auditor(), s, /*drained=*/true);
  EXPECT_TRUE(cs.auditor().ok()) << cs.auditor().report().to_string();
}

TEST(Auditor, UnstampedMidPathStagesAreLegal) {
  // A Dom0-only request never gets the guest-side stamps; gaps are fine as
  // long as the stamped stages stay ordered and the endpoints exist.
  AuditorSession cs(Auditor::Mode::kRecord);
  const std::int64_t stamp[6] = {100, -1, 250, -1, -1, 900};
  cs.auditor().on_stamps(0, 0, stamp, 6, 900);
  EXPECT_TRUE(cs.auditor().ok());
}

// ---- mutation: dropped bio completion --------------------------------------

/// A sink that swallows every `drop_every`-th request: it never completes,
/// so the layer's conservation ledger cannot balance at drain.
class DroppingSink : public blk::RequestSink {
 public:
  DroppingSink(sim::Simulator& simr, int drop_every)
      : simr_(simr), drop_every_(drop_every) {}

  bool can_accept() const override { return true; }
  void submit(blk::Request* rq, Time /*now*/) override {
    ++seen_;
    if (drop_every_ > 0 && seen_ % drop_every_ == 0) return;  // lost forever
    simr_.after(Time::from_us(50), [this, rq] {
      rq->status = iosched::IoStatus::kOk;
      complete(rq, simr_.now());
    });
  }

 private:
  sim::Simulator& simr_;
  int drop_every_;
  int seen_ = 0;
};

TEST(Auditor, DroppedCompletionTriggersBioConservation) {
  sim::Simulator simr;
  DroppingSink sink(simr, /*drop_every=*/3);
  blk::BlockLayerConfig cfg;
  cfg.scheduler = iosched::SchedulerKind::kNoop;
  cfg.name = "test/dropper";
  blk::BlockLayer layer(simr, sink, cfg);

  AuditorSession cs(Auditor::Mode::kRecord);
  for (int i = 0; i < 6; ++i) {
    blk::Bio b;
    b.lba = i * 100'000;  // far apart: no merging, six distinct requests
    b.sectors = 8;
    b.dir = i % 2 ? iosched::Dir::kRead : iosched::Dir::kWrite;
    b.sync = true;
    layer.submit(std::move(b));
  }
  simr.run();

  EXPECT_TRUE(cs.auditor().ok());  // nothing wrong until the drain check
  cs.auditor().verify_end_of_run(simr.now().ns());
  EXPECT_GT(cs.auditor().count(Invariant::kBioConservation), 0u)
      << cs.auditor().report().to_string();
}

// ---- mutation: reordered stage stamps --------------------------------------

TEST(Auditor, ReorderedStampsTriggerMonotonicity) {
  AuditorSession cs(Auditor::Mode::kRecord);
  // Guest dispatch stamped *after* ring arrival in time order, but swapped:
  // stage 2 carries an earlier time than stage 1.
  const std::int64_t stamp[6] = {100, 400, 300, 500, 600, 900};
  cs.auditor().on_stamps(0, 1, stamp, 6, 900);
  EXPECT_EQ(cs.auditor().count(Invariant::kStampMonotonicity), 1u);
}

TEST(Auditor, MissingEndpointStampsAreViolations) {
  AuditorSession cs(Auditor::Mode::kRecord);
  const std::int64_t no_submit[6] = {-1, 200, 300, 400, 500, 900};
  const std::int64_t no_complete[6] = {100, 200, 300, 400, 500, -1};
  cs.auditor().on_stamps(0, 0, no_submit, 6, 900);
  cs.auditor().on_stamps(0, 0, no_complete, 6, 900);
  EXPECT_EQ(cs.auditor().count(Invariant::kStampMonotonicity), 2u);
}

// ---- mutation: leaked event slot -------------------------------------------

TEST(Auditor, PendingEventAfterDrainTriggersArenaLeak) {
  sim::Simulator s;
  s.after(10_ms, [] {});  // never run: still pending when we call it drained
  AuditorSession cs(Auditor::Mode::kRecord);
  verify_simulator(cs.auditor(), s, /*drained=*/true);
  EXPECT_GT(cs.auditor().count(Invariant::kEventArenaLeak), 0u)
      << cs.auditor().report().to_string();
}

// ---- mutation: double dispatch / double completion -------------------------

TEST(Auditor, DoubleDispatchDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  const void* layer = &a;
  a.on_request_dispatched(layer, "l", 7, 100);
  a.on_request_dispatched(layer, "l", 7, 200);  // still in flight
  EXPECT_EQ(a.count(Invariant::kDoubleDispatch), 1u);
}

TEST(Auditor, DoubleCompletionDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  const void* layer = &a;
  a.on_bio_submitted(layer, "l", /*ctx=*/0, 0);
  a.on_request_dispatched(layer, "l", 7, 100);
  a.on_request_completed(layer, "l", 7, 1, true, 200);
  a.on_request_completed(layer, "l", 7, 1, true, 300);  // completed twice
  EXPECT_EQ(a.count(Invariant::kDoubleCompletion), 1u);
  // The duplicate must not double-count bios: conservation still balances.
  a.verify_end_of_run(400);
  EXPECT_EQ(a.count(Invariant::kBioConservation), 0u);
}

// ---- mutation: elevator accounting -----------------------------------------

TEST(Auditor, ElevatorAccountingImbalanceDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_queue_accounting(&a, "l", 2, 1, 4, 100);  // 2 + 1 != 4
  EXPECT_EQ(a.count(Invariant::kElevatorAccounting), 1u);
  a.on_queue_accounting(&a, "l", 2, 2, 4, 200);  // balanced: no new violation
  EXPECT_EQ(a.count(Invariant::kElevatorAccounting), 1u);
}

// ---- mutation: ring bounds -------------------------------------------------

TEST(Auditor, RingOverfillDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_ring_submit(&a, 1, /*before=*/32, /*n_segs=*/1, /*slots=*/32, 100);
  EXPECT_GT(a.count(Invariant::kRingBounds), 0u);
}

TEST(Auditor, RingNegativeOutstandingDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_ring_complete(&a, /*after=*/-1, 100);
  EXPECT_GT(a.count(Invariant::kRingBounds), 0u);
}

TEST(Auditor, RingNotDrainedDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_ring_submit(&a, 2, /*before=*/0, /*n_segs=*/3, /*slots=*/32, 100);
  EXPECT_TRUE(a.ok());
  a.verify_end_of_run(200);  // 3 segments never completed
  EXPECT_EQ(a.count(Invariant::kRingBounds), 1u);
}

// ---- mutation: task state machine ------------------------------------------

TEST(Auditor, AttemptBeyondBudgetDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(/*job_id=*/0, /*n_maps=*/2, /*n_reduces=*/1, /*max_attempts=*/3);
  a.on_map_attempt_start(0, 0, /*attempt=*/4, /*vm=*/0, /*running_after=*/1, false,
                         100);
  EXPECT_EQ(a.count(Invariant::kTaskStateMachine), 1u);
}

TEST(Auditor, TooManyRunningCopiesDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 2, 1, 3);
  a.on_map_attempt_start(0, 0, 1, /*vm=*/0, /*running_after=*/3, true, 100);
  EXPECT_EQ(a.count(Invariant::kTaskStateMachine), 1u);
}

TEST(Auditor, DoubleCommitDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 2, 1, 3);
  a.on_map_commit(0, 0, 100);
  a.on_map_commit(0, 0, 200);  // photo-finish guard failed
  EXPECT_EQ(a.count(Invariant::kTaskStateMachine), 1u);
}

TEST(Auditor, AttemptAfterCommitDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 2, 1, 3);
  a.on_map_commit(0, 1, 100);
  a.on_map_attempt_start(0, 1, 2, /*vm=*/0, 1, false, 200);
  EXPECT_EQ(a.count(Invariant::kTaskStateMachine), 1u);
}

TEST(Auditor, JobDoneWithMissingCommitsDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 2, 1, 3);
  a.on_map_commit(0, 0, 100);  // map 1 never commits
  a.on_reduce_commit(0, 0, 200);
  a.on_job_done(0, /*maps_done=*/2, /*reduces_done=*/1, 300);
  EXPECT_GT(a.count(Invariant::kTaskStateMachine), 0u);
}

// ---- mutation: block refcounts ---------------------------------------------

TEST(Auditor, CollocatedReplicasDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 1, 1, 3);
  a.on_block_created(0, 2, /*vm0=*/1, /*vm1=*/1, /*n_vms=*/4, 0);
  EXPECT_EQ(a.count(Invariant::kBlockRefcount), 1u);
}

TEST(Auditor, FailoverToNonReplicaDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 1, 1, 3);
  a.on_block_created(0, 2, 0, 1, 4, 0);
  a.on_hdfs_failover(0, 0, /*from_vm=*/0, /*to_vm=*/3, 100);  // vm3 holds nothing
  EXPECT_EQ(a.count(Invariant::kBlockRefcount), 1u);
}

TEST(Auditor, FailoverToSelfDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_job_start(0, 1, 1, 3);
  a.on_block_created(0, 2, 0, 1, 4, 0);
  a.on_hdfs_failover(0, 0, /*from_vm=*/1, /*to_vm=*/1, 100);
  EXPECT_EQ(a.count(Invariant::kBlockRefcount), 1u);
}

// ---- mutation: slot conservation -------------------------------------------

TEST(Auditor, SlotOverCapacityDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_slot_acquire(/*job_id=*/1, /*vm=*/0, /*reduce=*/false,
                    /*in_use_after=*/3, /*capacity=*/2, 100);
  EXPECT_EQ(a.count(Invariant::kSlotConservation), 1u);
}

TEST(Auditor, SlotReleaseWithNoneInUseDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_slot_acquire(1, 0, false, 1, 2, 100);
  a.on_slot_release(1, 0, false, /*in_use_before=*/0, 200);
  EXPECT_EQ(a.count(Invariant::kSlotConservation), 1u);
}

TEST(Auditor, ReleaseOfNeverHeldSlotDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  // Job 2 releases a reduce slot that job 1 acquired.
  a.on_slot_acquire(1, 0, true, 1, 2, 100);
  a.on_slot_release(2, 0, true, 1, 200);
  EXPECT_EQ(a.count(Invariant::kSlotConservation), 1u);
}

TEST(Auditor, RetireWhileHoldingSlotsDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_stream_job_admit(1, 2'000'000, 3'000'000, 0);
  a.on_slot_acquire(1, 0, false, 1, 2, 100);
  a.on_stream_job_retire(1, 200);
  EXPECT_EQ(a.count(Invariant::kSlotConservation), 1u);
}

TEST(Auditor, DrainWhileHoldingSlotsDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_slot_acquire(1, 0, false, 1, 2, 100);
  EXPECT_TRUE(a.ok());
  a.verify_end_of_run(200);
  EXPECT_EQ(a.count(Invariant::kSlotConservation), 1u);
}

TEST(Auditor, BalancedSlotLifecycleIsClean) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_stream_job_admit(1, 2'000'000, 3'000'000, 0);
  a.on_slot_acquire(1, 0, false, 1, 2, 100);
  a.on_slot_acquire(1, 1, true, 1, 1, 110);
  a.on_slot_release(1, 0, false, 1, 200);
  a.on_slot_release(1, 1, true, 1, 210);
  a.on_stream_job_retire(1, 300);
  a.verify_end_of_run(400);
  EXPECT_TRUE(a.ok()) << a.report().to_string();
}

// ---- mutation: cross-job attribution ---------------------------------------

TEST(Auditor, BioOutsideAnyJobWindowDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_stream_job_admit(1, 2'000'000, 3'000'000, 0);
  a.on_bio_submitted(&a, "l", /*ctx=*/2'010'000, 100);  // inside: fine
  a.on_bio_submitted(&a, "l", /*ctx=*/3'010'000, 200);  // no job owns this
  EXPECT_EQ(a.count(Invariant::kJobAttribution), 1u);
}

TEST(Auditor, BioFromRetiredJobDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_stream_job_admit(1, 2'000'000, 3'000'000, 0);
  a.on_stream_job_retire(1, 100);
  a.on_bio_submitted(&a, "l", /*ctx=*/2'010'000, 200);  // job already gone
  EXPECT_EQ(a.count(Invariant::kJobAttribution), 1u);
}

TEST(Auditor, SharedServerCtxIsNeverJobAttributed) {
  // Server-side DataNode I/O (ctx below the job-window base) is shared
  // infrastructure; the attribution guard must ignore it even when armed.
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_stream_job_admit(1, 2'000'000, 3'000'000, 0);
  a.on_bio_submitted(&a, "l", /*ctx=*/30'001, 100);
  EXPECT_TRUE(a.ok()) << a.report().to_string();
}

TEST(Auditor, OverlappingJobWindowsDetected) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  a.on_stream_job_admit(1, 2'000'000, 3'000'000, 0);
  a.on_stream_job_admit(2, 2'500'000, 3'500'000, 100);
  EXPECT_EQ(a.count(Invariant::kJobAttribution), 1u);
}

// ---- report formatting -----------------------------------------------------

TEST(CheckReport, ToStringListsCountsAndFirstOccurrences) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  EXPECT_EQ(a.report().to_string(), "");
  a.violation(Invariant::kRingBounds, "ring/vm1", 1'500'000'000,
              "outstanding went negative");
  const std::string s = a.report().to_string();
  EXPECT_NE(s.find("invariant violations: 1"), std::string::npos) << s;
  EXPECT_NE(s.find("ring-bounds: 1"), std::string::npos) << s;
  EXPECT_NE(s.find("t=1.500000s"), std::string::npos) << s;
  EXPECT_NE(s.find("outstanding went negative"), std::string::npos) << s;
}

TEST(CheckReport, LoggingCapKeepsCountsExact) {
  AuditorSession cs(Auditor::Mode::kRecord);
  Auditor& a = cs.auditor();
  for (int i = 0; i < 100; ++i) {
    a.violation(Invariant::kElevatorAccounting, "l", i, "imbalance");
  }
  EXPECT_EQ(a.violations_total(), 100u);
  EXPECT_EQ(a.report().first.size(), CheckReport::kMaxLogged);
  EXPECT_NE(a.report().to_string().find("36 more not logged"), std::string::npos);
}

// ---- abort mode ------------------------------------------------------------

TEST(AuditorDeathTest, AbortModeDiesOnFirstViolation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Auditor a(Auditor::Mode::kAbort);
        a.violation(Invariant::kDoubleCompletion, "l", 0, "boom");
      },
      "invariant violated");
}

}  // namespace
}  // namespace iosim::check
