// Byte-identity guard for the pair-switching controller paths: replaying an
// Algorithm 1 schedule on one job, the offline and UCB policies on a small
// open-arrival stream, a schedule replayed across a job chain, and per-host
// regime switching. The constants were captured before the per-job,
// per-stream, per-chain and per-host drivers were folded into one
// controller; the fold must reproduce every switch at the same simulated
// instant.
//
// The chain case pins simulated results (makespan and each job's
// completion time), not the trace: the chain driver those constants came
// from switched without emitting controller instants, so only where and
// when the switches land is comparable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/meta_scheduler.hpp"
#include "core/online_scheduler.hpp"
#include "core/pair_controller.hpp"
#include "exp/artifact.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {
namespace {

using iosched::SchedulerKind;
using iosched::SchedulerPair;

inline constexpr std::uint64_t kSingleJobReplayDigest = 0xc75dbe33a5436af0ULL;
inline constexpr std::uint64_t kStreamOfflineDigest = 0x2083051abcd9a7a9ULL;
inline constexpr std::uint64_t kStreamUcbDigest = 0xba384ba7d25d5861ULL;
inline constexpr double kChainMakespan = 152.00401550699999;
inline constexpr std::int64_t kChainJobDoneNs[] = {43343288164, 71303521555,
                                                   152004015507};
// Per-host regime switching. The fold kept every simulated value of the
// standalone per-host driver; its trace differed only in where each `fg
// switch` instant sat (that driver emitted it before its host's elevator
// instants, PairController after the command lands). Splitting merge output
// into io-unit bios then moved the run itself (before: 88929482409 ns, and
// host 1's last switch at 75 s).
inline constexpr std::int64_t kFineGrainedDoneNs = 89284259881;
inline constexpr int kFineGrainedSamples = 17;
inline constexpr std::uint64_t kFineGrainedDigest = 0x0797b1b76976c571ULL;

cluster::ClusterConfig small_cluster(std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  cfg.seed = seed;
  return cfg;
}

constexpr SchedulerPair kCfq{SchedulerKind::kCfq, SchedulerKind::kCfq};
constexpr SchedulerPair kDeadline{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
constexpr SchedulerPair kAsNoop{SchedulerKind::kAnticipatory, SchedulerKind::kNoop};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(ControllerDigest, SingleJobThreePhaseReplay) {
  // Unmerged plan (map / shuffle / reduce) with a switch at each boundary.
  const auto jc = workloads::make_job(workloads::stream_sort(), 32 * mapred::kMiB);
  MetaSchedulerOptions opts;
  opts.plan = PhasePlan{/*merge_shuffle_tail=*/false};
  const MetaScheduler ms(small_cluster(7), jc, opts);
  PairSchedule sched;
  sched.phases = {kCfq, kDeadline, kAsNoop};
  ASSERT_EQ(sched.switches(), 2);

  trace::TraceSession session;
  const cluster::RunResult r = ms.execute(sched);
  ASSERT_FALSE(r.failed) << r.failure;
  const trace::Tracer& tr = session.tracer();
  int switches = 0;  // the controller's instants, not the per-host ones
  tr.for_each([&](const trace::Event& ev) {
    switches += ev.name == tr.ids.pair_switch && ev.cat == tr.ids.cat_core;
  });
  EXPECT_EQ(switches, 2);
  const std::string json = tr.to_json();
  EXPECT_EQ(hex(exp::fnv1a64(json)), hex(kSingleJobReplayDigest));
}

tenancy::StreamSpec small_stream(const std::string& meta) {
  std::string err;
  const auto s = tenancy::StreamSpec::parse(
      "arrive,poisson,rate=0.05,jobs=6;class,name=a,wl=sort,mb=10-14;meta," + meta,
      &err);
  EXPECT_TRUE(s.has_value()) << err;
  return *s;
}

std::uint64_t stream_digest(const std::string& meta, MetaStreamResult* out) {
  trace::TraceSession session;
  *out = run_stream_with_policy(small_cluster(11), small_stream(meta));
  EXPECT_TRUE(out->stream.ok) << out->stream.error;
  return exp::fnv1a64(session.tracer().to_json());
}

TEST(ControllerDigest, StreamOfflineReplay) {
  MetaStreamResult r;
  const std::uint64_t d = stream_digest("policy=offline", &r);
  EXPECT_EQ(r.stream.jobs_completed, 6);
  // Algorithm 1 keeps one pair on this small cluster: the digest pins the
  // side-cluster search and a replay that never needs to switch.
  EXPECT_EQ(r.schedule_key, "da----");
  EXPECT_EQ(r.arm_switches, 0);
  EXPECT_EQ(hex(d), hex(kStreamOfflineDigest));
}

TEST(ControllerDigest, StreamUcbBandit) {
  MetaStreamResult r;
  const std::uint64_t d = stream_digest("policy=ucb", &r);
  EXPECT_EQ(r.stream.jobs_completed, 6);
  EXPECT_GT(r.arm_switches, 0);
  EXPECT_EQ(hex(d), hex(kStreamUcbDigest));
}

TEST(ControllerDigest, ChainReplayResults) {
  const std::vector<mapred::JobConf> confs = {
      workloads::make_job(workloads::wordcount(), 16 * mapred::kMiB),
      workloads::make_job(workloads::stream_sort(), 16 * mapred::kMiB),
      workloads::make_job(workloads::wordcount_no_combiner(), 16 * mapred::kMiB),
  };
  const Experiment e = make_chain_experiment(small_cluster(7), confs);
  ASSERT_EQ(e.phases, 6);
  // Switches at three boundaries, a "0" entry, and an explicit entry naming
  // the pair already installed (costs nothing: no switch is issued).
  PairSchedule sched;
  sched.phases = {kCfq, kDeadline, kDeadline, kAsNoop, std::nullopt, kCfq};

  trace::TraceSession session;
  const cluster::RunResult r = e.execute(sched);
  std::vector<std::int64_t> done_ns;
  int host_switches = 0;
  const trace::Tracer& tr = session.tracer();
  tr.for_each([&](const trace::Event& ev) {
    if (ev.name == tr.ids.job_done) done_ns.push_back(ev.ts_ns);
    host_switches += ev.name == tr.ids.pair_switch && ev.cat != tr.ids.cat_core;
  });
  EXPECT_EQ(host_switches, 3 * 2);  // three switches, each on both hosts
  EXPECT_EQ(r.seconds, kChainMakespan);
  EXPECT_EQ(done_ns, std::vector<std::int64_t>(std::begin(kChainJobDoneNs),
                                               std::end(kChainJobDoneNs)));
  EXPECT_EQ(r.stats.t_done.ns(), kChainJobDoneNs[2]);
}

struct HostSwitch {
  std::int64_t ns;
  std::int64_t host;
  std::int64_t pair;
  bool operator==(const HostSwitch&) const = default;
};

void PrintTo(const HostSwitch& s, std::ostream* os) {
  *os << "{" << s.ns << ", " << s.host << ", " << s.pair << "}";
}

TEST(ControllerDigest, FineGrainedHostScope) {
  // Per-host regime switching on a 256 MB sort: every host samples its Dom0
  // read/write mix each 5 s and may switch as often, with a free predictor.
  const std::vector<HostSwitch> expected = {
      {25000000000, 0, 10}, {25000000000, 1, 10}, {40000000000, 0, 6},
      {45000000000, 1, 6},  {70000000000, 1, 5},  {75000000000, 0, 5}};
  trace::TraceSession session;
  cluster::Cluster cl(small_cluster(1));
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  RegimeConfig cfg;
  cfg.sample_period = sim::Time::from_sec(5);
  cfg.min_switch_gap = sim::Time::from_sec(5);
  cfg.predictor = SwitchPredictor{0.0};
  auto ctl = PairController::regimes(cl, cfg);
  ctl->attach_sampler(job);
  job.run();
  cl.simr().run();
  ASSERT_TRUE(job.done());

  trace::Tracer& tr = *trace::tracer();
  const std::uint64_t digest = exp::fnv1a64(tr.to_json());
  // Where each switch lands: the per-host instants, looked up after the
  // export so the lookup cannot add a track to it.
  const std::uint32_t host_track[] = {tr.track("host0"), tr.track("host1")};
  std::vector<HostSwitch> switches;
  tr.for_each([&](const trace::Event& ev) {
    if (ev.name != tr.ids.pair_switch || ev.cat != tr.ids.cat_virt) return;
    const std::int64_t host = ev.track == host_track[0] ? 0 : 1;
    EXPECT_EQ(ev.track, host_track[host]);
    switches.push_back({ev.ts_ns, host, ev.arg[0]});
  });
  EXPECT_EQ(job.stats().t_done.ns(), kFineGrainedDoneNs);
  EXPECT_EQ(switches, expected);
  EXPECT_EQ(ctl->samples(), kFineGrainedSamples);
  EXPECT_EQ(hex(digest), hex(kFineGrainedDigest));
}

}  // namespace
}  // namespace iosim::core
