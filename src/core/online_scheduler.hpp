// iosim: the online meta-scheduler — a switch-cost-aware multi-armed bandit
// over (Dom0, DomU) SchedulerPair arms that replaces the offline profiling
// pass (DESIGN.md §14).
//
// The paper's Algorithm 1 needs a profiling corpus measured before the run;
// in an open-arrival, fault-degraded stream that corpus goes stale the
// moment the mix shifts or a VM is blacklisted. The bandit instead learns
// pair quality *during* the run. This header holds its policies; the
// runtime half (reward window, pulls, switches, decay) is the bandit policy
// of core::PairController (core/pair_controller.hpp):
//
//   arms      the 16 scheduler pairs, one bandit table per cluster phase
//             kind (map / shuffle / reduce — the PhaseAggregator's modal
//             phase for streams, PhaseDetector boundaries for single jobs).
//   reward    cluster-wide disk throughput normalized by disk *busy* time
//             (MB per Dom0-busy-second) over the window since the previous
//             phase change, from the always-on Dom0 byte and busy-time
//             counters. Busy-normalizing matters: wall-clock MB/s is
//             demand-limited — a fast arm drains the backlog and idles the
//             disks (low MB/s), while a slow arm keeps them saturated (high
//             MB/s), inverting the ranking. MB per busy second measures
//             elevator efficiency independent of arrival lulls. The reward
//             is credited to the pair actually installed during the window
//             (a failed switch credits the old pair: the estimate tracks
//             reality, not intent).
//   pulls     at every cluster-phase change the policy picks the arm for
//             the new phase; a different arm than the installed one issues
//             a cluster-wide switch through the controller's PairSwitcher
//             (same retry/supersede semantics as schedule replay).
//   switch    candidate arms are discounted by the predicted switch cost
//   cost      from the non-commutative SwitchPredictor matrix, amortized
//             over the expected phase duration and converted to reward
//             units — a marginally-better arm does not justify a 2 s
//             cluster quiesce near a phase boundary.
//   budget    per phase kind, at most `budget` distinct arms are explored
//             (a deterministic, seed-shuffled subset plus the boot pair);
//             a 16-arm sweep per phase would cost more than profiling did.
//   decay     fault/membership events (a VM declared dead or blacklisted)
//             age every estimate: effective pull counts shrink by `decay`,
//             so confidence bounds widen and the bandit re-explores the
//             post-fault reality instead of trusting pre-fault scores.
//
// Two policies implement the OnlinePolicy interface: UCB1 and epsilon-
// greedy-with-aging. Selection comes from the stream grammar's meta segment
// (`meta,policy=ucb|egreedy[,explore=,decay=,budget=]`) or a scenario's
// `meta =` axis; `meta,policy=offline` replays Algorithm 1's schedule
// (profiled once on a side cluster) and `meta,policy=static` pins a pair —
// the baselines the policy-compare CI gate measures against.
//
// Determinism: every decision happens synchronously inside job callbacks,
// the only randomness is a seeded xoshiro stream, and rewards derive from
// simulated byte counters — same seed + same spec is byte-identical traces,
// with the online controller on (guarded by online_scheduler_test).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "iosched/pair.hpp"
#include "tenancy/stream_runner.hpp"
#include "tenancy/stream_spec.hpp"

namespace iosim::core {

/// Cluster phase kinds the bandit keys its tables on (PhaseAggregator's
/// domain): 0 = map, 1 = shuffle, 2 = reduce.
inline constexpr int kPhaseKinds = 3;

struct OnlineConfig {
  /// kUcb or kEgreedy (the other values never reach the policy layer).
  tenancy::MetaPolicy kind = tenancy::MetaPolicy::kUcb;
  /// UCB confidence width / initial epsilon. < 0 picks the policy default
  /// (0.5 for UCB, 0.25 for egreedy).
  double explore = -1.0;
  /// Aging factor in (0, 1]: epsilon decay per pull (egreedy) and the
  /// pull-count discount applied by decay_all on fault/membership events.
  /// < 0 picks the policy default (0.5 for UCB, 0.9 for egreedy).
  double decay = -1.0;
  /// Per-phase exploration budget in distinct arms; 0 picks the default (4).
  int budget = 0;
  /// Seed for the exploration order and the egreedy coin.
  std::uint64_t seed = 1;

  static OnlineConfig from_meta(const tenancy::MetaSpec& m, std::uint64_t seed) {
    OnlineConfig c;
    c.kind = m.policy;
    c.explore = m.explore;
    c.decay = m.decay;
    c.budget = m.budget;
    c.seed = seed;
    return c;
  }
};

/// Reward statistics of one (phase kind, arm) cell. `pulls` is fractional:
/// decay_all scales it down to widen confidence bounds after a fault.
struct ArmStats {
  double pulls = 0.0;
  double value = 0.0;  // reward estimate, MB per disk-busy-second
};

/// Common interface of the bandit policies. Implementations own the
/// (phase kind x 16 arm) estimate tables; core::PairController owns reward
/// measurement, switch execution, and telemetry.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;
  virtual const char* name() const = 0;
  /// Pick the arm for `phase`. `current_arm` is the installed pair's dense
  /// index; `switch_penalty[a]` is the predicted cost of moving to arm `a`
  /// expressed in reward units (0 for the current arm).
  virtual int select(int phase, int current_arm,
                     const std::array<double, iosched::kNumSchedulerPairs>&
                         switch_penalty) = 0;
  /// Credit `mb_per_busy_s` (MB per disk-busy-second) to (phase, arm).
  virtual void reward(int phase, int arm, double mb_per_busy_s) = 0;
  /// Age every estimate (fault/membership event): pull counts scale by
  /// `factor`, so both policies re-explore.
  virtual void decay_all(double factor) = 0;
  virtual const ArmStats& stats(int phase, int arm) const = 0;
};

/// Factory for the policy named in `cfg.kind` (kUcb / kEgreedy).
std::unique_ptr<OnlinePolicy> make_online_policy(const OnlineConfig& cfg);

/// Outcome of a policy-driven stream run (exp::execute_point and the tests
/// read the controller counters next to the stream result).
struct MetaStreamResult {
  tenancy::StreamResult stream;
  /// Controller telemetry (zero for static/none). Pulls and decays are the
  /// bandit's; offline replay reports its switches and switch failures.
  int arm_pulls = 0;
  int arm_switches = 0;
  int switch_failures = 0;
  int decays = 0;
  /// Offline-pipeline telemetry (zero for the other policies).
  int profile_runs = 0;
  int heuristic_evals = 0;
  /// The pair the stream cluster actually booted with (after any static
  /// override or offline phase-0 choice), two-letter code.
  std::string boot_pair;
  /// Offline: the chosen schedule's key ("cc>ad>0" style), else empty.
  std::string schedule_key;
};

/// Run `spec` on a cluster built from `cfg`, honouring spec.meta:
///   kNone / kStatic   plain run_stream (static may override cfg.pair)
///   kOffline          profile + Algorithm 1 on a side cluster (the class
///                     named by meta.profile, default the first class;
///                     sizes pinned to the class midpoint), then replay the
///                     schedule at cluster phase changes
///   kUcb / kEgreedy   one bandit following the cluster phase of every job
/// Both controlled cases run one PairController on the stream runner's
/// aggregate phase (core/pair_controller.hpp).
/// The bandit seed derives from cfg.seed (reserved stream seed index 3), so
/// the whole run remains a pure function of (cfg, spec).
MetaStreamResult run_stream_with_policy(cluster::ClusterConfig cfg,
                                        const tenancy::StreamSpec& spec);

}  // namespace iosim::core
