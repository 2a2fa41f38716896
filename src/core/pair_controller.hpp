// iosim: the runtime half of the meta-scheduler — the one controller that
// installs a (Dom0, DomU) pair while a workload runs.
//
// A controller couples a *policy* that decides the pair with a *source*
// that says when to decide:
//
//   policies  schedule replay   phase i installs PairSchedule::effective(i)
//                               (Algorithm 1's solution, or any hand-built
//                               schedule)
//             bandit            an OnlinePolicy (UCB / epsilon-greedy)
//                               learning per cluster phase kind from
//                               busy-normalized disk throughput, with its
//                               reward window, 5 s re-pull tick, dwell gate
//                               and fault decay (core/online_scheduler.hpp)
//             regimes           each host's read / mixed / write regime
//                               picks that host's pair (the paper's future
//                               work, Section VII)
//   sources   per job           PhaseDetector boundaries of one job; a
//                               phase offset maps a chain's job k onto
//                               schedule phases 2k and 2k+1
//             per cluster       the aggregate phase a tenancy::StreamRunner
//                               folds over its live jobs
//             per host          a periodic sample of each host's Dom0
//                               read/write byte mix while one job runs
//
// Replay and the bandit switch the whole cluster, regimes one host at a
// time. Every decision supersedes any switch retry or delayed command still
// chasing an older one in its scope (a command in flight to the decided pair
// stays), and a switch is requested only when the decided pair differs from
// the one installed there. Switch commands travel through the cluster's
// fault layer via one PairSwitcher per scope: a rejected command keeps the
// old pair and retries with capped backoff until a newer decision supersedes
// it, so the run degrades gracefully to the previous pair. A switch counts,
// traces and starts the bandit's dwell gate when it lands, not when it is
// requested: replay traces `pair switch` instants on the core track, the
// bandit `tt_arm_switch` ones on the meta track, regimes `fg switch` on the
// core track.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/online_scheduler.hpp"
#include "core/pair_schedule.hpp"
#include "core/pair_switcher.hpp"
#include "core/phase_plan.hpp"
#include "core/switch_predictor.hpp"
#include "mapred/job.hpp"
#include "tenancy/phase_agg.hpp"
#include "trace/trace.hpp"

namespace iosim::core {

/// Regime switching settings. The default pairs follow the per-phase
/// profiling insight: read-heavy map-style traffic and write-heavy
/// reduce-style traffic prefer different pairs.
struct RegimeConfig {
  /// Regime -> pair: 0 read-dominated, 1 mixed, 2 write-dominated.
  PairSchedule pairs{{SchedulerPair::from_letters("aa"),
                      SchedulerPair::from_letters("da"),
                      SchedulerPair::from_letters("dd")}};
  /// Read byte share at or above which a host counts as read-dominated.
  double read_threshold = 0.55;
  /// At or below this read share the host counts as write-dominated.
  double write_threshold = 0.35;
  /// Sampling period and the minimum spacing between switches per host.
  sim::Time sample_period = sim::Time::from_sec(10);
  sim::Time min_switch_gap = sim::Time::from_sec(120);
  /// Hysteresis: a host switches once this many samples in a row propose
  /// the same pair (the mixed middle of a job oscillates around the
  /// thresholds).
  int confirm_samples = 3;
  /// Gate: switch only when this rate gain over the job's estimated
  /// remaining time repays the predicted switch cost.
  double assumed_rate_gain = 0.04;
  SwitchPredictor predictor{};
};

class PairController : public std::enable_shared_from_this<PairController> {
 public:
  /// Schedule replay on `cl`, which must have been booted with
  /// `schedule.initial()` (construction-time install, no switch cost).
  static std::shared_ptr<PairController> replay(cluster::Cluster& cl,
                                                PairSchedule schedule);
  /// The bandit: one learning state shared by every job the controller
  /// follows. Fault/membership events on `cl` age its estimates.
  static std::shared_ptr<PairController> bandit(cluster::Cluster& cl,
                                                OnlineConfig cfg);

  /// Regimes on `cl`, booted with any pair; one PairSwitcher per host.
  static std::shared_ptr<PairController> regimes(cluster::Cluster& cl,
                                                 RegimeConfig cfg);

  /// Per-job source: decide at each of `job`'s plan boundaries. Job phase p
  /// is schedule phase `phase_offset + p`; the bandit keys on the phase
  /// kind instead (a merged shuffle+reduce tail counts as shuffle). Call
  /// before job.run(); the job's callbacks keep the controller alive.
  void attach_job(mapred::Job& job, PhasePlan plan, int phase_offset = 0);

  /// Per-cluster source: decide whenever the stream's aggregate phase
  /// changes. A two-entry schedule folds shuffle and reduce onto its tail.
  /// `phases` must outlive the run.
  void attach_stream(tenancy::PhaseAggregator& phases);

  /// Per-host source (regimes only): sample every host's Dom0 byte mix each
  /// sample period until `job` completes. Call before job.run(); the
  /// scheduled samples keep the controller alive, and `job` must outlive
  /// the run.
  void attach_sampler(mapred::Job& job);

  /// Switch commands that landed, over every scope.
  int switches() const { return total(&PairSwitcher::switches); }
  /// Commands rejected by the fault layer (each schedules a retry).
  int switch_failures() const { return total(&PairSwitcher::failures); }
  /// Retries actually issued (superseded ones don't count).
  int switch_retries() const { return total(&PairSwitcher::retries); }
  /// Per-host samples taken (zero unless a sampler is attached).
  int samples() const { return samples_; }
  /// Bandit telemetry (zero under replay).
  int pulls() const { return pulls_; }
  int decays() const { return decays_; }

 private:
  PairController(cluster::Cluster& cl, PairSchedule schedule,
                 std::unique_ptr<OnlinePolicy> policy, double event_decay);

  /// A phase source reports a boundary: `index` into the schedule (replay)
  /// and the cluster phase kind (bandit).
  void enter_phase(int index, int kind, sim::Time t);
  /// Route the switchers' outcomes to tracing (and the bandit's window).
  void wire_switchers();
  /// `count` summed over every switcher.
  int total(int (PairSwitcher::*count)() const) const;
  void trace_switch(int tag, SchedulerPair p);
  void trace_switch_failed(int tag, int attempt);

  // -- regimes --
  void sample(mapred::Job& job);

  // -- bandit --
  void open_window(int kind, sim::Time t);
  void close_window(sim::Time now);
  /// The bandit step: pick the arm for cur_kind_, or nothing while the
  /// dwell gate holds the installed arm.
  std::optional<SchedulerPair> pull(sim::Time t);
  void ensure_ticking();
  void on_fault_event(sim::Time t);
  std::int64_t cluster_bytes() const;
  std::uint64_t cluster_busy_ns() const;

  cluster::Cluster& cl_;
  /// One switcher for the whole cluster, or one per host under regimes.
  std::vector<std::shared_ptr<PairSwitcher>> switchers_;
  /// Replay policy; empty under the bandit.
  PairSchedule schedule_;
  /// Bandit policy; null under replay.
  std::unique_ptr<OnlinePolicy> policy_;
  /// Per-cluster source, when attached (the bandit's tick reads its live
  /// job count).
  tenancy::PhaseAggregator* phases_ = nullptr;

  // Regime state.
  RegimeConfig regime_;
  struct HostState {
    std::int64_t last_read_bytes = 0;
    std::int64_t last_write_bytes = 0;
    sim::Time last_switch = sim::Time::from_sec(-3600);
    SchedulerPair pending_target;
    int pending_count = 0;
    /// Read share (per mille) of the sample that issued the last switch.
    std::int64_t share_permille = 0;
  };
  /// One per host under regimes; empty otherwise.
  std::vector<HostState> hosts_;
  int samples_ = 0;

  // Bandit learning state.
  double event_decay_ = 0.0;  // decay factor applied on fault events
  SwitchPredictor predictor_;
  int cur_kind_ = -1;
  sim::Time win_start_ = sim::Time::zero();
  std::int64_t win_bytes_ = 0;
  std::uint64_t win_busy_ns_ = 0;
  /// When the first reward window opened. The switch-cost amortization
  /// horizon grows with elapsed run time: an arm adopted now is held for
  /// (roughly) the rest of the run, so a fixed quiesce cost matters less
  /// and less as the stream progresses.
  sim::Time run_start_ = sim::Time::zero();
  /// EWMA of observed phase-window durations, the amortization horizon for
  /// the switch-cost discount (seeded pessimistically short so early pulls
  /// are switch-shy).
  double horizon_s_ = 10.0;
  /// Running mean reward, the scale that converts predicted switch seconds
  /// into reward units.
  double mean_reward_ = 0.0;
  int reward_samples_ = 0;
  int pulls_ = 0;
  int decays_ = 0;
  /// Periodic mid-phase re-pull is armed while stream jobs are live.
  bool ticking_ = false;
  /// The next close_window discards its sample: it contains a switch
  /// quiesce, which would bias estimates against explored arms.
  bool skip_next_reward_ = false;
  /// When the last switch landed (dwell gate: hold an arm long enough to
  /// measure it before reconsidering).
  sim::Time last_switch_ = sim::Time::zero();
  /// Lazily interned-and-pinned instant names (0 = not yet interned).
  trace::Str tt_arm_pull_ = 0;
  trace::Str tt_arm_switch_ = 0;
};

}  // namespace iosim::core
