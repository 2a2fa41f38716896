// iosim: the runtime half of the meta-scheduler — the one controller that
// installs a (Dom0, DomU) pair at every phase boundary.
//
// A controller couples a *policy* that decides the pair with one or more
// *phase sources* that say when to decide:
//
//   policies  schedule replay   phase i installs PairSchedule::effective(i)
//                               (Algorithm 1's solution, or any hand-built
//                               schedule)
//             bandit            an OnlinePolicy (UCB / epsilon-greedy)
//                               learning per cluster phase kind from
//                               busy-normalized disk throughput, with its
//                               reward window, 5 s re-pull tick, dwell gate
//                               and fault decay (core/online_scheduler.hpp)
//   sources   per job           PhaseDetector boundaries of one job; a
//                               phase offset maps a chain's job k onto
//                               schedule phases 2k and 2k+1
//             per cluster       the aggregate phase a tenancy::StreamRunner
//                               folds over its live jobs
//
// Every decision supersedes any switch retry still chasing an older one,
// and a switch is requested only when the decided pair differs from the
// installed one. Switch commands travel through the cluster's fault layer
// via the controller's PairSwitcher: a rejected command keeps the old pair
// and retries with capped backoff until a newer decision supersedes it, so
// the run degrades gracefully to the previous pair. Replay traces
// `pair switch` instants on the core track, the bandit `tt_arm_switch` ones
// on the meta track.
//
// Host-scope regime switching (core/fine_grained.hpp) is a separate driver.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

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

  /// Per-job source: decide at each of `job`'s plan boundaries. Job phase p
  /// is schedule phase `phase_offset + p`; the bandit keys on the phase
  /// kind instead (a merged shuffle+reduce tail counts as shuffle). Call
  /// before job.run(); the job's callbacks keep the controller alive.
  void attach_job(mapred::Job& job, PhasePlan plan, int phase_offset = 0);

  /// Per-cluster source: decide whenever the stream's aggregate phase
  /// changes. A two-entry schedule folds shuffle and reduce onto its tail.
  /// `phases` must outlive the run.
  void attach_stream(tenancy::PhaseAggregator& phases);

  /// Switch commands that landed.
  int switches() const { return switcher_->switches(); }
  /// Commands rejected by the fault layer (each schedules a retry).
  int switch_failures() const { return switcher_->failures(); }
  /// Retries actually issued (superseded ones don't count).
  int switch_retries() const { return switcher_->retries(); }
  /// Bandit telemetry (zero under replay).
  int pulls() const { return pulls_; }
  int decays() const { return decays_; }

 private:
  PairController(cluster::Cluster& cl, PairSchedule schedule,
                 std::unique_ptr<OnlinePolicy> policy, double event_decay);

  /// A phase source reports a boundary: `index` into the schedule (replay)
  /// and the cluster phase kind (bandit).
  void enter_phase(int index, int kind, sim::Time t);
  /// Route the switcher's outcomes to tracing (and the bandit's window).
  void wire_switcher();
  /// Supersede, then switch if `target` differs from the installed pair.
  void install(int tag, std::optional<SchedulerPair> target);
  void trace_switch(int tag, SchedulerPair p);
  void trace_switch_failed(int tag, int attempt);

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
  std::shared_ptr<PairSwitcher> switcher_;
  /// Replay policy; empty under the bandit.
  PairSchedule schedule_;
  /// Bandit policy; null under replay.
  std::unique_ptr<OnlinePolicy> policy_;
  /// Per-cluster source, when attached (the bandit's tick reads its live
  /// job count).
  tenancy::PhaseAggregator* phases_ = nullptr;

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
