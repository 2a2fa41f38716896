#include "core/pair_controller.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "core/phase_detector.hpp"
#include "trace/registry.hpp"
#include "virt/physical_host.hpp"

namespace iosim::core {

namespace {

/// Bandit re-pull cadence inside a long phase. Cluster-phase changes are
/// the primary pull sites, but a stationary workload would otherwise never
/// generate pulls at all; the periodic tick lets the bandit converge on
/// single-phase streams too.
constexpr sim::Time kSamplePeriod = sim::Time::from_sec(5);
/// Minimum cluster disk busy time a reward window must contain to be
/// credited. A near-idle window (arrival lull, all jobs in CPU phases)
/// measures nothing about the elevator and would poison the estimate.
constexpr double kMinBusySeconds = 0.5;

/// Fold a phase onto a `count`-entry phase space: with fewer than three
/// entries, shuffle and reduce share the tail entry.
int fold(int phase, int count) {
  return count >= kPhaseKinds ? phase : std::min(phase, 1);
}

}  // namespace

PairController::PairController(cluster::Cluster& cl, PairSchedule schedule,
                               std::unique_ptr<OnlinePolicy> policy,
                               double event_decay)
    : cl_(cl),
      switchers_{PairSwitcher::create(cl)},
      schedule_(std::move(schedule)),
      policy_(std::move(policy)),
      event_decay_(event_decay) {}

std::shared_ptr<PairController> PairController::replay(cluster::Cluster& cl,
                                                       PairSchedule schedule) {
  assert(cl.pair() == schedule.initial() &&
         "boot the cluster with schedule.initial(); phase 0 is not a switch");
  auto ctl = std::shared_ptr<PairController>(
      new PairController(cl, std::move(schedule), nullptr, 0.0));
  ctl->wire_switchers();
  return ctl;
}

std::shared_ptr<PairController> PairController::regimes(cluster::Cluster& cl,
                                                        RegimeConfig cfg) {
  assert(cfg.pairs.count() == 3 && "one pair per regime: read, mixed, write");
  auto ctl = std::shared_ptr<PairController>(
      new PairController(cl, PairSchedule{}, nullptr, 0.0));
  ctl->regime_ = std::move(cfg);
  ctl->hosts_.resize(cl.n_hosts());
  ctl->switchers_.clear();
  for (int h = 0; h < static_cast<int>(cl.n_hosts()); ++h) {
    ctl->switchers_.push_back(PairSwitcher::create(cl, h));
  }
  ctl->wire_switchers();
  return ctl;
}

std::shared_ptr<PairController> PairController::bandit(cluster::Cluster& cl,
                                                       OnlineConfig cfg) {
  auto ctl = std::shared_ptr<PairController>(new PairController(
      cl, PairSchedule{}, make_online_policy(cfg), cfg.decay > 0.0 ? cfg.decay : 0.5));
  ctl->wire_switchers();
  // Fault/membership events age every estimate: the cluster the bandit
  // profiled no longer exists, so confidence bounds widen and it re-explores.
  if (auto* ms = cl.membership()) {
    std::weak_ptr<PairController> weak = ctl;
    ms->on_declared_dead([weak](int, sim::Time t) {
      if (auto s = weak.lock()) s->on_fault_event(t);
    });
    ms->on_schedulable_again([weak](int, sim::Time t) {
      if (auto s = weak.lock()) s->on_fault_event(t);
    });
  }
  return ctl;
}

void PairController::wire_switchers() {
  std::weak_ptr<PairController> weak = shared_from_this();
  for (const auto& sw : switchers_) {
    sw->on_switched = [weak](int tag, SchedulerPair p) {
      auto s = weak.lock();
      if (!s) return;
      if (s->policy_) {
        // The window in flight contains the switch quiesce (near-zero
        // throughput while every elevator drains); crediting it would brand
        // the new arm with the *cost of trying it*, biasing the bandit
        // against everything it explores. Measure the new arm from the next
        // clean window instead.
        s->skip_next_reward_ = true;
        s->last_switch_ = s->cl_.simr().now();
        if (auto* reg = trace::registry()) reg->counter("meta.arm_switches").inc();
      }
      auto* reg = trace::registry();
      if (reg && !s->hosts_.empty()) reg->counter("core.fg.switches").inc();
      s->trace_switch(tag, p);
    };
    sw->on_switch_failed = [weak](int tag, int attempt) {
      if (auto s = weak.lock()) s->trace_switch_failed(tag, attempt);
    };
  }
}

int PairController::total(int (PairSwitcher::*count)() const) const {
  int n = 0;
  for (const auto& sw : switchers_) n += ((*sw).*count)();
  return n;
}

void PairController::attach_job(mapred::Job& job, PhasePlan plan, int phase_offset) {
  assert((policy_ || phase_offset + plan.count() <= schedule_.count()) &&
         "the schedule must cover every phase of the job");
  auto self = shared_from_this();
  const int count = plan.count();
  PhaseDetector::attach(job, plan, [self, phase_offset, count](int p, sim::Time t) {
    self->enter_phase(phase_offset + p, fold(p, count), t);
  });
}

void PairController::attach_stream(tenancy::PhaseAggregator& phases) {
  phases_ = &phases;
  auto self = shared_from_this();
  auto prev_phase = std::move(phases.on_cluster_phase);
  phases.on_cluster_phase = [self, prev = std::move(prev_phase)](int kind) {
    if (prev) prev(kind);
    self->enter_phase(fold(kind, self->schedule_.count()), kind,
                      self->cl_.simr().now());
  };
  if (!policy_) return;  // replay decides at phase changes only
  auto prev_admit = std::move(phases.on_job_admitted);
  phases.on_job_admitted = [self, prev = std::move(prev_admit)] {
    if (prev) prev();
    // First job: open the phase-0 reward window at the boot pair. No pull —
    // the cluster just booted and there is nothing to learn from yet.
    if (self->cur_kind_ < 0) self->open_window(0, self->cl_.simr().now());
    self->ensure_ticking();
  };
}

void PairController::enter_phase(int index, int kind, sim::Time t) {
  if (!policy_) {
    switchers_.front()->decide(
        index, schedule_.effective(std::min(index, schedule_.count() - 1)));
    return;
  }
  if (kind < 0 || kind >= kPhaseKinds) return;
  if (cur_kind_ < 0) {
    // First boundary ever (per-job source): open the window, don't pull —
    // the boot pair was installed for free.
    open_window(kind, t);
    return;
  }
  close_window(t);
  cur_kind_ = kind;
  if (const auto arm = pull(t)) switchers_.front()->decide(kind, *arm);
}

void PairController::trace_switch(int tag, SchedulerPair p) {
  auto* tr = trace::tracer();
  if (tr == nullptr) return;
  if (!hosts_.empty()) {
    // Host scope: the tag is the host; the instant carries the read share
    // of the sample that issued the switch.
    tr->instant(tr->track("core"), tr->ids.fg_switch, tr->ids.cat_core,
                cl_.simr().now(), tr->ids.host, tag, tr->ids.pair,
                virt::PhysicalHost::pair_code(p), tr->ids.share,
                hosts_[static_cast<std::size_t>(tag)].share_permille);
    return;
  }
  const bool meta = policy_ != nullptr;
  if (meta && !tt_arm_switch_) {
    tt_arm_switch_ = tr->intern("tt_arm_switch");
    tr->pin_name(tt_arm_switch_);
  }
  // The bandit's instant also carries its running switch count.
  tr->instant(tr->track(meta ? "meta" : "core"),
              meta ? tt_arm_switch_ : tr->ids.pair_switch,
              meta ? tr->ids.cat_meta : tr->ids.cat_core, cl_.simr().now(),
              tr->ids.index, tag, tr->ids.pair, virt::PhysicalHost::pair_code(p),
              meta ? tr->ids.value : trace::kNoStr, meta ? switches() : 0);
}

void PairController::trace_switch_failed(int tag, int attempt) {
  auto* tr = trace::tracer();
  if (tr == nullptr) return;
  const bool meta = policy_ != nullptr;
  tr->instant(tr->track(meta ? "meta" : "core"), tr->ids.switch_fail,
              meta ? tr->ids.cat_meta : tr->ids.cat_core, cl_.simr().now(),
              tr->ids.index, tag, tr->ids.attempt, attempt);
}

// ---------------------------------------------------------------------------
// Regimes

void PairController::attach_sampler(mapred::Job& job) {
  assert(!hosts_.empty() && "the per-host source drives a regimes() controller");
  auto self = shared_from_this();
  cl_.simr().after(regime_.sample_period, [self, &job] { self->sample(job); });
}

void PairController::sample(mapred::Job& job) {
  if (job.done()) return;  // stop sampling; no further events scheduled
  ++samples_;
  const sim::Time now = cl_.simr().now();
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("core"), tr->ids.fg_sample, tr->ids.cat_core, now,
                tr->ids.index, samples_);
  }
  if (auto* reg = trace::registry()) reg->counter("core.fg.samples").inc();

  for (std::size_t h = 0; h < cl_.n_hosts(); ++h) {
    HostState& st = hosts_[h];
    PairSwitcher& sw = *switchers_[h];
    const auto& c = cl_.host(h).dom0_layer().counters();
    const std::int64_t reads = c.bytes_completed[0] - st.last_read_bytes;
    const std::int64_t writes = c.bytes_completed[1] - st.last_write_bytes;
    st.last_read_bytes = c.bytes_completed[0];
    st.last_write_bytes = c.bytes_completed[1];
    if (reads + writes <= 0) continue;  // idle host: nothing to adapt to

    const double read_share =
        static_cast<double>(reads) / static_cast<double>(reads + writes);
    const int regime = read_share >= regime_.read_threshold    ? 0
                       : read_share <= regime_.write_threshold ? 2
                                                               : 1;
    const SchedulerPair target = regime_.pairs.effective(regime);
    const SchedulerPair current = sw.heading();
    if (target == current) {
      // The host already runs (or is headed for) its regime's pair: a retry
      // still chasing another pair is stale.
      sw.decide(static_cast<int>(h), target);
      st.pending_count = 0;
      continue;
    }
    // Hysteresis: confirm the regime over consecutive samples.
    st.pending_count = st.pending_target == target ? st.pending_count + 1 : 1;
    st.pending_target = target;
    if (st.pending_count < regime_.confirm_samples) continue;
    if (now - st.last_switch < regime_.min_switch_gap) continue;

    // Gate on the predictor: a rough remaining horizon from job progress.
    const double progress = job.progress();
    const double elapsed = (now - job.stats().t_start).sec();
    const double remaining =
        progress > 0.02 ? elapsed * (1.0 - progress) / progress : 600.0;
    if (!regime_.predictor.worthwhile(current, target, regime_.assumed_rate_gain,
                                      sim::Time::from_sec_f(remaining))) {
      continue;
    }

    st.share_permille = static_cast<std::int64_t>(read_share * 1000.0);
    st.last_switch = now;
    st.pending_count = 0;
    sw.decide(static_cast<int>(h), target);
  }

  attach_sampler(job);  // the next sample
}

// ---------------------------------------------------------------------------
// Bandit

void PairController::open_window(int kind, sim::Time t) {
  cur_kind_ = kind;
  win_start_ = t;
  run_start_ = t;
  win_bytes_ = cluster_bytes();
  win_busy_ns_ = cluster_busy_ns();
}

void PairController::close_window(sim::Time now) {
  const double elapsed = (now - win_start_).sec();
  if (skip_next_reward_) {
    // Discard the window polluted by a switch transient: reset the
    // baseline, credit nothing.
    skip_next_reward_ = false;
    win_start_ = now;
    win_bytes_ = cluster_bytes();
    win_busy_ns_ = cluster_busy_ns();
    return;
  }
  // Normalize by disk *busy* time, not wall time. Wall-clock MB/s inverts
  // the ranking on demand-limited streams: a fast arm drains the backlog
  // and idles the disks (low MB/s) while a slow arm keeps them saturated
  // (high MB/s). MB per busy second is elevator efficiency — it compares
  // arms fairly regardless of how much work arrived. A window with almost
  // no busy time carries no signal and is skipped, not credited as zero.
  const double busy_s =
      static_cast<double>(cluster_busy_ns() - win_busy_ns_) / 1e9;
  if (cur_kind_ >= 0 && elapsed > 1e-9 && busy_s > kMinBusySeconds) {
    const std::int64_t bytes = cluster_bytes() - win_bytes_;
    const double mb_per_busy_s =
        static_cast<double>(bytes) / busy_s / (1024.0 * 1024.0);
    // Credit the pair actually installed during the window — after a failed
    // switch that is the old pair, and the estimate should know.
    const int arm = cl_.pair().index();
    policy_->reward(cur_kind_, arm, mb_per_busy_s);
    ++reward_samples_;
    mean_reward_ += (mb_per_busy_s - mean_reward_) / reward_samples_;
    horizon_s_ += 0.3 * (elapsed - horizon_s_);
    if (auto* reg = trace::registry()) {
      reg->gauge("meta.last_reward_mbps").set(mb_per_busy_s);
      reg->gauge("meta.horizon_s").set(horizon_s_);
    }
  }
  win_start_ = now;
  win_bytes_ = cluster_bytes();
  win_busy_ns_ = cluster_busy_ns();
}

std::optional<SchedulerPair> PairController::pull(sim::Time t) {
  // Dwell: after a switch, hold the new arm for at least two sample
  // periods — one clean measurement window — before reconsidering.
  // Without this the bandit can ping-pong faster than it can measure.
  if (switches() > 0 && (t - last_switch_) < kSamplePeriod * 2.0) return std::nullopt;

  const SchedulerPair cur = switchers_.front()->heading();
  const int cur_arm = cur.index();

  // Predicted switch cost, amortized over how long the chosen arm will
  // plausibly be held, expressed in reward units. The holding horizon is
  // the larger of the observed window EWMA and half the elapsed run: a
  // switch adopted late in a long stream keeps paying off until the end,
  // so its fixed quiesce cost shrinks relative to the gain — without this
  // the penalty (scaled by the mean reward) dwarfs the value differences
  // between arms and the bandit never leaves its boot pair.
  std::array<double, iosched::kNumSchedulerPairs> penalty{};
  const double rate = std::max(mean_reward_, 0.0);
  const double amort =
      std::max({horizon_s_, 0.5 * (t - run_start_).sec(), 1.0});
  for (int a = 0; a < iosched::kNumSchedulerPairs; ++a) {
    if (a == cur_arm) continue;
    penalty[static_cast<std::size_t>(a)] =
        predictor_.predict_seconds(cur, SchedulerPair::from_index(a)) / amort *
        rate;
  }

  const int arm = policy_->select(cur_kind_, cur_arm, penalty);
  ++pulls_;
  if (auto* reg = trace::registry()) reg->counter("meta.pulls").inc();
  if (auto* tr = trace::tracer()) {
    if (!tt_arm_pull_) {
      tt_arm_pull_ = tr->intern("tt_arm_pull");
      tr->pin_name(tt_arm_pull_);
    }
    tr->instant(tr->track("meta"), tt_arm_pull_, tr->ids.cat_meta, t,
                tr->ids.index, cur_kind_, tr->ids.pair,
                virt::PhysicalHost::pair_code(SchedulerPair::from_index(arm)),
                tr->ids.value, pulls_);
  }
  return SchedulerPair::from_index(arm);
}

void PairController::ensure_ticking() {
  if (ticking_ || phases_ == nullptr || phases_->live_jobs() <= 0) return;
  ticking_ = true;
  std::weak_ptr<PairController> weak = shared_from_this();
  cl_.simr().after(kSamplePeriod, [weak] {
    auto s = weak.lock();
    if (!s) return;
    s->ticking_ = false;
    if (s->phases_->live_jobs() <= 0) return;  // stream drained; stop ticking
    // Mid-phase re-pull: close the window, credit the installed arm, and
    // let the policy reconsider. This is what makes the bandit converge on
    // stationary workloads where cluster-phase changes are rare.
    const sim::Time now = s->cl_.simr().now();
    s->close_window(now);
    if (const auto arm = s->pull(now)) s->switchers_.front()->decide(s->cur_kind_, *arm);
    s->ensure_ticking();
  });
}

void PairController::on_fault_event(sim::Time t) {
  close_window(t);  // don't blame the new regime's window on the old one
  policy_->decay_all(event_decay_);
  ++decays_;
  if (auto* reg = trace::registry()) reg->counter("meta.decays").inc();
  if (auto* tr = trace::tracer()) {
    if (!tt_arm_pull_) {
      tt_arm_pull_ = tr->intern("tt_arm_pull");
      tr->pin_name(tt_arm_pull_);
    }
    // Re-use the pull instant's track for the decay marker: index = -1
    // distinguishes it from a real pull.
    tr->instant(tr->track("meta"), tr->ids.probe, tr->ids.cat_meta, t,
                tr->ids.index, -1, tr->ids.value, decays_);
  }
}

std::int64_t PairController::cluster_bytes() const {
  std::int64_t total = 0;
  for (std::size_t h = 0; h < cl_.n_hosts(); ++h) {
    const auto& c = cl_.host(h).dom0_layer().counters();
    total += c.bytes_completed[0] + c.bytes_completed[1];
  }
  return total;
}

std::uint64_t PairController::cluster_busy_ns() const {
  std::uint64_t total = 0;
  for (std::size_t h = 0; h < cl_.n_hosts(); ++h) {
    total += cl_.host(h).dom0_layer().counters().busy_ns;
  }
  return total;
}

}  // namespace iosim::core
