#include "core/online_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "core/meta_scheduler.hpp"
#include "core/pair_controller.hpp"
#include "iosched/scheduler.hpp"
#include "mapred/job_conf.hpp"
#include "sim/random.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {

namespace {

constexpr int kArms = iosched::kNumSchedulerPairs;
/// Arms explored per phase kind by default. Deliberately small: on an
/// open-arrival stream every explored arm costs a cluster quiesce plus a
/// measurement dwell, and a handful of pairs already spans the quality
/// range (raise via `budget=` for long streams).
constexpr int kDefaultBudget = 4;
/// Estimate aging: reward() blends with at least this EWMA weight once an
/// arm has a few samples, so old regimes fade even without fault events.
constexpr double kEstimateAlpha = 0.3;
/// Pulls below this count as "never sampled under the current regime" —
/// decay_all pushes arms back under it to force re-exploration.
constexpr double kMinPulls = 1.0;

/// Shared estimate tables + seeded exploration order; the two policies only
/// differ in select().
class BanditBase : public OnlinePolicy {
 public:
  BanditBase(const OnlineConfig& cfg, double def_explore, double def_decay)
      : explore_(cfg.explore >= 0.0 ? cfg.explore : def_explore),
        decay_(cfg.decay > 0.0 ? cfg.decay : def_decay),
        budget_(cfg.budget > 0 ? std::min(cfg.budget, kArms) : kDefaultBudget),
        rng_(cfg.seed) {
    // One seed-shuffled arm order per phase kind: the first `budget_` arms
    // are that phase's exploration candidates. Deterministic in cfg.seed.
    for (auto& ord : order_) {
      std::iota(ord.begin(), ord.end(), 0);
      for (int i = kArms - 1; i > 0; --i) {
        const auto j = rng_.below(static_cast<std::uint64_t>(i) + 1);
        std::swap(ord[static_cast<std::size_t>(i)], ord[j]);
      }
    }
  }

  void reward(int phase, int arm, double mb_per_s) override {
    ArmStats& s = cell(phase, arm);
    s.pulls += 1.0;
    // Plain mean for the first few samples, then a fixed-alpha EWMA so the
    // estimate ages: a pair that was great before a regime shift loses its
    // halo within a handful of windows.
    const double alpha = std::max(1.0 / s.pulls, kEstimateAlpha);
    s.value += alpha * (mb_per_s - s.value);
  }

  void decay_all(double factor) override {
    for (auto& row : table_) {
      for (auto& s : row) s.pulls *= factor;
    }
  }

  const ArmStats& stats(int phase, int arm) const override {
    return table_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(arm)];
  }

 protected:
  ArmStats& cell(int phase, int arm) {
    return table_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(arm)];
  }

  /// Exploration candidates for `phase`: the first `budget_` arms of the
  /// shuffled order, plus the installed arm (it always stays eligible, so a
  /// boot pair outside the subset can be kept — or abandoned — on merit).
  std::vector<int> candidates(int phase, int current_arm) const {
    std::vector<int> c;
    c.reserve(static_cast<std::size_t>(budget_) + 1);
    const auto& ord = order_[static_cast<std::size_t>(phase)];
    bool has_cur = false;
    for (int i = 0; i < budget_; ++i) {
      c.push_back(ord[static_cast<std::size_t>(i)]);
      has_cur = has_cur || c.back() == current_arm;
    }
    if (!has_cur && current_arm >= 0 && current_arm < kArms)
      c.push_back(current_arm);
    return c;
  }

  /// Estimate used for ranking: an unsampled arm is scored neutrally (the
  /// mean of the sampled candidates), so exploration is driven by the
  /// confidence term alone — full optimism (best sampled value) made every
  /// untried arm irresistible and the bandit swept its whole budget even
  /// when the horizon could not pay for it.
  double ranking_value(int phase, int arm, double vmean) const {
    const ArmStats& s = stats(phase, arm);
    return s.pulls < kMinPulls ? vmean : s.value;
  }

  /// (best, mean) value over the sampled candidates; (0, 0) if none.
  std::pair<double, double> sampled_value_stats(
      int phase, const std::vector<int>& cands) const {
    double vmax = 0.0, sum = 0.0;
    int n = 0;
    for (int a : cands) {
      const ArmStats& s = stats(phase, a);
      if (s.pulls >= kMinPulls) {
        vmax = std::max(vmax, s.value);
        sum += s.value;
        ++n;
      }
    }
    return {vmax, n ? sum / n : 0.0};
  }

  double explore_;
  double decay_;
  int budget_;
  sim::Rng rng_;
  std::array<std::array<ArmStats, kArms>, kPhaseKinds> table_{};
  std::array<std::array<int, kArms>, kPhaseKinds> order_{};
};

class UcbPolicy final : public BanditBase {
 public:
  explicit UcbPolicy(const OnlineConfig& cfg) : BanditBase(cfg, 0.5, 0.5) {}
  const char* name() const override { return "ucb"; }

  int select(int phase, int current_arm,
             const std::array<double, kArms>& switch_penalty) override {
    const auto cands = candidates(phase, current_arm);
    const auto [vmax, vmean] = sampled_value_stats(phase, cands);
    double total = 0.0;
    for (int a : cands) total += stats(phase, a).pulls;
    // Confidence width scales with the observed reward *spread* across
    // sampled arms (rewards are MB/s, not [0,1] as in the textbook UCB1):
    // exploring is worth at most the gap between the best and worst pair,
    // so the bonus stays commensurate with both real arm differences and
    // the switch penalty. Before two arms are sampled there is no spread
    // yet; a fraction of the best value stands in.
    int sampled = 0;
    double vmin = vmax;
    for (int a : cands) {
      const ArmStats& s = stats(phase, a);
      if (s.pulls >= kMinPulls) {
        ++sampled;
        vmin = std::min(vmin, s.value);
      }
    }
    const double spread = vmax - vmin;
    const double scale =
        sampled >= 2 ? std::max(spread, 0.05 * vmax) : std::max(0.25 * vmax, 1.0);
    const double ln_total = std::log(total + 1.0);

    int best = current_arm >= 0 ? current_arm : cands.front();
    double best_score = score(phase, best, vmean, scale, ln_total,
                              switch_penalty[static_cast<std::size_t>(best)]);
    for (int a : cands) {
      if (a == best) continue;
      const double s = score(phase, a, vmean, scale, ln_total,
                             switch_penalty[static_cast<std::size_t>(a)]);
      if (s > best_score) {
        best = a;
        best_score = s;
      }
    }
    return best;
  }

 private:
  double score(int phase, int arm, double vmean, double scale, double ln_total,
               double penalty) const {
    const ArmStats& s = stats(phase, arm);
    const double pulls = std::max(s.pulls, 1.0);
    const double bonus = explore_ * scale * std::sqrt(2.0 * ln_total / pulls);
    return ranking_value(phase, arm, vmean) + bonus - penalty;
  }
};

class EgreedyPolicy final : public BanditBase {
 public:
  explicit EgreedyPolicy(const OnlineConfig& cfg) : BanditBase(cfg, 0.25, 0.9) {}
  const char* name() const override { return "egreedy"; }

  int select(int phase, int current_arm,
             const std::array<double, kArms>& switch_penalty) override {
    const auto cands = candidates(phase, current_arm);
    // Epsilon ages with the phase's accumulated pulls; decay_all shrinks
    // the pull mass on fault events, so epsilon recovers and the policy
    // re-explores the post-fault cluster.
    double total = 0.0;
    for (int a = 0; a < kArms; ++a) total += stats(phase, a).pulls;
    const double eps = explore_ * std::pow(decay_, total);
    if (rng_.uniform() < eps)
      return cands[rng_.below(cands.size())];

    const double vmean = sampled_value_stats(phase, cands).second;
    int best = current_arm >= 0 ? current_arm : cands.front();
    double best_score =
        ranking_value(phase, best, vmean) -
        switch_penalty[static_cast<std::size_t>(best)];
    for (int a : cands) {
      if (a == best) continue;
      const double s = ranking_value(phase, a, vmean) -
                       switch_penalty[static_cast<std::size_t>(a)];
      if (s > best_score) {
        best = a;
        best_score = s;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<OnlinePolicy> make_online_policy(const OnlineConfig& cfg) {
  if (cfg.kind == tenancy::MetaPolicy::kEgreedy)
    return std::make_unique<EgreedyPolicy>(cfg);
  return std::make_unique<UcbPolicy>(cfg);
}

// ---------------------------------------------------------------------------
// run_stream_with_policy

namespace {

/// Run `spec` on a cluster built from `cfg`, under the controller `make`
/// builds for that cluster, following the runner's aggregate phase.
void run_controlled_stream(
    const cluster::ClusterConfig& cfg, const tenancy::StreamSpec& spec,
    const std::function<std::shared_ptr<PairController>(cluster::Cluster&)>& make,
    MetaStreamResult& out) {
  cluster::Cluster cl(cfg);
  const std::shared_ptr<PairController> ctl = make(cl);
  tenancy::StreamRunner sr(cl, spec);
  ctl->attach_stream(sr.phases());
  sr.start();
  cl.simr().run();
  out.stream = sr.finish();
  out.arm_pulls = ctl->pulls();
  out.arm_switches = ctl->switches();
  out.switch_failures = ctl->switch_failures();
  out.decays = ctl->decays();
}

}  // namespace

MetaStreamResult run_stream_with_policy(cluster::ClusterConfig cfg,
                                        const tenancy::StreamSpec& spec) {
  MetaStreamResult out;
  const tenancy::MetaSpec& m = spec.meta;

  if (m.policy == tenancy::MetaPolicy::kNone ||
      m.policy == tenancy::MetaPolicy::kStatic) {
    if (m.policy == tenancy::MetaPolicy::kStatic) {
      if (const auto p = SchedulerPair::from_letters(m.pair)) cfg.pair = *p;
    }
    out.boot_pair = cfg.pair.letters();
    out.stream = tenancy::run_stream(cfg, spec);
    return out;
  }

  if (m.policy == tenancy::MetaPolicy::kOffline) {
    // Algorithm 1, profiled once on a healthy side cluster: the class named
    // by meta.profile (default: the first class) at its midpoint size
    // stands in for the whole stream — exactly the stale-corpus assumption
    // the online policies exist to drop.
    const tenancy::ClassSpec* cls = &spec.classes.front();
    for (const auto& c : spec.classes) {
      if (c.name == m.profile) cls = &c;
    }
    const auto model = workloads::by_name(cls->workload);
    const std::int64_t bytes =
        static_cast<std::int64_t>((cls->mb_min + cls->mb_max) / 2) *
        mapred::kMiB;
    const mapred::JobConf jc = workloads::make_job(*model, bytes);

    cluster::ClusterConfig side = cfg;
    side.faults = {};  // the profiler never sees the faults coming
    MetaSchedulerOptions opts;
    opts.plan = PhasePlan::for_job(jc, side.n_hosts * side.vms_per_host);
    MetaScheduler ms(side, jc, opts);
    MetaResult r = ms.optimize();
    out.profile_runs = static_cast<int>(r.profile.size());
    out.heuristic_evals = r.heuristic_evaluations;
    out.schedule_key = r.solution.key();

    cfg.pair = r.solution.initial();
    out.boot_pair = cfg.pair.letters();
    run_controlled_stream(
        cfg, spec,
        [&r](cluster::Cluster& cl) { return PairController::replay(cl, r.solution); },
        out);
    return out;
  }

  // kUcb / kEgreedy: one shared learning state across every job in the run.
  const OnlineConfig oc =
      OnlineConfig::from_meta(m, sim::derive_run_seed(cfg.seed, 3));
  out.boot_pair = cfg.pair.letters();
  run_controlled_stream(
      cfg, spec,
      [&oc](cluster::Cluster& cl) { return PairController::bandit(cl, oc); },
      out);
  return out;
}

}  // namespace iosim::core
