#include "cluster/runner.hpp"

#include <cassert>
#include <memory>
#include <utility>

#include "check/check.hpp"
#include "obs/attribution.hpp"
#include "sim/random.hpp"

namespace iosim::cluster {

namespace {

/// A one-job hook in chain form (the index is always 0).
ChainSetupHook as_chain_hook(const SetupHook& setup) {
  if (!setup) return {};
  return [&setup](Cluster& cl, mapred::Job& job, int) { setup(cl, job); };
}

/// Admits the chain's jobs one at a time: job k+1 inside job k's on_done.
struct Chain {
  Cluster& cl;
  const std::vector<mapred::JobConf>& confs;
  const ChainSetupHook& setup;
  std::vector<std::unique_ptr<mapred::Job>> jobs;

  void admit(std::size_t k) {
    jobs.push_back(std::make_unique<mapred::Job>(
        cl.env(), confs[k], cl.config().seed ^ (0x9E3779B97F4A7C15ULL + k)));
    mapred::Job& job = *jobs.back();
    if (setup) setup(cl, job, static_cast<int>(k));
    // Every hook below chains onto (not over) whatever `setup` installed.
    if (auto* at = obs::attribution()) {
      // Key attribution records by MapReduce phase: 0 = map, 1 = shuffle,
      // 2 = reduce.
      at->set_phase(0);
      auto prev_maps = std::move(job.on_maps_done);
      job.on_maps_done = [at, prev = std::move(prev_maps)](sim::Time t) {
        if (prev) prev(t);
        at->set_phase(1);
      };
      auto prev_shuffle = std::move(job.on_shuffle_done);
      job.on_shuffle_done = [at, prev = std::move(prev_shuffle)](sim::Time t) {
        if (prev) prev(t);
        at->set_phase(2);
      };
    }
    if (k + 1 < confs.size()) {
      // A failed job never fires on_done, so the chain stops there.
      auto prev_done = std::move(job.on_done);
      job.on_done = [this, k, prev = std::move(prev_done)](sim::Time t) {
        if (prev) prev(t);
        admit(k + 1);
      };
    }
    job.run();
  }
};

}  // namespace

RunResult run_job_chain(const ClusterConfig& cfg,
                        const std::vector<mapred::JobConf>& confs,
                        const ChainSetupHook& setup) {
  assert(!confs.empty());
  Cluster cl(cfg);
  Chain chain{cl, confs, setup, {}};
  chain.admit(0);
  cl.simr().run();

  if (auto* ck = check::auditor()) {
    // Drain-only invariants (conservation, emptiness) are meaningless after
    // a budget stop — the run was cut mid-flight by design.
    const bool drained = cl.simr().stop_reason() == sim::StopReason::kDrained;
    check::verify_simulator(*ck, cl.simr(), drained);
    if (drained) ck->verify_end_of_run(cl.simr().now().ns());
  }

  RunResult r;
  r.stop = cl.simr().stop_reason();
  for (const auto& job : chain.jobs) r.jobs.push_back(job->stats());
  const mapred::Job& last = *chain.jobs.back();
  r.stats = r.jobs.back();
  r.failed = last.failed();
  r.failure = last.failure();
  if (!last.done() && !r.failed) {
    // The event loop stopped with the job unfinished: either the budget /
    // watchdog tripped, or the queue genuinely drained mid-job (a
    // simulation deadlock, which stays an assertion failure in debug
    // builds).
    assert(r.stop != sim::StopReason::kDrained &&
           "job neither completed nor aborted — simulation deadlock");
    r.failed = true;
    r.failure = std::string("simulation stopped early (") + sim::to_string(r.stop) +
                ") after " + std::to_string(cl.simr().executed()) + " events at t=" +
                cl.simr().now().to_string();
  }
  r.seconds = (r.stats.t_done - r.jobs.front().t_start).sec();
  for (const mapred::JobStats& s : r.jobs) {
    r.ph1_seconds += (s.t_maps_done - s.t_start).sec();
    r.ph2_seconds += (s.t_shuffle_done - s.t_maps_done).sec();
    r.ph3_seconds += (s.t_done - s.t_shuffle_done).sec();
    r.ph23_seconds += (s.t_done - s.t_maps_done).sec();
  }
  return r;
}

RunResult run_job(const ClusterConfig& cfg, const mapred::JobConf& job_conf,
                  const SetupHook& setup) {
  return run_job_chain(cfg, {job_conf}, as_chain_hook(setup));
}

RunResult run_job_chain_avg(const ClusterConfig& cfg,
                            const std::vector<mapred::JobConf>& confs,
                            int n_seeds, const ChainSetupHook& setup) {
  assert(n_seeds > 0);
  RunResult acc;
  for (int i = 0; i < n_seeds; ++i) {
    ClusterConfig c = cfg;
    c.seed = sim::derive_run_seed(cfg.seed, static_cast<std::uint64_t>(i));
    RunResult r = run_job_chain(c, confs, setup);
    if (i == 0) {  // keep one representative set of stats
      acc.stats = std::move(r.stats);
      acc.jobs = std::move(r.jobs);
    }
    if (r.failed && !acc.failed) {
      acc.failed = true;
      acc.failure = r.failure;
      acc.stop = r.stop;
    }
    acc.seconds += r.seconds;
    acc.ph1_seconds += r.ph1_seconds;
    acc.ph2_seconds += r.ph2_seconds;
    acc.ph3_seconds += r.ph3_seconds;
    acc.ph23_seconds += r.ph23_seconds;
  }
  const double k = 1.0 / n_seeds;
  acc.seconds *= k;
  acc.ph1_seconds *= k;
  acc.ph2_seconds *= k;
  acc.ph3_seconds *= k;
  acc.ph23_seconds *= k;
  return acc;
}

RunResult run_job_avg(const ClusterConfig& cfg, const mapred::JobConf& job_conf,
                      int n_seeds, const SetupHook& setup) {
  return run_job_chain_avg(cfg, {job_conf}, n_seeds, as_chain_hook(setup));
}

}  // namespace iosim::cluster
