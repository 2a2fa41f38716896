// iosim: canonical experiment runner — build a cluster, run one MapReduce
// job or a chain of them back to back on it, return the stats. Every bench
// and the meta-scheduler's search go through these helpers so results are
// comparable.
//
// A chain is the paper's Pig scenario (Section IV-C: "a chain of MapReduce
// jobs (e.g., those specified in Pig)" is what makes the assignment space
// S^P large and the heuristic necessary). Jobs run strictly back to back —
// job k+1 is admitted inside job k's completion — sharing the cluster's
// disks, caches (head positions) and elevator state, so a pair switched for
// the tail of one job is still in force at the head of the next. A single
// job is a chain of one: run_job and run_job_chain share one body.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mapred/job.hpp"

namespace iosim::cluster {

struct RunResult {
  /// The last job run: the only job of run_job, the aborted one of a failed
  /// chain. `jobs` holds every job's stats, in order.
  mapred::JobStats stats;
  std::vector<mapred::JobStats> jobs;
  /// First job's start -> last job's end (stats.elapsed() for one job).
  double seconds = 0.0;

  /// Set when a job aborted (fault injection exhausted a task's attempt
  /// budget or killed every replica of a block) or the simulator's budget
  /// stopped the event loop before the last job finished; `failure` carries
  /// the diagnostic, `seconds` measures start -> abort, and no job after the
  /// aborted one ran.
  bool failed = false;
  std::string failure;

  /// Why the event loop returned (sim::StopReason::kDrained for a normal
  /// completion). Anything else means the ClusterConfig budget tripped —
  /// kAborted marks an external (wall-clock watchdog) abort, which callers
  /// may treat as retryable where budget trips are deterministic.
  sim::StopReason stop = sim::StopReason::kDrained;

  /// Phase durations with the paper's boundaries, summed over the jobs.
  double ph1_seconds = 0.0;  // start -> all maps done
  double ph2_seconds = 0.0;  // maps done -> shuffle done
  double ph3_seconds = 0.0;  // shuffle done -> job done
  /// Two-phase view (the paper merges Ph2 into Ph3 at >= ~2 waves).
  double ph23_seconds = 0.0;
};

/// Hook invoked after the Job is constructed but before it runs — used by
/// pair controllers to subscribe to phase events, and by probes.
using SetupHook = std::function<void(Cluster&, mapred::Job&)>;
/// The chain form: (cluster, job, job index in the chain).
using ChainSetupHook = std::function<void(Cluster&, mapred::Job&, int)>;

/// Run `job_conf` on a cluster built from `cfg`. The cluster boots with
/// `cfg.pair`; `setup` may attach observers / controllers.
RunResult run_job(const ClusterConfig& cfg, const mapred::JobConf& job_conf,
                  const SetupHook& setup = {});

/// Run `confs` back to back on one cluster built from `cfg`; job k uses task
/// seed cfg.seed ^ (0x9E3779B97F4A7C15 + k). Stops at the first failed job.
RunResult run_job_chain(const ClusterConfig& cfg,
                        const std::vector<mapred::JobConf>& confs,
                        const ChainSetupHook& setup = {});

/// Average of `n_seeds` runs (the paper reports the average of three
/// consecutive runs). Run i uses sim::derive_run_seed(cfg.seed, i), so the
/// repeat streams are pairwise independent and averages for adjacent base
/// seeds share no runs. `stats` and `jobs` come from run 0; the first failed
/// run's diagnostic marks the average failed.
RunResult run_job_avg(const ClusterConfig& cfg, const mapred::JobConf& job_conf,
                      int n_seeds, const SetupHook& setup = {});
RunResult run_job_chain_avg(const ClusterConfig& cfg,
                            const std::vector<mapred::JobConf>& confs,
                            int n_seeds, const ChainSetupHook& setup = {});

}  // namespace iosim::cluster
