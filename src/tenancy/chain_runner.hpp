// iosim: chained MapReduce jobs on one cluster (the paper's Pig scenario,
// Section IV-C: "a chain of MapReduce jobs (e.g., those specified in Pig)"
// is what makes the assignment space S^P large and the heuristic
// necessary).
//
// Jobs run strictly back to back — job k+1 starts when job k commits —
// sharing the cluster's disks, caches (head positions), and elevator
// state, so a pair switched for the tail of one job is still in force at
// the head of the next.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/runner.hpp"

namespace iosim::tenancy {

struct ChainResult {
  double seconds = 0.0;                  // start of job 0 -> end of last job
  std::vector<mapred::JobStats> jobs;    // per-job stats, in order
};

/// Hook invoked once per job right before it starts: (cluster, job,
/// job_index). The chain experiment uses it to hand each job's phase events
/// to its pair controller.
using ChainSetupHook = std::function<void(cluster::Cluster&, mapred::Job&, int)>;

/// Run `confs` back to back on one cluster built from `cfg`.
ChainResult run_job_chain(const cluster::ClusterConfig& cfg,
                          const std::vector<mapred::JobConf>& confs,
                          const ChainSetupHook& setup = {});

/// Averaged over `n_seeds` (paper methodology).
ChainResult run_job_chain_avg(const cluster::ClusterConfig& cfg,
                              const std::vector<mapred::JobConf>& confs,
                              int n_seeds, const ChainSetupHook& setup = {});

}  // namespace iosim::tenancy
