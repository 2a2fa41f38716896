// The benchmark's experiments, driven through the simulator's public API:
// single MapReduce jobs on the paper testbed (fig2_*), and the fig7_online
// stream sweep through the experiment executor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/scenario.hpp"
#include "host_speed.hpp"
#include "iosched/pair.hpp"
#include "util.hpp"

namespace iosim::cluster {
class Cluster;
}

namespace perfbench {

// --- layer counters read from a live cluster -----------------------------

/// Block-layer counters summed over one level (every guest, or every Dom0).
struct LevelCounts {
  std::uint64_t bios = 0;
  std::uint64_t merges = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t switches = 0;
  std::uint64_t busy_ns = 0;
  std::int64_t bytes[2] = {0, 0};  // read, write
  /// Requests allocated (bios that did not back-merge).
  std::uint64_t requests() const { return bios - merges; }
  void add(const LevelCounts& o);
};

/// What one simulation did, read from its public counters.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t slots_hwm = 0;
  LevelCounts guest;
  LevelCounts dom0;
  std::int64_t net_bytes = 0;
  void add(const LayerCounts& o);
};

LayerCounts read_counts(iosim::cluster::Cluster& cl);

/// Exact equality of every simulated count (the determinism guard).
bool same_counts(const LayerCounts& a, const LayerCounts& b);

// --- fig2: one job on the paper testbed ----------------------------------

struct JobExp {
  std::string workload;  // "sort" | "wordcount"
  iosim::iosched::SchedulerPair pair;
  std::uint64_t seed = 1;
};

struct JobOutcome {
  /// Set when the job failed or an output check failed; `why` says which.
  bool failed = false;
  std::string why;
  double makespan_s = 0.0;  // simulated
  LayerCounts counts;
  std::int64_t map_output_bytes = 0;
  std::int64_t shuffle_bytes = 0;
  std::int64_t output_bytes = 0;
  // Host time.
  double build_s = 0.0;  // Cluster construction
  double run_s = 0.0;    // event loop
  // Milestone split (filled when `phases` is requested).
  double ph_host_s[3] = {0, 0, 0};
  std::uint64_t ph_events[3] = {0, 0, 0};
};

/// Run one job the way cluster::run_job does, step by step through the
/// same public calls, but keep the cluster alive until its counters are read
/// and checked. `phases` chains host-time milestone hooks onto the job (the
/// traced pass); spans go to `spans` under `parent`.
JobOutcome run_job_exp(const JobExp& e, bool phases, SpanLog& spans, int parent,
                       int exp_id);

/// Build the cluster and job of `e`, lay out the input, and tear everything
/// down without running the event loop: the workload's set-up alone.
double setup_job_exp(const JobExp& e);

/// Simulated makespan of `e` through cluster::run_job itself.
double run_job_reference(const JobExp& e);

// --- fig7_online: stream sweep through the executor ----------------------

struct StreamSweep {
  iosim::exp::ScenarioSpec spec;
  std::vector<iosim::exp::ScenarioPoint> points;
  std::vector<iosim::exp::RunTask> tasks;
  int workers = 2;
};

/// Parse and expand a spec; false + `err` on a malformed spec.
bool load_sweep(const std::string& text, StreamSweep* out, std::string* err);

/// One stream run's outcome.
struct StreamRun {
  bool ok = true;
  std::string error;
  double makespan_s = 0.0;  // simulated
  int planned = 0;
  int completed = 0;
  int failed = 0;
  int shed = 0;
  double host_s = 0.0;
  double ref_s = 0.0;  // host_s in reference seconds, when a probe ran
  // Traced pass only.
  double batch_p95_s = 0.0;
  double ui_p95_s = 0.0;
  bool counted = false;  // layer counts below were read (none/static runs)
  LayerCounts counts;
  double job_sim_s = 0.0;  // sum of job elapsed, simulated
  std::int64_t shuffle_bytes = 0;
  std::int64_t meta_pulls = 0, meta_switches = 0, meta_profile_runs = 0,
               meta_heuristic_evals = 0;
};

struct SweepOutcome {
  std::vector<StreamRun> runs;  // by run_index
  double wall_s = 0.0;
  iosim::exp::ExecResult exec;  // what the executor returned
};

/// The untraced batch: exactly the executor + exp::make_run_fn path that a
/// sweep of this spec takes. With `speed`, each worker also probes the host
/// after every run (lane = the worker's order of first run) and fills the
/// run's `ref_s`; `speed` needs a lane per worker.
SweepOutcome run_sweep(const StreamSweep& sw, HostSpeed* speed = nullptr);

/// The traced batch: the same runs, each under a span and a metrics
/// registry; none/static points also expose their cluster's counters.
SweepOutcome run_sweep_traced(const StreamSweep& sw, SpanLog& spans, int parent);

/// Run one stream point on the calling thread, counting its cluster.
StreamRun run_stream_point(const StreamSweep& sw, const iosim::exp::RunTask& t);

/// Spec parse + expansion + executor start + the first runs' cluster
/// builds: the sweep's set-up alone. `parse_s` gets the parse+expand part.
double setup_sweep(const std::string& text, int workers, double* parse_s,
                   double* build_s);

/// Which meta policy a point runs ("none", "static", "offline", "ucb",
/// "egreedy"), and its offline profile class ("" otherwise).
std::string policy_of(const iosim::exp::ScenarioPoint& p);
std::string profile_of(const iosim::exp::ScenarioPoint& p);
/// Index of the point's stream family in the spec's stream axis.
int family_of(const StreamSweep& sw, const iosim::exp::ScenarioPoint& p);

/// Paired gains of `policy` (with `profile`, "" = any) over `none` on the
/// same (family, seed): mean of T_none / T_policy (speedup, ratio), and the
/// mean of 100 * (T_none - T_policy) / T_none (percent).
struct Gain {
  double speedup = 0.0;
  double pct = 0.0;
  int pairs = 0;
};
Gain paired_gain(const StreamSweep& sw, const std::vector<StreamRun>& runs,
                 const std::string& policy, const std::string& profile);

}  // namespace perfbench
