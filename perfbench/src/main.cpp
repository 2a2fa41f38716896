// iosim_perfbench — the benchmark program.
//
//   iosim_perfbench --input FILE --seconds S --trace 0|1 --out-dir DIR
//
// FILE holds the generated inputs of one workload (perfbench/run.py writes
// it from the seed): either a list of single jobs, or a scenario spec for
// the experiment executor. The untraced pass (--trace 0) repeats the
// workload's fixed batch for S seconds and prints the end-to-end metrics;
// the traced pass (--trace 1) prints the per-layer metrics. Either way the
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// and the exit code is non-zero when any output check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/artifact.hpp"
#include "experiments.hpp"
#include "host_speed.hpp"
#include "iosched/scheduler.hpp"
#include "obs/attribution.hpp"
#include "rigs.hpp"
#include "util.hpp"

namespace perfbench {

using namespace iosim;

namespace {

// --- inputs ------------------------------------------------------------------

struct Input {
  std::string workload;
  std::vector<JobExp> jobs;  // single-job workloads
  std::string spec;          // executor workloads
  int workers = 2;
  bool stream() const { return !spec.empty(); }
};

bool read_input(const std::string& path, Input* in, std::string* err) {
  std::ifstream f(path);
  if (!f) {
    *err = "cannot read input " + path;
    return false;
  }
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key.empty() || key[0] == '#') continue;
    if (key == "workload") {
      ls >> in->workload;
    } else if (key == "workers") {
      ls >> in->workers;
    } else if (key == "job") {
      std::string wl, vmm, guest;
      std::uint64_t seed = 0;
      ls >> wl >> vmm >> guest >> seed;
      const auto v = iosched::scheduler_from_string(vmm);
      const auto g = iosched::scheduler_from_string(guest);
      if (!ls || !v || !g || (wl != "sort" && wl != "wordcount")) {
        *err = "bad job line: " + line;
        return false;
      }
      in->jobs.push_back({wl, {*v, *g}, seed});
    } else if (key == "spec") {
      std::ostringstream rest;
      rest << f.rdbuf();
      in->spec = rest.str();
    } else {
      *err = "unknown input line: " + line;
      return false;
    }
  }
  if (in->workload.empty() || (in->jobs.empty() == in->spec.empty())) {
    *err = "input needs a workload name and either job lines or a spec";
    return false;
  }
  return true;
}

// --- result --------------------------------------------------------------------

/// Outcome accounting of one process: experiments (and stream jobs)
/// attempted, and how many failed or failed a check.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::string first_error;
  void note(bool bad, const std::string& why) {
    ++attempted;
    if (!bad) return;
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

void print_result(const Tally& t, const Metrics& m) {
  for (const auto& x : m) {
    std::printf("%-34s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  if (!t.first_error.empty()) std::printf("check failed: %s\n", t.first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              t.failed == 0 ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].name.c_str(), m[i].value, m[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Peak resident set of this process image, from VmHWM (getrusage's
/// ru_maxrss would also count the launcher's memory from before exec).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

/// Repeat `batch` at least `min_batches` times and until `seconds` have
/// passed since `t_start`; returns how many batches ran. `between` runs
/// after every batch.
template <class Fn, class Between>
int repeat_for(double t_start, double seconds, int min_batches, Fn batch, Between between) {
  int n = 0;
  while (n < min_batches || host_now() - t_start < seconds) {
    batch(n++);
    between();
  }
  return n;
}

/// Set-up takes tens of microseconds: time it alone, this many times after
/// every batch (so each trial meets the same warm process), and keep the
/// median trial of each round.
constexpr int kSetupTrials = 101;

/// The median set-up trial of one round.
template <class Setup>
double setup_round(Setup setup) {
  std::vector<double> trials;
  for (int i = 0; i < kSetupTrials; ++i) trials.push_back(setup());
  return median(trials);
}

/// The end-to-end metrics of an untraced pass.
Metrics end_to_end(const Tally& tally, double wall, const std::vector<double>& setups,
                   const HostSpeed& speed, double meta_speedup, double alg1_speedup) {
  return {{"wall_s", wall, "s"},
          {"setup_s", median(setups), "s"},
          // The probe's tables are resident for the whole run; they are
          // not the simulator's memory.
          {"peak_rss_mb", peak_rss_mb() - speed.resident_mb(), "MB"},
          {"ok_frac", tally.attempted ? 1.0 - static_cast<double>(tally.failed) /
                                            static_cast<double>(tally.attempted)
                                      : 0.0, "frac"},
          {"meta_speedup_vs_default", meta_speedup, "x"},
          {"alg1_speedup_vs_default", alg1_speedup, "x"}};
}

// --- fig2: single jobs -----------------------------------------------------------

/// One batch of single jobs; every batch must reproduce the first exactly.
struct JobBatch {
  std::vector<JobOutcome> outs;
};

void check_job_batch(const JobBatch& b, const JobBatch* first, Tally& t) {
  for (std::size_t i = 0; i < b.outs.size(); ++i) {
    const JobOutcome& o = b.outs[i];
    t.note(o.failed, "experiment " + std::to_string(i) + ": " + o.why);
    if (first && (o.makespan_s != first->outs[i].makespan_s ||
                  !same_counts(o.counts, first->outs[i].counts))) {
      t.fail("experiment " + std::to_string(i) + " not reproducible within one process");
    }
  }
}

int untraced_jobs(const Input& in, double seconds) {
  const double t_start = host_now();
  Tally tally;
  SpanLog off;
  HostSpeed speed(1);
  std::vector<double> setups;                              // reference s per round
  std::vector<std::vector<double>> exp_s(in.jobs.size());  // reference s per experiment
  std::vector<double> host_s;                              // host s per experiment run
  JobBatch first;
  const int batches = repeat_for(
      t_start, seconds, 3,
      [&](int b) {
        JobBatch batch;
        for (std::size_t i = 0; i < in.jobs.size(); ++i) {
          const double t0 = host_now();
          batch.outs.push_back(run_job_exp(in.jobs[i], false, off, -1, static_cast<int>(i)));
          host_s.push_back(host_now() - t0);
          exp_s[i].push_back(host_s.back() * speed.probe());
        }
        check_job_batch(batch, b ? &first : nullptr, tally);
        if (b == 0) first = std::move(batch);
      },
      [&] {
        setups.push_back(setup_round([&] { return setup_job_exp(in.jobs.front()); }) *
                         speed.probe());
      });
  // The batch at each experiment's median repetition.
  double wall = 0.0;
  for (const auto& v : exp_s) wall += median(v);
  std::uint64_t events = 0;
  for (const auto& o : first.outs) events += o.counts.events;
  std::printf("batch: %zu experiments, %llu simulator events, %d repetitions; "
              "median experiment %.3f host s, median probe %.4f host s\n",
              first.outs.size(), static_cast<unsigned long long>(events), batches,
              median(host_s), speed.probe_median_s());
  // No meta-scheduler runs here: the default pair is the only policy, so
  // its speedup over itself is exactly 1.
  print_result(tally, end_to_end(tally, wall, setups, speed, 1.0, 1.0));
  return tally.failed == 0 ? 0 : 1;
}

// --- fig7: executor sweep ----------------------------------------------------------

void check_sweep(const SweepOutcome& o, const SweepOutcome* first, Tally& t) {
  for (std::size_t i = 0; i < o.runs.size(); ++i) {
    const StreamRun& r = o.runs[i];
    // Each stream job counts as attempted; a failed run fails them all.
    t.attempted += r.planned;
    if (!r.ok) t.fail("run " + std::to_string(i) + ": " + r.error);
    t.failed += r.failed;
    if (first && r.makespan_s != first->runs[i].makespan_s) {
      t.fail("run " + std::to_string(i) + " not reproducible within one process");
    }
  }
}

int untraced_sweep(const Input& in, double seconds) {
  const double t_start = host_now();
  Tally tally;
  StreamSweep sw;
  std::string err;
  if (!load_sweep(in.spec, &sw, &err)) {
    tally.fail("spec does not parse: " + err);
    print_result(tally, {});
    return 1;
  }
  HostSpeed speed(std::max(1, in.workers));  // a lane per worker
  std::vector<double> setups;                               // reference s per round
  std::vector<std::vector<double>> run_s(sw.tasks.size());  // reference s per run
  std::vector<double> walls;                                // host s per batch
  SweepOutcome first;
  const int batches = repeat_for(
      t_start, seconds, 3,
      [&](int b) {
        load_sweep(in.spec, &sw, &err);
        sw.workers = in.workers;
        SweepOutcome o = run_sweep(sw, &speed);
        walls.push_back(o.wall_s);
        for (std::size_t i = 0; i < o.runs.size(); ++i) run_s[i].push_back(o.runs[i].ref_s);
        check_sweep(o, b ? &first : nullptr, tally);
        if (b == 0) first = std::move(o);
      },
      [&] {
        double parse_s = 0.0, build_s = 0.0;
        setups.push_back(
            setup_round([&] { return setup_sweep(in.spec, in.workers, &parse_s, &build_s); }) *
            speed.probe());
      });
  const Gain meta = paired_gain(sw, first.runs, "ucb", "");
  const Gain alg1 = paired_gain(sw, first.runs, "offline", "batch");
  if (meta.pairs == 0 || alg1.pairs == 0) tally.fail("spec has no paired none/ucb/offline runs");
  std::printf("meta gain vs default: %+.3f%%  alg1 gain vs default: %+.3f%% (%d pairs)\n",
              meta.pct, alg1.pct, meta.pairs);
  std::printf("batch: %zu runs, %d repetitions; median batch %.3f host s with probes, "
              "median probe %.4f host s\n",
              run_s.size(), batches, median(walls), speed.probe_median_s());
  // The batch rebuilt from each run's median repetition: runs go, in the
  // order the executor hands them out, to whichever worker frees up first.
  std::vector<double> free_at(static_cast<std::size_t>(std::max(1, sw.workers)), 0.0);
  for (const auto& t : sw.tasks) {
    auto w = std::min_element(free_at.begin(), free_at.end());
    *w += median(run_s[t.run_index]);
  }
  const double wall = *std::max_element(free_at.begin(), free_at.end());
  print_result(tally, end_to_end(tally, wall, setups, speed, meta.speedup, alg1.speedup));
  return tally.failed == 0 ? 0 : 1;
}

// --- traced pass -------------------------------------------------------------------

/// The per-layer metric names, in print order, with their units. Every
/// workload prints all of them; a layer a workload never runs reads 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.slots_hwm", "count"},
      {"sim.schedule_fire_ns", "ns"}, {"sim.schedule_cancel_ns", "ns"},
      {"blk.guest.bios", "count"}, {"blk.guest.requests", "count"},
      {"blk.guest.merge_ratio", "frac"}, {"blk.dom0.bios", "count"},
      {"blk.dom0.requests", "count"}, {"blk.dom0.merge_ratio", "frac"},
      {"blk.switches", "count"}, {"blk.dom0.busy_s", "s"}, {"blk.submit_ns", "ns"},
      {"iosched.noop.ns_per_rq", "ns"}, {"iosched.deadline.ns_per_rq", "ns"},
      {"iosched.anticipatory.ns_per_rq", "ns"}, {"iosched.cfq.ns_per_rq", "ns"},
      {"disk.service_ns", "ns"}, {"virt.domu_roundtrip_ns", "ns"},
      {"net.bytes", "bytes"}, {"net.start_flow_ns", "ns"},
      {"mapred.ph1_host_s", "s"}, {"mapred.ph2_host_s", "s"}, {"mapred.ph3_host_s", "s"},
      {"mapred.ph1_events", "count"}, {"mapred.ph2_events", "count"},
      {"mapred.ph3_events", "count"}, {"mapred.sim_job_s", "s"},
      {"mapred.shuffle_mb", "MB"}, {"cluster.build_s", "s"},
      {"core.none.run_host_s", "s"}, {"core.static.run_host_s", "s"},
      {"core.offline.run_host_s", "s"}, {"core.ucb.run_host_s", "s"},
      {"core.egreedy.run_host_s", "s"}, {"meta.pulls", "count"},
      {"meta.arm_switches", "count"}, {"meta.profile_runs", "count"},
      {"meta.heuristic_evals", "count"}, {"core.arm_select_ns", "ns"},
      {"core.meta_gain_vs_default_pct", "%"}, {"core.alg1_gain_vs_default_pct", "%"},
      {"tenancy.jobs_completed", "count"}, {"tenancy.jobs_failed", "count"},
      {"tenancy.batch.p95_s", "s"}, {"tenancy.ui.p95_s", "s"},
      {"exp.parse_expand_s", "s"}, {"exp.worker_busy_frac", "frac"},
      {"exp.json_write_s", "s"},
      {"obs.guest_queue.p50_ns", "ns"}, {"obs.guest_queue.p99_ns", "ns"},
      {"obs.ring_wait.p50_ns", "ns"}, {"obs.ring_wait.p99_ns", "ns"},
      {"obs.elv_wait.p50_ns", "ns"}, {"obs.elv_wait.p99_ns", "ns"},
      {"obs.service.p50_ns", "ns"}, {"obs.service.p99_ns", "ns"},
      {"obs.ret.p50_ns", "ns"}, {"obs.ret.p99_ns", "ns"},
      {"obs.total.p50_ns", "ns"}, {"obs.total.p99_ns", "ns"},
      {"obs.records_completed", "count"}, {"obs.attr_overhead_ratio", "x"},
      {"trace.overhead_ratio", "x"}};
  return names;
}

/// Collects per-layer values by name and prints them in the fixed order.
class LayerMetrics {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  void merge(const Metrics& m) {
    for (const auto& x : m) values_[x.name] = x.value;
  }
  Metrics ordered() const {
    Metrics out;
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

void set_counts(LayerMetrics& lm, const LayerCounts& c, double loop_host_s) {
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  lm.set("sim.events", static_cast<double>(c.events));
  lm.set("sim.events_per_s", loop_host_s > 0 ? static_cast<double>(c.events) / loop_host_s : 0);
  lm.set("sim.slots_hwm", static_cast<double>(c.slots_hwm));
  lm.set("blk.guest.bios", static_cast<double>(c.guest.bios));
  lm.set("blk.guest.requests", static_cast<double>(c.guest.requests()));
  lm.set("blk.guest.merge_ratio", ratio(c.guest.merges, c.guest.bios));
  lm.set("blk.dom0.bios", static_cast<double>(c.dom0.bios));
  lm.set("blk.dom0.requests", static_cast<double>(c.dom0.requests()));
  lm.set("blk.dom0.merge_ratio", ratio(c.dom0.merges, c.dom0.bios));
  lm.set("blk.switches", static_cast<double>(c.guest.switches + c.dom0.switches));
  lm.set("blk.dom0.busy_s", static_cast<double>(c.dom0.busy_ns) * 1e-9);
  lm.set("net.bytes", static_cast<double>(c.net_bytes));
}

/// Median lane quantiles over every attribution key, folded into one
/// sketch per lane.
void set_lanes(LayerMetrics& lm, obs::Attribution& at) {
  for (int l = 0; l < obs::kNumLanes; ++l) {
    obs::QuantileSketch all;
    for (std::size_t k = 0; k < at.n_keys(); ++k) all.merge(at.lane(k, static_cast<obs::Lane>(l)));
    const std::string base = std::string("obs.") + obs::lane_name(static_cast<obs::Lane>(l));
    lm.set(base + ".p50_ns", static_cast<double>(all.quantile(0.50)));
    lm.set(base + ".p99_ns", static_cast<double>(all.quantile(0.99)));
  }
  lm.set("obs.records_completed", static_cast<double>(at.records_completed()));
}

/// The attribution check: one record per guest request.
void check_records(const obs::Attribution& at, std::uint64_t guest_requests, Tally& t) {
  if (at.records_completed() != guest_requests) {
    t.fail("attribution kept " + std::to_string(at.records_completed()) +
           " records for " + std::to_string(guest_requests) + " guest requests");
  }
}

int traced_jobs(const Input& in, double seconds, SpanLog& spans) {
  const double t_start = host_now();
  Tally tally;
  SpanLog off;
  LayerMetrics lm;
  const int root = spans.open("traced_pass");

  // Alternate untraced and traced batches for half the run.
  std::vector<double> plain, traced, builds;
  JobBatch first, traced_first;
  int b = 0;
  while (b < 2 || host_now() - t_start < seconds * 0.5) {
    const bool trace = (b % 2 == 1);
    JobBatch batch;
    const double t0 = host_now();
    const int bspan = trace ? spans.open("batch", root) : -1;
    for (std::size_t i = 0; i < in.jobs.size(); ++i) {
      const int exp_id = static_cast<int>(i);
      SpanLog& log = trace ? spans : off;
      const int espan = log.open("experiment." + in.jobs[i].workload, bspan, exp_id);
      batch.outs.push_back(run_job_exp(in.jobs[i], trace, log, espan, exp_id));
      log.close(espan);
      builds.push_back(batch.outs.back().build_s);
    }
    spans.close(bspan);
    (trace ? traced : plain).push_back(host_now() - t0);
    check_job_batch(batch, first.outs.empty() ? nullptr : &first, tally);
    if (first.outs.empty()) first = batch;
    if (trace && traced_first.outs.empty()) traced_first = std::move(batch);
    ++b;
  }

  // Layer counts and milestone split of one traced batch (counts are exact
  // and identical across batches; host times are from that batch).
  LayerCounts counts;
  double loop_s = 0.0, ph_s[3] = {0, 0, 0}, ph_ev[3] = {0, 0, 0}, sim_s = 0.0;
  std::int64_t shuffle = 0;
  for (const auto& o : traced_first.outs) {
    counts.add(o.counts);
    loop_s += o.run_s;
    for (int p = 0; p < 3; ++p) {
      ph_s[p] += o.ph_host_s[p];
      ph_ev[p] += static_cast<double>(o.ph_events[p]);
    }
    sim_s += o.makespan_s;
    shuffle += o.shuffle_bytes;
  }
  set_counts(lm, counts, loop_s);
  for (int p = 0; p < 3; ++p) {
    lm.set("mapred.ph" + std::to_string(p + 1) + "_host_s", ph_s[p]);
    lm.set("mapred.ph" + std::to_string(p + 1) + "_events", ph_ev[p]);
  }
  lm.set("mapred.sim_job_s", sim_s);
  lm.set("mapred.shuffle_mb", static_cast<double>(shuffle) / (1 << 20));
  lm.set("cluster.build_s", median(builds));
  lm.set("trace.overhead_ratio", fastest(traced) / fastest(plain));

  // Rigs at this workload's mix, on the paper testbed's 4 hosts.
  Metrics rigs;
  run_rigs(RigMix::from(counts, in.jobs.front().pair, 4), 3, spans, root, &rigs);
  lm.merge(rigs);

  // Attribution on/off, alternating, on the first experiment.
  {
    const Scoped span(spans, "obs_pairs", root);
    std::vector<double> on, offs;
    for (int p = 0; p < 3; ++p) {
      for (int side = 0; side < 2; ++side) {
        const bool attr = ((p + side) % 2 == 1);
        std::optional<obs::AttributionSession> session;
        if (attr) session.emplace();
        const double t0 = host_now();
        const JobOutcome o = run_job_exp(in.jobs.front(), false, off, -1, 0);
        (attr ? on : offs).push_back(host_now() - t0);
        tally.note(o.failed, "obs pair: " + o.why);
        if (attr) {
          check_records(session->attribution(), o.counts.guest.requests(), tally);
          if (on.size() == 1) set_lanes(lm, session->attribution());
        }
      }
    }
    lm.set("obs.attr_overhead_ratio", fastest(on) / fastest(offs));
  }

  // Determinism guard: the same experiment again, through this program and
  // through cluster::run_job, must reproduce the simulated results exactly.
  {
    const Scoped span(spans, "determinism", root);
    const JobOutcome again = run_job_exp(in.jobs.front(), false, off, -1, 0);
    const JobOutcome& ref = first.outs.front();
    if (again.makespan_s != ref.makespan_s || !same_counts(again.counts, ref.counts)) {
      tally.fail("determinism: re-run of experiment 0 differs");
    }
    if (run_job_reference(in.jobs.front()) != ref.makespan_s) {
      tally.fail("determinism: cluster::run_job makespan differs from this program's");
    }
  }
  spans.close(root);
  print_result(tally, lm.ordered());
  return tally.failed == 0 ? 0 : 1;
}

int traced_sweep(const Input& in, double seconds, SpanLog& spans, const std::string& out_dir) {
  const double t_start = host_now();
  Tally tally;
  LayerMetrics lm;
  const int root = spans.open("traced_pass");

  std::vector<double> parse_s, build_s;
  for (int i = 0; i < 5; ++i) {
    double p = 0.0, bl = 0.0;
    const Scoped span(spans, "setup", root);
    if (setup_sweep(in.spec, in.workers, &p, &bl) < 0.0) {
      tally.fail("spec does not parse");
      print_result(tally, {});
      return 1;
    }
    parse_s.push_back(p);
    build_s.push_back(bl);
  }
  lm.set("exp.parse_expand_s", median(parse_s));
  lm.set("cluster.build_s", median(build_s));

  StreamSweep sw;
  std::string err;
  load_sweep(in.spec, &sw, &err);
  sw.workers = in.workers;

  std::vector<double> plain, traced;
  SweepOutcome first, traced_first;
  int b = 0;
  while (b < 2 || host_now() - t_start < seconds * 0.5) {
    const bool trace = (b % 2 == 1);
    const double t0 = host_now();
    const int bspan = spans.open(trace ? "batch" : "batch.untraced", root);
    SweepOutcome o = trace ? run_sweep_traced(sw, spans, bspan) : run_sweep(sw);
    spans.close(bspan);
    (trace ? traced : plain).push_back(host_now() - t0);
    check_sweep(o, first.runs.empty() ? nullptr : &first, tally);
    if (first.runs.empty()) {
      first = std::move(o);
    } else if (trace && traced_first.runs.empty()) {
      traced_first = std::move(o);
    }
    ++b;
  }
  lm.set("trace.overhead_ratio", fastest(traced) / fastest(plain));

  // The executor's view of the untraced batch.
  double busy = 0.0;
  for (const auto& r : first.runs) busy += r.host_s;
  lm.set("exp.worker_busy_frac", busy / (sw.workers * first.wall_s));
  {
    const Scoped span(spans, "json_write", root);
    const double t0 = host_now();
    const auto agg = exp::aggregate(sw.spec, sw.points, sw.tasks, first.exec);
    std::string werr;
    if (!exp::write_file_atomic(out_dir + "/BENCH_" + in.workload + ".json",
                                exp::to_json(sw.spec, agg), &werr)) {
      tally.fail("BENCH JSON write failed: " + werr);
    }
    lm.set("exp.json_write_s", host_now() - t0);
  }

  // Per-policy host cost, meta counters, tenancy outcomes, and the layer
  // counts of the runs that expose their cluster.
  std::map<std::string, std::vector<double>> host_by_policy;
  LayerCounts counts;
  double loop_s = 0.0, sim_s = 0.0, batch_p95 = 0.0, ui_p95 = 0.0;
  double pulls = 0, switches = 0, profiles = 0, evals = 0, done = 0, failed = 0;
  std::int64_t shuffle = 0;
  for (const auto& t : sw.tasks) {
    const StreamRun& r = traced_first.runs[t.run_index];
    host_by_policy[policy_of(sw.points[t.point_index])].push_back(r.host_s);
    pulls += static_cast<double>(r.meta_pulls);
    switches += static_cast<double>(r.meta_switches);
    profiles += static_cast<double>(r.meta_profile_runs);
    evals += static_cast<double>(r.meta_heuristic_evals);
    done += r.completed;
    failed += r.failed;
    batch_p95 += r.batch_p95_s / static_cast<double>(sw.tasks.size());
    ui_p95 += r.ui_p95_s / static_cast<double>(sw.tasks.size());
    if (r.counted) {
      counts.add(r.counts);
      loop_s += r.host_s;
      sim_s += r.job_sim_s;
      shuffle += r.shuffle_bytes;
    }
  }
  for (const auto& [pol, v] : host_by_policy) lm.set("core." + pol + ".run_host_s", median(v));
  set_counts(lm, counts, loop_s);
  lm.set("mapred.sim_job_s", sim_s);
  lm.set("mapred.shuffle_mb", static_cast<double>(shuffle) / (1 << 20));
  lm.set("meta.pulls", pulls);
  lm.set("meta.arm_switches", switches);
  lm.set("meta.profile_runs", profiles);
  lm.set("meta.heuristic_evals", evals);
  lm.set("tenancy.jobs_completed", done);
  lm.set("tenancy.jobs_failed", failed);
  lm.set("tenancy.batch.p95_s", batch_p95);
  lm.set("tenancy.ui.p95_s", ui_p95);

  const Gain meta = paired_gain(sw, first.runs, "ucb", "");
  const Gain alg1 = paired_gain(sw, first.runs, "offline", "batch");
  lm.set("core.meta_gain_vs_default_pct", meta.pct);
  lm.set("core.alg1_gain_vs_default_pct", alg1.pct);

  const exp::ScenarioPoint& p0 = sw.points[sw.tasks.front().point_index];
  Metrics rigs;
  run_rigs(RigMix::from(counts, p0.pair, p0.hosts), 3, spans, root, &rigs);
  lm.merge(rigs);

  // Locate the (family 0, repeat 0) runs of the none, ucb and offline arms.
  const exp::RunTask* none_task = nullptr;
  std::vector<const exp::RunTask*> guard;
  for (const auto& t : sw.tasks) {
    const exp::ScenarioPoint& pt = sw.points[t.point_index];
    if (t.repeat != 0 || family_of(sw, pt) != 0) continue;
    const std::string pol = policy_of(pt);
    if (pol == "none") none_task = &t;
    if (pol == "none" || pol == "ucb" || (pol == "offline" && profile_of(pt) == "batch")) {
      guard.push_back(&t);
    }
  }
  if (none_task == nullptr || guard.size() != 3) {
    tally.fail("spec lacks the none/ucb/offline arms the guard replays");
  } else {
    // Attribution on/off, alternating, on the first stream run.
    {
      const Scoped span(spans, "obs_pairs", root);
      std::vector<double> on, offs;
      for (int p = 0; p < 5; ++p) {
        for (int side = 0; side < 2; ++side) {
          const bool attr = ((p + side) % 2 == 1);
          std::optional<obs::AttributionSession> session;
          if (attr) session.emplace();
          const StreamRun r = run_stream_point(sw, *none_task);
          (attr ? on : offs).push_back(r.host_s);
          if (!r.ok) tally.fail("obs pair: " + r.error);
          if (attr) {
            check_records(session->attribution(), r.counts.guest.requests(), tally);
            if (on.size() == 1) set_lanes(lm, session->attribution());
          }
        }
      }
      lm.set("obs.attr_overhead_ratio", fastest(on) / fastest(offs));
    }
    // Determinism guard: replay the three arms of one (family, seed) pair.
    const Scoped span(spans, "determinism", root);
    for (const exp::RunTask* t : guard) {
      const StreamRun again = run_stream_point(sw, *t);
      const StreamRun& ref = traced_first.runs[t->run_index];
      if (again.makespan_s != first.runs[t->run_index].makespan_s ||
          again.makespan_s != ref.makespan_s ||
          (again.counted && !same_counts(again.counts, ref.counts))) {
        tally.fail("determinism: re-run of run " + std::to_string(t->run_index) + " differs");
      }
    }
    const Gain meta2 = paired_gain(sw, traced_first.runs, "ucb", "");
    const Gain alg12 = paired_gain(sw, traced_first.runs, "offline", "batch");
    if (meta2.speedup != meta.speedup || alg12.speedup != alg1.speedup) {
      tally.fail("determinism: gains differ between the untraced and traced batches");
    }
  }
  spans.close(root);
  print_result(tally, lm.ordered());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

bool SpanLog::write_json(const std::string& path) const {
  std::string s = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& x = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"parent\": %d, \"exp\": %d}%s\n",
                  i, x.name.c_str(), x.start, x.end, x.parent, x.exp,
                  i + 1 < spans_.size() ? "," : "");
    s += buf;
  }
  s += "]\n";
  std::string err;
  return exp::write_file_atomic(path, s, &err);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string input, out_dir = ".";
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--input") input = v;
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--out-dir") out_dir = v;
    else {
      std::fprintf(stderr, "usage: %s --input FILE --seconds S --trace 0|1 --out-dir DIR\n", argv[0]);
      return 2;
    }
  }
  Input in;
  std::string err;
  if (!read_input(input, &in, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (trace == 0) return in.stream() ? untraced_sweep(in, seconds) : untraced_jobs(in, seconds);

  SpanLog spans(true);
  const int rc = in.stream() ? traced_sweep(in, seconds, spans, out_dir)
                             : traced_jobs(in, seconds, spans);
  spans.write_json(out_dir + "/spans_" + in.workload + ".json");
  return rc;
}
