#include "experiments.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/runner.hpp"
#include "core/online_scheduler.hpp"
#include "exp/runner.hpp"
#include "mapred/job.hpp"
#include "obs/attribution.hpp"
#include "tenancy/stream_runner.hpp"
#include "trace/registry.hpp"
#include "workloads/benchmarks.hpp"

namespace perfbench {

using namespace iosim;

// --- counters ------------------------------------------------------------

void LevelCounts::add(const LevelCounts& o) {
  bios += o.bios;
  merges += o.merges;
  dispatched += o.dispatched;
  completed += o.completed;
  switches += o.switches;
  busy_ns += o.busy_ns;
  bytes[0] += o.bytes[0];
  bytes[1] += o.bytes[1];
}

void LayerCounts::add(const LayerCounts& o) {
  events += o.events;
  slots_hwm = std::max(slots_hwm, o.slots_hwm);
  guest.add(o.guest);
  dom0.add(o.dom0);
  net_bytes += o.net_bytes;
}

namespace {

void add_layer(LevelCounts& lv, const blk::BlockLayer& layer) {
  const auto& c = layer.counters();
  LevelCounts one;
  one.bios = c.bios_submitted;
  one.merges = c.back_merges;
  one.dispatched = c.requests_dispatched;
  one.completed = c.requests_completed;
  one.switches = c.scheduler_switches;
  one.busy_ns = c.busy_ns;
  one.bytes[0] = c.bytes_completed[0];
  one.bytes[1] = c.bytes_completed[1];
  lv.add(one);
}

}  // namespace

LayerCounts read_counts(cluster::Cluster& cl) {
  LayerCounts c;
  c.events = cl.simr().executed();
  c.slots_hwm = cl.simr().pool_stats().slots;
  for (std::size_t h = 0; h < cl.n_hosts(); ++h) {
    virt::PhysicalHost& host = cl.host(h);
    add_layer(c.dom0, host.dom0_layer());
    for (std::size_t v = 0; v < host.vm_count(); ++v) add_layer(c.guest, host.vm(v).layer());
  }
  c.net_bytes = cl.env().net->bytes_delivered();
  return c;
}

namespace {

bool same_level(const LevelCounts& a, const LevelCounts& b) {
  return a.bios == b.bios && a.merges == b.merges && a.dispatched == b.dispatched &&
         a.completed == b.completed && a.switches == b.switches &&
         a.busy_ns == b.busy_ns && a.bytes[0] == b.bytes[0] && a.bytes[1] == b.bytes[1];
}

}  // namespace

bool same_counts(const LayerCounts& a, const LayerCounts& b) {
  return a.events == b.events && a.slots_hwm == b.slots_hwm &&
         same_level(a.guest, b.guest) && same_level(a.dom0, b.dom0) &&
         a.net_bytes == b.net_bytes;
}

// --- fig2 ------------------------------------------------------------------

namespace {

/// The seed mix cluster::run_job applies to the job's task stream.
constexpr std::uint64_t kJobSeedMix = 0x9E3779B97F4A7C15ULL;

cluster::ClusterConfig config_of(const JobExp& e) {
  cluster::ClusterConfig cfg;  // the paper testbed: 4 hosts x 4 VMs
  cfg.pair = e.pair;
  cfg.seed = e.seed;
  return cfg;
}

mapred::JobConf job_of(const JobExp& e) {
  return workloads::make_job(*workloads::by_name(e.workload));
}

/// Chain `fn` after whatever milestone hook is already installed.
void chain(std::function<void(sim::Time)>& slot, std::function<void(sim::Time)> fn) {
  slot = [prev = std::move(slot), fn = std::move(fn)](sim::Time t) {
    if (prev) prev(t);
    fn(t);
  };
}

std::string level_drain_error(const char* level, const LevelCounts& lv) {
  if (lv.dispatched == lv.completed) return "";
  return std::string(level) + " block layers dispatched " + std::to_string(lv.dispatched) +
         " requests but completed " + std::to_string(lv.completed);
}

}  // namespace

JobOutcome run_job_exp(const JobExp& e, bool phases, SpanLog& spans, int parent,
                       int exp_id) {
  JobOutcome out;
  const cluster::ClusterConfig cfg = config_of(e);
  const mapred::JobConf jc = job_of(e);

  // Host-time milestones at the paper's phase boundaries (declared before
  // the job whose hooks write them).
  double mark_t[4] = {0, 0, 0, 0};
  std::uint64_t mark_ev[4] = {0, 0, 0, 0};

  const double t0 = host_now();
  const int setup_span = spans.open("setup", parent, exp_id);
  cluster::Cluster cl(cfg);
  const double t_built = host_now();
  cl.simr().set_budget(cfg.budget);
  mapred::Job job(cl.env(), jc, cfg.seed ^ kJobSeedMix);
  sim::Simulator& simr = cl.simr();
  if (phases) {
    chain(job.on_maps_done, [&](sim::Time) {
      mark_t[1] = host_now();
      mark_ev[1] = simr.executed();
    });
    chain(job.on_shuffle_done, [&](sim::Time) {
      mark_t[2] = host_now();
      mark_ev[2] = simr.executed();
    });
    chain(job.on_done, [&](sim::Time) {
      mark_t[3] = host_now();
      mark_ev[3] = simr.executed();
    });
  }
  if (auto* at = obs::attribution()) {
    // Attribution records keyed by phase, as cluster::run_job keys them.
    at->set_phase(0);
    chain(job.on_maps_done, [at](sim::Time) { at->set_phase(1); });
    chain(job.on_shuffle_done, [at](sim::Time) { at->set_phase(2); });
  }
  job.run();
  const double t_loop = host_now();
  spans.close(setup_span);

  const int run_span = spans.open("event_loop", parent, exp_id);
  mark_t[0] = t_loop;
  mark_ev[0] = simr.executed();
  simr.run();
  const double t_end = host_now();
  spans.close(run_span);

  out.build_s = t_built - t0;
  out.run_s = t_end - t_loop;
  out.counts = read_counts(cl);
  const mapred::JobStats& st = job.stats();
  out.makespan_s = st.elapsed().sec();
  out.map_output_bytes = st.map_output_bytes;
  out.shuffle_bytes = st.shuffle_bytes;
  out.output_bytes = st.output_bytes;

  if (phases && job.done()) {
    static const char* kPhase[3] = {"ph1_map", "ph2_shuffle", "ph3_reduce"};
    for (int p = 0; p < 3; ++p) {
      out.ph_host_s[p] = mark_t[p + 1] - mark_t[p];
      out.ph_events[p] = mark_ev[p + 1] - mark_ev[p];
      spans.add(kPhase[p], mark_t[p], mark_t[p + 1], run_span, exp_id);
    }
  }

  // Output checks.
  std::string why;
  if (job.failed()) {
    why = "job failed: " + job.failure();
  } else if (!job.done() || simr.stop_reason() != sim::StopReason::kDrained) {
    why = "event loop stopped before the job finished";
  } else if (st.map_attempts_failed + st.reduce_attempts_failed > 0) {
    why = "fault-free job had failed task attempts";
  } else if (!(why = level_drain_error("guest", out.counts.guest)).empty() ||
             !(why = level_drain_error("dom0", out.counts.dom0)).empty()) {
  } else if (e.workload == "sort" && (st.map_output_bytes != st.shuffle_bytes ||
                                      st.shuffle_bytes != st.output_bytes)) {
    why = "sort bytes disagree: map output " + std::to_string(st.map_output_bytes) +
          ", shuffle " + std::to_string(st.shuffle_bytes) + ", output " +
          std::to_string(st.output_bytes);
  }
  if (!why.empty()) {
    out.failed = true;
    out.why = why;
  }
  return out;
}

double setup_job_exp(const JobExp& e) {
  const cluster::ClusterConfig cfg = config_of(e);
  const mapred::JobConf jc = job_of(e);
  const double t0 = host_now();
  double t1 = 0.0;
  {
    cluster::Cluster cl(cfg);
    cl.simr().set_budget(cfg.budget);
    mapred::Job job(cl.env(), jc, cfg.seed ^ kJobSeedMix);
    job.run();
    t1 = host_now();
  }
  return t1 - t0;
}

double run_job_reference(const JobExp& e) {
  const cluster::RunResult r = cluster::run_job(config_of(e), job_of(e));
  return r.failed ? -1.0 : r.seconds;
}

// --- fig7_online -----------------------------------------------------------

bool load_sweep(const std::string& text, StreamSweep* out, std::string* err) {
  auto spec = exp::ScenarioSpec::parse(text, err);
  if (!spec) return false;
  out->spec = std::move(*spec);
  out->points = out->spec.expand();
  out->tasks = exp::build_run_matrix(out->spec);
  for (const auto& p : out->points) {
    if (p.stream_text.empty()) {
      *err = "spec has a point without a stream";
      return false;
    }
  }
  return true;
}

std::string policy_of(const exp::ScenarioPoint& p) {
  return tenancy::to_string(p.stream.meta.policy);
}

std::string profile_of(const exp::ScenarioPoint& p) {
  return p.stream.meta.policy == tenancy::MetaPolicy::kOffline ? p.stream.meta.profile
                                                               : std::string();
}

int family_of(const StreamSweep& sw, const exp::ScenarioPoint& p) {
  for (std::size_t i = 0; i < sw.spec.streams.size(); ++i) {
    if (sw.spec.streams[i].second == p.stream_text) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// Checks that apply to every fault-free stream run: completed + failed +
/// shed jobs equal the jobs planned, none failed, and (when the cluster was
/// visible) every block level completed what it dispatched.
void check_stream_run(StreamRun& r) {
  if (!r.ok) return;
  std::string why;
  if (r.completed + r.failed + r.shed != r.planned) {
    why = "stream jobs completed " + std::to_string(r.completed) + " + failed " +
          std::to_string(r.failed) + " + shed " + std::to_string(r.shed) +
          " != planned " + std::to_string(r.planned);
  } else if (r.failed > 0) {
    why = std::to_string(r.failed) + " jobs failed in a fault-free stream";
  } else if (r.counted && (r.counts.guest.dispatched != r.counts.guest.completed ||
                           r.counts.dom0.dispatched != r.counts.dom0.completed)) {
    why = "block layers dispatched and completed different request counts";
  }
  if (!why.empty()) {
    r.ok = false;
    r.error = why;
  }
}

double metric(const exp::RunOutput& o, const std::string& name) {
  for (const auto& [k, v] : o.metrics) {
    if (k == name) return v;
  }
  return 0.0;
}

cluster::ClusterConfig stream_config(const exp::ScenarioPoint& pt, std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = pt.hosts;
  cfg.vms_per_host = pt.vms;
  cfg.pair = pt.pair;
  cfg.faults = pt.faults;
  cfg.seed = seed;
  return cfg;
}

StreamRun from_result(const tenancy::StreamResult& r, int planned) {
  StreamRun s;
  s.ok = r.ok;
  s.error = r.error;
  s.makespan_s = r.makespan_s;
  s.planned = planned;
  s.completed = r.jobs_completed;
  s.failed = r.jobs_failed;
  s.shed = r.jobs_shed;
  for (const auto& c : r.classes) {
    if (c.name == "batch") s.batch_p95_s = c.p95_s;
    if (c.name == "ui") s.ui_p95_s = c.p95_s;
  }
  return s;
}

std::int64_t counter(trace::Registry& reg, const char* name) {
  for (const auto& it : reg.items()) {
    if (it.kind == trace::Registry::Kind::kCounter && it.name == name) {
      return reg.counter_at(it.idx).value();
    }
  }
  return 0;
}

/// Run a stream point through tenancy::run_stream / core::run_stream_with_policy
/// (the calls exp::execute_point makes). none/static points run with a
/// per-job hook that reads the cluster's counters and job stats.
StreamRun stream_point(const StreamSweep& sw, const exp::RunTask& t) {
  const exp::ScenarioPoint& pt = sw.points[t.point_index];
  cluster::ClusterConfig cfg = stream_config(pt, t.seed);
  const tenancy::MetaSpec& m = pt.stream.meta;
  const int planned = pt.stream.job_count();
  if (m.policy != tenancy::MetaPolicy::kNone && m.policy != tenancy::MetaPolicy::kStatic) {
    return from_result(core::run_stream_with_policy(cfg, pt.stream).stream, planned);
  }
  if (m.policy == tenancy::MetaPolicy::kStatic && m.pair.size() == 2) {
    const auto vmm = iosched::scheduler_from_string(m.pair.substr(0, 1));
    const auto guest = iosched::scheduler_from_string(m.pair.substr(1, 1));
    if (vmm && guest) cfg.pair = {*vmm, *guest};
  }
  struct Seen {
    LayerCounts counts;
    double job_sim_s = 0.0;
    std::int64_t shuffle_bytes = 0;
  };
  auto seen = std::make_shared<Seen>();
  const tenancy::StreamResult r = tenancy::run_stream(
      cfg, pt.stream, [seen](cluster::Cluster& cl, mapred::Job& job, int) {
        mapred::Job* jp = &job;
        cluster::Cluster* clp = &cl;
        chain(job.on_done, [seen, jp, clp](sim::Time) {
          seen->job_sim_s += jp->stats().elapsed().sec();
          seen->shuffle_bytes += jp->stats().shuffle_bytes;
          seen->counts = read_counts(*clp);  // the last completion's reading stays
        });
      });
  StreamRun s = from_result(r, planned);
  s.counted = true;
  s.counts = seen->counts;
  s.job_sim_s = seen->job_sim_s;
  s.shuffle_bytes = seen->shuffle_bytes;
  return s;
}

}  // namespace

SweepOutcome run_sweep(const StreamSweep& sw, HostSpeed* speed) {
  SweepOutcome out;
  out.runs.resize(sw.tasks.size());
  exp::ExecutorOptions opts;
  opts.workers = sw.workers;
  opts.cancel_on_failure = false;
  opts.on_progress = [&out](const exp::ProgressEvent& ev) {
    out.runs[ev.task->run_index].host_s = ev.wall_seconds;
  };
  exp::RunFn fn = exp::make_run_fn(sw.points);
  std::mutex mu;
  std::map<std::thread::id, int> lanes;
  if (speed) {
    fn = [&, run = std::move(fn)](const exp::RunTask& t) {
      int lane = 0;
      bool fresh = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto [it, added] =
            lanes.try_emplace(std::this_thread::get_id(), static_cast<int>(lanes.size()));
        lane = it->second;
        fresh = added;
      }
      if (fresh) speed->sample(lane);
      const double t0 = host_now();
      exp::RunOutput o = run(t);
      out.runs[t.run_index].ref_s = (host_now() - t0) * speed->probe(lane);
      return o;
    };
  }
  const double t0 = host_now();
  out.exec = exp::execute_all(sw.tasks, fn, opts);
  out.wall_s = host_now() - t0;
  const exp::ExecResult& res = out.exec;
  for (const auto& t : sw.tasks) {
    StreamRun& s = out.runs[t.run_index];
    s.planned = sw.points[t.point_index].stream.job_count();
    const auto& o = res.outputs[t.run_index];
    if (!o) {
      s.ok = false;
      s.error = "run never executed";
      continue;
    }
    s.ok = o->ok;
    s.error = o->error;
    s.makespan_s = metric(*o, "seconds");
    s.completed = static_cast<int>(metric(*o, "jobs_completed"));
    s.failed = static_cast<int>(metric(*o, "jobs_failed"));
    s.shed = static_cast<int>(metric(*o, "jobs_shed"));
    check_stream_run(s);
  }
  return out;
}

SweepOutcome run_sweep_traced(const StreamSweep& sw, SpanLog& spans, int parent) {
  SweepOutcome out;
  out.runs.resize(sw.tasks.size());
  exp::ExecutorOptions opts;
  opts.workers = sw.workers;
  opts.cancel_on_failure = false;
  const exp::RunFn fn = [&](const exp::RunTask& t) {
    const double t0 = host_now();
    const int id = static_cast<int>(t.run_index);
    const int span = spans.open("run." + policy_of(sw.points[t.point_index]), parent, id);
    trace::MetricsSession metrics;
    StreamRun s = stream_point(sw, t);
    auto& reg = metrics.registry();
    s.meta_pulls = counter(reg, "meta.pulls");
    s.meta_switches = counter(reg, "meta.arm_switches");
    s.meta_profile_runs = counter(reg, "meta.profile_runs");
    s.meta_heuristic_evals = counter(reg, "meta.heuristic_evals");
    spans.close(span);
    s.host_s = host_now() - t0;
    check_stream_run(s);
    exp::RunOutput o;
    o.ok = s.ok;
    o.error = s.error;
    out.runs[t.run_index] = std::move(s);  // one slot per run: no sharing
    return o;
  };
  const double t0 = host_now();
  out.exec = exp::execute_all(sw.tasks, fn, opts);
  out.wall_s = host_now() - t0;
  return out;
}

StreamRun run_stream_point(const StreamSweep& sw, const exp::RunTask& t) {
  const double t0 = host_now();
  StreamRun s = stream_point(sw, t);
  s.host_s = host_now() - t0;
  check_stream_run(s);
  return s;
}

double setup_sweep(const std::string& text, int workers, double* parse_s,
                   double* build_s) {
  const double t0 = host_now();
  StreamSweep sw;
  std::string err;
  if (!load_sweep(text, &sw, &err)) return -1.0;
  *parse_s = host_now() - t0;
  sw.workers = workers;
  // The executor starts its workers; each builds its first run's cluster.
  const std::vector<exp::RunTask> first(
      sw.tasks.begin(),
      sw.tasks.begin() + std::min<std::ptrdiff_t>(workers, static_cast<std::ptrdiff_t>(sw.tasks.size())));
  std::vector<double> builds(first.size(), 0.0);
  exp::ExecutorOptions opts;
  opts.workers = workers;
  const exp::RunFn fn = [&](const exp::RunTask& t) {
    const double b0 = host_now();
    cluster::Cluster cl(stream_config(sw.points[t.point_index], t.seed));
    builds[t.run_index] = host_now() - b0;
    return exp::RunOutput{};
  };
  exp::execute_all(first, fn, opts);
  *build_s = median(builds);
  return host_now() - t0;
}

Gain paired_gain(const StreamSweep& sw, const std::vector<StreamRun>& runs,
                 const std::string& policy, const std::string& profile) {
  // (family, repeat) -> makespan of the baseline and of the policy.
  std::map<std::pair<int, int>, std::pair<double, double>> cell;
  for (const auto& t : sw.tasks) {
    const exp::ScenarioPoint& pt = sw.points[t.point_index];
    const std::string pol = policy_of(pt);
    const auto key = std::make_pair(family_of(sw, pt), t.repeat);
    const double T = runs[t.run_index].makespan_s;
    if (pol == "none") cell[key].first = T;
    if (pol == policy && (profile.empty() || profile_of(pt) == profile)) cell[key].second = T;
  }
  Gain g;
  for (const auto& [key, v] : cell) {
    if (v.first <= 0.0 || v.second <= 0.0) continue;
    g.speedup += v.first / v.second;
    g.pct += 100.0 * (v.first - v.second) / v.first;
    ++g.pairs;
  }
  if (g.pairs > 0) {
    g.speedup /= g.pairs;
    g.pct /= g.pairs;
  }
  return g;
}

}  // namespace perfbench
