#include "exp/aggregate.hpp"

#include <cstdio>
#include <map>

#include "exp/json.hpp"

namespace iosim::exp {

SweepAggregate aggregate(const ScenarioSpec& spec,
                         const std::vector<ScenarioPoint>& points,
                         const std::vector<RunTask>& tasks, const ExecResult& exec) {
  SweepAggregate agg;
  agg.total_runs = tasks.size();
  agg.completed = exec.completed;
  agg.failed = exec.failed;
  agg.skipped = exec.skipped;
  agg.points.reserve(points.size());

  // Collect per-point, per-metric sample vectors in run_index order.
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointAggregate pa;
    pa.point = points[p];
    std::vector<std::string> order;                    // metric emission order
    std::map<std::string, std::vector<double>> vals;   // name -> repeat samples
    for (int r = 0; r < spec.repeats; ++r) {
      const std::size_t idx = p * static_cast<std::size_t>(spec.repeats) +
                              static_cast<std::size_t>(r);
      if (idx >= exec.outputs.size() || !exec.outputs[idx].has_value()) continue;
      const RunOutput& out = *exec.outputs[idx];
      ++pa.runs;
      if (!out.ok) {
        ++pa.failures;
        continue;  // a failed run has no trustworthy metrics
      }
      for (const auto& [name, v] : out.metrics) {
        auto it = vals.find(name);
        if (it == vals.end()) {
          order.push_back(name);
          it = vals.emplace(name, std::vector<double>{}).first;
        }
        it->second.push_back(v);
      }
    }
    for (const auto& name : order) {
      pa.metrics.push_back({name, sim::summarize(vals[name])});
    }
    agg.points.push_back(std::move(pa));
  }
  return agg;
}

std::string to_json(const ScenarioSpec& spec, const SweepAggregate& agg,
                    bool partial) {
  JsonWriter w;
  w.obj_begin();
  w.kv("bench_format", kBenchFormat);
  w.kv("kind", "sweep");
  w.kv("name", spec.name);
  w.kv("mode", to_string(spec.mode));
  w.kv("base_seed", spec.base_seed);
  w.kv("repeats", spec.repeats);
  if (partial) w.kv("partial", true);
  w.key("runs").obj_begin();
  w.kv("total", agg.total_runs);
  w.kv("completed", agg.completed);
  w.kv("failed", agg.failed);
  w.kv("skipped", agg.skipped);
  w.obj_end();
  w.key("points").arr_begin();
  for (const auto& pa : agg.points) {
    w.obj_begin();
    w.kv("label", pa.point.label());
    w.kv("workload", pa.point.workload);
    w.kv("hosts", pa.point.hosts);
    w.kv("vms", pa.point.vms);
    w.kv("mb", static_cast<std::int64_t>(pa.point.mb));
    w.kv("pair", pa.point.pair.letters());
    w.kv("fault", pa.point.fault_text);
    w.kv("runs", pa.runs);
    w.kv("failures", pa.failures);
    w.key("metrics").obj_begin();
    for (const auto& m : pa.metrics) {
      w.key(m.name).obj_begin();
      w.kv("n", m.s.n);
      w.kv("mean", m.s.mean);
      w.kv("min", m.s.min);
      w.kv("max", m.s.max);
      w.kv("p50", m.s.p50);
      w.kv("p95", m.s.p95);
      w.kv("ci95", m.s.ci95);
      w.obj_end();
    }
    w.obj_end();
    w.obj_end();
  }
  w.arr_end();
  w.obj_end();
  std::string s = w.str();
  s += '\n';
  return s;
}

metrics::Table to_table(const ScenarioSpec& spec, const SweepAggregate& agg) {
  const std::string primary = spec.mode == RunMode::kAdapt ? "adaptive_seconds" : "seconds";
  const auto find_primary = [&primary](const PointAggregate& pa) -> const MetricSummary* {
    for (const auto& m : pa.metrics) {
      if (m.name == primary) return &m;
    }
    return nullptr;
  };
  // The (c,c) point of every other-axes combination, keyed by its label
  // (labels are unique within an expansion). A single-pair sweep has no
  // comparison to offer: each point would be its own reference.
  std::map<std::string, double> cc_mean;
  if (spec.pairs.size() > 1) {
    for (const auto& pa : agg.points) {
      const MetricSummary* ms = find_primary(pa);
      if (ms && pa.point.pair == iosched::kDefaultPair) cc_mean[pa.point.label()] = ms->s.mean;
    }
  }

  metrics::Table tab(spec.name + " — " + primary + " (" +
                     std::to_string(spec.repeats) + " repeats)");
  tab.headers({"scenario", "mean", "±ci95", "min", "p50", "p95", "max", "vs cc", "runs"});
  for (const auto& pa : agg.points) {
    const MetricSummary* ms = find_primary(pa);
    if (!ms) {
      tab.row({pa.point.label(), "-", "-", "-", "-", "-", "-", "-",
               std::to_string(pa.runs) + (pa.failures ? " (failed)" : "")});
      continue;
    }
    ScenarioPoint cc = pa.point;
    cc.pair = iosched::kDefaultPair;
    const auto it = cc_mean.find(cc.label());
    char vs_cc[32] = "-";
    if (it != cc_mean.end() && it->second != 0.0) {
      std::snprintf(vs_cc, sizeof vs_cc, "%+.1f%%", 100.0 * (ms->s.mean / it->second - 1.0));
    }
    tab.row({pa.point.label(), metrics::Table::num(ms->s.mean, 1),
             metrics::Table::num(ms->s.ci95, 2), metrics::Table::num(ms->s.min, 1),
             metrics::Table::num(ms->s.p50, 1), metrics::Table::num(ms->s.p95, 1),
             metrics::Table::num(ms->s.max, 1), vs_cc, std::to_string(pa.runs)});
  }
  return tab;
}

}  // namespace iosim::exp
