// iosim: statistical aggregation of a sweep's run matrix.
//
// Groups the executor's outputs by scenario point, summarizes every metric
// across the point's repeats (mean / min / max / p50 / p95 / 95% CI via
// sim::summarize), and renders the result as versioned BENCH JSON
// ("bench_format": 1) and as a human table. Aggregation walks runs in
// run_index order and the JSON writer formats doubles reproducibly, so the
// file is byte-identical for any worker count.
#pragma once

#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/scenario.hpp"
#include "metrics/table.hpp"
#include "sim/stats.hpp"

namespace iosim::exp {

/// The BENCH JSON schema version this build writes.
inline constexpr int kBenchFormat = 1;

struct MetricSummary {
  std::string name;
  sim::Summary s;
};

struct PointAggregate {
  ScenarioPoint point;
  std::size_t runs = 0;      // outputs recorded for this point
  std::size_t failures = 0;  // of which failed
  std::vector<MetricSummary> metrics;  // successful runs only, emission order
};

struct SweepAggregate {
  std::vector<PointAggregate> points;  // expansion order
  std::size_t total_runs = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
};

SweepAggregate aggregate(const ScenarioSpec& spec,
                         const std::vector<ScenarioPoint>& points,
                         const std::vector<RunTask>& tasks, const ExecResult& exec);

/// Versioned BENCH JSON of the whole sweep. `partial` marks an artifact
/// written by a gracefully cancelled sweep (SIGINT/SIGTERM): the key is
/// emitted only when true, so complete sweeps stay byte-identical to
/// pre-robustness outputs (and to a resumed run of the same spec).
std::string to_json(const ScenarioSpec& spec, const SweepAggregate& agg,
                    bool partial = false);

/// Human table: one row per point, the summary columns of the mode's
/// primary metric (seconds / adaptive_seconds). The `vs cc` column is the
/// point's mean relative to the point with the same other axes and pair
/// (c,c) — negative is faster than the default pair — or `-` when the sweep
/// has no such point or its pair axis holds a single pair (every point
/// would be its own reference).
metrics::Table to_table(const ScenarioSpec& spec, const SweepAggregate& agg);

}  // namespace iosim::exp
