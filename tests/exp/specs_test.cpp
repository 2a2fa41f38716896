// The committed bench/specs/*.spec files are the only way to run the paper's
// figures, so every one must keep parsing and expanding, and the figure
// specs must keep their point counts. The paired-seed test pins the claim
// that a seed_mode=repeat spec reproduces the per-pair seed averages of
// cluster::run_job_avg, the tail test Table II's per-run metric, and the
// table test the `vs cc` column that carries each pair's gain over the
// default pair.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/runner.hpp"
#include "exp/aggregate.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::exp {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchSpecs, EveryCommittedSpecParsesAndExpands) {
  const std::map<std::string, std::size_t> figure_points = {
      {"fig2", 48}, {"table1", 16}, {"fig8", 4},  {"table2", 9},
      {"fig7a", 3}, {"fig7b", 3},   {"fig7c", 4}, {"fig7d", 4}};
  std::size_t figures_seen = 0;
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(IOSIM_SPECS_DIR)) {
    if (entry.path().extension() != ".spec") continue;
    ++specs;
    const std::string file = entry.path().filename().string();
    std::string err;
    const auto spec = ScenarioSpec::parse(read_file(entry.path()), &err);
    ASSERT_TRUE(spec.has_value()) << file << ": " << err;
    const auto points = spec->expand();
    EXPECT_EQ(points.size(), spec->n_points()) << file;
    EXPECT_EQ(build_run_matrix(*spec).size(), spec->n_runs()) << file;
    const auto it = figure_points.find(entry.path().stem().string());
    if (it != figure_points.end()) {
      ++figures_seen;
      EXPECT_EQ(points.size(), it->second) << file;
    }
  }
  EXPECT_GE(specs, figure_points.size());
  EXPECT_EQ(figures_seen, figure_points.size());
}

TEST(BenchSpecs, PairedSeedMeanMatchesRunJobAvg) {
  const auto spec = ScenarioSpec::parse(
      "name=paired\nmode=run\nbase_seed=1\nrepeats=3\nseed_mode=repeat\n"
      "pair=cc,ad\nworkload=sort\nhosts=2\nvms=2\nmb=64\n");
  ASSERT_TRUE(spec.has_value());
  const auto points = spec->expand();
  const auto tasks = build_run_matrix(*spec);
  const auto exec = execute_all(tasks, make_run_fn(points));
  ASSERT_TRUE(exec.all_ok());
  const auto agg = aggregate(*spec, points, tasks, exec);
  ASSERT_EQ(agg.points.size(), 2u);
  const auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  for (const auto& pa : agg.points) {
    cluster::ClusterConfig cfg;
    cfg.n_hosts = 2;
    cfg.vms_per_host = 2;
    cfg.pair = pa.point.pair;
    cfg.seed = spec->base_seed;
    const double want = cluster::run_job_avg(cfg, jc, spec->repeats).seconds;
    ASSERT_FALSE(pa.metrics.empty());
    ASSERT_EQ(pa.metrics[0].name, "seconds");
    EXPECT_NEAR(pa.metrics[0].s.mean, want, 1e-9 * want) << pa.point.label();
  }
}

TEST(BenchSpecs, ShuffleTailPctIsEachRunsOwnRatio) {
  // Table II averages the per-run tail share, which differs from the ratio
  // of the phase means, so the sweep must carry the per-run value.
  const auto spec = ScenarioSpec::parse(
      "name=tail\nmode=run\nbase_seed=3\nrepeats=2\nseed_mode=repeat\n"
      "pair=cc\nworkload=sort\nhosts=2\nvms=2\nmb=128\n");
  ASSERT_TRUE(spec.has_value());
  const auto points = spec->expand();
  ASSERT_EQ(points.size(), 1u);
  const auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  for (const auto& task : build_run_matrix(*spec)) {
    const RunOutput out = execute_point(points[task.point_index], task.seed);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_FALSE(out.metrics.empty());
    EXPECT_EQ(out.metrics.back().first, "shuffle_tail_pct");
    cluster::ClusterConfig cfg;
    cfg.n_hosts = 2;
    cfg.vms_per_host = 2;
    cfg.seed = task.seed;
    const double want = cluster::run_job(cfg, jc).stats.shuffle_tail_pct();
    EXPECT_GT(want, 0.0);
    EXPECT_EQ(out.metrics.back().second, want);
  }
}

TEST(BenchSpecs, TableComparesEachPointWithItsDefaultPair) {
  // Fake runs: seconds = 100 * hosts, +10% for (a,d). Each (a,d) row reads
  // +10.0% against the (c,c) row of its own hosts value; a sweep with no
  // (c,c) point prints "-", and so does a single-pair sweep, whose every
  // point would be its own reference.
  const auto fake = [](const ScenarioPoint& p) {
    RunOutput o;
    const double base = 100.0 * p.hosts;
    o.metrics = {{"seconds", p.pair == iosched::kDefaultPair ? base : 1.1 * base}};
    return o;
  };
  const auto vs_cc_column = [&fake](const std::string& text) {
    const auto spec = ScenarioSpec::parse(text);
    EXPECT_TRUE(spec.has_value());
    const auto points = spec->expand();
    const auto tasks = build_run_matrix(*spec);
    const auto exec = execute_all(
        tasks, [&](const RunTask& t) { return fake(points[t.point_index]); });
    std::istringstream csv(to_table(*spec, aggregate(*spec, points, tasks, exec)).to_csv());
    std::vector<std::string> col;
    for (std::string line; std::getline(csv, line);) {
      std::vector<std::string> cells;
      std::istringstream row(line);
      for (std::string c; std::getline(row, c, ',');) cells.push_back(c);
      col.push_back(cells.at(cells.size() - 2));  // labels hold commas: count from the end
    }
    return col;
  };
  EXPECT_EQ(vs_cc_column("repeats=1\npair=cc,ad\nhosts=2,3\n"),
            (std::vector<std::string>{"vs cc", "+0.0%", "+10.0%", "+0.0%", "+10.0%"}));
  EXPECT_EQ(vs_cc_column("repeats=1\npair=ad\n"),
            (std::vector<std::string>{"vs cc", "-"}));
  EXPECT_EQ(vs_cc_column("repeats=1\npair=cc\nhosts=2,3\n"),
            (std::vector<std::string>{"vs cc", "-", "-"}));
}

}  // namespace
}  // namespace iosim::exp
