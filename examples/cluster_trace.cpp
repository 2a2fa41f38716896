// Example: run one sort job and dump a CSV trace of Dom0 I/O throughput
// (1-second windows, per host) plus the job's phase boundaries — the raw
// material for the paper's Fig. 3/Fig. 4 style plots.
//
// Usage: cluster_trace [pair] [output.csv]
//   pair: two letters, VMM then VM, from {n,d,a,c} — e.g. "ad" for
//         (anticipatory, deadline). Default: "cc".
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/runner.hpp"
#include "metrics/iostat_sampler.hpp"
#include "workloads/benchmarks.hpp"

using namespace iosim;

int main(int argc, char** argv) {
  const std::string pair_str = argc > 1 ? argv[1] : "cc";
  const std::string out_path = argc > 2 ? argv[2] : "trace.csv";
  if (pair_str.size() != 2) {
    std::fprintf(stderr, "pair must be two letters from {n,d,a,c}\n");
    return 1;
  }
  const auto pair = iosched::SchedulerPair::from_letters(pair_str);
  if (!pair) {
    std::fprintf(stderr, "unknown scheduler letter in '%s'\n", pair_str.c_str());
    return 1;
  }

  cluster::ClusterConfig cfg;
  cfg.pair = *pair;
  const auto jc = workloads::make_job(workloads::stream_sort());

  // Outlives the run: the last tick lands after the job's completion.
  std::unique_ptr<metrics::IostatSampler> sampler;
  const auto r = cluster::run_job(cfg, jc, [&sampler](cluster::Cluster& cl, mapred::Job& job) {
    sampler = std::make_unique<metrics::IostatSampler>(cl.simr());
    for (std::size_t h = 0; h < cl.n_hosts(); ++h) sampler->watch(cl.host(h).dom0_layer());
    sampler->stop_when([&job] { return job.done() || job.failed(); });
    sampler->start();
  });
  const std::size_t n_hosts = sampler->n_layers();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "second");
  for (std::size_t h = 0; h < n_hosts; ++h) std::fprintf(out, ",host%zu_mb_s", h);
  std::fprintf(out, "\n");
  // Every layer gets a sample at every tick: row i is the window (i, i+1] s.
  const std::size_t n = sampler->ticks();
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(out, "%zu", i);
    for (std::size_t h = 0; h < n_hosts; ++h) {
      const auto& s = sampler->series(h)[i];
      std::fprintf(out, ",%.2f", s.read_mb_s + s.write_mb_s);
    }
    std::fprintf(out, "\n");
  }
  std::fclose(out);

  std::printf("pair %s: job %.1fs (maps done %.1fs, shuffle done %.1fs)\n",
              cfg.pair.to_string().c_str(), r.seconds, r.stats.t_maps_done.sec(),
              r.stats.t_shuffle_done.sec());
  std::printf("wrote %zu seconds x %zu hosts of Dom0 throughput to %s\n", n,
              n_hosts, out_path.c_str());
  std::printf("phase boundaries for plotting: ph1 end = %.1f, ph2 end = %.1f, job end = %.1f\n",
              r.stats.t_maps_done.sec(), r.stats.t_shuffle_done.sec(),
              r.stats.t_done.sec());
  return 0;
}
