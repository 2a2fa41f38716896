// Fig. 3 — CDFs of the I/O throughput observed in the VMM (Dom0) and in
// the VMs of one physical machine while running sort, under (cfq, cfq)
// versus (anticipatory, deadline).
//
// Shapes: the anticipatory VMM achieves the higher maximum and mean Dom0
// throughput (paper: max 184 vs 159 MB/s, mean 52.3 vs 47.1 MB/s); the
// (anticipatory, deadline) VMs see higher mean per-VM throughput, while
// (cfq, cfq) spreads throughput more evenly across the VMs (better
// fairness).
#include <algorithm>
#include <memory>
#include <numeric>

#include "bench_util.hpp"
#include "metrics/iostat_sampler.hpp"
#include "sim/stats.hpp"

using namespace iosim;
using namespace iosim::bench;

namespace {

struct CdfResult {
  std::vector<double> dom0;  // host 0's Dom0 MB/s, one sample per 1-s window
  std::vector<double> vm_mean_mb_s;
  double elapsed = 0;
  std::vector<double> read_ms;  // host 0's Dom0 read latencies

  double dom0_mean() const {
    return dom0.empty() ? 0.0
                        : std::accumulate(dom0.begin(), dom0.end(), 0.0) /
                              static_cast<double>(dom0.size());
  }
  double dom0_max() const {
    return dom0.empty() ? 0.0 : *std::max_element(dom0.begin(), dom0.end());
  }
};

CdfResult run_with(SchedulerPair pair) {
  ClusterConfig cfg = paper_cluster();
  cfg.pair = pair;
  const auto jc = workloads::make_job(workloads::stream_sort());

  CdfResult out;
  // Outlives the run: the last tick lands after the job's completion.
  std::unique_ptr<metrics::IostatSampler> sampler;
  (void)cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
    // Observe host 0: its Dom0 layer and each of its guests.
    auto& host = cl.host(0);
    sampler = std::make_unique<metrics::IostatSampler>(cl.simr());
    sampler->watch(host.dom0_layer());
    sampler->stop_when([&job] { return job.done() || job.failed(); });
    sampler->start();
    host.dom0_layer().add_completion_observer(
        [&out](const blk::BlockLayer&, const iosched::Request& rq, sim::Time now) {
          if (rq.dir == iosched::Dir::kRead) out.read_ms.push_back((now - rq.submit).ms());
        });
    job.on_done = [&out, &host](sim::Time t) {
      out.elapsed = t.sec();
      for (std::size_t v = 0; v < host.vm_count(); ++v) {
        const auto& c = host.vm(v).layer().counters();
        const auto bytes = c.bytes_completed[0] + c.bytes_completed[1];
        out.vm_mean_mb_s.push_back(static_cast<double>(bytes) / out.elapsed / 1e6);
      }
    };
  });
  for (const auto& s : sampler->series(0)) out.dom0.push_back(s.read_mb_s + s.write_mb_s);
  return out;
}

void print_cdf_summary(const char* label, const CdfResult& r, const char* key) {
  std::printf("\n%s (job %.1fs)\n", label, r.elapsed);
  const double read_p50 = sim::percentile_nearest_rank(r.read_ms, 0.50);
  const double read_p99 = sim::percentile_nearest_rank(r.read_ms, 0.99);
  const std::string k(key);
  report().add(k + ".job_seconds", r.elapsed);
  report().add(k + ".dom0_mean_mb_s", r.dom0_mean());
  report().add(k + ".dom0_max_mb_s", r.dom0_max());
  report().add(k + ".vm_fairness", sim::jain_fairness(r.vm_mean_mb_s));
  report().add(k + ".read_p99_ms", read_p99);
  const auto q = [&r](double p) {
    return metrics::Table::num(sim::percentile_nearest_rank(r.dom0, p), 1);
  };
  metrics::Table tab("Dom0 I/O throughput CDF (1s windows, MB/s)");
  tab.headers({"p10", "p25", "p50", "p75", "p90", "max", "mean"});
  tab.row({q(0.10), q(0.25), q(0.50), q(0.75), q(0.90),
           metrics::Table::num(r.dom0_max(), 1), metrics::Table::num(r.dom0_mean(), 1)});
  tab.print();

  std::printf("per-VM mean throughput (MB/s):");
  double avg = 0;
  for (double v : r.vm_mean_mb_s) {
    std::printf(" %.2f", v);
    avg += v;
  }
  avg /= static_cast<double>(r.vm_mean_mb_s.size());
  std::printf("  | avg %.2f | Jain fairness %.3f\n", avg,
              sim::jain_fairness(r.vm_mean_mb_s));
  std::printf("Dom0 read latency: p50 %.1f ms, p99 %.1f ms\n", read_p50, read_p99);
}

}  // namespace

int main(int argc, char** argv) {
  iosim::bench::Telemetry telemetry(argc, argv);
  print_header("Fig 3", "I/O throughput CDFs in VMM and VMs during sort (host 0)");

  const CdfResult cc = run_with(iosched::kDefaultPair);
  const CdfResult ad =
      run_with({SchedulerKind::kAnticipatory, SchedulerKind::kDeadline});

  print_cdf_summary("(cfq, cfq)", cc, "cc");
  print_cdf_summary("(anticipatory, deadline)", ad, "ad");

  std::printf("\nDom0 mean MB/s: (a,d) %.1f vs (c,c) %.1f  (paper: 52.3 vs 47.1)\n",
              ad.dom0_mean(), cc.dom0_mean());
  std::printf("Dom0 max  MB/s: (a,d) %.1f vs (c,c) %.1f  (paper: 184 vs 159)\n",
              ad.dom0_max(), cc.dom0_max());
  std::printf("VM fairness   : (c,c) %.3f vs (a,d) %.3f  (paper: cfq fairer)\n",
              sim::jain_fairness(cc.vm_mean_mb_s), sim::jain_fairness(ad.vm_mean_mb_s));
  print_expectation(
      "(anticipatory, deadline) achieves the better overall throughput while "
      "(cfq, cfq) achieves better fairness amongst the VMs.");
  return 0;
}
