// iosim: tenancy::run_job_chain, rehosted on the stream engine.
//
// The chain API predates multi-tenancy; it survives because the
// meta-scheduler, the chain tests, and ext_job_chain all speak it. The
// sequencing logic itself now lives in tenancy::StreamRunner's sequential
// mode — this translation unit only adapts the types. Byte-compat is load
// bearing: per-job seeds, admission inside the predecessor's on_done, and
// legacy identity are all preserved, and the pinned chain digest in
// trace_digest_test holds the line.
#include <cassert>

#include "sim/random.hpp"
#include "tenancy/chain_runner.hpp"
#include "tenancy/stream_runner.hpp"

namespace iosim::tenancy {

ChainResult run_job_chain(const cluster::ClusterConfig& cfg,
                          const std::vector<mapred::JobConf>& confs,
                          const ChainSetupHook& setup) {
  assert(!confs.empty());
  cluster::Cluster cl(cfg);
  std::vector<StreamRunner::PlannedEntry> plan;
  plan.reserve(confs.size());
  for (std::size_t i = 0; i < confs.size(); ++i) {
    StreamRunner::PlannedEntry e;
    e.conf = confs[i];
    e.seed = cfg.seed ^ (0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(i));
    plan.push_back(std::move(e));
  }
  StreamRunner::Options opts;
  opts.sequential = true;
  opts.setup = setup;
  StreamRunner sr(cl, std::move(plan), std::move(opts));
  sr.start();
  cl.simr().run();
  const StreamResult res = sr.finish();

  ChainResult r;
  for (std::size_t i = 0; i < confs.size(); ++i) {
    if (res.jobs[i].completed) {
      r.jobs.push_back(sr.job_stats(static_cast<int>(i)));
    }
  }
  assert(r.jobs.size() == confs.size() && "chain did not complete");
  r.seconds = cl.simr().now().sec();
  return r;
}

ChainResult run_job_chain_avg(const cluster::ClusterConfig& cfg,
                              const std::vector<mapred::JobConf>& confs,
                              int n_seeds, const ChainSetupHook& setup) {
  assert(n_seeds > 0);
  ChainResult acc;
  for (int i = 0; i < n_seeds; ++i) {
    cluster::ClusterConfig c = cfg;
    c.seed = sim::derive_run_seed(cfg.seed, static_cast<std::uint64_t>(i));
    ChainResult r = run_job_chain(c, confs, setup);
    if (i == 0) acc.jobs = r.jobs;
    acc.seconds += r.seconds;
  }
  acc.seconds /= n_seeds;
  return acc;
}

}  // namespace iosim::tenancy
