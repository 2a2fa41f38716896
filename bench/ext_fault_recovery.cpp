// Extension — failure recovery under the PR's acceptance scenario: a sort
// job rides out a transient-error burst, one fail-slow disk, and an
// elevator-switch command that never succeeds. The job must complete with
// the same logical output as the fault-free run, paying only wall-clock
// time for the retries and replica failovers. A faults-off row is printed
// first so the fault machinery can be shown to cost nothing when disarmed.
#include <memory>

#include "bench_util.hpp"
#include "core/pair_controller.hpp"
#include "fault/fault_plan.hpp"

using namespace iosim;
using namespace iosim::bench;

namespace {

struct Outcome {
  cluster::RunResult r;
  int switches = 0;
  int switch_failures = 0;
};

Outcome run(const fault::FaultPlan& plan, bool speculate) {
  ClusterConfig cfg = paper_cluster();
  cfg.faults = plan;
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  jc.speculative_execution = speculate;

  core::PairSchedule sched;
  sched.phases = {cfg.pair,
                  iosched::SchedulerPair{SchedulerKind::kDeadline,
                                         SchedulerKind::kDeadline}};
  Outcome o;
  std::shared_ptr<core::PairController> ctl;
  o.r = cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
    ctl = core::PairController::replay(cl, sched);
    ctl->attach_job(job, core::PhasePlan{true});
  });
  o.switches = ctl->switches();
  o.switch_failures = ctl->switch_failures();
  return o;
}

std::string status(const cluster::RunResult& r) {
  return r.failed ? "FAILED: " + r.failure : "completed";
}

}  // namespace

int main(int argc, char** argv) {
  iosim::bench::Telemetry telemetry(argc, argv);
  print_header("Extension",
               "failure recovery: retry, HDFS failover, speculation");

  std::string err;
  const auto plan = fault::FaultPlan::parse(
      "transient:host=0,p=0.02,from=1,until=20;"
      "failslow:host=1,factor=3,from=5,until=40;"
      "switchfail:p=1",
      &err);
  if (!plan) {
    std::fprintf(stderr, "bad fault plan: %s\n", err.c_str());
    return 1;
  }

  const Outcome clean = run(fault::FaultPlan{}, /*speculate=*/false);
  const Outcome faulted = run(*plan, /*speculate=*/false);
  const Outcome spec = run(*plan, /*speculate=*/true);

  metrics::Table tab("sort, 256 MiB/VM, phase-adaptive (boot pair -> deadline)");
  tab.headers({"scenario", "status", "seconds", "task retries", "hdfs failovers",
               "speculated", "switches ok/failed"});
  auto row = [&](const char* name, const char* key, const Outcome& o) {
    const auto& s = o.r.stats;
    tab.row({name, status(o.r), metrics::Table::num(o.r.seconds, 1),
             std::to_string(s.map_attempts_failed + s.reduce_attempts_failed),
             std::to_string(s.hdfs_failovers), std::to_string(s.maps_speculated),
             std::to_string(o.switches) + "/" + std::to_string(o.switch_failures)});
    report().add(std::string(key) + ".seconds", o.r.seconds);
    report().add(std::string(key) + ".retries",
                 static_cast<double>(s.map_attempts_failed + s.reduce_attempts_failed));
  };
  row("faults off", "clean", clean);
  row("burst + fail-slow + dead switch", "faulted", faulted);
  row("  + speculative execution", "faulted_spec", spec);
  tab.print();

  metrics::Table chk("correctness: faulted output vs fault-free output");
  chk.headers({"metric", "faults off", "faulted", "faulted+spec"});
  chk.row({"output bytes", std::to_string(clean.r.stats.output_bytes),
           std::to_string(faulted.r.stats.output_bytes),
           std::to_string(spec.r.stats.output_bytes)});
  chk.row({"maps / reduces",
           std::to_string(clean.r.stats.maps_total) + " / " +
               std::to_string(clean.r.stats.reduces_total),
           std::to_string(faulted.r.stats.maps_total) + " / " +
               std::to_string(faulted.r.stats.reduces_total),
           std::to_string(spec.r.stats.maps_total) + " / " +
               std::to_string(spec.r.stats.reduces_total)});
  chk.print();

  print_expectation(
      "the faults-off row reproduces the plain phase-adaptive numbers (the "
      "disarmed fault layer constructs no injector and perturbs nothing); "
      "the faulted rows complete with identical output bytes — transient "
      "errors are absorbed by task retry and replica failover, the fail-slow "
      "disk by re-execution (and faster with speculation), and the dead "
      "switch leaves the boot pair installed after a bounded retry/backoff "
      "ladder, so the job merely loses the adaptive gain instead of hanging.");
  return (clean.r.failed || faulted.r.failed || spec.r.failed) ? 1 : 0;
}
