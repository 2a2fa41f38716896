// Host-speed probe: a fixed kernel, independent of the simulator, timed
// between repetitions of a workload so that host times can be rescaled to a
// reference host speed.
//
// A shared host runs the benchmark at a speed that drifts by tens of
// percent over minutes, as other tenants come and go; a slow phase can
// outlast a whole run. The kernel below is shaped like the simulator's hot
// loop (pop the earliest event off a binary heap, touch a random slot of a
// table larger than L2, branch on what it finds, push the event back), so
// it slows down with the simulator when a neighbour competes for the same
// core, cache or memory. Dividing a workload's host time by the kernel's
// time measured next to it removes most of that drift. The kernel is
// benchmark code: no change to the simulator moves it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Host seconds the probe kernel is taken to need at the reference host
/// speed. Reference seconds = host seconds × kReferenceProbeS ÷ the probe's
/// host seconds measured alongside. The value is about the probe's time on
/// the 4-vCPU Xeon KVM guest the benchmark was written on, in its quieter
/// phases, so that reference seconds read about as host seconds there.
/// Comparisons between commits only ever use ratios, which cancel it out.
inline constexpr double kReferenceProbeS = 0.025;

/// Host times of a pass rescaled to the reference host speed: whoever times
/// a piece of work probes right after it, on the same thread, and the piece
/// is divided by the mean of the probes just before and just after it.
/// Threads that time work at once (the executor's workers) each use their
/// own lane: a table and a previous probe of their own.
class HostSpeed {
 public:
  /// Allocates and touches every lane's table, and probes lane 0.
  explicit HostSpeed(int lanes);

  /// Probe `lane` now, on the calling thread; returns the factor that turns
  /// a host time measured on this thread since the lane's previous probe
  /// into reference seconds.
  double probe(int lane = 0);

  /// Probe `lane` now only to open a bracket: the next probe(lane) pairs
  /// with this one.
  void sample(int lane);

  /// The median probe so far, over every lane, in host seconds.
  double probe_median_s() const;

  /// Memory the probe keeps resident (its tables), in MB.
  double resident_mb() const;

 private:
  std::vector<std::vector<std::uint64_t>> tables_;
  std::vector<std::vector<double>> probes_;  // per lane, host s
};

}  // namespace perfbench
