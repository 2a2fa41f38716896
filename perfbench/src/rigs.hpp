// Single-layer rigs: each drives one layer's public API alone, with the
// operation mix the measured workload showed, and reports host ns per
// operation (the pattern of bench/micro_sim.cpp).
#pragma once

#include "experiments.hpp"
#include "iosched/pair.hpp"
#include "util.hpp"

namespace perfbench {

/// The operation mix a workload showed, derived from its layer counters.
struct RigMix {
  iosim::iosched::SchedulerPair pair;
  int hosts = 4;
  std::uint64_t heap_events = 1024;  // concurrent events (sim.slots_hwm)
  double write_frac = 0.5;           // Dom0 write bytes / all Dom0 bytes
  double guest_merge_frac = 0.0;     // guest back-merges / guest bios
  double dom0_merge_frac = 0.0;      // Dom0 back-merges / Dom0 bios
  std::int64_t guest_bio_sectors = 256;
  std::int64_t dom0_bio_sectors = 256;
  std::int64_t dom0_rq_sectors = 256;

  static RigMix from(const LayerCounts& c, iosim::iosched::SchedulerPair pair, int hosts);
};

/// Run every rig `reps` times and append the median ns/op of each.
void run_rigs(const RigMix& mix, int reps, SpanLog& spans, int parent, Metrics* out);

}  // namespace perfbench
