#include "workloads/benchmarks.hpp"

namespace iosim::workloads {

WorkloadModel wordcount() {
  WorkloadModel w;
  w.name = "wordcount";
  w.map_output_ratio = 0.05;    // combiner collapses (word,1) pairs in memory
  w.reduce_output_ratio = 0.9;  // counts per word; tiny in absolute terms
  // Tokenize + hash + combine in a 2009-era JVM: genuinely CPU-bound maps
  // (the paper observes only a 1.5% spread across pairs for wordcount —
  // the disk is mostly idle).
  w.map_cpu_ns_per_byte = 300.0;
  w.sort_cpu_ns_per_byte = 6.0;
  w.reduce_cpu_ns_per_byte = 10.0;
  w.combiner = true;
  return w;
}

WorkloadModel wordcount_no_combiner() {
  WorkloadModel w;
  w.name = "wordcount-nocombiner";
  w.map_output_ratio = 1.7;     // every (word, 1) pair is spilled
  w.reduce_output_ratio = 0.03; // reduced to per-word counts
  w.map_cpu_ns_per_byte = 250.0;
  w.sort_cpu_ns_per_byte = 6.0;
  w.reduce_cpu_ns_per_byte = 8.0;
  w.combiner = false;
  return w;
}

WorkloadModel stream_sort() {
  WorkloadModel w;
  w.name = "sort";
  w.map_output_ratio = 1.0;     // identity map
  w.reduce_output_ratio = 1.0;  // identity reduce
  w.map_cpu_ns_per_byte = 6.0;
  w.sort_cpu_ns_per_byte = 5.0;
  w.reduce_cpu_ns_per_byte = 5.0;
  w.combiner = false;
  return w;
}

JobConf make_job(const WorkloadModel& w, std::int64_t input_bytes_per_vm) {
  JobConf c;
  c.workload = w;
  c.input_bytes_per_vm = input_bytes_per_vm;
  return c;
}

std::optional<WorkloadModel> by_name(std::string_view name) {
  if (name == "sort") return stream_sort();
  if (name == "wordcount" || name == "wc") return wordcount();
  if (name == "wc-nocombiner" || name == "wcnc" || name == "wordcount-nocombiner") {
    return wordcount_no_combiner();
  }
  return std::nullopt;
}

}  // namespace iosim::workloads
