// iosim: the paper's three MapReduce benchmarks as workload models.
//
// Section III classifies applications by disk footprint:
//   wordcount (with combiner)  — "light":   tiny map output, tiny output
//   wordcount w/o combiner     — "moderate": map output ~1.7x input, tiny output
//   stream sort                — "heavy":   map output = input, output = input
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "mapred/job_conf.hpp"

namespace iosim::workloads {

using mapred::JobConf;
using mapred::WorkloadModel;

/// Default wordcount: combiner collapses in-memory output, so only a few
/// percent of the input ever reaches the local disk; the map function is
/// CPU-heavy (tokenize + hash + count).
WorkloadModel wordcount();

/// Wordcount without combiner: same CPU, but the full (word, 1) stream is
/// spilled — map output ≈ 1.7x map input (the paper's measurement).
WorkloadModel wordcount_no_combiner();

/// Stream sort: identity map/reduce, cheap CPU; map output and job output
/// both equal the input size.
WorkloadModel stream_sort();

/// JobConf for a named benchmark with the paper's defaults (512 MB per data
/// node, 64 MB blocks, 2+2 slots).
JobConf make_job(const WorkloadModel& w,
                 std::int64_t input_bytes_per_vm = 512 * mapred::kMiB);

/// Lookup by the CLI / scenario-spec names: "sort", "wordcount" ("wc"),
/// "wc-nocombiner" ("wcnc"). nullopt for anything else — callers own the
/// diagnostic.
std::optional<WorkloadModel> by_name(std::string_view name);

}  // namespace iosim::workloads
