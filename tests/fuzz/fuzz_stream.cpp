// Fuzzer for the job-stream grammar (tenancy/stream_spec.hpp).
//
// Contract: StreamSpec::parse never crashes; an accepted spec's canonical
// to_string() re-parses byte-identically (idempotent canonical form) and
// describes at least one job and one class, so the planner downstream can
// never be handed an empty stream; and every number it accepted is finite
// and inside the range its field documents (NaN slips through naive range
// checks, which is the bug the regress-nan-* / regress-nonfinite-* entries
// pin).

#include <cmath>
#include <string>

#include "fuzz_util.hpp"
#include "tenancy/stream_spec.hpp"

namespace {

using iosim::tenancy::StreamSpec;

std::string check_stream(const std::string& text) {
  std::string err;
  const auto spec = StreamSpec::parse(text, &err);
  if (!spec.has_value()) return "";  // rejection is always acceptable

  const auto finite_at_least = [](double v, double lo) {
    return std::isfinite(v) && v >= lo;
  };
  if (spec->job_count() < 1) return "accepted spec with no jobs";
  if (spec->classes.empty()) return "accepted spec with no classes";
  if (!std::isfinite(spec->rate_hz) || !(spec->rate_hz > 0.0)) {
    return "accepted non-finite or non-positive rate";
  }
  for (const double t : spec->trace_times_s) {
    if (!finite_at_least(t, 0.0)) return "accepted non-finite or negative arrival time";
  }
  if (!finite_at_least(spec->retry_backoff_s, 0.0)) {
    return "accepted non-finite or negative backoff";
  }
  for (const auto& c : spec->classes) {
    if (c.mb_min > c.mb_max) return "accepted class with mb_min > mb_max";
    if (!(c.weight > 0.0) || !(c.mix > 0.0) || !(c.alpha > 0.0)) {
      return "accepted class with non-positive weight/mix/alpha";
    }
    if (!(c.share >= 0.0 && c.share <= 1.0)) return "accepted share outside [0,1]";
    if (!finite_at_least(c.deadline_s, 0.0)) {
      return "accepted non-finite or negative deadline";
    }
  }
  // explore/decay keep their -1 "policy default" sentinel unless set.
  const auto& m = spec->meta;
  if (!(m.explore == -1.0 || (m.explore >= 0.0 && m.explore <= 100.0))) {
    return "accepted explore outside [0,100]";
  }
  if (!(m.decay == -1.0 || (m.decay > 0.0 && m.decay <= 1.0))) {
    return "accepted decay outside (0,1]";
  }

  const std::string canon = spec->to_string();
  std::string err2;
  const auto re = StreamSpec::parse(canon, &err2);
  if (!re.has_value()) {
    return "canonical text failed to re-parse: " + err2 + " | canon: " +
           iosim::fuzz::escape_for_log(canon);
  }
  if (re->to_string() != canon) return "to_string is not idempotent";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  iosim::fuzz::FuzzOptions opt;
  if (!iosim::fuzz::parse_args(argc, argv, &opt)) return iosim::fuzz::usage(argv[0]);
  return iosim::fuzz::run_campaign(
      "fuzz_stream", opt, check_stream,
      {"arrive", "poisson", "trace", "class", "policy", "fifo", "fair",
       "capacity", "rate=", "jobs=", "t=", "name=", "wl=", "mb=", "weight=",
       "prio=", "share=", "deadline=", "mix=", "alpha=", "sort", "wordcount",
       "wc", "wc-nocombiner", ";", ",", ":", "=", "-", "8-64", "16-16",
       "admit", "active=", "backoff=", "meta", "explore=", "decay=",
       "0.5", "0", "-1", "1e308", "-1e308", "1e999", "nan", "inf", "+1", "2e0",
       "18446744073709551615", "0:2.5:2.5:100"});
}
