// iosim: per-context think time, the gap between a context's completion and
// its next request — the estimator that gates AS anticipation and CFQ slice
// idling (kernel: as_update_thinktime, cfq_update_io_thinktime).
#pragma once

#include "sim/time.hpp"

namespace iosim::iosched {

using sim::Time;

class ThinkTime {
 public:
  /// EWMA weights. Distrust builds quickly (a long gap or an anticipation
  /// timeout pushes the mean up fast) and decays slowly, like the kernel's
  /// asymmetric update — otherwise a CPU-bound task's short intra-burst gaps
  /// would keep re-arming doomed idling at every compute boundary.
  static constexpr double kAlphaUp = 0.5;
  static constexpr double kAlphaDown = 0.125;

  /// The context's request completed at `now`.
  void complete(Time now) {
    has_completion_ = true;
    last_completion_ = now;
  }

  /// The context issued a request at `now`: one sample per completion.
  void issue(Time now) {
    if (!has_completion_) return;
    sample(static_cast<double>((now - last_completion_).ns()));
    has_completion_ = false;
  }

  void sample(double ns) {
    if (!has_mean_) {
      mean_ns_ = ns;
      has_mean_ = true;
    } else {
      mean_ns_ += (ns > mean_ns_ ? kAlphaUp : kAlphaDown) * (ns - mean_ns_);
    }
  }

  /// True until the first sample, then while the mean stays within
  /// `bound_ns` (an unknown context is trusted).
  bool within(double bound_ns) const { return !has_mean_ || mean_ns_ <= bound_ns; }

 private:
  bool has_completion_ = false;
  Time last_completion_;
  bool has_mean_ = false;
  double mean_ns_ = 0.0;
};

}  // namespace iosim::iosched
