// iosim: switch-cost prediction model (the paper's "ultimately we would
// want to build a general prediction model for the scheduler switch").
//
// A 16x16 EWMA table of observed switch costs, seeded analytically (drain
// estimate + quiesce).
// PairController's host-scope regime switching consults it to gate
// switches: only switch when the predicted saving over the remaining
// horizon exceeds the predicted cost.
#pragma once

#include <array>

#include "iosched/pair.hpp"
#include "sim/time.hpp"

namespace iosim::core {

class SwitchPredictor {
 public:
  /// Analytic seed: every transition starts at `base_cost` (a cluster-wide
  /// quiesce estimate: drain + re-init on every layer).
  explicit SwitchPredictor(double base_cost_seconds = 2.0) {
    for (auto& row : cost_) row.fill(base_cost_seconds);
  }

  double predict_seconds(iosched::SchedulerPair from, iosched::SchedulerPair to) const {
    return cost_[static_cast<std::size_t>(from.index())]
                [static_cast<std::size_t>(to.index())];
  }

  /// Online update from an observed transition cost.
  void observe(iosched::SchedulerPair from, iosched::SchedulerPair to,
               double observed_seconds, double alpha = 0.3) {
    double& c = cost_[static_cast<std::size_t>(from.index())]
                     [static_cast<std::size_t>(to.index())];
    c += alpha * (observed_seconds - c);
  }

  /// Gate: is a switch worth it if it saves `rate_gain` (fraction, e.g.
  /// 0.08 for 8%) over `horizon` of remaining work?
  bool worthwhile(iosched::SchedulerPair from, iosched::SchedulerPair to,
                  double rate_gain, sim::Time horizon) const {
    return rate_gain * horizon.sec() > predict_seconds(from, to);
  }

 private:
  std::array<std::array<double, iosched::kNumSchedulerPairs>,
             iosched::kNumSchedulerPairs>
      cost_{};
};

}  // namespace iosim::core
