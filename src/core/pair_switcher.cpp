#include "core/pair_switcher.hpp"

#include <algorithm>
#include <cstdint>

namespace iosim::core {

void PairSwitcher::supersede() {
  ++epoch_;
  if (landing_ != sim::kInvalidEvent) {
    cl_.simr().cancel(landing_);
    landing_ = sim::kInvalidEvent;
  }
}

void PairSwitcher::decide(int tag, iosched::SchedulerPair target) {
  if (landing_ != sim::kInvalidEvent && target == landing_target_) return;
  if (target == pair()) {
    supersede();
  } else {
    request(tag, target);
  }
}

void PairSwitcher::land(int tag, iosched::SchedulerPair target) {
  cl_.switch_pair(target, host_);
  ++switches_;
  if (on_switched) on_switched(tag, target);
}

void PairSwitcher::attempt(int tag, iosched::SchedulerPair target, int failures) {
  // Each command draws one fault verdict, whatever its scope.
  auto* faults = cl_.faults();
  const auto verdict =
      faults ? faults->switch_command() : fault::FaultInjector::SwitchVerdict{};
  if (verdict.ok && verdict.delay > sim::Time::zero()) {
    // Accepted, but the actuation path (e.g. a sysfs write fanned out over a
    // slow management network) lags: the pair lands later.
    auto self = shared_from_this();
    landing_target_ = target;
    landing_ = cl_.simr().after(verdict.delay, [self, tag, target] {
      self->landing_ = sim::kInvalidEvent;
      self->land(tag, target);
    });
    return;
  }
  if (verdict.ok) {
    land(tag, target);
    return;
  }
  // Command rejected: the old pair stays installed in scope. Retry with
  // capped exponential backoff unless a newer request supersedes the target
  // before the timer fires.
  ++failures_;
  if (on_switch_failed) on_switch_failed(tag, failures + 1);
  if (failures >= kMaxRetries) return;  // budget exhausted: keep the old pair
  const sim::Time delay = std::min(
      kRetryCap,
      kRetryBase * static_cast<double>(std::int64_t{1} << std::min(failures, 3)));
  const int issued_epoch = epoch_;
  auto self = shared_from_this();
  cl_.simr().after(delay, [self, tag, target, failures, issued_epoch] {
    if (self->epoch_ != issued_epoch) return;  // superseded by a newer request
    ++self->retries_;
    self->attempt(tag, target, failures + 1);
  });
}

}  // namespace iosim::core
