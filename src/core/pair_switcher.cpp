#include "core/pair_switcher.hpp"

#include <algorithm>
#include <cstdint>

namespace iosim::core {

void PairSwitcher::attempt(int tag, iosched::SchedulerPair target, int failures) {
  if (cl_.try_switch_pair(target, host_)) {
    ++switches_;
    if (on_switched) on_switched(tag, target);
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
