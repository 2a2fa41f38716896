// iosim: the CFQ (completely fair queueing) elevator.
//
// One sorted queue per issuing context for synchronous requests, plus one
// shared queue for asynchronous writes (the kernel shares async queues per
// priority level; we model the single default priority). Queues are serviced
// round-robin; an activated sync queue owns the disk for a wall-clock slice
// (default 100 ms) and, when it runs dry inside its slice, the scheduler
// idles up to `slice_idle` (8 ms) for the owner's next request rather than
// seeking away. That idling is what gives CFQ its per-process fairness — and
// the slice-switch seeks are what make it slightly slower than AS for
// multi-VM streaming at the Dom0 level (paper Fig. 3: CFQ fairer, AS faster).
// Each queue is served by the deadline family's one-way scan with wrap
// (`scan_from`); idling is gated by the owner's ThinkTime, the estimator AS
// uses too.
#pragma once

#include <deque>
#include <unordered_map>

#include "iosched/deadline_core.hpp"
#include "iosched/scheduler.hpp"
#include "iosched/think_time.hpp"

namespace iosim::iosched {

class CfqScheduler final : public IoScheduler {
 public:
  explicit CfqScheduler(const CfqTunables& tun) : tun_(tun) { async_queue_.sync = false; }

  SchedulerKind kind() const override { return SchedulerKind::kCfq; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request& rq, Time now) override;
  std::optional<Time> wakeup(Time) const override;

  bool empty() const override { return count_ == 0; }
  std::size_t size() const override { return count_; }
  std::vector<Request*> drain() override;

  /// Number of distinct per-context sync queues currently known (tests).
  std::size_t sync_queue_count() const { return sync_queues_.size(); }

 private:
  struct CfqQueue {
    bool sync = true;
    SortedQueue q;
    Lba pos = 0;       // one-way scan position within the queue
    bool in_rr = false;
    ThinkTime think;   // gates slice idling, like the kernel's ttime_mean
  };

  void enqueue_rr(CfqQueue* cq);
  void deactivate();
  CfqQueue* queue_for(const Request& rq);
  Request* take_from(CfqQueue* cq);

  CfqTunables tun_;
  std::unordered_map<std::uint64_t, CfqQueue> sync_queues_;
  CfqQueue async_queue_;
  std::deque<CfqQueue*> rr_;
  std::size_t count_ = 0;

  CfqQueue* active_ = nullptr;
  Time slice_end_;
  bool idling_ = false;      // active sync queue empty, idle window open
  Time idle_until_;
  int active_dispatched_ = 0;  // dispatches in current activation (async cap)
};

}  // namespace iosim::iosched
