// iosim: the anticipatory (AS) elevator.
//
// The kernel's AS is deadline plus anticipation, and so is this one: the
// DeadlineCore it shares with the deadline elevator (per-direction sorted
// queues + expiry FIFOs, one-way scan) under time-bounded batches, plus the
// defining feature: after a synchronous read completes, if the next
// candidate belongs to a *different* context and is far from the head, the
// scheduler deliberately idles up to `antic_expire` waiting for the
// just-served context to issue its next (probably nearby) read. Per-context
// ThinkTime gates the wait so processes that never come back stop being
// anticipated.
//
// At the Dom0 layer each VM is one context, so anticipation keeps the head
// inside one VM's disk image while that VM streams — the mechanism behind
// AS being the best VMM-level scheduler in the paper's Table I.
#pragma once

#include <unordered_map>

#include "iosched/deadline_core.hpp"
#include "iosched/scheduler.hpp"
#include "iosched/think_time.hpp"

namespace iosim::iosched {

class AnticipatoryScheduler final : public IoScheduler {
 public:
  explicit AnticipatoryScheduler(const AnticipatoryTunables& tun)
      : tun_(tun), q_(tun.read_expire, tun.write_expire) {}

  SchedulerKind kind() const override { return SchedulerKind::kAnticipatory; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request& rq, Time now) override;
  std::optional<Time> wakeup(Time) const override {
    if (anticipating_) return antic_until_;
    return std::nullopt;
  }

  bool empty() const override { return q_.empty(); }
  std::size_t size() const override { return q_.size(); }
  std::vector<Request*> drain() override;

  /// True while the scheduler is inside an anticipation window (exposed for
  /// tests).
  bool anticipating() const { return anticipating_; }

 private:
  Request* pick_candidate(Time now);
  bool worth_anticipating(std::uint64_t ctx) const;
  /// Hand `rq` to the device: the head (and the batch scan) moves to its end.
  Request* serve(Request* rq);

  AnticipatoryTunables tun_;
  DeadlineCore q_;

  // Batch state: time-bounded one-way scan per direction.
  bool batch_active_ = false;
  Dir batch_dir_ = Dir::kRead;
  Time batch_end_;

  Lba head_pos_ = 0;  // end of last dispatched request; the scan resumes here

  // Anticipation state.
  bool antic_armed_ = false;        // a sync read just completed
  std::uint64_t antic_ctx_ = 0;     // context we would wait for
  bool anticipating_ = false;       // currently idling
  Time antic_until_;
  Request* antic_hit_ = nullptr;    // request from antic_ctx_ that arrived

  /// Think time of each context that issued or completed a sync read
  /// (kernel: struct as_io_context).
  std::unordered_map<std::uint64_t, ThinkTime> think_;
};

}  // namespace iosim::iosched
