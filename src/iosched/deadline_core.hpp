// iosim: the queue core of the deadline-family elevators.
//
// Per direction, a tree sorted by start LBA and a FIFO in arrival order;
// every queued request carries its absolute deadline (arrival + the
// direction's expiry). Deadline and AS each hold one core and keep only
// their own batch and direction policy (AS also its anticipation). The
// one-way scan with wrap, `scan_from`, is also CFQ's per-queue scan.
#pragma once

#include <cassert>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "iosched/request.hpp"

namespace iosim::iosched {

using SortedQueue = std::multimap<Lba, Request*>;

/// One-way elevator scan with wrap: the first request starting at or after
/// `pos`, else the lowest LBA. `q` must not be empty.
inline SortedQueue::iterator scan_from(SortedQueue& q, Lba pos) {
  auto it = q.lower_bound(pos);
  return it != q.end() ? it : q.begin();
}

class DeadlineCore {
 public:
  DeadlineCore(Time read_expire, Time write_expire)
      : expire_{read_expire, write_expire} {}

  void add(Request* rq, Time now) {
    const int d = idx(rq->dir);
    auto sit = sorted_[d].emplace(rq->lba, rq);
    fifo_[d].push_back(rq);
    handles_.emplace(rq, Handles{sit, std::prev(fifo_[d].end()), now + expire_[d]});
  }

  void remove(Request* rq) {
    auto it = handles_.find(rq);
    assert(it != handles_.end());
    const int d = idx(rq->dir);
    sorted_[d].erase(it->second.sorted_it);
    fifo_[d].erase(it->second.fifo_it);
    handles_.erase(it);
  }

  bool empty() const { return handles_.empty(); }
  std::size_t size() const { return handles_.size(); }
  bool has(Dir d) const { return !sorted_[idx(d)].empty(); }

  /// True when `d`'s oldest request has passed its deadline.
  bool expired(Dir d, Time now) const {
    const Fifo& f = fifo_[idx(d)];
    return !f.empty() && handles_.at(f.front()).expire <= now;
  }

  /// Batch continuation: the first request of `d` starting at or after
  /// `pos`, or nullptr once the scan has run off the end.
  Request* next(Dir d, Lba pos) const {
    const SortedQueue& q = sorted_[idx(d)];
    auto it = q.lower_bound(pos);
    return it != q.end() ? it->second : nullptr;
  }

  /// The first request of a new batch of `d`: the oldest one if its
  /// deadline has passed (the jump that honours deadlines), else the one-way
  /// scan from `pos` with wrap. `d` must have requests queued.
  Request* start(Dir d, Lba pos, Time now) {
    assert(has(d));
    if (expired(d, now)) return fifo_[idx(d)].front();
    return scan_from(sorted_[idx(d)], pos)->second;
  }

  /// Remove and return every request, reads then writes, each in arrival
  /// order.
  std::vector<Request*> drain() {
    std::vector<Request*> out;
    out.reserve(size());
    for (int d = 0; d < kNumDirs; ++d) {
      out.insert(out.end(), fifo_[d].begin(), fifo_[d].end());
      fifo_[d].clear();
      sorted_[d].clear();
    }
    handles_.clear();
    return out;
  }

 private:
  using Fifo = std::list<Request*>;

  struct Handles {
    SortedQueue::iterator sorted_it;
    Fifo::iterator fifo_it;
    Time expire;  // absolute deadline
  };

  static int idx(Dir d) { return static_cast<int>(d); }

  Time expire_[kNumDirs];
  SortedQueue sorted_[kNumDirs];
  Fifo fifo_[kNumDirs];
  std::unordered_map<Request*, Handles> handles_;
};

}  // namespace iosim::iosched
