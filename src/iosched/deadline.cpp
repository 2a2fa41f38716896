#include "iosched/deadline.hpp"

namespace iosim::iosched {

Request* DeadlineScheduler::dispatch(Time now) {
  if (q_.empty()) return nullptr;

  Request* rq = batch_remaining_ > 0 ? q_.next(batch_dir_, batch_pos_) : nullptr;
  if (rq == nullptr) {
    // The scan hit the end or the batch is spent: pick the direction for a
    // fresh batch. Reads win unless writes have been starved
    // `writes_starved` times in a row.
    const bool reads = q_.has(Dir::kRead);
    const bool writes = q_.has(Dir::kWrite);
    Dir dir;
    if (reads && writes) {
      dir = (starved_ >= tun_.writes_starved) ? Dir::kWrite : Dir::kRead;
    } else {
      dir = reads ? Dir::kRead : Dir::kWrite;
    }
    if (dir == Dir::kRead && writes) {
      ++starved_;
    } else if (dir == Dir::kWrite) {
      starved_ = 0;
    }
    batch_dir_ = dir;
    batch_remaining_ = tun_.fifo_batch;
    rq = q_.start(dir, batch_pos_, now);
  }

  --batch_remaining_;
  batch_pos_ = rq->end();
  q_.remove(rq);
  return rq;
}

std::vector<Request*> DeadlineScheduler::drain() {
  batch_remaining_ = 0;
  starved_ = 0;
  return q_.drain();
}

}  // namespace iosim::iosched
