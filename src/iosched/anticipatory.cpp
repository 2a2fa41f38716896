#include "iosched/anticipatory.hpp"

#include <cstdlib>

namespace iosim::iosched {

void AnticipatoryScheduler::add(Request* rq, Time now) {
  q_.add(rq, now);
  if (rq->dir != Dir::kRead || !rq->sync) return;
  think_[rq->ctx].issue(now);
  // A request from the anticipated context satisfies the anticipation: the
  // BlockLayer will re-poll dispatch() on this add and we hand it out.
  if (anticipating_ && rq->ctx == antic_ctx_) antic_hit_ = rq;
}

Request* AnticipatoryScheduler::serve(Request* rq) {
  head_pos_ = rq->end();
  if (antic_hit_ == rq) antic_hit_ = nullptr;
  q_.remove(rq);
  return rq;
}

bool AnticipatoryScheduler::worth_anticipating(std::uint64_t ctx) const {
  // The kernel anticipates only while the process's mean think time stays
  // within (a small multiple of) the anticipation window; it is optimistic
  // about contexts it knows nothing of.
  auto it = think_.find(ctx);
  return it == think_.end() ||
         it->second.within(tun_.think_factor *
                           static_cast<double>(tun_.antic_expire.ns()));
}

Request* AnticipatoryScheduler::pick_candidate(Time now) {
  // Continue the current batch while its quantum lasts and the scan has not
  // run off the end of the queue.
  if (batch_active_) {
    if (now < batch_end_) {
      if (Request* rq = q_.next(batch_dir_, head_pos_)) return rq;
    }
    batch_active_ = false;
  }

  // Start a new batch: prefer reads; switch to writes when reads are absent
  // or the oldest write has expired.
  const bool reads = q_.has(Dir::kRead);
  if (!reads && !q_.has(Dir::kWrite)) return nullptr;
  const Dir dir =
      !reads || q_.expired(Dir::kWrite, now) ? Dir::kWrite : Dir::kRead;

  batch_active_ = true;
  batch_dir_ = dir;
  batch_end_ = now + (dir == Dir::kRead ? tun_.read_batch_expire
                                        : tun_.write_batch_expire);
  return q_.start(dir, head_pos_, now);
}

Request* AnticipatoryScheduler::dispatch(Time now) {
  if (q_.empty()) return nullptr;

  if (anticipating_) {
    if (antic_hit_ != nullptr) {
      // The context we waited for came back: serve it immediately.
      anticipating_ = false;
      antic_armed_ = false;
      return serve(antic_hit_);
    }
    if (now < antic_until_) return nullptr;  // keep waiting
    // Timed out: penalize the context so we stop anticipating a process
    // that went away (kernel: think time grows past the window).
    anticipating_ = false;
    antic_armed_ = false;
    think_[antic_ctx_].sample(4.0 * static_cast<double>(tun_.antic_expire.ns()));
  }

  Request* cand = pick_candidate(now);
  if (cand == nullptr) return nullptr;

  // Anticipation decision: a sync read just completed for antic_ctx_, the
  // candidate belongs to someone else and is far from the head, and the
  // just-served context usually comes back quickly.
  if (antic_armed_ && cand->ctx != antic_ctx_) {
    const Lba distance = std::llabs(cand->lba - head_pos_);
    if (distance > tun_.close_window_sectors && worth_anticipating(antic_ctx_)) {
      anticipating_ = true;
      antic_until_ = now + tun_.antic_expire;
      antic_hit_ = nullptr;
      return nullptr;
    }
    antic_armed_ = false;  // decided not to wait; don't reconsider
  }
  return serve(cand);
}

void AnticipatoryScheduler::on_complete(const Request& rq, Time now) {
  if (rq.dir != Dir::kRead || !rq.sync) return;
  think_[rq.ctx].complete(now);
  antic_armed_ = true;
  antic_ctx_ = rq.ctx;
}

std::vector<Request*> AnticipatoryScheduler::drain() {
  batch_active_ = false;
  anticipating_ = false;
  antic_armed_ = false;
  antic_hit_ = nullptr;
  return q_.drain();
}

}  // namespace iosim::iosched
