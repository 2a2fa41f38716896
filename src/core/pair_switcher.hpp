// iosim: the pair-switch command with its retry semantics, owned by
// core::PairController (one switcher per switching scope: the whole
// cluster, or each host under host-scope regime switching).
//
// A switch command draws one verdict from the cluster's fault layer, then
// installs its pair in the switcher's scope (Cluster::switch_pair). A
// rejected command leaves the old pair installed and is retried with capped
// exponential backoff; a delayed one is in flight until its pair lands. A
// pending retry goes inert, and a command in flight is cancelled, the moment
// a newer decision supersedes it (its target has been overtaken by a fresher
// decision). The owner observes outcomes through the on_switched /
// on_switch_failed hooks.
#pragma once

#include <functional>
#include <memory>

#include "cluster/cluster.hpp"

namespace iosim::core {

class PairSwitcher : public std::enable_shared_from_this<PairSwitcher> {
 public:
  /// First retry delay after a failed switch command; doubles per failure up
  /// to 8x. Kept short relative to phase lengths so a transient management-
  /// plane fault rarely costs a whole phase.
  static constexpr sim::Time kRetryBase = sim::Time::from_ms(500);
  static constexpr sim::Time kRetryCap = sim::Time::from_sec(4);
  /// Retry budget per requested target. A management plane that is still
  /// down after this many attempts is treated as gone: the old pair stays
  /// installed and the run simply continues without switching.
  static constexpr int kMaxRetries = 8;

  /// A switcher for every host (the default) or for `host` alone. Each
  /// switcher's retry chain is its own: superseding one never cancels
  /// another's.
  static std::shared_ptr<PairSwitcher> create(
      cluster::Cluster& cl, int host = cluster::Cluster::kAllHosts) {
    return std::shared_ptr<PairSwitcher>(new PairSwitcher(cl, host));
  }

  /// The pair installed in this switcher's scope.
  iosched::SchedulerPair pair() const {
    return host_ == cluster::Cluster::kAllHosts
               ? cl_.pair()
               : cl_.host(static_cast<std::size_t>(host_)).pair();
  }

  /// Fires when a switch lands — as the command is accepted, or a delayed
  /// command's latency later; `tag` is the requester's tag (the phase, or
  /// the host under host scope).
  std::function<void(int tag, iosched::SchedulerPair target)> on_switched;
  /// Fires after a rejected command, before any retry is scheduled;
  /// `attempt` counts from 1.
  std::function<void(int tag, int attempt)> on_switch_failed;

  /// The pair this scope is headed for: the target of a delayed command in
  /// flight, else the installed pair.
  iosched::SchedulerPair heading() const {
    return landing_ != sim::kInvalidEvent ? landing_target_ : pair();
  }

  /// Supersede any pending retry and cancel a delayed command in flight — a
  /// stale command must never land after the decision that wanted it has
  /// been overtaken.
  void supersede();

  /// A decision boundary for `target`: a command already in flight to it
  /// stays; anything else pending is superseded, and a switch is requested
  /// when `target` differs from the installed pair.
  void decide(int tag, iosched::SchedulerPair target);

  /// Supersede anything pending, then issue a switch command (and its retry
  /// chain) toward `target`.
  void request(int tag, iosched::SchedulerPair target) {
    supersede();
    attempt(tag, target, /*failures=*/0);
  }

  /// Switches that landed.
  int switches() const { return switches_; }
  /// Commands rejected by the fault layer (each schedules a retry).
  int failures() const { return failures_; }
  /// Retries actually issued (superseded ones don't count).
  int retries() const { return retries_; }

 private:
  PairSwitcher(cluster::Cluster& cl, int host) : cl_(cl), host_(host) {}

  void attempt(int tag, iosched::SchedulerPair target, int failures);
  void land(int tag, iosched::SchedulerPair target);

  cluster::Cluster& cl_;
  int host_;
  int switches_ = 0;
  int failures_ = 0;
  int retries_ = 0;
  /// Monotone epoch: bumped by supersede(); pending retries carry the epoch
  /// they were issued under and go inert when it is stale.
  int epoch_ = 0;
  /// A delayed command's landing event, and its target, while in flight.
  sim::EventId landing_ = sim::kInvalidEvent;
  iosched::SchedulerPair landing_target_;
};

}  // namespace iosim::core
