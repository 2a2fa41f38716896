// iosim: cluster assembly — one call builds the paper's testbed (hosts,
// VMs, vCPUs, network, HDFS) around a fresh simulator.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault_injector.hpp"
#include "iosched/pair.hpp"
#include "mapred/cluster_env.hpp"
#include "membership/membership.hpp"
#include "sim/simulator.hpp"
#include "net/flow_network.hpp"
#include "virt/physical_host.hpp"

namespace iosim::cluster {

using iosched::SchedulerPair;

struct ClusterConfig {
  int n_hosts = 4;
  int vms_per_host = 4;
  virt::HostConfig host;
  net::NetParams net;
  /// Initial (VMM, guest) elevator pair, installed at construction (no
  /// switch cost — the machine boots with it).
  SchedulerPair pair = iosched::kDefaultPair;
  /// Per-host disk speed factors (scales the media transfer rate); empty =
  /// homogeneous. Shorter than n_hosts: remaining hosts get 1.0. Used to
  /// model heterogeneous nodes — the scenario the paper names as breaking
  /// the coarse (cluster-synchronized) meta-scheduler.
  std::vector<double> host_disk_speed;
  /// Faults to inject during the run; empty = fault-free (no injector is
  /// even constructed, so behavior is bit-identical to pre-fault builds).
  fault::FaultPlan faults;
  /// Event-loop progress sentinel the cluster installs on its simulator at
  /// construction (the runners turn a tripped budget into a failed result
  /// instead of spinning forever on a livelocked simulation). Default:
  /// unlimited.
  sim::SimBudget budget;
  std::uint64_t seed = 1;
};

/// Owns every component of one simulated testbed. Build, wire a workload,
/// then drive `simr().run()`.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simr() { return simr_; }
  mapred::ClusterEnv& env() { return env_; }
  const ClusterConfig& config() const { return cfg_; }

  int n_vms() const { return cfg_.n_hosts * cfg_.vms_per_host; }
  std::size_t n_hosts() const { return hosts_.size(); }
  virt::PhysicalHost& host(std::size_t i) { return *hosts_[i]; }

  /// `switch_pair`'s scope for a command addressed to every host.
  static constexpr int kAllHosts = -1;

  /// Install `p` now on every host or on `host` alone (this is the
  /// meta-scheduler's runtime action: it pays the quiesce freeze on every
  /// block layer it reaches). No fault verdict is drawn here: the
  /// meta-scheduler's commands pass through faults() in core::PairSwitcher
  /// first.
  void switch_pair(SchedulerPair p, int host = kAllHosts);

  /// The pair installed on host 0 (every host, unless a host-scope command
  /// moved one alone).
  SchedulerPair pair() const { return hosts_.front()->pair(); }

  /// The fault injector, or null for a fault-free cluster.
  fault::FaultInjector* faults() { return faults_.get(); }

  /// The membership service (failure detector / blacklist / re-replication),
  /// or null for a fault-free cluster — it exists exactly when faults() does.
  membership::MembershipService* membership() { return members_.get(); }

 private:
  ClusterConfig cfg_;
  sim::Simulator simr_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<membership::MembershipService> members_;
  std::vector<std::unique_ptr<virt::PhysicalHost>> hosts_;
  std::vector<std::unique_ptr<mapred::VCpu>> cpus_;
  std::unique_ptr<net::FlowNetwork> net_;
  std::unique_ptr<hdfs::Hdfs> dfs_;
  mapred::ClusterEnv env_;
};

}  // namespace iosim::cluster
