// iosim: one physical machine — disk, Dom0 block layer, and its guests.
#pragma once

#include <memory>
#include <vector>

#include "blk/disk_device.hpp"
#include "iosched/pair.hpp"
#include "trace/trace.hpp"
#include "virt/domu.hpp"

namespace iosim::virt {

using iosched::SchedulerPair;

struct HostConfig {
  disk::DiskParams disk;
  blk::BlockLayerConfig dom0_blk;
  DomUConfig domu;
  /// The disk is divided into this many equal image slots; VM i's disk
  /// image occupies the front `image_frac` of slot i. Spreading the images
  /// across the platter gives inter-VM seeks their real cost.
  int image_slots = 8;
  double image_frac = 0.75;
};

class PhysicalHost {
 public:
  /// `vm_ctx_base`: globally unique context ids handed to the VMs of this
  /// host (vm_ctx_base + local index). `faults` (optional) is handed to the
  /// disk for fail-slow / error injection keyed by `host_id`.
  PhysicalHost(sim::Simulator& simr, HostConfig cfg, int host_id,
               std::uint64_t vm_ctx_base, std::uint64_t seed,
               fault::FaultInjector* faults = nullptr);

  /// Create the next VM. At most `image_slots` VMs fit per host.
  DomU& add_vm();

  int host_id() const { return host_id_; }
  std::size_t vm_count() const { return vms_.size(); }
  DomU& vm(std::size_t i) { return *vms_[i]; }
  const DomU& vm(std::size_t i) const { return *vms_[i]; }

  /// Apply a (VMM, guest) pair to this host — the paper's primitive. Every
  /// elevator switch pays its block layer's quiesce freeze.
  void set_pair(SchedulerPair p) {
    if (auto* tr = trace::tracer()) {
      tr->instant(tr->track("host" + std::to_string(host_id_)), tr->ids.pair_switch,
                  tr->ids.cat_virt, simr_.now(), tr->ids.pair, pair_code(p));
    }
    dom0_->switch_scheduler(p.vmm);
    for (auto& vm : vms_) vm->set_scheduler(p.guest);
  }

  /// Dense encoding of a pair for trace arguments: vmm * 4 + guest.
  static std::int64_t pair_code(SchedulerPair p) {
    return static_cast<std::int64_t>(p.vmm) * 4 + static_cast<std::int64_t>(p.guest);
  }
  SchedulerPair pair() const {
    return {dom0_->scheduler_kind(),
            vms_.empty() ? dom0_->scheduler_kind() : vms_[0]->scheduler()};
  }

  blk::BlockLayer& dom0_layer() { return *dom0_; }
  const blk::DiskDevice& disk() const { return *disk_; }

 private:
  sim::Simulator& simr_;
  HostConfig cfg_;
  int host_id_;
  std::uint64_t vm_ctx_base_;
  std::unique_ptr<blk::DiskDevice> disk_;
  std::unique_ptr<blk::BlockLayer> dom0_;
  std::vector<std::unique_ptr<DomU>> vms_;
};

}  // namespace iosim::virt
