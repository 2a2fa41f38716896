#include "rigs.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <functional>
#include <vector>

#include "blk/block_layer.hpp"
#include "blk/request_sink.hpp"
#include "core/online_scheduler.hpp"
#include "disk/disk_model.hpp"
#include "iosched/scheduler.hpp"
#include "net/flow_network.hpp"
#include "sim/simulator.hpp"
#include "virt/physical_host.hpp"

namespace perfbench {

using namespace iosim;

RigMix RigMix::from(const LayerCounts& c, iosched::SchedulerPair pair, int hosts) {
  RigMix m;
  m.pair = pair;
  m.hosts = hosts;
  m.heap_events = std::max<std::uint64_t>(64, c.slots_hwm);
  const auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const std::int64_t dom0_bytes = c.dom0.bytes[0] + c.dom0.bytes[1];
  const std::int64_t guest_bytes = c.guest.bytes[0] + c.guest.bytes[1];
  m.write_frac = frac(static_cast<std::uint64_t>(c.dom0.bytes[1]),
                      static_cast<std::uint64_t>(dom0_bytes));
  m.guest_merge_frac = frac(c.guest.merges, c.guest.bios);
  m.dom0_merge_frac = frac(c.dom0.merges, c.dom0.bios);
  const auto sectors = [](std::int64_t bytes, std::uint64_t n) {
    return n ? std::max<std::int64_t>(8, bytes / 512 / static_cast<std::int64_t>(n)) : 256;
  };
  m.guest_bio_sectors = sectors(guest_bytes, c.guest.bios);
  m.dom0_bio_sectors = sectors(dom0_bytes, c.dom0.bios);
  m.dom0_rq_sectors = sectors(dom0_bytes, c.dom0.requests());
  return m;
}

namespace {

/// splitmix64 step: cheap deterministic rig randomness.
std::uint64_t mix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool chance(std::uint64_t& s, double p) {
  return static_cast<double>(mix(s) >> 11) * 0x1.0p-53 < p;
}

// --- sim -------------------------------------------------------------------

struct FireState {
  sim::Simulator* s;
  std::uint64_t remaining;
  std::uint64_t rng;
};

void fire(FireState* st, std::uint64_t salt) {
  if (st->remaining == 0) return;
  --st->remaining;
  const std::uint64_t next = mix(st->rng) ^ salt;
  st->s->after(sim::Time::from_us(1 + static_cast<std::int64_t>(next % 64)),
               [st, next] { fire(st, next); });
}

/// Self-rescheduling chains, as many as the workload's concurrent events.
double rig_schedule_fire(const RigMix& m) {
  const std::uint64_t n = 1'500'000;
  sim::Simulator s;
  FireState st{&s, n, 42};
  const double t0 = host_now();
  for (std::uint64_t c = 0; c < m.heap_events; ++c) fire(&st, c);
  s.run();
  return (host_now() - t0) * 1e9 / static_cast<double>(n + m.heap_events);
}

/// Schedule + cancel pairs (the elevators' idle-timeout pattern) over a heap
/// holding the workload's concurrent events.
double rig_schedule_cancel(const RigMix& m) {
  const std::uint64_t n = 1'000'000;
  sim::Simulator s;
  for (std::uint64_t c = 0; c < m.heap_events; ++c) {
    s.after(sim::Time::from_sec(7200) + sim::Time::from_us(static_cast<std::int64_t>(c)), [] {});
  }
  std::uint64_t rng = 7;
  std::vector<sim::EventId> ids(256);
  const double t0 = host_now();
  for (std::uint64_t done = 0; done < n; done += ids.size()) {
    for (auto& id : ids) {
      id = s.after(sim::Time::from_sec(3600) +
                       sim::Time::from_us(static_cast<std::int64_t>(mix(rng) % 4096)),
                   [] {});
    }
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[mix(rng) % (i + 1)]);
    }
    for (auto id : ids) s.cancel(id);
  }
  return (host_now() - t0) * 1e9 / static_cast<double>(n);
}

// --- blk -------------------------------------------------------------------

/// A device stand-in that completes each request a fixed 100 us after it
/// arrives, one at a time: the rig measures the block layer, not the disk.
class StubSink final : public blk::RequestSink {
 public:
  explicit StubSink(sim::Simulator& s) : s_(s) {}
  bool can_accept() const override { return !busy_; }
  void submit(blk::Request* rq, sim::Time) override {
    busy_ = true;
    s_.after(sim::Time::from_us(100), [this, rq] {
      busy_ = false;
      complete(rq, s_.now());
      ready(s_.now());
    });
  }

 private:
  sim::Simulator& s_;
  bool busy_ = false;
};

struct BlkState {
  blk::BlockLayer* layer;
  const RigMix* m;
  std::uint64_t remaining;
  std::uint64_t rng = 5;
  std::uint64_t completed = 0;
};

/// Submit one request's worth of bios: a run of contiguous bios whose
/// length follows the workload's back-merge fraction.
void blk_burst(BlkState* st) {
  if (st->remaining == 0) return;
  const bool write = chance(st->rng, st->m->write_frac);
  const std::uint64_t ctx = mix(st->rng) % 16;
  disk::Lba lba = static_cast<disk::Lba>(mix(st->rng) % 1'000'000'000) & ~disk::Lba{7};
  const std::int64_t sectors = st->m->dom0_bio_sectors;
  int n = 1;
  while (n < 64 && chance(st->rng, st->m->dom0_merge_frac)) ++n;
  for (int i = 0; i < n && st->remaining > 0; ++i, --st->remaining) {
    blk::Bio bio;
    bio.lba = lba;
    bio.sectors = sectors;
    bio.dir = write ? iosched::Dir::kWrite : iosched::Dir::kRead;
    bio.sync = !write;
    bio.ctx = ctx;
    lba += sectors;
    const bool last = (i == n - 1);
    bio.on_complete = [st, last](sim::Time, iosched::IoStatus) {
      ++st->completed;
      if (last) blk_burst(st);
    };
    st->layer->submit(std::move(bio));
  }
}

double rig_blk_submit(const RigMix& m) {
  const std::uint64_t n = 400'000;
  sim::Simulator s;
  StubSink sink(s);
  blk::BlockLayerConfig cfg;
  cfg.scheduler = m.pair.vmm;
  cfg.name = "rig/blk";
  cfg.max_request_sectors = std::max<std::int64_t>(512, 64 * m.dom0_bio_sectors);
  blk::BlockLayer layer(s, sink, cfg);
  BlkState st{&layer, &m, n};
  const double t0 = host_now();
  for (int i = 0; i < 32; ++i) blk_burst(&st);
  s.run();
  const double ns = (host_now() - t0) * 1e9 / static_cast<double>(n);
  if (st.completed != n) std::fprintf(stderr, "blk rig: completed %llu of %llu\n",
                                      static_cast<unsigned long long>(st.completed),
                                      static_cast<unsigned long long>(n));
  return ns;
}

// --- iosched ---------------------------------------------------------------

/// add + dispatch + complete per request, ~64 queued, 16 contexts issuing
/// sequential runs broken by random jumps at the workload's rate.
double rig_iosched(const RigMix& m, iosched::SchedulerKind kind) {
  const std::uint64_t n = 300'000;
  auto sched = iosched::make_scheduler(kind);
  // Requests return to the free list once dispatched; a request an
  // elevator keeps queued (deadline can hold writes for seconds) is never
  // recycled under it.
  std::deque<iosched::Request> pool;
  std::vector<iosched::Request*> free;
  std::array<disk::Lba, 16> next_lba{};
  std::uint64_t rng = 3;
  for (auto& l : next_lba) l = static_cast<disk::Lba>(mix(rng) % 1'000'000'000);
  sim::Time now;
  std::uint64_t dispatched = 0;
  std::size_t queued = 0;
  const double t0 = host_now();
  for (std::uint64_t id = 0; id < n; ++id) {
    if (free.empty()) free.push_back(&pool.emplace_back());
    iosched::Request& rq = *free.back();
    free.pop_back();
    const std::size_t ctx = mix(rng) % next_lba.size();
    if (!chance(rng, m.dom0_merge_frac)) {
      next_lba[ctx] = static_cast<disk::Lba>(mix(rng) % 1'000'000'000);
    }
    rq.id = id;
    rq.lba = next_lba[ctx];
    rq.sectors = m.dom0_rq_sectors;
    next_lba[ctx] += rq.sectors;
    rq.dir = chance(rng, m.write_frac) ? iosched::Dir::kWrite : iosched::Dir::kRead;
    rq.sync = rq.dir == iosched::Dir::kRead;
    rq.ctx = ctx;
    rq.submit = now;
    sched->add(&rq, now);
    ++queued;
    now += sim::Time::from_us(100);
    // Keep ~64 queued.
    while (queued >= 64) {
      iosched::Request* out = sched->dispatch(now);
      if (out == nullptr) {
        if (const auto w = sched->wakeup(now)) now = std::max(now, *w);
        out = sched->dispatch(now);
      }
      if (out == nullptr) break;
      --queued;
      ++dispatched;
      sched->on_complete(*out, now);
      free.push_back(out);
    }
  }
  const double ns = (host_now() - t0) * 1e9 / static_cast<double>(n);
  if (dispatched == 0) std::fprintf(stderr, "iosched rig: nothing dispatched\n");
  return ns;
}

// --- disk ------------------------------------------------------------------

double rig_disk(const RigMix& m) {
  const std::uint64_t n = 2'000'000;
  disk::DiskModel model(disk::DiskParams{}, 3);
  std::uint64_t rng = 4;
  disk::Lba lba = 0;
  std::int64_t sink = 0;
  const double t0 = host_now();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!chance(rng, m.dom0_merge_frac)) lba = static_cast<disk::Lba>(mix(rng) % 1'800'000'000);
    sink += model.service({lba, m.dom0_rq_sectors, chance(rng, m.write_frac)}).ns();
    lba += m.dom0_rq_sectors;
  }
  const double ns = (host_now() - t0) * 1e9 / static_cast<double>(n);
  if (sink < 0) std::fprintf(stderr, "disk rig: negative service time\n");
  return ns;
}

// --- virt ------------------------------------------------------------------

struct DomuState {
  virt::DomU* vm;
  const RigMix* m;
  std::uint64_t remaining;
  std::uint64_t rng = 99;
  disk::Lba next_lba = 0;
  std::uint64_t completed = 0;
};

void domu_next(DomuState* st) {
  if (st->remaining == 0) return;
  --st->remaining;
  const std::int64_t sectors = st->m->guest_bio_sectors;
  const disk::Lba span = st->vm->image_sectors() - sectors;
  if (!chance(st->rng, st->m->guest_merge_frac) || st->next_lba >= span) {
    st->next_lba = static_cast<disk::Lba>(mix(st->rng) % static_cast<std::uint64_t>(span));
  }
  const disk::Lba lba = st->next_lba;
  st->next_lba += sectors;
  const bool write = chance(st->rng, st->m->write_frac);
  st->vm->submit_io(mix(st->rng) % 4, lba, sectors,
                    write ? iosched::Dir::kWrite : iosched::Dir::kRead, !write,
                    [st](sim::Time, iosched::IoStatus) {
                      ++st->completed;
                      domu_next(st);
                    });
}

/// Guest elevator -> blkfront ring -> Dom0 elevator -> disk and back, with
/// the workload's first pair.
double rig_domu(const RigMix& m) {
  const std::uint64_t n = 60'000;
  sim::Simulator s;
  virt::HostConfig hc;
  hc.dom0_blk.scheduler = m.pair.vmm;
  hc.domu.guest_blk.scheduler = m.pair.guest;
  virt::PhysicalHost host(s, hc, 0, 0, 11);
  virt::DomU& vm = host.add_vm();
  DomuState st{&vm, &m, n};
  const double t0 = host_now();
  for (int i = 0; i < 32; ++i) domu_next(&st);
  s.run();
  return (host_now() - t0) * 1e9 / static_cast<double>(n);
}

// --- net -------------------------------------------------------------------

/// All-to-all fan-in: every host sends one flow to every other host at
/// once, round after round (the shuffle pattern). The cost per flow is the
/// max-min rate recomputation, which depends on the fan-in, not the size.
double rig_net(const RigMix& m) {
  constexpr std::int64_t kFlowBytes = 8 << 20;
  const int hosts = std::max(2, m.hosts);
  const std::uint64_t flows_per_round = static_cast<std::uint64_t>(hosts * (hosts - 1));
  const std::uint64_t rounds = std::max<std::uint64_t>(1, 60'000 / flows_per_round);
  sim::Simulator s;
  net::FlowNetwork fabric(s, hosts, net::NetParams{});
  std::uint64_t done = 0;
  const double t0 = host_now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int a = 0; a < hosts; ++a) {
      for (int b = 0; b < hosts; ++b) {
        if (a != b) fabric.start_flow(a, b, kFlowBytes, [&done](sim::Time) { ++done; });
      }
    }
    s.run();
  }
  const double ns = (host_now() - t0) * 1e9 / static_cast<double>(rounds * flows_per_round);
  if (done != rounds * flows_per_round) std::fprintf(stderr, "net rig: lost flows\n");
  return ns;
}

// --- core ------------------------------------------------------------------

/// One UCB pull plus one reward update, cycling the phase kinds.
double rig_arm_select() {
  const std::uint64_t n = 400'000;
  core::OnlineConfig cfg;
  cfg.kind = tenancy::MetaPolicy::kUcb;
  cfg.seed = 42;
  const auto policy = core::make_online_policy(cfg);
  std::array<double, iosched::kNumSchedulerPairs> penalty{};
  for (std::size_t a = 0; a < penalty.size(); ++a) penalty[a] = 0.1 * static_cast<double>(a);
  int arm = 0;
  std::uint64_t rng = 7;
  const double t0 = host_now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int phase = static_cast<int>(i % core::kPhaseKinds);
    arm = policy->select(phase, arm, penalty);
    policy->reward(phase, arm, 40.0 + static_cast<double>(mix(rng) % 32));
  }
  const double ns = (host_now() - t0) * 1e9 / static_cast<double>(n);
  if (policy->stats(0, arm).pulls < 0.0) std::fprintf(stderr, "arm rig: impossible\n");
  return ns;
}

}  // namespace

void run_rigs(const RigMix& m, int reps, SpanLog& spans, int parent, Metrics* out) {
  const auto measure = [&](const char* name, const std::function<double()>& fn) {
    const Scoped span(spans, std::string("rig.") + name, parent);
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) v.push_back(fn());
    out->push_back({name, median(v), "ns"});
  };
  measure("sim.schedule_fire_ns", [&] { return rig_schedule_fire(m); });
  measure("sim.schedule_cancel_ns", [&] { return rig_schedule_cancel(m); });
  measure("blk.submit_ns", [&] { return rig_blk_submit(m); });
  const std::pair<const char*, iosched::SchedulerKind> kinds[] = {
      {"iosched.noop.ns_per_rq", iosched::SchedulerKind::kNoop},
      {"iosched.deadline.ns_per_rq", iosched::SchedulerKind::kDeadline},
      {"iosched.anticipatory.ns_per_rq", iosched::SchedulerKind::kAnticipatory},
      {"iosched.cfq.ns_per_rq", iosched::SchedulerKind::kCfq}};
  for (const auto& [name, kind] : kinds) {
    measure(name, [&, k = kind] { return rig_iosched(m, k); });
  }
  measure("disk.service_ns", [&] { return rig_disk(m); });
  measure("virt.domu_roundtrip_ns", [&] { return rig_domu(m); });
  measure("net.start_flow_ns", [&] { return rig_net(m); });
  measure("core.arm_select_ns", [] { return rig_arm_select(); });
}

}  // namespace perfbench
