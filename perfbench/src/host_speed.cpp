#include "host_speed.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "util.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 20;  // 8 MB: past L2, in L3
constexpr std::uint32_t kHeapEvents = 2048;
constexpr int kSteps = 200000;

struct Event {
  std::uint64_t t;
  std::uint32_t id;
  std::uint32_t hits;
  bool operator>(const Event& o) const { return t > o.t; }
};

/// One fixed pass of the kernel over `table`; returns its host seconds.
double run_kernel(std::vector<std::uint64_t>& table) {
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kHeapEvents; ++i) heap.push({next() >> 44, i, 0});
  const double t0 = host_now();
  std::uint64_t acc = 0;
  for (int s = 0; s < kSteps; ++s) {
    Event e = heap.top();
    heap.pop();
    std::uint64_t& slot = table[(next() ^ e.id) % kTableWords];
    if ((slot & 3) == (e.hits & 3)) {
      slot += e.t;
      acc += slot;
    } else {
      slot ^= x;
    }
    e.t += (x >> 50) + 1;
    ++e.hits;
    heap.push(e);
  }
  const double dt = host_now() - t0;
  table[0] += acc;  // keep the loop's result live
  return dt;
}

}  // namespace

HostSpeed::HostSpeed(int lanes)
    : tables_(static_cast<std::size_t>(std::max(1, lanes)),
              std::vector<std::uint64_t>(kTableWords, 1)),
      probes_(tables_.size()) {
  sample(0);
}

double HostSpeed::probe(int lane) {
  const double before = probes_[static_cast<std::size_t>(lane)].back();
  sample(lane);
  return kReferenceProbeS / (0.5 * (before + probes_[static_cast<std::size_t>(lane)].back()));
}

void HostSpeed::sample(int lane) {
  probes_[static_cast<std::size_t>(lane)].push_back(
      run_kernel(tables_[static_cast<std::size_t>(lane)]));
}

double HostSpeed::probe_median_s() const {
  std::vector<double> all;
  for (const auto& p : probes_) all.insert(all.end(), p.begin(), p.end());
  return median(all);
}

double HostSpeed::resident_mb() const {
  return static_cast<double>(tables_.size() * kTableWords * sizeof(std::uint64_t)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
