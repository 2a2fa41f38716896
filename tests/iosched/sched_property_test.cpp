// Property tests that every discipline must satisfy, run over all four
// kinds and several synthetic workload shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "iosched/pair.hpp"
#include "iosched/scheduler.hpp"
#include "sched_test_util.hpp"
#include "sim/random.hpp"

namespace iosim::iosched {
namespace {

using namespace iosim::sim::literals;
using test::RequestFactory;

struct Workload {
  const char* name;
  int n;
  int contexts;
  double write_frac;
  Lba span;
};

const Workload kWorkloads[] = {
    {"seq-reader", 100, 1, 0.0, 1 << 10},
    {"multi-stream", 200, 4, 0.0, 1 << 24},
    {"write-heavy", 200, 4, 0.9, 1 << 24},
    {"mixed", 300, 8, 0.5, 1 << 26},
    {"single-shot", 1, 1, 0.0, 1},
};

class SchedProperty
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>> {
 protected:
  SchedulerKind kind() const { return std::get<0>(GetParam()); }
  const Workload& wl() const { return kWorkloads[std::get<1>(GetParam())]; }
};

TEST_P(SchedProperty, EveryRequestDispatchedExactlyOnce) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  sim::Rng rng(1234);
  std::vector<Request*> rqs;
  sim::Time now = 0_ms;
  for (int i = 0; i < wl().n; ++i) {
    const bool write = rng.uniform() < wl().write_frac;
    const Lba lba = static_cast<Lba>(rng.below(static_cast<std::uint64_t>(wl().span)));
    const auto ctx = rng.below(static_cast<std::uint64_t>(wl().contexts));
    Request* rq = write ? f.write(lba, ctx) : f.read(lba, ctx);
    rqs.push_back(rq);
    s->add(rq, now);
    now += sim::Time::from_us(200);
  }
  auto out = test::drain_dispatch(*s, now);
  EXPECT_EQ(out.size(), rqs.size());
  const std::set<Request*> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size()) << "a request was dispatched twice";
  std::sort(out.begin(), out.end());
  std::sort(rqs.begin(), rqs.end());
  EXPECT_EQ(out, rqs);
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->size(), 0u);
}

TEST_P(SchedProperty, NullDispatchImpliesWakeupOrEmpty) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  sim::Rng rng(99);
  sim::Time now = 0_ms;
  for (int i = 0; i < wl().n; ++i) {
    const bool write = rng.uniform() < wl().write_frac;
    const Lba lba = static_cast<Lba>(rng.below(static_cast<std::uint64_t>(wl().span)));
    const auto ctx = rng.below(static_cast<std::uint64_t>(wl().contexts));
    s->add(write ? f.write(lba, ctx) : f.read(lba, ctx), now);
    // The core liveness contract the BlockLayer depends on.
    int dispatched = 0;
    while (dispatched < 2) {  // pull a couple per add
      Request* rq = s->dispatch(now);
      if (rq == nullptr) {
        if (!s->empty()) {
          const auto w = s->wakeup(now);
          ASSERT_TRUE(w.has_value())
              << "non-empty scheduler idled without a wakeup time";
          ASSERT_GE(*w, now);
          now = *w;
          continue;
        }
        break;
      }
      now += sim::Time::from_us(500);
      s->on_complete(*rq, now);
      ++dispatched;
    }
  }
}

TEST_P(SchedProperty, DrainMatchesSizeAndEmpties) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  sim::Rng rng(7);
  for (int i = 0; i < wl().n; ++i) {
    const bool write = rng.uniform() < wl().write_frac;
    const Lba lba = static_cast<Lba>(rng.below(static_cast<std::uint64_t>(wl().span)));
    s->add(write ? f.write(lba, 1) : f.read(lba, 1), 0_ms);
  }
  const std::size_t size_before = s->size();
  const auto drained = s->drain();
  EXPECT_EQ(drained.size(), size_before);
  EXPECT_TRUE(s->empty());
  // The drained requests can be re-added and all dispatched (the elevator
  // switch path).
  auto s2 = make_scheduler(kind());
  for (Request* rq : drained) s2->add(rq, 0_ms);
  EXPECT_EQ(test::drain_dispatch(*s2, 0_ms).size(), drained.size());
}

TEST_P(SchedProperty, DispatchAfterPartialDrainIsClean) {
  auto s = make_scheduler(kind());
  RequestFactory f;
  for (int i = 0; i < 10; ++i) s->add(f.read(i * 100, 1), 0_ms);
  for (int i = 0; i < 5; ++i) {
    Request* rq = s->dispatch(0_ms);
    ASSERT_NE(rq, nullptr);
    s->on_complete(*rq, sim::Time::from_ms(i));
  }
  const auto drained = s->drain();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_TRUE(s->empty());
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<SchedulerKind, int>>& info) {
  return std::string(to_string(std::get<0>(info.param))) + "_" +
         kWorkloads[std::get<1>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllWorkloads, SchedProperty,
    ::testing::Combine(::testing::Values(SchedulerKind::kNoop, SchedulerKind::kDeadline,
                                         SchedulerKind::kAnticipatory, SchedulerKind::kCfq),
                       ::testing::Range(0, static_cast<int>(std::size(kWorkloads)))),
    [](const auto& pinfo) {
      std::string n = param_name(pinfo);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// A seeded mixed trace driven through one elevator as a queue-depth-1
// device would drive it, with wakeup()-driven idling. Ten contexts each run
// one reader: a sync read, then the next one a think time after it
// completes — the first six mostly inside the idle windows, the rest mostly
// past them. Background arrivals add sync and async reads and writes from
// every context, and a burst of scattered async I/O mid-run leaves a
// backlog older than every expiry. Requests mostly continue where their
// context left off, broken by jumps. The digest is FNV-1a over the dispatch
// sequence (id, time) followed by the ids of the final drain().
struct PinnedRun {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int dispatched = 0;
  int drained = 0;
  int idles = 0;
  int hits = 0;      // idle episodes cut short by an arrival
  int timeouts = 0;  // idle episodes that ran to their wakeup time
};

PinnedRun run_pinned_mix(SchedulerKind kind) {
  constexpr int kContexts = 10;
  constexpr Lba kRegion = Lba{1} << 22;
  constexpr int kBackground = 2000;
  struct Arrival {
    std::uint64_t ctx;
    Dir dir;
    bool sync;
    bool seq;
    bool reader;  // the context's reader (else background)
  };

  auto s = make_scheduler(kind);
  RequestFactory f;
  sim::Rng rng(20240611);
  PinnedRun out;
  auto mix = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.digest ^= (v >> (8 * i)) & 0xffU;
      out.digest *= 0x100000001b3ULL;
    }
  };
  // Contexts c and c + 5 share a region, their streams starting 1 MB apart.
  auto base = [](std::uint64_t ctx) { return static_cast<Lba>(ctx % 5) * kRegion; };
  auto us = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return sim::Time::from_us(static_cast<std::int64_t>(lo + rng.below(hi - lo)));
  };

  std::multimap<sim::Time, Arrival> arrivals;
  sim::Time t = 0_ms;
  for (int i = 0; i < kBackground; ++i) {
    t += us(0, 4000);
    const bool write = rng.chance(0.55);
    arrivals.emplace(t, Arrival{rng.below(kContexts), write ? Dir::kWrite : Dir::kRead,
                                rng.chance(write ? 0.2 : 0.65), rng.chance(0.75), false});
  }
  const sim::Time end = t;
  // Mid-run burst of scattered async reads and writes (readahead and
  // writeback): a backlog that outlives every expiry.
  for (int i = 0; i < 800; ++i) {
    arrivals.emplace(end / 2 + us(0, 20'000),
                     Arrival{rng.below(kContexts), i % 2 ? Dir::kWrite : Dir::kRead,
                             false, false, false});
  }
  Lba pos[kContexts];
  std::uint64_t reader_rq[kContexts] = {};
  for (std::uint64_t c = 0; c < kContexts; ++c) {
    pos[c] = base(c) + static_cast<Lba>(c / 5) * 2048;
    arrivals.emplace(us(0, 5000), Arrival{c, Dir::kRead, true, true, true});
  }

  sim::Time now = 0_ms;
  Request* busy = nullptr;
  sim::Time done;
  Lba head = 0;
  sim::Time wake = sim::Time::max();  // no wakeup armed
  bool idling = false;
  sim::Time idle_until;
  while (true) {
    sim::Time next = sim::Time::max();
    if (!arrivals.empty()) next = arrivals.begin()->first;
    if (busy != nullptr && done < next) next = done;
    if (wake < next) next = wake;
    if (next > end) break;
    now = next;

    if (busy != nullptr && done == now) {
      s->on_complete(*busy, now);
      if (busy->id == reader_rq[busy->ctx]) {
        const bool quick = rng.chance(busy->ctx < 6 ? 0.85 : 0.15);
        arrivals.emplace(now + (quick ? us(100, 4000) : us(10'000, 40'000)),
                         Arrival{busy->ctx, Dir::kRead, true, rng.chance(0.9), true});
      }
      busy = nullptr;
    }
    while (!arrivals.empty() && arrivals.begin()->first == now) {
      const Arrival a = arrivals.begin()->second;
      arrivals.erase(arrivals.begin());
      Lba& p = pos[a.ctx];
      const Lba lba =
          a.seq ? p
                : base(a.ctx) + static_cast<Lba>(rng.below(static_cast<std::uint64_t>(kRegion)));
      const auto sectors = static_cast<std::int64_t>(8 * (1 + rng.below(16)));
      p = lba + sectors;
      Request* rq = f.make(lba, sectors, a.dir, a.sync, a.ctx);
      if (a.reader) reader_rq[a.ctx] = rq->id;
      s->add(rq, now);
    }
    if (wake <= now) wake = sim::Time::max();
    if (busy != nullptr) continue;

    Request* rq = s->dispatch(now);
    if (rq != nullptr) {
      if (idling) {
        ++(now < idle_until ? out.hits : out.timeouts);
        idling = false;
      }
      mix(rq->id);
      mix(static_cast<std::uint64_t>(now.ns()));
      ++out.dispatched;
      // A head move costs a 1 ms rotation plus a distance-scaled seek.
      const Lba gap = std::llabs(rq->lba - head);
      const Lba seek = gap == 0 ? 0 : 1000 + std::min<Lba>(gap / 4096, 4000);
      done = now + sim::Time::from_us(150 + rq->sectors * 4 + seek);
      head = rq->end();
      busy = rq;
      wake = sim::Time::max();
    } else if (!s->empty()) {
      const auto w = s->wakeup(now);
      if (!w || *w <= now) {
        ADD_FAILURE() << "idled without a future wakeup at " << now.ns();
        break;
      }
      wake = *w;
      if (!idling) {
        idling = true;
        idle_until = wake;
        ++out.idles;
      }
    }
  }
  for (Request* rq : s->drain()) {
    mix(rq->id);
    ++out.drained;
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Pins every elevator's exact dispatch order and drain order over a mix
// that makes AS anticipation both hit and time out and CFQ slice idling
// both pay off and expire. A refactor of the disciplines must leave every
// digest unchanged.
TEST(SchedPin, MixedTraceDispatchAndDrainOrderArePinned) {
  const std::pair<SchedulerKind, std::uint64_t> pins[] = {
      {SchedulerKind::kNoop, 0xe7a2c8a8bc9a646fULL},
      {SchedulerKind::kDeadline, 0xb418269d1d47b17dULL},
      {SchedulerKind::kAnticipatory, 0x6922ab5f179f7815ULL},
      {SchedulerKind::kCfq, 0xc8f3e078b5b48727ULL},
  };
  for (const auto& [kind, digest] : pins) {
    SCOPED_TRACE(to_string(kind));
    const PinnedRun r = run_pinned_mix(kind);
    EXPECT_GT(r.dispatched, 500);
    EXPECT_GT(r.drained, 0);
    if (kind == SchedulerKind::kAnticipatory || kind == SchedulerKind::kCfq) {
      EXPECT_GT(r.hits, 0);
      EXPECT_GT(r.timeouts, 0);
    } else {
      EXPECT_EQ(r.idles, 0);
    }
    EXPECT_EQ(hex(r.digest), hex(digest));
  }
}

TEST(Factory, MakesEveryKind) {
  for (SchedulerKind k : kAllSchedulerKinds) {
    auto s = make_scheduler(k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
  }
}

TEST(Factory, NamesRoundTrip) {
  for (SchedulerKind k : kAllSchedulerKinds) {
    const auto parsed = scheduler_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(scheduler_from_string("AS"), SchedulerKind::kAnticipatory);
  EXPECT_EQ(scheduler_from_string("NOOP"), SchedulerKind::kNoop);
  EXPECT_FALSE(scheduler_from_string("bfq").has_value());
}

TEST(Pair, IndexRoundTrip) {
  for (int i = 0; i < kNumSchedulerPairs; ++i) {
    const SchedulerPair p = SchedulerPair::from_index(i);
    EXPECT_EQ(p.index(), i);
  }
}

TEST(Pair, AllPairsUnique) {
  const auto pairs = all_scheduler_pairs();
  std::set<int> idx;
  for (const auto& p : pairs) idx.insert(p.index());
  EXPECT_EQ(idx.size(), static_cast<std::size_t>(kNumSchedulerPairs));
}

TEST(Pair, StringFormats) {
  const SchedulerPair p{SchedulerKind::kAnticipatory, SchedulerKind::kDeadline};
  EXPECT_EQ(p.to_string(), "(anticipatory, deadline)");
  EXPECT_EQ(p.letters(), "ad");
  EXPECT_EQ(kDefaultPair.letters(), "cc");
}

}  // namespace
}  // namespace iosim::iosched
