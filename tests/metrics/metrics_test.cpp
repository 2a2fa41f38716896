#include <gtest/gtest.h>

#include "blk/block_layer.hpp"
#include "blk/request_sink.hpp"
#include "metrics/iostat_sampler.hpp"
#include "metrics/table.hpp"

namespace iosim::metrics {
namespace {

using namespace iosim::sim::literals;
using sim::Time;

TEST(Table, CsvRoundTrip) {
  Table t("demo");
  t.headers({"a", "b"});
  t.row({"1", "x"});
  t.row({"2", "y"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,x\n2,y\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::pct(12.345, 1), "12.3%");
}

TEST(Table, PrintDoesNotCrashOnRaggedRows) {
  Table t;
  t.headers({"a", "b", "c"});
  t.row({"1"});
  t.row({"1", "2", "3", "4"});
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  t.print(sink);
  std::fclose(sink);
}

/// Capacity-1 sink that completes every request exactly `latency` after
/// dispatch — timings become pencil-and-paper checkable, unlike DiskDevice
/// whose service time depends on seek distance.
class FixedLatencySink : public blk::RequestSink {
 public:
  FixedLatencySink(sim::Simulator& simr, Time latency)
      : simr_(simr), latency_(latency) {}

  bool can_accept() const override { return !busy_; }

  void submit(blk::Request* rq, Time) override {
    busy_ = true;
    simr_.after(latency_, [this, rq] {
      const Time t = simr_.now();
      busy_ = false;
      complete(rq, t);
      ready(t);
    });
  }

 private:
  sim::Simulator& simr_;
  Time latency_;
  bool busy_ = false;
};

TEST(IostatSampler, HandComputedWindowedThroughput) {
  // Sink latency 4ms, noop, 10ms sampling period from t=0:
  //   t=0ms:  8-sector sync read, completes t=4ms              -> window 1
  //   t=1ms:  16-sector async write, waits for the sink until
  //           4ms, completes t=8ms                             -> window 1
  //   t=23ms: 8-sector async write, completes t=27ms           -> window 3
  // Window 2 is idle. Each window's MB/s is its bytes / 10ms / 1e6.
  sim::Simulator simr;
  FixedLatencySink sink(simr, 4_ms);
  blk::BlockLayerConfig cfg;
  cfg.scheduler = iosched::SchedulerKind::kNoop;
  blk::BlockLayer layer(simr, sink, cfg);
  int completed = 0;
  const auto submit = [&](disk::Lba lba, std::int64_t sectors, iosched::Dir dir) {
    blk::Bio b;
    b.lba = lba;
    b.sectors = sectors;
    b.dir = dir;
    b.sync = dir == iosched::Dir::kRead;
    b.on_complete = [&completed](Time, iosched::IoStatus) { ++completed; };
    layer.submit(std::move(b));
  };
  submit(1'000, 8, iosched::Dir::kRead);
  simr.after(1_ms, [&] { submit(50'000, 16, iosched::Dir::kWrite); });
  simr.after(23_ms, [&] { submit(90'000, 8, iosched::Dir::kWrite); });

  IostatOptions opt;
  opt.period = 10_ms;
  IostatSampler sampler(simr, opt);
  sampler.watch(layer);
  sampler.stop_when([&completed] { return completed == 3; });
  sampler.start();
  simr.run();

  ASSERT_EQ(completed, 3);
  ASSERT_EQ(sampler.ticks(), 3u);
  const auto& s = sampler.series(0);
  ASSERT_EQ(s.size(), 3u);
  const double kB4 = 4096.0 / 0.010 / 1e6;  // one 8-sector bio per window
  EXPECT_EQ(s[0].t, 10_ms);
  EXPECT_DOUBLE_EQ(s[0].read_mb_s, kB4);
  EXPECT_DOUBLE_EQ(s[0].write_mb_s, 2 * kB4);
  EXPECT_EQ(s[1].t, 20_ms);
  EXPECT_DOUBLE_EQ(s[1].read_mb_s, 0.0);
  EXPECT_DOUBLE_EQ(s[1].write_mb_s, 0.0);
  EXPECT_EQ(s[2].t, 30_ms);
  EXPECT_DOUBLE_EQ(s[2].read_mb_s, 0.0);
  EXPECT_DOUBLE_EQ(s[2].write_mb_s, kB4);
  for (const auto& x : s) {
    EXPECT_EQ(x.queued, 0u);
    EXPECT_EQ(x.in_flight, 0u);
  }
}

}  // namespace
}  // namespace iosim::metrics
