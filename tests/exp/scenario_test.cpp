#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "sim/random.hpp"

namespace iosim::exp {
namespace {

TEST(ScenarioSpec, Defaults) {
  const auto s = ScenarioSpec::parse("");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->name, "sweep");
  EXPECT_EQ(s->mode, RunMode::kRun);
  EXPECT_EQ(s->base_seed, 1u);
  EXPECT_EQ(s->repeats, 3);
  EXPECT_EQ(s->pairs.size(), 1u);
  EXPECT_EQ(s->workloads, std::vector<std::string>{"sort"});
  EXPECT_EQ(s->n_points(), 1u);
  EXPECT_EQ(s->n_runs(), 3u);
}

TEST(ScenarioSpec, FullParse) {
  const char* text =
      "# a comment\n"
      "name = fig7b\n"
      "mode = adapt\n"
      "base_seed = 99\n"
      "repeats = 5\n"
      "workload = sort, wc\n"
      "hosts = 4\n"
      "vms = 2, 4, 6\n"
      "mb = 512\n";
  std::string err;
  const auto s = ScenarioSpec::parse(text, &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->name, "fig7b");
  EXPECT_EQ(s->mode, RunMode::kAdapt);
  EXPECT_EQ(s->base_seed, 99u);
  EXPECT_EQ(s->repeats, 5);
  EXPECT_EQ(s->vms, (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(s->n_points(), 2u * 3u);
  EXPECT_EQ(s->n_runs(), 6u * 5u);
}

TEST(ScenarioSpec, RoundTripsThroughToString) {
  const char* text =
      "name=rt\nmode=adapt\nbase_seed=7\nrepeats=2\n"
      "pair=cc,ad\nworkload=sort,wc\nhosts=2\nvms=2,4\nmb=64\n"
      "fault=none|failslow:host=0,factor=2\n";
  const auto a = ScenarioSpec::parse(text);
  ASSERT_TRUE(a.has_value());
  const auto b = ScenarioSpec::parse(a->to_string());
  ASSERT_TRUE(b.has_value()) << a->to_string();
  EXPECT_EQ(a->to_string(), b->to_string());
  EXPECT_EQ(a->n_points(), b->n_points());
}

TEST(ScenarioSpec, ErrorsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("name=x\nbogus_key=1\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  EXPECT_FALSE(ScenarioSpec::parse("\n\nrepeats=zero\n", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;

  EXPECT_FALSE(ScenarioSpec::parse("no_equals_sign\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(ScenarioSpec, RejectsDuplicateKey) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("hosts=2\nhosts=4\n", &err).has_value());
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(ScenarioSpec, RejectsBadValues) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("mode=banana\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("pair=zz\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("workload=grep\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("hosts=0\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("vms=1,,2\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("repeats=0\n", &err).has_value());
  EXPECT_FALSE(ScenarioSpec::parse("fault=transient:host=0\n", &err).has_value());
}

TEST(ScenarioSpec, UnsignedFieldsRejectASign) {
  // "-1" once wrapped to 18446744073709551615; the unsigned fields take no
  // sign, and their largest value is still reachable spelled out.
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("base_seed=-1\n", &err).has_value());
  EXPECT_NE(err.find("line 1: bad base_seed '-1'"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("max_events=-1\n", &err).has_value());
  EXPECT_NE(err.find("line 1: bad max_events '-1'"), std::string::npos) << err;
  const auto s = ScenarioSpec::parse("base_seed=18446744073709551615\n", &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->base_seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(ScenarioSpec::parse("base_seed=18446744073709551616\n").has_value());
}

TEST(ScenarioSpec, All16ExpandsEveryPair) {
  const auto s = ScenarioSpec::parse("pair=all16\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->pairs.size(), 16u);
  std::set<std::string> codes;
  for (const auto& p : s->pairs) codes.insert(p.letters());
  EXPECT_EQ(codes.size(), 16u);
}

TEST(ScenarioSpec, FaultAxisParsesAlternatives) {
  const auto s =
      ScenarioSpec::parse("fault=none|failslow:host=0,factor=2|transient:host=-1,p=0.1\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->faults.size(), 3u);
  EXPECT_TRUE(s->faults[0].second.empty());   // none -> fault-free
  EXPECT_TRUE(s->faults[0].first.empty());
  EXPECT_FALSE(s->faults[1].first.empty());
  EXPECT_EQ(s->faults[2].second, "transient:host=-1,p=0.1");
}

TEST(ScenarioSpec, ExpansionOrderIsDocumentedNestedLoop) {
  // workload outermost, then hosts, vms, mb, pair, fault innermost.
  const auto s = ScenarioSpec::parse(
      "workload=sort,wc\nhosts=2\nvms=2\nmb=64\npair=cc,ad\n");
  ASSERT_TRUE(s.has_value());
  const auto pts = s->expand();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].workload, "sort");
  EXPECT_EQ(pts[0].pair.letters(), "cc");
  EXPECT_EQ(pts[1].workload, "sort");
  EXPECT_EQ(pts[1].pair.letters(), "ad");
  EXPECT_EQ(pts[2].workload, "wordcount");
  EXPECT_EQ(pts[2].pair.letters(), "cc");
  EXPECT_EQ(pts[3].workload, "wordcount");
  EXPECT_EQ(pts[3].pair.letters(), "ad");
}

TEST(ScenarioSpec, LabelsAreUniqueAcrossExpansion) {
  const auto s = ScenarioSpec::parse(
      "workload=sort,wc\nhosts=2,3\nvms=2,4\nmb=64,128\npair=cc,ad\n"
      "fault=none|failslow:host=0,factor=2\n");
  ASSERT_TRUE(s.has_value());
  const auto pts = s->expand();
  std::set<std::string> labels;
  for (const auto& p : pts) labels.insert(p.label());
  EXPECT_EQ(labels.size(), pts.size());
}

TEST(RunMatrix, SeedsAreDerivedFromRunIndex) {
  const auto s = ScenarioSpec::parse("base_seed=5\nrepeats=2\nvms=2,4\n");
  ASSERT_TRUE(s.has_value());
  const auto tasks = build_run_matrix(*s);
  ASSERT_EQ(tasks.size(), 4u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].run_index, i);
    EXPECT_EQ(tasks[i].point_index, i / 2);
    EXPECT_EQ(tasks[i].repeat, static_cast<int>(i % 2));
    EXPECT_EQ(tasks[i].seed, sim::derive_run_seed(5, i));
    EXPECT_NE(tasks[i].seed, 5 + i);  // never the naive base+index
  }
}

TEST(RunMatrix, DistinctSeedsAcrossLargeMatrix) {
  const auto s = ScenarioSpec::parse("repeats=10\npair=all16\nvms=2,4,6\n");
  ASSERT_TRUE(s.has_value());
  const auto tasks = build_run_matrix(*s);
  ASSERT_EQ(tasks.size(), 480u);
  std::set<std::uint64_t> seeds;
  for (const auto& t : tasks) seeds.insert(t.seed);
  EXPECT_EQ(seeds.size(), tasks.size());
}

TEST(ScenarioSpec, ApplyOverridesForSetFlag) {
  auto s = ScenarioSpec::parse("name=x\nmb=512\n");
  ASSERT_TRUE(s.has_value());
  std::string err;
  ASSERT_TRUE(s->apply("mb", "64", &err)) << err;
  EXPECT_EQ(s->mb, std::vector<std::int64_t>{64});
  EXPECT_FALSE(s->apply("mb", "not_a_number", &err));
}

TEST(ScenarioSpec, ValidateRejectsOversizedMatrix) {
  // Six unbounded axis lengths multiply: a hostile spec can overflow
  // size_t in n_points() or OOM in expand()'s reserve. parse() must
  // reject the product, not just the individual values.
  std::string big = "name=huge\nrepeats=1\npair=all16\n";
  std::string vms = "vms=1";
  for (int i = 2; i <= 400; ++i) vms += "," + std::to_string(i);
  std::string hosts = "hosts=1";
  for (int i = 2; i <= 400; ++i) hosts += "," + std::to_string(i);
  big += vms + "\n" + hosts + "\n";
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse(big, &err).has_value());
  EXPECT_NE(err.find("point"), std::string::npos) << err;

  // Run count (points * repeats) is capped separately.
  auto s = ScenarioSpec::parse("name=x\nrepeats=1000000\npair=all16\n");
  EXPECT_FALSE(s.has_value());
}

TEST(ScenarioSpec, ValidateIsReusableAfterSetOverrides) {
  auto s = ScenarioSpec::parse("name=x\n");
  ASSERT_TRUE(s.has_value());
  std::string err;
  EXPECT_TRUE(s->validate(&err)) << err;
  s->repeats = 100'000'000;  // what a bad --set repeats=... would do
  EXPECT_FALSE(s->validate(&err));
  EXPECT_FALSE(err.empty());
}

// --- Multi-job stream axes -------------------------------------------------

constexpr const char* kStreamText =
    "arrive,poisson,rate=0.05,jobs=4;class,name=a,wl=sort,mb=8-16";

TEST(ScenarioSpec, StreamAxisParsesAlternativesAndPolicies) {
  const auto s = ScenarioSpec::parse(
      "stream=none|" + std::string(kStreamText) +
      "\nstream_policy=fifo,fair,capacity\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->streams.size(), 2u);
  EXPECT_TRUE(s->streams[0].second.empty());  // none -> single-job point
  EXPECT_EQ(s->streams[1].second, kStreamText);
  EXPECT_EQ(s->streams[1].first.job_count(), 4);
  ASSERT_EQ(s->stream_policies.size(), 3u);
  // none x 3 policies + stream x 3 policies.
  EXPECT_EQ(s->n_points(), 6u);
}

TEST(ScenarioSpec, StreamAxisExpandsWithPolicyOverride) {
  const auto s = ScenarioSpec::parse(
      "stream=none|" + std::string(kStreamText) + "\nstream_policy=fair\n");
  ASSERT_TRUE(s.has_value());
  const auto pts = s->expand();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_TRUE(pts[0].stream_text.empty());
  EXPECT_TRUE(pts[0].stream_policy.empty());  // override is inert on `none`
  EXPECT_EQ(pts[1].stream_text, kStreamText);
  EXPECT_EQ(pts[1].stream_policy, "fair");
  EXPECT_EQ(pts[1].stream.policy, tenancy::Policy::kFair);
  // Labels must stay distinct (the journal keys on them indirectly).
  EXPECT_NE(pts[0].label(), pts[1].label());
}

TEST(ScenarioSpec, StreamAxesRoundTripThroughToString) {
  const auto s = ScenarioSpec::parse(
      "stream=none|" + std::string(kStreamText) + "\nstream_policy=fifo,fair\n");
  ASSERT_TRUE(s.has_value());
  const std::string text = s->to_string();
  EXPECT_NE(text.find("stream="), std::string::npos);
  EXPECT_NE(text.find("stream_policy=fifo,fair"), std::string::npos);
  std::string err;
  const auto again = ScenarioSpec::parse(text, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->to_string(), text);
  EXPECT_EQ(again->fingerprint(), s->fingerprint());
}

TEST(ScenarioSpec, StreamlessSpecsKeepPreTenancyCanonicalText) {
  // No stream axes -> no stream lines, so pre-tenancy journals still match
  // their recorded fingerprints.
  const auto s = ScenarioSpec::parse("name=x\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->to_string().find("stream"), std::string::npos);
}

TEST(RunMatrix, PairedSeedModeSharesSeedsAcrossPoints) {
  const auto s =
      ScenarioSpec::parse("base_seed=5\nrepeats=2\nseed_mode=repeat\nvms=2,4\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->paired_seeds);
  const auto tasks = build_run_matrix(*s);
  ASSERT_EQ(tasks.size(), 4u);
  // Both points replay the same two seeds, derived from the repeat alone.
  EXPECT_EQ(tasks[0].seed, sim::derive_run_seed(5, 0));
  EXPECT_EQ(tasks[1].seed, sim::derive_run_seed(5, 1));
  EXPECT_EQ(tasks[2].seed, tasks[0].seed);
  EXPECT_EQ(tasks[3].seed, tasks[1].seed);
  // Run indices stay dense and unique — only the seed derivation pairs up.
  EXPECT_EQ(tasks[3].run_index, 3u);
  // The non-default mode is rendered (and round-trips); the default is not.
  EXPECT_NE(s->to_string().find("seed_mode=repeat"), std::string::npos);
  const auto rt = ScenarioSpec::parse(s->to_string());
  ASSERT_TRUE(rt.has_value());
  EXPECT_TRUE(rt->paired_seeds);
  const auto d = ScenarioSpec::parse("repeats=2\n");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->to_string().find("seed_mode"), std::string::npos);
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("seed_mode=dice\n", &err).has_value());
  EXPECT_NE(err.find("bad seed_mode"), std::string::npos) << err;
}

TEST(ScenarioSpec, MetaAxisCrossesStreamsAndFoldsIntoSpecs) {
  const auto s = ScenarioSpec::parse(
      "stream=" + std::string(kStreamText) +
      "\nmeta=none|policy=ucb,explore=0.7|policy=egreedy\n");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->metas.size(), 3u);
  EXPECT_EQ(s->metas[0], "");
  const auto pts = s->expand();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_FALSE(pts[0].stream.meta.enabled());
  EXPECT_EQ(pts[1].stream.meta.policy, tenancy::MetaPolicy::kUcb);
  EXPECT_DOUBLE_EQ(pts[1].stream.meta.explore, 0.7);
  EXPECT_EQ(pts[2].stream.meta.policy, tenancy::MetaPolicy::kEgreedy);
  // The axis shows up in labels (so BENCH points stay distinguishable) and
  // the spec round-trips through its canonical text.
  EXPECT_EQ(pts[0].label().find("meta="), std::string::npos);
  EXPECT_NE(pts[1].label().find("meta=policy=ucb"), std::string::npos);
  const auto rt = ScenarioSpec::parse(s->to_string());
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->to_string(), s->to_string());
}

TEST(ScenarioSpec, MetaAxisRejectsBadInput) {
  std::string err;
  // meta without a stream axis is meaningless.
  EXPECT_FALSE(ScenarioSpec::parse("meta=policy=ucb\n", &err).has_value());
  EXPECT_NE(err.find("meta"), std::string::npos) << err;
  // Every alternative must be a valid meta body for every stream.
  EXPECT_FALSE(ScenarioSpec::parse("stream=" + std::string(kStreamText) +
                                       "\nmeta=policy=warp\n",
                                   &err)
                   .has_value());
  // profile= must name a class that exists in each crossed stream.
  EXPECT_FALSE(ScenarioSpec::parse("stream=" + std::string(kStreamText) +
                                       "\nmeta=policy=offline,profile=nosuch\n",
                                   &err)
                   .has_value());
}

TEST(ScenarioSpec, StreamAxisRejectsBadInput) {
  std::string err;
  EXPECT_FALSE(ScenarioSpec::parse("stream=arrive,poisson\n", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      ScenarioSpec::parse("mode=adapt\nstream=" + std::string(kStreamText) + "\n",
                          &err)
          .has_value());
  EXPECT_NE(err.find("mode=run"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("stream_policy=fair\n", &err).has_value());
  EXPECT_NE(err.find("without a stream"), std::string::npos) << err;
  EXPECT_FALSE(ScenarioSpec::parse("stream=" + std::string(kStreamText) +
                                       "\nstream_policy=lottery\n",
                                   &err)
                   .has_value());
}

}  // namespace
}  // namespace iosim::exp
