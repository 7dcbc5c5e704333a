// exp/serialize.hpp: specs and results must round-trip *exactly* — the
// campaign checkpoint and journals are parsed back after a kill, and merged
// output must be byte-identical to a run that never died.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/serialize.hpp"
#include "util/check.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

using dimmer::exp::result_from_value;
using dimmer::exp::result_to_json;
using dimmer::exp::spec_digest;
using dimmer::exp::spec_from_value;
using dimmer::exp::spec_to_json;
using dimmer::exp::specs_digest;
using dimmer::exp::TrialResult;
using dimmer::exp::TrialSpec;
using dimmer::util::json::parse;

namespace {

TrialSpec full_spec() {
  TrialSpec s;
  s.scenario = "storm/cold";
  s.seed = 18446744073709551615ULL;  // all 64 bits must survive
  s.params["interference"] = 0.35;
  s.params["reward_c"] = 1.0 / 3.0;
  s.tags["mode"] = "cold";
  s.tags["faults"] = "storm";
  s.fault_plan.crash_coordinator(30).blackout(30, 40, 0.35).crash(45, 9);
  return s;
}

TrialResult full_result() {
  TrialResult r;
  r.metrics["reliability"] = 0.987654321012345678;
  r.metrics["dip"] = 0.25;
  r.stats["reliability"].add(0.9);
  r.stats["reliability"].add(0.99);
  r.stats["reliability"].add(0.95);
  r.stats["empty_dist"];  // count == 0: sentinel min/max must round-trip
  r.series["n_tx"] = {4.0, 3.0, 2.0, 2.0};
  r.registry.counter("flood.slots") = 9007199254740993ULL;  // 2^53 + 1
  r.registry.gauge("rl.epsilon") = 0.1;
  r.wall_seconds = 1.25;
  return r;
}

}  // namespace

TEST(Serialize, SpecRoundTripsExactly) {
  const TrialSpec s = full_spec();
  const std::string text = spec_to_json(s);
  const TrialSpec back = spec_from_value(parse(text));
  EXPECT_EQ(spec_to_json(back), text);
  EXPECT_EQ(back.scenario, s.scenario);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.params, s.params);
  EXPECT_EQ(back.tags, s.tags);
  ASSERT_EQ(back.fault_plan.size(), s.fault_plan.size());
  EXPECT_EQ(dimmer::fault::to_json(back.fault_plan),
            dimmer::fault::to_json(s.fault_plan));
}

TEST(Serialize, EmptySpecSectionsAreOmitted) {
  TrialSpec s;
  s.scenario = "baseline";
  s.seed = 7;
  const std::string text = spec_to_json(s);
  EXPECT_EQ(text.find("params"), std::string::npos);
  EXPECT_EQ(text.find("tags"), std::string::npos);
  EXPECT_EQ(text.find("fault_plan"), std::string::npos);
  const TrialSpec back = spec_from_value(parse(text));
  EXPECT_EQ(spec_to_json(back), text);
  EXPECT_TRUE(back.fault_plan.empty());
}

TEST(Serialize, ResultRoundTripsExactly) {
  const TrialResult r = full_result();
  const std::string text = result_to_json(r);
  const TrialResult back = result_from_value(parse(text));
  EXPECT_EQ(result_to_json(back), text);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.metrics, r.metrics);
  EXPECT_EQ(back.series, r.series);
  EXPECT_EQ(back.registry.to_json(), r.registry.to_json());
  EXPECT_DOUBLE_EQ(back.wall_seconds, 1.25);
  // RunningStats internal state (count/mean/m2/min/max) is preserved, so
  // merges of replayed trials equal merges of the originals bit-for-bit.
  const auto& orig = r.stats.at("reliability");
  const auto& got = back.stats.at("reliability");
  EXPECT_EQ(got.count(), orig.count());
  EXPECT_EQ(got.mean(), orig.mean());
  EXPECT_EQ(got.m2(), orig.m2());
  EXPECT_EQ(got.min(), orig.min());
  EXPECT_EQ(got.max(), orig.max());
  EXPECT_EQ(back.stats.at("empty_dist").count(), 0u);
}

TEST(Serialize, FailedResultCarriesError) {
  TrialResult r;
  r.ok = false;
  r.error = "campaign: trial exceeded attempt budget (3 attempts)";
  const std::string text = result_to_json(r);
  const TrialResult back = result_from_value(parse(text));
  EXPECT_EQ(result_to_json(back), text);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, r.error);
}

TEST(Serialize, NonFiniteMetricFailsReplayLoudly) {
  TrialResult r;
  r.metrics["bad"] = std::nan("");
  // json_number prints NaN as null; replay must refuse to resurrect it as 0.
  const std::string text = result_to_json(r);
  EXPECT_THROW(result_from_value(parse(text)), dimmer::util::RequireError);
}

TEST(Serialize, DigestIsStableAndOrderSensitive) {
  // Pinned value: a silent serialization change must fail this test, because
  // it would orphan every existing campaign checkpoint.
  EXPECT_EQ(dimmer::util::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(dimmer::util::fnv1a64("dimmer"), dimmer::util::fnv1a64("dimmer"));
  EXPECT_NE(dimmer::util::fnv1a64("dimmer"), dimmer::util::fnv1a64("dimmeR"));

  TrialSpec a = full_spec();
  TrialSpec b;
  b.scenario = "baseline";
  b.seed = 1;
  EXPECT_EQ(spec_digest(a), spec_digest(full_spec()));
  EXPECT_NE(spec_digest(a), spec_digest(b));

  const std::vector<TrialSpec> ab = {a, b};
  const std::vector<TrialSpec> ba = {b, a};
  EXPECT_EQ(specs_digest(ab), specs_digest(ab));
  EXPECT_NE(specs_digest(ab), specs_digest(ba)) << "digest must be order-aware";
  TrialSpec a2 = a;
  a2.seed ^= 1;
  EXPECT_NE(specs_digest(ab), specs_digest({a2, b}));
}
