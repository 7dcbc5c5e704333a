// Tests of the benchmark's own logic: the percentile rule, self-time
// subtraction over nested spans, the strict argument parser, and the
// forwarding decorators' bit-identity. Run: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "args.hpp"
#include "baselines/pid.hpp"
#include "core/controller.hpp"
#include "core/protocol.hpp"
#include "core/scenarios.hpp"
#include "decorators.hpp"
#include "flood/glossy.hpp"
#include "phy/link_model.hpp"
#include "phy/sparse_link_model.hpp"
#include "phy/topology.hpp"
#include "rl/mlp.hpp"
#include "rl/quantized.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;
using namespace dimmer;

// ---- percentile rule -------------------------------------------------------

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(min_samples_for(99.0), 1000u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

// ---- self time -------------------------------------------------------------

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const double ns = 1e-9;
  // root [0,100): children A [10,30) and B [20,50) overlap, C [90,120)
  // sticks out of the root and is clipped; A has a child of its own.
  std::vector<Span> s = {
      {"root", 0, 100, -1}, {"a", 10, 30, 0}, {"b", 20, 50, 0},
      {"c", 90, 120, 0},    {"a.kid", 15, 25, 1},
  };
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 50 * ns);  // 100 - |[10,50) u [90,100)|
  EXPECT_DOUBLE_EQ(self[1], 10 * ns);  // 20 - 10 (grandchild is A's only)
  EXPECT_DOUBLE_EQ(self[2], 30 * ns);
  EXPECT_DOUBLE_EQ(self[3], 30 * ns);
  EXPECT_DOUBLE_EQ(self[4], 10 * ns);

  const auto totals = span_totals(s);
  EXPECT_EQ(totals.at("root").count, 1u);
  EXPECT_DOUBLE_EQ(totals.at("root").total_s, 100 * ns);
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 50 * ns);
}

TEST(Spans, TracerLinksNestedSpansToTheirParent) {
  Tracer t;
  {
    ScopedSpan outer(&t, "outer");
    { ScopedSpan inner(&t, "inner"); }
    { ScopedSpan inner(&t, "inner"); }
  }
  { ScopedSpan other(&t, "other"); }
  const std::vector<Span> s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  const auto totals = t.totals();
  EXPECT_EQ(totals.at("inner").count, 2u);
  EXPECT_LE(totals.at("outer").self_s, totals.at("outer").total_s);
  { ScopedSpan off(nullptr, "ignored"); }  // a null tracer records nothing
  EXPECT_EQ(t.spans().size(), 4u);
}

// ---- strict parser ---------------------------------------------------------

namespace {
std::vector<std::string> run_args(const std::string& seed,
                                  const std::string& seconds = "10",
                                  const std::string& trace = "0",
                                  const std::string& workload = "campus-flood") {
  return {"--workload", workload, "--seed",     seed,   "--seconds",
          seconds,      "--trace", trace,       "--work-dir", "w"};
}
}  // namespace

TEST(Args, AcceptsAWellFormedRun) {
  const Args a = parse_args(run_args("18446744073709551615", "60", "1"));
  EXPECT_EQ(a.mode, Mode::kRun);
  EXPECT_EQ(a.workload, "campus-flood");
  EXPECT_EQ(a.seed, 18446744073709551615ULL);
  EXPECT_EQ(a.seconds, 60);
  EXPECT_TRUE(a.trace);
  EXPECT_EQ(a.work_dir, "w");
  EXPECT_EQ(parse_args({"--prepare", "--work-dir", "w"}).mode, Mode::kPrepare);
}

TEST(Args, RejectsMalformedNumbers) {
  for (const char* bad : {"0.25x", "", "-1", "+3", " 7", "7 ", "1e3", "0x10",
                          "18446744073709551616", "99999999999999999999999"})
    EXPECT_THROW(parse_args(run_args(bad)), ArgError) << "seed '" << bad << "'";
  for (const char* bad : {"0", "3601", "-5", "2.5", "", "10s"})
    EXPECT_THROW(parse_args(run_args("1", bad)), ArgError)
        << "seconds '" << bad << "'";
  for (const char* bad : {"2", "-0", "yes", ""})
    EXPECT_THROW(parse_args(run_args("1", "10", bad)), ArgError)
        << "trace '" << bad << "'";
}

TEST(Args, RejectsMissingUnknownAndDuplicateOptions) {
  EXPECT_THROW(parse_args(run_args("1", "10", "0", "office19")), ArgError);
  EXPECT_THROW(parse_args({"--workload", "campus-flood", "--seed", "1",
                           "--seconds", "10", "--work-dir", "w"}),
               ArgError);  // no --trace
  std::vector<std::string> dup = run_args("1");
  dup.insert(dup.end(), {"--seed", "2"});
  EXPECT_THROW(parse_args(dup), ArgError);
  std::vector<std::string> extra = run_args("1");
  extra.push_back("--fast");
  EXPECT_THROW(parse_args(extra), ArgError);
  std::vector<std::string> dangling = run_args("1");
  dangling.push_back("--seed");
  EXPECT_THROW(parse_args(dangling), ArgError);
  EXPECT_THROW(parse_args({"--prepare", "--seed", "1", "--work-dir", "w"}),
               ArgError);
  EXPECT_THROW(parse_args({}), ArgError);
}

// ---- decorators are transparent ------------------------------------------

namespace {

std::unique_ptr<core::AdaptivityController> controller(const std::string& k) {
  if (k == "pid") return std::make_unique<baselines::PidController>();
  // An untrained network is enough to exercise the DQN decision path.
  const core::FeatureConfig f;
  rl::Mlp net({f.k * 2 + f.n_max + 1 + f.history, 30, 3}, 99);
  return std::make_unique<core::DqnController>(rl::QuantizedMlp(net), f);
}

void expect_same_rounds(const std::string& kind) {
  const phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  const sim::TimeUs origin = sim::hours(10);
  core::add_office_ambient(field, topo);
  core::add_dynamic_jamming(field, topo, phy::kControlChannel, origin);
  core::ProtocolConfig cfg;
  cfg.start_time = origin + sim::minutes(6);  // the jamming onset
  std::vector<phy::NodeId> sources;
  for (phy::NodeId i = 1; i < topo.size(); ++i) sources.push_back(i);
  sources.push_back(0);

  core::DimmerNetwork plain(topo, field, cfg, controller(kind), 0, 77);
  Tracer tracer;
  phy::CachedLinkModel base(topo);
  TimedLinkModel links(base, &tracer);
  auto owned = std::make_unique<TimedController>(controller(kind), &tracer);
  const TimedController& timed = *owned;
  core::DimmerNetwork decorated(links, field, cfg, std::move(owned), 0, 77);

  bool moved = false;
  for (int r = 0; r < 120; ++r) {
    const core::RoundStats a = plain.run_round(sources);
    const core::RoundStats b = decorated.run_round(sources);
    ASSERT_EQ(a.n_tx, b.n_tx) << kind << " round " << r;
    ASSERT_EQ(a.reliability, b.reliability) << kind << " round " << r;
    ASSERT_EQ(a.radio_on_ms, b.radio_on_ms) << kind << " round " << r;
    ASSERT_EQ(a.total_radio_on_us, b.total_radio_on_us);
    ASSERT_EQ(a.lossless, b.lossless);
    ASSERT_EQ(a.sink_received, b.sink_received);
    moved = moved || a.n_tx != 3;
  }
  EXPECT_TRUE(moved) << kind << ": N_TX never left 3, the test saw no decision";
  util::Pcg32 ra = plain.rng();
  util::Pcg32 rb = decorated.rng();
  for (int i = 0; i < 16; ++i) ASSERT_EQ(ra.next_u64(), rb.next_u64());
  EXPECT_EQ(timed.decisions(), 120u);
  EXPECT_GT(links.calls(), 0u);
  const auto totals = tracer.totals();
  EXPECT_EQ(totals.at("core.controller.decide").count, 120u);
  EXPECT_GT(totals.at("phy.link.prepare").count, 0u);
}

}  // namespace

TEST(Decorators, PidRunIsBitIdentical) { expect_same_rounds("pid"); }

TEST(Decorators, DqnRunIsBitIdentical) { expect_same_rounds("dqn"); }

TEST(Decorators, SparseFloodIsBitIdentical) {
  const phy::Topology topo = phy::make_campus_topology_culled(
      256, 5, phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0));
  phy::InterferenceField field;
  phy::SparseLinkModel a_links(topo), b_inner(topo);
  Tracer tracer;
  TimedLinkModel b_links(b_inner, &tracer);
  flood::GlossyFlood a(a_links, field), b(b_links, field);
  std::vector<flood::NodeFloodConfig> cfgs(256, flood::NodeFloodConfig{2, true});
  util::Pcg32 ra(3), rb(3);
  flood::FloodParams p;
  p.slot_len_us = sim::ms(60);
  for (int k = 0; k < 8; ++k) {
    const flood::FloodResult x = a.run(k * 31, cfgs, p, ra);
    const flood::FloodResult y = b.run(k * 31, cfgs, p, rb);
    ASSERT_EQ(x.steps_simulated, y.steps_simulated);
    for (std::size_t i = 0; i < x.nodes.size(); ++i) {
      ASSERT_EQ(x.nodes[i].received, y.nodes[i].received);
      ASSERT_EQ(x.nodes[i].first_rx_step, y.nodes[i].first_rx_step);
      ASSERT_EQ(x.nodes[i].transmissions, y.nodes[i].transmissions);
      ASSERT_EQ(x.nodes[i].radio_on_us, y.nodes[i].radio_on_us);
    }
  }
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
  EXPECT_EQ(b_links.calls(), 8u);
}
