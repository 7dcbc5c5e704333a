#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {
namespace {

BurstJammer::Config basic_jammer() {
  BurstJammer::Config cfg;
  cfg.burst_us = sim::ms(13);
  cfg.period_us = sim::ms(130);
  cfg.channels = {26};
  return cfg;
}

TEST(BurstJammer, ExactOverlapInsideBurst) {
  BurstJammer j(basic_jammer());
  // Burst occupies [0, 13 ms); a window fully inside reads activity 1.
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(2), sim::ms(5), 26), 1.0);
  // A window fully in the gap reads 0.
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(20), sim::ms(40), 26), 0.0);
}

TEST(BurstJammer, PartialOverlapFraction) {
  BurstJammer j(basic_jammer());
  // [10 ms, 20 ms): 3 ms of the 13 ms burst overlap -> 0.3.
  EXPECT_NEAR(j.activity(sim::ms(10), sim::ms(20), 26), 0.3, 1e-9);
}

TEST(BurstJammer, MultiPeriodWindowAveragesDuty) {
  BurstJammer j(basic_jammer());
  // Over exactly 10 periods the activity equals the duty 13/130.
  EXPECT_NEAR(j.activity(0, sim::ms(1300), 26), 0.1, 1e-9);
}

TEST(BurstJammer, WrongChannelIsSilent) {
  BurstJammer j(basic_jammer());
  EXPECT_DOUBLE_EQ(j.activity(0, sim::ms(5), 15), 0.0);
}

TEST(BurstJammer, PhaseShiftsBursts) {
  auto cfg = basic_jammer();
  cfg.phase_us = sim::ms(50);
  BurstJammer j(cfg);
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(2), sim::ms(5), 26), 0.0);
  EXPECT_DOUBLE_EQ(j.activity(sim::ms(51), sim::ms(55), 26), 1.0);
}

TEST(BurstJammer, ScenarioWindowGates) {
  auto cfg = basic_jammer();
  cfg.start_us = sim::seconds(10);
  cfg.stop_us = sim::seconds(20);
  BurstJammer j(cfg);
  EXPECT_DOUBLE_EQ(j.activity(sim::seconds(5), sim::seconds(5) + sim::ms(5), 26),
                   0.0);
  EXPECT_GT(j.activity(sim::seconds(10), sim::seconds(11), 26), 0.05);
  EXPECT_DOUBLE_EQ(
      j.activity(sim::seconds(25), sim::seconds(25) + sim::ms(5), 26), 0.0);
}

TEST(BurstJammer, JamlabFactoryMatchesPaperParameterisation) {
  // "a 10% interference corresponds to a 13 ms burst every 130 ms".
  auto cfg = BurstJammer::jamlab({0, 0}, 0.10);
  EXPECT_EQ(cfg.burst_us, sim::ms(13));
  EXPECT_EQ(cfg.period_us, sim::ms(130));
  // "a 35% interference ratio represents a 13 ms burst every 37 ms".
  auto cfg35 = BurstJammer::jamlab({0, 0}, 0.35);
  EXPECT_NEAR(static_cast<double>(cfg35.period_us), 37142.0, 10.0);
}

TEST(BurstJammer, RejectsBadConfig) {
  auto cfg = basic_jammer();
  cfg.period_us = sim::ms(5);  // shorter than the burst
  EXPECT_THROW(BurstJammer{cfg}, util::RequireError);
  EXPECT_THROW(BurstJammer::jamlab({0, 0}, 0.0), util::RequireError);
  EXPECT_THROW(BurstJammer::jamlab({0, 0}, 1.2), util::RequireError);
}

TEST(WifiInterferer, PureAndDeterministic) {
  WifiInterferer::Config cfg;
  cfg.duty = 0.4;
  cfg.seed = 9;
  WifiInterferer w(cfg);
  double a1 = w.activity(sim::ms(100), sim::ms(120), 25);
  double a2 = w.activity(sim::ms(100), sim::ms(120), 25);
  EXPECT_DOUBLE_EQ(a1, a2);
}

TEST(WifiInterferer, LongRunDutyApproximatesConfig) {
  WifiInterferer::Config cfg;
  cfg.duty = 0.4;
  cfg.wifi_channel = 13;
  WifiInterferer w(cfg);
  double acc = w.activity(0, sim::seconds(60), 26);
  EXPECT_NEAR(acc, 0.4, 0.05);
}

TEST(WifiInterferer, OnlyCoversOwnStripe) {
  WifiInterferer::Config cfg;
  cfg.wifi_channel = 1;  // covers 11..14
  WifiInterferer w(cfg);
  EXPECT_GT(w.activity(0, sim::seconds(10), 12), 0.0);
  EXPECT_DOUBLE_EQ(w.activity(0, sim::seconds(10), 26), 0.0);
}

TEST(AmbientInterferer, DayBusierThanNight) {
  AmbientInterferer::Config cfg;
  cfg.seed = 4;
  AmbientInterferer a(cfg);
  // 12:00 vs 02:00.
  double day = a.activity(sim::hours(12), sim::hours(12) + sim::minutes(30), 20);
  double night = a.activity(sim::hours(2), sim::hours(2) + sim::minutes(30), 20);
  EXPECT_GT(day, night);
  EXPECT_NEAR(day, cfg.day_duty, 0.04);
}

TEST(InterferenceField, EmptyFieldIsSilent) {
  Topology t = make_office18_topology();
  InterferenceField f;
  auto s = f.sample(0, sim::ms(1), 26, 0, t);
  EXPECT_DOUBLE_EQ(s.power_mw, 0.0);
  EXPECT_DOUBLE_EQ(s.exposure, 0.0);
}

TEST(InterferenceField, AccumulatesSources) {
  Topology t = make_office18_topology();
  InterferenceField f;
  auto cfg = basic_jammer();
  cfg.position = t.position(5);
  f.add(std::make_unique<BurstJammer>(cfg));
  auto one = f.sample(0, sim::ms(5), 26, 5, t);
  EXPECT_GT(one.power_mw, 0.0);
  EXPECT_DOUBLE_EQ(one.exposure, 1.0);

  cfg.tag = 2;
  f.add(std::make_unique<BurstJammer>(cfg));
  auto two = f.sample(0, sim::ms(5), 26, 5, t);
  EXPECT_GT(two.power_mw, one.power_mw);
}

TEST(InterferenceField, NearerNodesSeeMorePower) {
  Topology t = make_line_topology(4, 15.0, /*seed=*/3);
  InterferenceField f;
  auto cfg = basic_jammer();
  cfg.position = t.position(0);
  f.add(std::make_unique<BurstJammer>(cfg));
  auto near = f.sample(0, sim::ms(5), 26, 0, t);
  auto far = f.sample(0, sim::ms(5), 26, 3, t);
  EXPECT_GT(near.power_mw, far.power_mw);
}

TEST(InterferenceField, RejectsNullSource) {
  InterferenceField f;
  EXPECT_THROW(f.add(nullptr), util::RequireError);
}

TEST(DCubeProfiles, LevelTwoIsHarsher) {
  Topology t = make_dcube48_topology();
  InterferenceField l1, l2;
  add_dcube_wifi_level(l1, t, 1);
  add_dcube_wifi_level(l2, t, 2);
  EXPECT_GT(l2.size(), l1.size());
  // Aggregate exposure-weighted power over the band at a central node.
  auto total = [&](const InterferenceField& f) {
    double acc = 0.0;
    for (Channel c = kFirstChannel; c <= kLastChannel; ++c) {
      auto s = f.sample(0, sim::seconds(2), c, 20, t);
      acc += s.power_mw * s.exposure;
    }
    return acc;
  };
  EXPECT_GT(total(l2), total(l1));
}

TEST(DCubeProfiles, InvalidLevelThrows) {
  Topology t = make_dcube48_topology();
  InterferenceField f;
  EXPECT_THROW(add_dcube_wifi_level(f, t, 0), util::RequireError);
  EXPECT_THROW(add_dcube_wifi_level(f, t, 3), util::RequireError);
}

// ---- Prefilter premise and InterferenceView ------------------------------

/// Uniform time in [lo, hi).
sim::TimeUs uniform_time(util::Pcg32& rng, sim::TimeUs lo, sim::TimeUs hi) {
  return lo + static_cast<sim::TimeUs>(rng.uniform() *
                                       static_cast<double>(hi - lo));
}

/// One source of each family with seeded, randomised parameters.
std::unique_ptr<InterferenceSource> random_source(util::Pcg32& rng,
                                                  int family) {
  const Channel ch = static_cast<Channel>(rng.uniform_int(kFirstChannel,
                                                          kLastChannel));
  if (family == 0) {
    BurstJammer::Config cfg;
    cfg.burst_us = sim::ms(rng.uniform_int(1, 20));
    cfg.period_us = cfg.burst_us + sim::ms(rng.uniform_int(0, 200));
    cfg.phase_us = uniform_time(rng, -sim::ms(300), sim::ms(300));
    cfg.start_us = uniform_time(rng, 0, sim::seconds(2));
    cfg.stop_us = rng.bernoulli(0.5)
                      ? -1
                      : cfg.start_us + uniform_time(rng, 1, sim::seconds(2));
    cfg.channels = {ch};
    return std::make_unique<BurstJammer>(cfg);
  }
  if (family == 1) {
    WifiInterferer::Config cfg;
    cfg.wifi_channel = rng.uniform_int(1, 13);
    cfg.duty = rng.uniform(0.0, 0.5);
    cfg.frame_us = sim::ms(rng.uniform_int(5, 100));
    cfg.start_us = uniform_time(rng, 0, sim::seconds(2));
    cfg.stop_us = rng.bernoulli(0.5)
                      ? -1
                      : cfg.start_us + uniform_time(rng, 1, sim::seconds(2));
    cfg.seed = rng.next_u64();
    return std::make_unique<WifiInterferer>(cfg);
  }
  AmbientInterferer::Config cfg;
  cfg.day_duty = rng.uniform(0.0, 0.08);
  cfg.night_duty = rng.uniform(0.0, 0.01);
  cfg.frame_us = sim::ms(rng.uniform_int(10, 100));
  cfg.seed = rng.next_u64();
  return std::make_unique<AmbientInterferer>(cfg);
}

TEST(InterferenceActivity, IdleWindowMeansIdleSubWindows) {
  // The premise of InterferenceView::prefilter: activity is an
  // occupied-time measure, so a window a source never occupies has no
  // occupied sub-window. Swept over all three source families, with
  // windows across day and night and across scenario start/stop edges.
  util::Pcg32 rng(0x5EEDULL);
  int idle_windows[3] = {0, 0, 0};
  for (int trial = 0; trial < 3000; ++trial) {
    const int family = trial % 3;
    auto src = random_source(rng, family);
    const sim::TimeUs day_offset = rng.bernoulli(0.5) ? sim::hours(12) : 0;
    const sim::TimeUs w0 =
        family == 2 ? day_offset + uniform_time(rng, 0, sim::seconds(3))
                    : uniform_time(rng, 0, sim::seconds(3));
    const sim::TimeUs w1 = w0 + uniform_time(rng, 1, sim::ms(60));
    for (Channel ch : {static_cast<Channel>(rng.uniform_int(kFirstChannel,
                                                            kLastChannel)),
                       kControlChannel}) {
      if (src->activity(w0, w1, ch) != 0.0) continue;
      ++idle_windows[family];
      for (int k = 0; k < 8; ++k) {
        sim::TimeUs a = uniform_time(rng, w0, w1);
        sim::TimeUs b = uniform_time(rng, w0, w1);
        if (a > b) std::swap(a, b);
        ++b;  // non-empty, still inside [w0, w1)
        ASSERT_EQ(src->activity(a, b, ch), 0.0)
            << "family " << family << " window [" << w0 << ", " << w1
            << ") sub [" << a << ", " << b << ") channel " << ch;
      }
    }
  }
  // The sweep must actually exercise the premise for every family.
  for (int family = 0; family < 3; ++family)
    EXPECT_GT(idle_windows[family], 100) << "family " << family;
}

TEST(InterferenceField, VersionChangesOnEveryMutation) {
  InterferenceField a;
  EXPECT_EQ(a.version(), 0u);
  a.add(std::make_unique<BurstJammer>(basic_jammer()));
  const std::uint64_t v1 = a.version();
  EXPECT_NE(v1, 0u);
  a.add(std::make_unique<BurstJammer>(basic_jammer()));
  const std::uint64_t v2 = a.version();
  EXPECT_NE(v2, v1);
  a.clear();
  EXPECT_NE(a.version(), v2);
  EXPECT_TRUE(a.empty());

  // Moves carry the version with the sources; the moved-from field is
  // left empty under a fresh one, so no two fields ever share a version.
  a.add(std::make_unique<BurstJammer>(basic_jammer()));
  const std::uint64_t va = a.version();
  InterferenceField b(std::move(a));
  EXPECT_EQ(b.version(), va);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(a.empty());
  EXPECT_NE(a.version(), va);
  InterferenceField c;
  c.add(std::make_unique<BurstJammer>(basic_jammer()));
  c = std::move(b);
  EXPECT_EQ(c.version(), va);
  EXPECT_NE(b.version(), va);
}

/// Exact (bitwise) equality of two samples.
void expect_same_sample(const InterferenceSample& want,
                        const InterferenceSample& got) {
  EXPECT_EQ(want.power_mw, got.power_mw);
  EXPECT_EQ(want.exposure, got.exposure);
}

/// Drives `view` as GlossyFlood does — one prefilter per flood window, one
/// evaluate per step — and checks every listener against field.sample.
/// Returns how many samples saw interference, so callers can rule out a
/// vacuous pass.
int expect_view_matches_field(InterferenceView& view,
                               const InterferenceField& field,
                               const Topology& topo, util::Pcg32& rng,
                               int floods) {
  view.bind(field, topo);
  int jammed = 0;
  const sim::TimeUs airtime = 1200, step = 1500;
  for (int f = 0; f < floods; ++f) {
    const sim::TimeUs start =
        sim::hours(9) + uniform_time(rng, 0, sim::minutes(30));
    const int steps = rng.uniform_int(1, 16);
    const Channel ch =
        static_cast<Channel>(rng.uniform_int(kFirstChannel, kLastChannel));
    EXPECT_EQ(view.prefilter(start, start + (steps - 1) * step + airtime, ch),
              field.size());
    for (int t = 0; t < steps; ++t) {
      const sim::TimeUs t0 = start + t * step;
      EXPECT_LE(view.evaluate(t0, t0 + airtime), field.size());
      for (NodeId rx = 0; rx < topo.size(); ++rx) {
        SCOPED_TRACE("flood " + std::to_string(f) + " step " +
                     std::to_string(t) + " rx " + std::to_string(rx));
        const InterferenceSample want =
            field.sample(t0, t0 + airtime, ch, rx, topo);
        expect_same_sample(want, view.sample(rx));
        if (want.power_mw > 0.0) ++jammed;
      }
    }
  }
  return jammed;
}

TEST(InterferenceView, MatchesFieldSampleBitForBit) {
  Topology topo = make_dcube48_topology();
  InterferenceField field;
  add_dcube_wifi_level(field, topo, 2);
  util::Pcg32 rng(0xF1E1DULL);
  for (int i = 0; i < 30; ++i) field.add(random_source(rng, i % 3));
  InterferenceView view;
  EXPECT_GT(expect_view_matches_field(view, field, topo, rng, 40), 1000);
}

TEST(InterferenceView, RestrictedTopologyKeysOnParentIds) {
  // A cell-local view must hear what the parent's nodes hear: the table
  // goes through gain_from_point_db, which keys shadowing on parent ids.
  Topology parent = make_dcube48_topology();
  Topology cell = parent.restricted({3, 7, 8, 20, 21, 22, 40, 47});
  InterferenceField field;
  add_dcube_wifi_level(field, parent, 1);
  util::Pcg32 rng(0xCE11ULL);
  InterferenceView view;
  EXPECT_GT(expect_view_matches_field(view, field, cell, rng, 40), 100);
}

TEST(InterferenceView, RebuildsWhenFieldOrTopologyChanges) {
  Topology office = make_office18_topology();
  Topology line = make_line_topology(6, 12.0);
  InterferenceField field;
  util::Pcg32 rng(0xB1DULL);
  InterferenceView view;
  EXPECT_EQ(expect_view_matches_field(view, field, office, rng, 4), 0);
  int jammed = 0;
  for (int i = 0; i < 6; ++i) {
    field.add(random_source(rng, i % 3));
    jammed += expect_view_matches_field(view, field, office, rng, 4);
  }
  jammed += expect_view_matches_field(view, field, line, rng, 4);
  EXPECT_GT(jammed, 0);
  field.clear();
  EXPECT_EQ(expect_view_matches_field(view, field, line, rng, 4), 0);
}

}  // namespace
}  // namespace dimmer::phy
