// Differential bit-identity suite for the hot-path refactor (DESIGN.md §10).
//
// Every case runs the frozen pre-refactor loop (reference_glossy.cpp) and
// the shipped engine from identical RNG states and asserts that (a) every
// FloodResult field is exactly equal — including floating-point-derived
// radio timings — and (b) the two RNG streams end in the same state, so a
// longer simulation embedding the flood would stay bit-identical too.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/scenarios.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "obs/metrics.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "reference_glossy.hpp"
#include "util/rng.hpp"

namespace dimmer::flood {
namespace {

void expect_identical(const FloodResult& a, const FloodResult& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.initiator, b.initiator);
  EXPECT_EQ(a.steps_simulated, b.steps_simulated);
  ASSERT_EQ(a.participated.size(), b.participated.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(a.participated[i], b.participated[i]);
    EXPECT_EQ(a.nodes[i].received, b.nodes[i].received);
    EXPECT_EQ(a.nodes[i].first_rx_step, b.nodes[i].first_rx_step);
    EXPECT_EQ(a.nodes[i].transmissions, b.nodes[i].transmissions);
    EXPECT_EQ(a.nodes[i].radio_on_us, b.nodes[i].radio_on_us);
  }
}

void expect_same_rng_state(util::Pcg32& a, util::Pcg32& b) {
  // Same stream position...
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
  // ...and the same Marsaglia spare state (a cached spare would make the
  // next normal() differ even with aligned raw streams).
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.normal(), b.normal());
}

struct Case {
  phy::Topology topo;
  phy::InterferenceField field;
};

phy::Topology topo_for(const std::string& name) {
  if (name == "line") return phy::make_line_topology(8, 12.0);
  if (name == "grid") return phy::make_grid_topology(4, 4, 10.0);
  if (name == "office18") return phy::make_office18_topology();
  return phy::make_dcube48_topology();
}

Case make_case(const std::string& name, double jam_duty) {
  Case c{topo_for(name), phy::InterferenceField{}};
  if (jam_duty > 0.0 &&
      (name == "office18" || name == "dcube48")) {
    core::add_static_jamming(c.field, c.topo, jam_duty);
  } else if (jam_duty > 0.0) {
    // Line/grid topologies have no office jammer positions; use ambient
    // office noise as the interference source instead.
    core::add_office_ambient(c.field, c.topo);
  }
  return c;
}

void run_differential(const std::string& topo_name, double jam_duty,
                      const std::vector<NodeFloodConfig>& configs,
                      phy::NodeId initiator, const FloodParams& params,
                      std::uint64_t seed) {
  Case c = make_case(topo_name, jam_duty);
  ASSERT_EQ(static_cast<int>(configs.size()), c.topo.size());

  util::Pcg32 rng_ref(seed);
  FloodResult want =
      reference::run(c.topo, c.field, initiator, configs, params, rng_ref);

  GlossyFlood engine(c.topo, c.field);
  util::Pcg32 rng_new(seed);
  FloodResult got = engine.run(initiator, configs, params, rng_new);

  expect_identical(want, got);
  expect_same_rng_state(rng_ref, rng_new);
}

std::vector<NodeFloodConfig> uniform_configs(int n, int n_tx) {
  return std::vector<NodeFloodConfig>(static_cast<std::size_t>(n),
                                      NodeFloodConfig{n_tx, true});
}

TEST(FloodDifferential, CleanTopologies) {
  for (const char* name : {"line", "grid", "office18", "dcube48"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.0);
    const int n = c.topo.size();
    for (std::uint64_t seed : {1ULL, 77ULL, 4242ULL}) {
      run_differential(name, 0.0, uniform_configs(n, 3), 0, FloodParams{},
                       seed);
    }
  }
}

TEST(FloodDifferential, JammedTopologies) {
  for (const char* name : {"line", "grid", "office18", "dcube48"}) {
    SCOPED_TRACE(name);
    Case c = make_case(name, 0.3);
    const int n = c.topo.size();
    for (std::uint64_t seed : {9ULL, 1234ULL}) {
      FloodParams p;
      p.slot_start_us = sim::seconds(5);  // land inside jammer bursts
      run_differential(name, 0.3, uniform_configs(n, 3), n / 2, p, seed);
    }
  }
}

TEST(FloodDifferential, MixedBudgetsAndPassiveReceivers) {
  Case probe = make_case("office18", 0.0);
  const int n = probe.topo.size();
  auto cfgs = uniform_configs(n, 3);
  for (int i = 0; i < n; ++i) {
    cfgs[static_cast<std::size_t>(i)].n_tx = i % 4;  // includes n_tx = 0
  }
  for (std::uint64_t seed : {3ULL, 31ULL, 314ULL}) {
    run_differential("office18", 0.0, cfgs, 1, FloodParams{}, seed);
    run_differential("office18", 0.3, cfgs, 1, FloodParams{}, seed);
  }
}

TEST(FloodDifferential, NonParticipantsFaultStyle) {
  // Crashed/desynced nodes sit floods out, as the fault injector produces.
  Case probe = make_case("dcube48", 0.0);
  const int n = probe.topo.size();
  auto cfgs = uniform_configs(n, 2);
  for (int i = 0; i < n; i += 5)
    cfgs[static_cast<std::size_t>(i)].participates = false;
  cfgs[3].participates = true;  // keep the initiator participating
  for (std::uint64_t seed : {11ULL, 99ULL}) {
    run_differential("dcube48", 0.0, cfgs, 3, FloodParams{}, seed);
    run_differential("dcube48", 0.3, cfgs, 3, FloodParams{}, seed);
  }
}

TEST(FloodDifferential, MultipleInitiators) {
  Case probe = make_case("grid", 0.0);
  const int n = probe.topo.size();
  for (phy::NodeId init : {0, 5, 15}) {
    SCOPED_TRACE("initiator " + std::to_string(init));
    run_differential("grid", 0.0, uniform_configs(n, 3), init, FloodParams{},
                     21u);
  }
}

TEST(FloodDifferential, AlternatingTxPowerRebindsCache) {
  // Back-to-back floods at different TX powers through ONE engine must each
  // match the reference — the cached link matrix rebinds per power.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);

  GlossyFlood engine(c.topo, c.field);
  util::Pcg32 rng_new(55);
  util::Pcg32 rng_ref(55);
  for (double power : {0.0, -7.0, 0.0, 3.0, -7.0}) {
    SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
    FloodParams p;
    p.tx_power_dbm = power;
    FloodResult want = reference::run(c.topo, c.field, 0, cfgs, p, rng_ref);
    FloodResult got = engine.run(0, cfgs, p, rng_new);
    expect_identical(want, got);
  }
  expect_same_rng_state(rng_ref, rng_new);
}

TEST(FloodDifferential, RunIntoReusedBuffersMatchFreshRuns) {
  // run_into with dirty, reused workspace/result buffers must equal both the
  // reference and a fresh run(): buffer reuse is invisible in the results.
  Case c = make_case("office18", 0.3);
  const int n = c.topo.size();
  auto cfgs = uniform_configs(n, 3);
  cfgs[4].n_tx = 0;
  cfgs[9].participates = false;

  GlossyFlood engine(c.topo, c.field);
  FloodWorkspace ws;
  FloodResult reused;
  util::Pcg32 rng_ref(88);
  util::Pcg32 rng_new(88);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FloodParams p;
    p.slot_start_us = round * sim::ms(40);
    phy::NodeId init = static_cast<phy::NodeId>((round * 3) % n);
    if (!cfgs[static_cast<std::size_t>(init)].participates) init += 1;
    FloodResult want =
        reference::run(c.topo, c.field, init, cfgs, p, rng_ref);
    engine.run_into(init, cfgs, p, rng_new, ws, reused);
    expect_identical(want, reused);
  }
  expect_same_rng_state(rng_ref, rng_new);
}

// ---- Interference view (DESIGN.md §10) ------------------------------------

/// Runs `floods` through ONE engine and the reference from the same RNG
/// state, flood by flood, and checks results and the final RNG state.
void run_sequence(const phy::Topology& topo,
                  const phy::InterferenceField& field,
                  const std::vector<FloodParams>& floods, std::uint64_t seed) {
  const int n = topo.size();
  const auto cfgs = uniform_configs(n, 3);
  GlossyFlood engine(topo, field);
  FloodWorkspace ws;
  FloodResult got;
  util::Pcg32 rng_ref(seed), rng_new(seed);
  for (std::size_t k = 0; k < floods.size(); ++k) {
    SCOPED_TRACE("flood " + std::to_string(k));
    const auto init =
        static_cast<phy::NodeId>((k * 5) % static_cast<std::size_t>(n));
    FloodResult want =
        reference::run(topo, field, init, cfgs, floods[k], rng_ref);
    engine.run_into(init, cfgs, floods[k], rng_new, ws, got);
    expect_identical(want, got);
  }
  expect_same_rng_state(rng_ref, rng_new);
}

/// `count` floods spaced `spacing` apart from `start`, on `channel`.
std::vector<FloodParams> flood_series(sim::TimeUs start, sim::TimeUs spacing,
                                      int count,
                                      phy::Channel channel = phy::kControlChannel) {
  std::vector<FloodParams> out(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    out[static_cast<std::size_t>(k)].slot_start_us = start + k * spacing;
    out[static_cast<std::size_t>(k)].channel = channel;
  }
  return out;
}

TEST(FloodDifferential, TrainingScheduleField) {
  // The DQN training field: 150+ scheduled JamLab sources plus ambient,
  // the many-sources regime where the per-flood prefilter does its work.
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_training_schedule(field, topo, sim::hours(10), 0x7A11ULL);
  ASSERT_GE(field.size(), 150u);
  // Floods every 7.3 s through the last hour of the schedule: calm and
  // jammed segments, segment edges, day-time ambient.
  run_sequence(topo, field, flood_series(sim::hours(9), sim::ms(7300), 480),
               17);
}

TEST(FloodDifferential, DCubeWifiLevelTwoAcrossChannels) {
  // Eight WiFi APs on three WiFi channels: candidate sets differ per
  // 802.15.4 channel, and level 2's duty keeps most of them active.
  phy::Topology topo = phy::make_dcube48_topology();
  phy::InterferenceField field;
  phy::add_dcube_wifi_level(field, topo, 2);
  ASSERT_EQ(field.size(), 8u);
  for (phy::Channel ch : {11, 15, 18, 22, 26}) {
    SCOPED_TRACE("channel " + std::to_string(ch));
    run_sequence(topo, field, flood_series(sim::seconds(3), sim::ms(37), 12, ch),
                 static_cast<std::uint64_t>(ch));
  }
}

TEST(FloodDifferential, RestrictedCellTopology) {
  // A federation cell: local ids, parent-keyed interference shadowing.
  phy::Topology parent = phy::make_dcube48_topology();
  std::vector<phy::NodeId> members;
  for (phy::NodeId i = 0; i < parent.size(); i += 2) members.push_back(i);
  phy::Topology cell = parent.restricted(members);
  phy::InterferenceField field;
  core::add_office_ambient(field, parent);
  core::add_static_jamming(field, parent, 0.3);
  run_sequence(cell, field, flood_series(sim::hours(11), sim::ms(53), 24), 29);
}

TEST(FloodDifferential, FieldMutatedBetweenFloodsOnOneEngine) {
  // The engine caches its view of the field; add() between two floods must
  // invalidate it, so the second flood hears the new source.
  phy::Topology topo = phy::make_office18_topology();
  phy::InterferenceField field;
  core::add_office_ambient(field, topo);
  const auto cfgs = uniform_configs(topo.size(), 3);
  GlossyFlood engine(topo, field);
  FloodWorkspace ws;
  FloodResult first, second;
  util::Pcg32 rng_ref(41), rng_new(41);
  FloodParams p;
  p.slot_start_us = sim::hours(10);

  FloodResult want = reference::run(topo, field, 0, cfgs, p, rng_ref);
  engine.run_into(0, cfgs, p, rng_new, ws, first);
  expect_identical(want, first);
  ASSERT_GT(first.receiver_count(), 0);

  // A loud, always-on jammer at the initiator on the flood channel blocks
  // every reception.
  auto jam = phy::BurstJammer::jamlab(topo.position(0), 1.0);
  jam.tx_power_dbm = 30.0;
  field.add(std::make_unique<phy::BurstJammer>(jam));
  p.slot_start_us += sim::ms(40);
  want = reference::run(topo, field, 0, cfgs, p, rng_ref);
  engine.run_into(0, cfgs, p, rng_new, ws, second);
  expect_identical(want, second);
  EXPECT_EQ(second.receiver_count(), 0);
  expect_same_rng_state(rng_ref, rng_new);
}

/// Forwards to a source owned elsewhere and counts activity() calls and the
/// distinct window starts they were asked about.
struct ActivityTally {
  std::uint64_t calls = 0;
  std::set<sim::TimeUs> window_starts;
};

class CountingSource : public phy::InterferenceSource {
 public:
  CountingSource(const phy::InterferenceSource& inner, ActivityTally& tally)
      : inner_(inner), tally_(tally) {}
  double activity(sim::TimeUs t0, sim::TimeUs t1,
                  phy::Channel ch) const override {
    ++tally_.calls;
    tally_.window_starts.insert(t0);
    return inner_.activity(t0, t1, ch);
  }
  phy::Vec2 position() const override { return inner_.position(); }
  double tx_power_dbm() const override { return inner_.tx_power_dbm(); }
  std::uint64_t shadow_tag() const override { return inner_.shadow_tag(); }

 private:
  const phy::InterferenceSource& inner_;
  ActivityTally& tally_;
};

TEST(FloodInterferenceCounters, SamplesMatchReferenceAndEvaluationsAreHoisted) {
  // The Fig. 4c/4d field: office ambient plus the dynamic jamming schedule.
  phy::Topology topo = phy::make_office18_topology();
  const sim::TimeUs origin = sim::hours(9);
  phy::InterferenceField scenario;
  core::add_office_ambient(scenario, topo);
  core::add_dynamic_jamming(scenario, topo, phy::kControlChannel, origin);
  const std::uint64_t n_sources = scenario.size();
  ActivityTally tally;
  phy::InterferenceField field;
  for (std::size_t s = 0; s < scenario.size(); ++s)
    field.add(std::make_unique<CountingSource>(scenario.source(s), tally));

  const auto cfgs = uniform_configs(topo.size(), 3);
  GlossyFlood engine(topo, field);
  obs::MetricsRegistry metrics;
  engine.set_instrumentation({nullptr, &metrics});
  FloodWorkspace ws;
  FloodResult got;
  util::Pcg32 rng_ref(5), rng_new(5);
  std::uint64_t ref_evals = 0, engine_evals = 0;
  // Floods across the 27-minute timeline, through both jamming phases.
  for (const FloodParams& p : flood_series(origin, sim::ms(4050), 400)) {
    SCOPED_TRACE("slot " + std::to_string(p.slot_start_us));
    tally = ActivityTally{};
    FloodResult want = reference::run(topo, field, 0, cfgs, p, rng_ref);
    // The reference calls field.sample once per listener sample, and
    // sample() evaluates every source.
    ASSERT_EQ(tally.calls % n_sources, 0u);
    const std::uint64_t ref_samples = tally.calls / n_sources;
    const std::uint64_t steps_sampled = tally.window_starts.size();
    ref_evals += tally.calls;

    tally = ActivityTally{};
    const std::uint64_t samples_before =
        metrics.counter("flood.interference.samples");
    const std::uint64_t evals_before =
        metrics.counter("flood.interference.source_evals");
    engine.run_into(0, cfgs, p, rng_new, ws, got);
    expect_identical(want, got);
    const std::uint64_t samples =
        metrics.counter("flood.interference.samples") - samples_before;
    const std::uint64_t evals =
        metrics.counter("flood.interference.source_evals") - evals_before;
    EXPECT_EQ(samples, ref_samples);
    EXPECT_EQ(evals, tally.calls);  // the counter counts every call
    // One prefilter pass plus at most one pass per sampling step: the
    // count no longer scales with the number of listeners.
    EXPECT_LE(evals, n_sources * (steps_sampled + 1));
    engine_evals += evals;
  }
  expect_same_rng_state(rng_ref, rng_new);
  EXPECT_EQ(metrics.counter("flood.runs"), 400u);
  EXPECT_LT(engine_evals * 5, ref_evals);
}

}  // namespace
}  // namespace dimmer::flood
