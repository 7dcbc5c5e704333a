#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "flood/glossy.hpp"
#include "phy/link_model.hpp"
#include "phy/propagation.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"

namespace dimmer::phy {
namespace {

TEST(CachedLinkModel, EntriesMatchTopologyPerBackendContract) {
  Topology topo = make_office18_topology();
  SparseLinkModel model(topo);
  for (double power : {0.0, -7.0, 3.5}) {
    SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
    LinkMatrixView v = model.prepare(power);
    ASSERT_EQ(v.n, topo.size());
    for (NodeId tx = 0; tx < topo.size(); ++tx) {
      for (NodeId rx = 0; rx < topo.size(); ++rx) {
        double want = dbm_to_mw(topo.rx_power_dbm(tx, rx, power));
        if (util::simd::native_width == 1) {
          // Scalar backend: bit-identity, not tolerance — the matrix must
          // hold the exact double the historical per-reception expression
          // produced (DESIGN.md §12).
          EXPECT_EQ(v.row(tx)[rx], want) << "tx=" << tx << " rx=" << rx;
        } else {
          // Vector backends rebuild rows through the bounded-ulp exp10
          // kernel; DESIGN.md §12 documents this site as tolerance-checked.
          EXPECT_NEAR(v.row(tx)[rx], want, std::abs(want) * 1e-13)
              << "tx=" << tx << " rx=" << rx;
        }
      }
    }
  }
}

TEST(CachedLinkModel, PrepareRejectsNonFiniteTxPower) {
  // Regression: prepare() cached the last power with `power != cached_`.
  // NaN != NaN is always true, so a NaN tx power rebuilt the O(n^2) matrix
  // on EVERY flood (and filled it with NaN mW). Non-finite powers now
  // REQUIRE-fail instead.
  Topology topo = make_line_topology(5, 10.0);
  SparseLinkModel model(topo);
  EXPECT_THROW(model.prepare(std::numeric_limits<double>::quiet_NaN()),
               util::RequireError);
  EXPECT_THROW(model.prepare(std::numeric_limits<double>::infinity()),
               util::RequireError);
  EXPECT_THROW(model.prepare(-std::numeric_limits<double>::infinity()),
               util::RequireError);
  EXPECT_EQ(model.rebuilds(), 0);  // rejected before touching the cache
}

TEST(CachedLinkModel, RebuildsStayFlatAcrossSamePowerFloods) {
  // The user-visible half of the NaN regression: repeated floods at one TX
  // power must hit the cache every time after the first build.
  Topology topo = make_office18_topology();
  InterferenceField field;
  SparseLinkModel model(topo);
  flood::GlossyFlood engine(model, field);
  std::vector<flood::NodeFloodConfig> cfgs(
      18, flood::NodeFloodConfig{2, true});
  util::Pcg32 rng(5);
  for (int i = 0; i < 8; ++i) {
    flood::FloodResult r = engine.run(0, cfgs, flood::FloodParams{}, rng);
    (void)r.receiver_count();
    EXPECT_EQ(model.rebuilds(), 1) << "flood " << i;
  }
}

TEST(CachedLinkModel, RebuildsOnlyOnPowerChange) {
  Topology topo = make_line_topology(5, 10.0);
  SparseLinkModel model(topo);
  EXPECT_EQ(model.rebuilds(), 0);

  model.prepare(0.0);
  EXPECT_EQ(model.rebuilds(), 1);
  model.prepare(0.0);
  model.prepare(0.0);
  EXPECT_EQ(model.rebuilds(), 1);  // cache hit

  model.prepare(-5.0);
  EXPECT_EQ(model.rebuilds(), 2);
  model.prepare(0.0);  // single-entry cache: going back recomputes
  EXPECT_EQ(model.rebuilds(), 3);
  model.prepare(0.0);
  EXPECT_EQ(model.rebuilds(), 3);
}

// A custom backend proving the seam: uniform link power between every pair
// of distinct nodes, regardless of the underlying topology's path loss. Its
// CSR rows leave out the self-links, so the engine scatters them.
class UniformLinkModel final : public LinkModel {
 public:
  UniformLinkModel(const Topology& topo, double mw) : topo_(&topo) {
    const int n = topo.size();
    for (NodeId tx = 0; tx < n; ++tx) {
      for (NodeId rx = 0; rx < n; ++rx)
        if (rx != tx) links_.push(rx, mw);
      links_.close_row();
    }
  }
  const Topology& topology() const override { return *topo_; }
  const SparseLinkView* prepare_sparse(double) override { return &links_; }

 private:
  const Topology* topo_;
  LinkCsr links_;
};

TEST(LinkModel, CustomBackendDrivesFloodEngine) {
  // A line topology whose ends cannot hear each other directly...
  Topology topo = make_line_topology(6, 40.0);
  InterferenceField field;

  // ...but with an artificial backend granting every pair a strong link,
  // everyone receives in one hop.
  UniformLinkModel strong(topo, dbm_to_mw(-40.0));
  flood::GlossyFlood engine(strong, field);
  std::vector<flood::NodeFloodConfig> cfgs(
      6, flood::NodeFloodConfig{2, true});
  util::Pcg32 rng(17);
  flood::FloodResult r = engine.run(0, cfgs, flood::FloodParams{}, rng);
  EXPECT_EQ(r.receiver_count(), 5);
  for (int i = 1; i < 6; ++i) {
    EXPECT_TRUE(r.nodes[static_cast<std::size_t>(i)].received);
    EXPECT_EQ(r.nodes[static_cast<std::size_t>(i)].first_rx_step, 0);
  }

  // With links below the noise floor, nobody receives anything.
  UniformLinkModel dead(topo, dbm_to_mw(-150.0));
  flood::GlossyFlood deaf_engine(dead, field);
  util::Pcg32 rng2(17);
  flood::FloodResult r2 = deaf_engine.run(0, cfgs, flood::FloodParams{}, rng2);
  EXPECT_EQ(r2.receiver_count(), 0);
}

TEST(LinkModel, OwningAndSeamConstructorsAgree) {
  Topology topo = make_office18_topology();
  InterferenceField field;
  SparseLinkModel model(topo);

  flood::GlossyFlood via_seam(model, field);
  flood::GlossyFlood owning(topo, field);

  std::vector<flood::NodeFloodConfig> cfgs(
      18, flood::NodeFloodConfig{3, true});
  util::Pcg32 ra(31), rb(31);
  flood::FloodResult a = via_seam.run(2, cfgs, flood::FloodParams{}, ra);
  flood::FloodResult b = owning.run(2, cfgs, flood::FloodParams{}, rb);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].received, b.nodes[i].received);
    EXPECT_EQ(a.nodes[i].first_rx_step, b.nodes[i].first_rx_step);
    EXPECT_EQ(a.nodes[i].radio_on_us, b.nodes[i].radio_on_us);
  }
  EXPECT_EQ(ra.next_u32(), rb.next_u32());
}

}  // namespace
}  // namespace dimmer::phy
