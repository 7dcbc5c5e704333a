#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "phy/topology.hpp"
#include "util/check.hpp"

namespace dimmer::phy {
namespace {

TEST(PathLossModel, GrowsWithDistance) {
  PathLossModel m;
  EXPECT_LT(m.path_loss_db(1.0), m.path_loss_db(10.0));
  EXPECT_LT(m.path_loss_db(10.0), m.path_loss_db(50.0));
}

TEST(PathLossModel, ClampsTinyDistances) {
  PathLossModel m;
  EXPECT_DOUBLE_EQ(m.path_loss_db(0.0), m.path_loss_db(m.min_distance_m));
}

TEST(RadioConstants, AirtimeMatches802154Bitrate) {
  RadioConstants r;
  // 36 bytes on air at 250 kbps = 36*8/250000 s = 1152 us.
  EXPECT_NEAR(r.airtime_us(30), 1152.0, 1e-9);
}

TEST(Topology, GainIsSymmetric) {
  Topology t = make_office18_topology();
  for (NodeId a = 0; a < t.size(); ++a)
    for (NodeId b = 0; b < t.size(); ++b)
      EXPECT_DOUBLE_EQ(t.gain_db(a, b), t.gain_db(b, a));
}

TEST(Topology, SameSeedSameGains) {
  Topology a = make_office18_topology(99);
  Topology b = make_office18_topology(99);
  for (NodeId i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.gain_db(0, i), b.gain_db(0, i));
}

TEST(Topology, DifferentSeedDifferentShadowing) {
  Topology a = make_office18_topology(1);
  Topology b = make_office18_topology(2);
  int same = 0;
  for (NodeId i = 1; i < a.size(); ++i)
    if (a.gain_db(0, i) == b.gain_db(0, i)) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Topology, RxPowerAddsTxPower) {
  Topology t = make_office18_topology();
  EXPECT_DOUBLE_EQ(t.rx_power_dbm(0, 1, 0.0) + 5.0, t.rx_power_dbm(0, 1, 5.0));
}

TEST(Topology, GainFromPointIsStablePerTag) {
  Topology t = make_office18_topology();
  Vec2 p{10.0, 5.0};
  EXPECT_DOUBLE_EQ(t.gain_from_point_db(p, 3, 7), t.gain_from_point_db(p, 3, 7));
  EXPECT_NE(t.gain_from_point_db(p, 3, 7), t.gain_from_point_db(p, 3, 8));
}

TEST(Topology, RejectsBadNodeIds) {
  Topology t = make_office18_topology();
#ifndef NDEBUG
  // Hot-path accessors validate bounds only in debug builds (DESIGN.md §10);
  // release builds rely on the flood-entry validation instead.
  EXPECT_THROW(t.gain_db(-1, 0), util::RequireError);
  EXPECT_THROW(t.gain_db(0, 18), util::RequireError);
#endif
  EXPECT_THROW(t.position(99), util::RequireError);
}

TEST(Topology, SinrThresholdMonotoneInTarget) {
  // A stricter PER target needs a higher SINR.
  EXPECT_GT(Topology::sinr_threshold_db(36, 0.01),
            Topology::sinr_threshold_db(36, 0.5));
}

TEST(LineTopology, HopCountsIncreaseAlongChain) {
  Topology t = make_line_topology(6, 12.0);
  auto hops = t.hop_counts(0);
  EXPECT_EQ(hops[0], 0);
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_GE(hops[i], 1);
    EXPECT_GE(hops[i] + 1, hops[i - 1]);  // non-teleporting chain
  }
  EXPECT_GT(hops.back(), 1);  // 60 m chain is multi-hop at 0 dBm
}

TEST(LineTopology, FarNodesUnreachableWithHugeSpacing) {
  Topology t = make_line_topology(3, 500.0);
  auto hops = t.hop_counts(0);
  EXPECT_EQ(hops[1], -1);
  EXPECT_EQ(hops[2], -1);
}

TEST(GridTopology, SizeAndConnectivity) {
  Topology t = make_grid_topology(3, 4, 8.0);
  EXPECT_EQ(t.size(), 12);
  auto hops = t.hop_counts(0);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
}

TEST(RandomTopology, IsConnectedFromNode0) {
  Topology t = make_random_topology(20, 60.0, 40.0, 5);
  EXPECT_EQ(t.size(), 20);
  auto hops = t.hop_counts(0);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
}

TEST(RandomTopology, ImpossibleBoxThrows) {
  EXPECT_THROW(make_random_topology(3, 5000.0, 5000.0, 1),
               util::RequireError);
}

TEST(Office18, MatchesPaperDeployment) {
  Topology t = make_office18_topology();
  EXPECT_EQ(t.size(), 18);
  auto hops = t.hop_counts(0);
  int diameter = *std::max_element(hops.begin(), hops.end());
  // "our 18-device, 3-hop deployment". hop_counts() uses a strict
  // 10%-PER link criterion; floods reach farther through coherent
  // combining, so the conservative graph diameter is 2-4.
  EXPECT_GE(diameter, 2);
  EXPECT_LE(diameter, 4);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
}

TEST(DCube48, FortyEightConnectedNodes) {
  Topology t = make_dcube48_topology();
  EXPECT_EQ(t.size(), 48);
  auto hops = t.hop_counts(0);
  EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                          [](int h) { return h >= 0; }));
  EXPECT_GE(*std::max_element(hops.begin(), hops.end()), 2);
}

// Property: in every factory topology, closer node pairs have (on average)
// higher gain than the farthest pairs, despite shadowing.
class TopologyDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopologyDistanceProperty, GainDecaysWithDistanceOnAverage) {
  Topology t = GetParam() == 0   ? make_office18_topology()
               : GetParam() == 1 ? make_dcube48_topology()
                                 : make_grid_topology(4, 5, 10.0);
  double near_acc = 0, far_acc = 0;
  int near_n = 0, far_n = 0;
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = a + 1; b < t.size(); ++b) {
      double d = distance(t.position(a), t.position(b));
      if (d < 12.0) {
        near_acc += t.gain_db(a, b);
        ++near_n;
      } else if (d > 35.0) {
        far_acc += t.gain_db(a, b);
        ++far_n;
      }
    }
  }
  ASSERT_GT(near_n, 0);
  ASSERT_GT(far_n, 0);
  EXPECT_GT(near_acc / near_n, far_acc / far_n + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Factories, TopologyDistanceProperty,
                         ::testing::Values(0, 1, 2));

// ---- CSR gain rows + campus factory ------------------------------------

// The historical dense BFS, kept verbatim as the reference: scan all N
// candidate neighbors per dequeued node against the clean-SNR link
// predicate. hop_counts over the stored gain rows must reproduce it exactly.
std::vector<int> dense_reference_hops(const Topology& t, NodeId root,
                                      int frame_bytes, double tx_power_dbm) {
  const double need_dbm =
      t.radio().noise_floor_dbm +
      Topology::sinr_threshold_db(frame_bytes, 0.1);
  std::vector<int> hops(static_cast<std::size_t>(t.size()), -1);
  std::vector<NodeId> queue;
  hops[static_cast<std::size_t>(root)] = 0;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    for (NodeId v = 0; v < t.size(); ++v) {
      if (v == u || hops[static_cast<std::size_t>(v)] >= 0) continue;
      if (t.rx_power_dbm(u, v, tx_power_dbm) < need_dbm) continue;
      hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
      queue.push_back(v);
    }
  }
  return hops;
}

TEST(Topology, HopCountsMatchDenseReferenceBfs) {
  const Topology campus = make_campus_topology(90);
  const Topology topos[] = {
      make_line_topology(8, 12.0), make_grid_topology(4, 4, 10.0),
      make_office18_topology(), make_dcube48_topology(), campus,
      // Culled below the good-link threshold: the reference BFS reads the
      // culled pairs as -infinity, the row walk never sees them.
      make_campus_topology_culled(90, 1,
                                  gain_cull_floor_db(campus.radio(), 10.0))};
  for (const Topology& t : topos) {
    SCOPED_TRACE("n=" + std::to_string(t.size()) +
                 " nnz=" + std::to_string(t.gain_nnz()));
    for (double power : {0.0, -7.0})
      for (NodeId root : {0, t.size() / 2, t.size() - 1})
        EXPECT_EQ(t.hop_counts(root, 36, power),
                  dense_reference_hops(t, root, 36, power))
            << "root " << root << " power " << power;
  }
}

TEST(Topology, GainRowsAscendReciprocallyWithDiagonal) {
  const Topology dense = make_dcube48_topology();
  const Topology culled = make_campus_topology_culled(
      200, 4, gain_cull_floor_db(dense.radio(), 10.0));
  for (const Topology* t : {&dense, &culled}) {
    const LinkCsr& g = t->gains();
    ASSERT_EQ(g.rows(), t->size());
    EXPECT_EQ(g.row_ptr.back(), g.nnz());
    EXPECT_EQ(g.nnz(), t->gain_nnz());
    EXPECT_EQ(g.bytes(), t->gain_storage_bytes());
    EXPECT_EQ(g.full_rows(), t == &dense);
    for (NodeId u = 0; u < g.rows(); ++u) {
      const LinkCsr::Row row = g.row(u);
      bool diagonal = false;
      for (std::size_t k = 0; k < row.size; ++k) {
        const NodeId v = row.col[k];
        if (k > 0) {
          EXPECT_GT(v, row.col[k - 1]);  // strictly ascending
        }
        diagonal = diagonal || v == u;
        // Reciprocal: the reverse link is stored with the same bits.
        EXPECT_EQ(t->gain_db(v, u), row.val[k]) << u << "<->" << v;
      }
      EXPECT_TRUE(diagonal) << "row " << u;
      EXPECT_EQ(t->gain_db(u, u), 0.0);
    }
  }
}

TEST(Topology, HopCountsRejectsBadRoot) {
  Topology t = make_line_topology(8, 12.0);
  EXPECT_THROW((void)t.hop_counts(-1), util::RequireError);
  EXPECT_THROW((void)t.hop_counts(8), util::RequireError);
}

TEST(CampusTopology, IsDeterministicPerSeed) {
  Topology a = make_campus_topology(200, 5);
  Topology b = make_campus_topology(200, 5);
  ASSERT_EQ(a.size(), b.size());
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.position(i).x, b.position(i).x);
    EXPECT_DOUBLE_EQ(a.position(i).y, b.position(i).y);
    EXPECT_DOUBLE_EQ(a.gain_db(0, i), b.gain_db(0, i));
  }
  Topology c = make_campus_topology(200, 6);
  int same = 0;
  for (NodeId i = 0; i < a.size(); ++i)
    if (a.position(i).x == c.position(i).x) ++same;
  EXPECT_LT(same, a.size() / 10);  // different seed, different jitter
}

TEST(CampusTopology, ExactSizeIncludingNonSquareCounts) {
  for (int n : {2, 48, 200, 257, 1024}) {
    EXPECT_EQ(make_campus_topology(n).size(), n) << "n=" << n;
  }
  EXPECT_THROW((void)make_campus_topology(1), util::RequireError);
  EXPECT_THROW((void)make_campus_topology(0), util::RequireError);
}

TEST(CampusTopology, IsConnectedByConstruction) {
  // The factory's whole point: no placement-retry loop, yet every node is
  // reachable from the coordinator corner. Checked across sizes and seeds.
  for (int n : {48, 200, 513}) {
    for (std::uint64_t seed : {1ULL, 9ULL}) {
      Topology t = make_campus_topology(n, seed);
      auto hops = t.hop_counts(0);
      EXPECT_TRUE(std::all_of(hops.begin(), hops.end(),
                              [](int h) { return h >= 0; }))
          << "n=" << n << " seed=" << seed;
    }
  }
  // Diameter grows with scale (sqrt(n) grid, multi-hop floods at 200+).
  Topology big = make_campus_topology(200);
  auto hops = big.hop_counts(0);
  EXPECT_GE(*std::max_element(hops.begin(), hops.end()), 3);
}

TEST(CulledTopology, SurvivorsBitIdenticalToDense) {
  const int n = 200;
  const std::uint64_t seed = 7;
  Topology dense = make_campus_topology(n, seed);
  const double floor_db = gain_cull_floor_db(dense.radio(), 10.0);
  Topology culled = make_campus_topology_culled(n, seed, floor_db);
  ASSERT_EQ(dense.gain_floor_db(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(culled.gain_floor_db(), floor_db);
  std::size_t survivors = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const double dg = dense.gain_db(a, b);
      const double cg = culled.gain_db(a, b);
      if (a == b || dg >= floor_db) {
        // Bitwise: same distance expression, same hashed shadowing draw.
        EXPECT_EQ(dg, cg) << "a=" << a << " b=" << b;
        ++survivors;
      } else {
        EXPECT_EQ(cg, -std::numeric_limits<double>::infinity())
            << "a=" << a << " b=" << b;
      }
    }
  }
  EXPECT_EQ(culled.gain_nnz(), survivors);
}

TEST(CulledTopology, StorageShrinksAtScale) {
  const int n = 512;
  Topology dense = make_campus_topology(n, 3);
  const double floor_db = gain_cull_floor_db(dense.radio(), 10.0);
  Topology culled = make_campus_topology_culled(n, 3, floor_db);
  const auto nn = static_cast<std::size_t>(n) * n;
  EXPECT_EQ(dense.gain_nnz(), nn);
  // Full CSR rows: n+1 offsets plus an id and a gain per stored entry.
  EXPECT_EQ(dense.gain_storage_bytes(),
            (static_cast<std::size_t>(n) + 1) * sizeof(std::size_t) +
                nn * (sizeof(NodeId) + sizeof(double)));
  EXPECT_LT(culled.gain_nnz(), dense.gain_nnz() / 2);
  EXPECT_LT(culled.gain_storage_bytes(), dense.gain_storage_bytes() / 2);
}

TEST(CulledTopology, MinusInfFloorKeepsEveryLink) {
  Topology dense = make_campus_topology(48, 5);
  Topology all = make_campus_topology_culled(
      48, 5, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(all.gain_nnz(), static_cast<std::size_t>(48) * 48);
  for (NodeId a = 0; a < 48; ++a)
    for (NodeId b = 0; b < 48; ++b)
      EXPECT_EQ(dense.gain_db(a, b), all.gain_db(a, b));
}

TEST(CulledTopology, GoodNeighborsAndHopsMatchUnculled) {
  // A floor below the good-link threshold (at TX powers <= 0 dBm) only
  // drops links the good-link test would have rejected, so walking the
  // stored rows finds the same good neighbors (and therefore the same BFS)
  // as the topology that keeps every link.
  const int n = 300;
  Topology all = make_campus_topology(n, 9);
  const double need_dbm =
      all.radio().noise_floor_dbm + Topology::sinr_threshold_db(36, 0.1);
  const double floor_db = gain_cull_floor_db(all.radio(), 10.0);
  ASSERT_LT(floor_db, need_dbm);
  Topology culled = make_campus_topology_culled(n, 9, floor_db);
  ASSERT_LT(culled.gain_nnz(), all.gain_nnz() / 2);
  auto good_neighbors = [&](const Topology& t, NodeId u, double power) {
    std::vector<NodeId> out;
    const LinkCsr::Row row = t.gains().row(u);
    for (std::size_t k = 0; k < row.size; ++k)
      if (row.col[k] != u && power + row.val[k] >= need_dbm)
        out.push_back(row.col[k]);
    return out;
  };
  for (double power : {0.0, -7.0}) {
    SCOPED_TRACE("power " + std::to_string(power));
    for (NodeId u = 0; u < n; ++u)
      EXPECT_EQ(good_neighbors(culled, u, power), good_neighbors(all, u, power))
          << "node " << u;
    for (NodeId root : {0, n / 2, n - 1})
      EXPECT_EQ(culled.hop_counts(root, 36, power),
                all.hop_counts(root, 36, power))
          << "root " << root;
  }
}

TEST(CulledTopology, RejectsNanFloor) {
  EXPECT_THROW((void)make_campus_topology_culled(
                   48, 1, std::numeric_limits<double>::quiet_NaN()),
               util::RequireError);
}

TEST(GainCullFloor, ConsistentWithSparseLinkModelCulling) {
  // rx_power = tx_power + gain. At the default TX power a link the floor
  // drops at construction is exactly one whose rx power is below
  // noise_floor - margin, the rx-power floor the link model would apply.
  const RadioConstants radio;
  const double margin_db = 12.0;
  const double floor_db = gain_cull_floor_db(radio, margin_db);
  EXPECT_DOUBLE_EQ(floor_db, radio.noise_floor_dbm - margin_db);
  const double rx_floor_dbm = radio.noise_floor_dbm - margin_db;
  EXPECT_EQ(radio.default_tx_power_dbm + floor_db, rx_floor_dbm);

  const Topology full = make_campus_topology(100, 7);
  const Topology culled = make_campus_topology_culled(100, 7, floor_db);
  ASSERT_LT(culled.gain_nnz(), full.gain_nnz());  // the floor bites
  const double power = radio.default_tx_power_dbm;
  for (NodeId a = 0; a < full.size(); ++a) {
    for (NodeId b = 0; b < full.size(); ++b) {
      const bool stored =
          culled.gain_db(a, b) != -std::numeric_limits<double>::infinity();
      EXPECT_EQ(stored, full.rx_power_dbm(a, b, power) >= rx_floor_dbm)
          << "a " << a << " b " << b;
    }
  }
}

TEST(CulledTopology, CulledPowerIsBoundedBelowNoiseFloor) {
  // The gain floor is the one culling decision, so this is the bound on
  // what culling can cost. With margin >= headroom + 10*log10(n-1), the
  // total mW a listener loses at 0 dBm TX — even if all n-1 other nodes
  // transmitted at once — stays at least `headroom` dB under the noise
  // floor's own contribution to SINR: every dropped link sits below
  // floor_mw, so a listener's sum stays below floor_mw * fan-in.
  const double headroom_db = 10.0;
  for (int which : {0, 1}) {
    const Topology full =
        which == 0 ? make_line_topology(256, 12.0) : make_dcube48_topology();
    SCOPED_TRACE(which == 0 ? "line256" : "dcube48");
    const int n = full.size();
    const double margin_db =
        headroom_db + 10.0 * std::log10(static_cast<double>(n - 1));
    const double floor_db = gain_cull_floor_db(full.radio(), margin_db);
    std::vector<Vec2> pos;
    for (NodeId i = 0; i < n; ++i) pos.push_back(full.position(i));
    const Topology culled(std::move(pos), full.path_loss(), full.radio(),
                          full.shadow_seed(), floor_db);
    ASSERT_LT(culled.gain_nnz(), full.gain_nnz());  // the floor bites

    const double floor_mw = dbm_to_mw(floor_db);
    const double noise_mw = dbm_to_mw(full.radio().noise_floor_dbm);
    // The analytic bound itself: worst-case summed culled power < noise/10.
    ASSERT_LE(floor_mw * (n - 1),
              noise_mw * std::pow(10.0, -headroom_db / 10.0) * (1 + 1e-12));

    std::vector<double> culled_sum(static_cast<std::size_t>(n), 0.0);
    for (NodeId tx = 0; tx < n; ++tx) {
      for (NodeId rx = 0; rx < n; ++rx) {
        if (culled.gain_db(tx, rx) != -std::numeric_limits<double>::infinity())
          continue;  // stored
        const double lost = dbm_to_mw(full.rx_power_dbm(tx, rx, 0.0));
        EXPECT_LT(lost, floor_mw);  // every culled link sits below the floor
        culled_sum[static_cast<std::size_t>(rx)] += lost;
      }
    }
    for (NodeId rx = 0; rx < n; ++rx) {
      EXPECT_LE(culled_sum[static_cast<std::size_t>(rx)],
                floor_mw * (n - 1) * (1 + 1e-12));
      EXPECT_LT(culled_sum[static_cast<std::size_t>(rx)], noise_mw);
    }
  }
}

TEST(RestrictedTopology, FullMembershipIsBitIdentical) {
  Topology t = make_campus_topology(64, 11);
  std::vector<NodeId> all(64);
  for (int i = 0; i < 64; ++i) all[static_cast<std::size_t>(i)] = i;
  Topology r = t.restricted(all);
  ASSERT_EQ(r.size(), t.size());
  Vec2 jam{20.0, 20.0};
  for (NodeId a = 0; a < 64; ++a) {
    EXPECT_EQ(r.parent_id(a), a);
    EXPECT_EQ(r.gain_from_point_db(jam, a, 42), t.gain_from_point_db(jam, a, 42));
    for (NodeId b = 0; b < 64; ++b) EXPECT_EQ(r.gain_db(a, b), t.gain_db(a, b));
  }
}

TEST(RestrictedTopology, SubsetPreservesPairwiseGainsAndParentIds) {
  Topology t = make_campus_topology(100, 13);
  std::vector<NodeId> members{3, 17, 18, 40, 77, 99};
  Topology r = t.restricted(members);
  ASSERT_EQ(r.size(), 6);
  Vec2 jam{0.0, 0.0};
  for (int i = 0; i < 6; ++i) {
    const NodeId g = members[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.parent_id(i), g);
    EXPECT_EQ(r.position(i).x, t.position(g).x);
    EXPECT_EQ(r.position(i).y, t.position(g).y);
    // External shadowing keys on the parent id: the restricted node hears
    // exactly what its global counterpart hears.
    EXPECT_EQ(r.gain_from_point_db(jam, i, 9), t.gain_from_point_db(jam, g, 9));
    for (int j = 0; j < 6; ++j)
      EXPECT_EQ(r.gain_db(i, j),
                t.gain_db(g, members[static_cast<std::size_t>(j)]));
  }
}

TEST(RestrictedTopology, NestedRestrictionComposesParentIds) {
  Topology t = make_campus_topology(100, 13);
  std::vector<NodeId> outer{3, 17, 18, 40, 77, 99};
  Topology r1 = t.restricted(outer);
  // Local ids 1,3,5 of r1 = parent ids 17, 40, 99.
  Topology r2 = r1.restricted({1, 3, 5});
  ASSERT_EQ(r2.size(), 3);
  EXPECT_EQ(r2.parent_id(0), 17);
  EXPECT_EQ(r2.parent_id(1), 40);
  EXPECT_EQ(r2.parent_id(2), 99);
  EXPECT_EQ(r2.gain_db(0, 2), t.gain_db(17, 99));
  Vec2 jam{50.0, 50.0};
  EXPECT_EQ(r2.gain_from_point_db(jam, 1, 7), t.gain_from_point_db(jam, 40, 7));
}

TEST(RestrictedTopology, CulledParentInheritsCullState) {
  Topology dense = make_campus_topology(200, 7);
  const double floor_db = gain_cull_floor_db(dense.radio(), 10.0);
  Topology culled = make_campus_topology_culled(200, 7, floor_db);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 200; i += 7) members.push_back(i);
  Topology r = culled.restricted(members);
  EXPECT_EQ(r.gain_floor_db(), floor_db);
  const int m = r.size();
  EXPECT_LT(r.gain_nnz(), static_cast<std::size_t>(m) * m);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      EXPECT_EQ(r.gain_db(i, j),
                culled.gain_db(members[static_cast<std::size_t>(i)],
                               members[static_cast<std::size_t>(j)]));
}

TEST(RestrictedTopology, RejectsBadMemberLists) {
  Topology t = make_campus_topology(48, 1);
  EXPECT_THROW((void)t.restricted({5}), util::RequireError);           // < 2
  EXPECT_THROW((void)t.restricted({5, 5}), util::RequireError);       // dup
  EXPECT_THROW((void)t.restricted({9, 5}), util::RequireError);       // order
  EXPECT_THROW((void)t.restricted({0, 48}), util::RequireError);      // range
  EXPECT_THROW((void)t.restricted({-1, 0}), util::RequireError);      // range
}

}  // namespace
}  // namespace dimmer::phy
