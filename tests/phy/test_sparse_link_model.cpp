// SparseLinkModel unit + property suite (DESIGN.md §13).
//
// Two contracts are pinned here: (a) over a topology that keeps every link
// every CSR row is full, holds the per-link expression's exact bits, and is
// the row-major matrix prepare() returns, and (b) over any topology the
// model stores exactly the links the topology stores — the Topology's gain
// floor is the one culling decision — each as dbm_to_mw(tx + gain). The
// bound on the power a culled topology drops lives beside the floor, in
// tests/phy/test_topology.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "phy/batched.hpp"
#include "phy/link_model.hpp"
#include "phy/propagation.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/simd/simd.hpp"

namespace dimmer::phy {
namespace {

/// `t` rebuilt with a gain floor: the same positions, path loss and
/// shadowing seed, so every link it keeps has `t`'s bits.
Topology culled_copy(const Topology& t, double gain_floor_db) {
  std::vector<Vec2> pos;
  for (NodeId i = 0; i < t.size(); ++i) pos.push_back(t.position(i));
  return Topology(std::move(pos), t.path_loss(), t.radio(), t.shadow_seed(),
                  gain_floor_db);
}

TEST(SparseLinkModel, NoCullingRowsBitwiseMatchDense) {
  for (int which : {0, 1}) {
    Topology topo =
        which == 0 ? make_office18_topology() : make_dcube48_topology();
    SCOPED_TRACE(which == 0 ? "office18" : "dcube48");
    const int n = topo.size();
    const auto un = static_cast<std::size_t>(n);

    SparseLinkModel sparse(topo);

    for (double power : {0.0, -7.0, 3.0}) {
      SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
      const SparseLinkView* got = sparse.prepare_sparse(power);
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(got->rows(), n);
      ASSERT_EQ(got->nnz(), un * un);  // every link survives
      ASSERT_TRUE(got->full_rows());
      // The matrix view is the same array, read row-major.
      LinkMatrixView matrix = sparse.prepare(power);
      ASSERT_EQ(matrix.mw, got->val.data());
      ASSERT_EQ(matrix.n, n);
      for (NodeId tx = 0; tx < n; ++tx) {
        const LinkCsr::Row row = got->row(tx);
        ASSERT_EQ(row.size, un);
        for (NodeId rx = 0; rx < n; ++rx) {
          const auto k = static_cast<std::size_t>(rx);
          EXPECT_EQ(row.col[k], rx);  // full row, ascending listener ids
          const double want = dbm_to_mw(topo.rx_power_dbm(tx, rx, power));
          if (util::simd::native_width == 1) {
            // Exact bits, not NEAR: the per-link expression the historical
            // engine evaluated inline (DESIGN.md §12).
            EXPECT_EQ(row.val[k], want) << "tx " << tx << " rx " << rx;
          } else {
            EXPECT_NEAR(row.val[k], want, std::abs(want) * 1e-13)
                << "tx " << tx << " rx " << rx;
          }
        }
      }
    }
  }
}

TEST(SparseLinkModel, StoresExactlyTheTopologysLinks) {
  // Culled or not, the model's rows are the topology's gain rows: the same
  // listener ids, and per link the bits of dbm_to_mw(tx + gain) through the
  // batch kernel, which is std::pow on the scalar backend.
  const RadioConstants radio;
  const double floor_db = gain_cull_floor_db(radio, 20.0);
  EXPECT_EQ(floor_db, radio.noise_floor_dbm - 20.0);
  const Topology full = make_campus_topology(300, 4);
  const Topology culled = make_campus_topology_culled(300, 4, floor_db);
  ASSERT_TRUE(full.gains().full_rows());
  ASSERT_LT(culled.gain_nnz(), full.gain_nnz());
  for (const Topology* topo : {&full, &culled}) {
    SCOPED_TRACE(topo == &full ? "unculled" : "culled");
    SparseLinkModel model(*topo);
    for (double power : {0.0, -7.0}) {
      SCOPED_TRACE("tx_power_dbm " + std::to_string(power));
      const SparseLinkView* view = model.prepare_sparse(power);
      const LinkCsr& gains = topo->gains();
      EXPECT_EQ(view->row_ptr, gains.row_ptr);
      EXPECT_EQ(view->col, gains.col);
      ASSERT_EQ(view->val.size(), gains.val.size());
      EXPECT_EQ(view->full_rows(), topo == &full);
      for (std::size_t k = 0; k < gains.val.size(); ++k) {
        // One link per kernel call: its bits must not depend on which
        // links share its batch.
        const double dbm = power + gains.val[k];
        double want = 0.0;
        dbm_to_mw_batch(&dbm, &want, 1);
        if (util::simd::native_width == 1) {
          ASSERT_EQ(want, dbm_to_mw(dbm));
        }
        ASSERT_EQ(view->val[k], want) << "entry " << k;
        ASSERT_GT(view->val[k], 0.0);
      }
    }
  }
}

TEST(SparseLinkModel, CullingDropsExactlySubFloorLinks) {
  // A 64-node line at 12 m pitch spans 756 m — far beyond a 20 dB margin's
  // reach — so the topology's gain floor culls most pairs. At the default
  // TX power the link model over it keeps exactly the links whose rx power
  // reaches noise - 20 dB, each with the unculled model's bits.
  const Topology full = make_line_topology(64, 12.0);
  const double margin_db = 20.0;
  const Topology topo =
      culled_copy(full, gain_cull_floor_db(full.radio(), margin_db));
  const int n = topo.size();
  SparseLinkModel sparse(topo);
  SparseLinkModel dense(full);

  const double power = full.radio().default_tx_power_dbm;
  const SparseLinkView* view = sparse.prepare_sparse(power);
  LinkMatrixView want = dense.prepare(power);
  const double floor_dbm = full.radio().noise_floor_dbm - margin_db;

  ASSERT_LT(sparse.nnz(), static_cast<std::size_t>(n) * n / 4);
  ASSERT_GT(sparse.nnz(), 0u);

  for (NodeId tx = 0; tx < n; ++tx) {
    const LinkCsr::Row row = view->row(tx);
    std::size_t k = 0;
    NodeId prev = -1;
    for (NodeId rx = 0; rx < n; ++rx) {
      const bool kept = k < row.size && row.col[k] == rx;
      if (full.rx_power_dbm(tx, rx, power) >= floor_dbm) {
        ASSERT_TRUE(kept) << "survivor culled: tx " << tx << " rx " << rx;
        EXPECT_GT(row.col[k], prev);  // ascending within the row
        EXPECT_GT(row.val[k], 0.0);
        EXPECT_EQ(row.val[k], want.row(tx)[rx]);  // dense bits preserved
        prev = row.col[k];
        ++k;
      } else {
        ASSERT_FALSE(kept) << "sub-floor link kept: tx " << tx << " rx " << rx;
      }
    }
    EXPECT_EQ(k, row.size);  // no stray entries beyond the scanned listeners
  }
}

TEST(SparseLinkModel, PrepareRequiresFullRows) {
  // The row-major matrix view exists only when no link was culled.
  Topology topo = culled_copy(make_line_topology(48, 12.0),
                              gain_cull_floor_db(RadioConstants{}, 20.0));
  SparseLinkModel sparse(topo);
  EXPECT_FALSE(sparse.prepare_sparse(0.0)->full_rows());
  EXPECT_THROW((void)sparse.prepare(0.0), util::RequireError);
}

TEST(SparseLinkModel, CachesByPreparedPower) {
  Topology topo = make_office18_topology();
  SparseLinkModel sparse(topo);
  EXPECT_EQ(sparse.rebuilds(), 0);
  (void)sparse.prepare_sparse(0.0);
  (void)sparse.prepare_sparse(0.0);
  EXPECT_EQ(sparse.rebuilds(), 1);
  (void)sparse.prepare_sparse(-7.0);
  EXPECT_EQ(sparse.rebuilds(), 2);
  (void)sparse.prepare_sparse(0.0);  // cache keys on the last power only
  EXPECT_EQ(sparse.rebuilds(), 3);
  (void)sparse.prepare_sparse(0.0);
  EXPECT_EQ(sparse.rebuilds(), 3);
}

TEST(SparseLinkModel, RejectsNonFinitePowerWithoutRebuilding) {
  Topology topo = make_office18_topology();
  SparseLinkModel sparse(topo);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)sparse.prepare_sparse(nan), util::RequireError);
  EXPECT_THROW((void)sparse.prepare_sparse(inf), util::RequireError);
  EXPECT_THROW((void)sparse.prepare_sparse(-inf), util::RequireError);
  EXPECT_THROW((void)sparse.prepare(nan), util::RequireError);
  EXPECT_EQ(sparse.rebuilds(), 0);
}

TEST(SparseLinkModel, StorageScalesWithSurvivorsNotNodes) {
  // On a long culled line the CSR holds a thin band around the diagonal;
  // the dense matrix would hold 8*N^2 bytes regardless.
  Topology topo = culled_copy(make_line_topology(256, 12.0),
                              gain_cull_floor_db(RadioConstants{}, 20.0));
  const auto un = static_cast<std::size_t>(topo.size());
  SparseLinkModel sparse(topo);
  (void)sparse.prepare_sparse(0.0);
  EXPECT_GT(sparse.nnz(), 0u);
  EXPECT_LT(sparse.nnz(), un * un / 8);
  EXPECT_LT(sparse.storage_bytes(), sizeof(double) * un * un / 4);
}

}  // namespace
}  // namespace dimmer::phy
