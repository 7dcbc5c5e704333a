// SparseLinkModel unit + property suite (DESIGN.md §13).
//
// Three contracts are pinned here: (a) with culling disabled every CSR row is
// full, holds the per-link expression's exact bits, and is the row-major
// matrix prepare() returns, (b) with culling enabled the model drops exactly
// the links below the configured floor — survivors keep their unculled
// bits — and (c) the culled power any
// listener could lose is provably bounded: each culled link sits below the
// floor, so the per-listener sum is below floor_mw * fan-in, which a
// Config::bounded_influence margin keeps under the noise floor itself.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "phy/link_model.hpp"
#include "phy/propagation.hpp"
#include "phy/topology.hpp"
#include "util/check.hpp"
#include "util/simd/simd.hpp"

namespace dimmer::phy {
namespace {

TEST(SparseLinkModel, NoCullingRowsBitwiseMatchDense) {
  for (int which : {0, 1}) {
    Topology topo =
        which == 0 ? make_office18_topology() : make_dcube48_topology();
    SCOPED_TRACE(which == 0 ? "office18" : "dcube48");
    const int n = topo.size();
    const auto un = static_cast<std::size_t>(n);

    SparseLinkModel sparse(topo, SparseLinkModel::Config::no_culling());

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

TEST(SparseLinkModel, CullingDropsExactlySubFloorLinks) {
  // A 64-node line at 12 m pitch spans 756 m — far beyond the default
  // margin's reach — so the default config culls most pairs.
  Topology topo = make_line_topology(64, 12.0);
  const int n = topo.size();
  SparseLinkModel sparse(topo);
  CachedLinkModel dense(topo);

  const double power = 0.0;
  const SparseLinkView* view = sparse.prepare_sparse(power);
  LinkMatrixView want = dense.prepare(power);
  const double floor_dbm = sparse.cull_floor_dbm();
  EXPECT_EQ(floor_dbm, topo.radio().noise_floor_dbm - 20.0);

  ASSERT_LT(sparse.nnz(), static_cast<std::size_t>(n) * n / 4);
  ASSERT_GT(sparse.nnz(), 0u);

  for (NodeId tx = 0; tx < n; ++tx) {
    const LinkCsr::Row row = view->row(tx);
    std::size_t k = 0;
    NodeId prev = -1;
    for (NodeId rx = 0; rx < n; ++rx) {
      const bool kept = k < row.size && row.col[k] == rx;
      if (topo.rx_power_dbm(tx, rx, power) >= floor_dbm) {
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

TEST(SparseLinkModel, CulledPowerIsBoundedBelowNoiseFloor) {
  // The property behind bounded_influence: with margin >= headroom +
  // 10*log10(n-1), the total mW a listener loses to culling — even if all
  // n-1 other nodes transmitted at once — stays at least `headroom` dB
  // under the noise floor's own contribution to SINR.
  const double headroom_db = 10.0;
  for (int which : {0, 1}) {
    Topology topo =
        which == 0 ? make_line_topology(256, 12.0) : make_dcube48_topology();
    SCOPED_TRACE(which == 0 ? "line256" : "dcube48");
    const int n = topo.size();
    SparseLinkModel sparse(
        topo, SparseLinkModel::Config::bounded_influence(n, headroom_db));
    CachedLinkModel dense(topo);

    const double power = 0.0;
    const SparseLinkView* view = sparse.prepare_sparse(power);
    LinkMatrixView full = dense.prepare(power);
    const double floor_mw = dbm_to_mw(sparse.cull_floor_dbm());
    const double noise_mw = dbm_to_mw(topo.radio().noise_floor_dbm);

    // The analytic bound itself: worst-case summed culled power < noise/10.
    ASSERT_LE(floor_mw * (n - 1),
              noise_mw * std::pow(10.0, -headroom_db / 10.0) * (1 + 1e-12));

    std::vector<double> culled_sum(static_cast<std::size_t>(n), 0.0);
    for (NodeId tx = 0; tx < n; ++tx) {
      const LinkCsr::Row row = view->row(tx);
      std::size_t k = 0;
      for (NodeId rx = 0; rx < n; ++rx) {
        if (k < row.size && row.col[k] == rx) {
          ++k;  // survivor
          continue;
        }
        const double lost = full.row(tx)[rx];
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

TEST(SparseLinkModel, PrepareRequiresFullRows) {
  // The row-major matrix view exists only when no link was culled.
  Topology topo = make_line_topology(48, 12.0);
  SparseLinkModel sparse(topo);
  EXPECT_FALSE(sparse.prepare_sparse(0.0)->full_rows());
  EXPECT_THROW((void)sparse.prepare(0.0), util::RequireError);
}

TEST(SparseLinkModel, CachesByPreparedPower) {
  Topology topo = make_office18_topology();
  SparseLinkModel sparse(topo, SparseLinkModel::Config::no_culling());
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

TEST(SparseLinkModel, RejectsNonPositiveCullMargin) {
  Topology topo = make_office18_topology();
  SparseLinkModel::Config cfg;
  cfg.cull_margin_db = 0.0;
  EXPECT_THROW(SparseLinkModel(topo, cfg), util::RequireError);
  cfg.cull_margin_db = -5.0;
  EXPECT_THROW(SparseLinkModel(topo, cfg), util::RequireError);
  cfg.cull_margin_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SparseLinkModel(topo, cfg), util::RequireError);
}

TEST(SparseLinkModel, BoundedInfluenceMarginGrowsWithScale) {
  const double m48 = SparseLinkModel::Config::bounded_influence(48).cull_margin_db;
  const double m2048 =
      SparseLinkModel::Config::bounded_influence(2048).cull_margin_db;
  EXPECT_NEAR(m48, 10.0 + 10.0 * std::log10(47.0), 1e-12);
  EXPECT_NEAR(m2048, 10.0 + 10.0 * std::log10(2047.0), 1e-12);
  EXPECT_GT(m2048, m48);
  EXPECT_THROW(SparseLinkModel::Config::bounded_influence(1),
               util::RequireError);
  EXPECT_THROW(SparseLinkModel::Config::bounded_influence(48, -1.0),
               util::RequireError);
}

TEST(SparseLinkModel, StorageScalesWithSurvivorsNotNodes) {
  // On a long line the CSR holds a thin band around the diagonal; the dense
  // matrix would hold 8*N^2 bytes regardless.
  Topology topo = make_line_topology(256, 12.0);
  const auto un = static_cast<std::size_t>(topo.size());
  SparseLinkModel sparse(topo);
  (void)sparse.prepare_sparse(0.0);
  EXPECT_GT(sparse.nnz(), 0u);
  EXPECT_LT(sparse.nnz(), un * un / 8);
  EXPECT_LT(sparse.storage_bytes(), sizeof(double) * un * un / 4);
}

}  // namespace
}  // namespace dimmer::phy
