#include "phy/link_model.hpp"

#include <cmath>
#include <limits>

#include "phy/batched.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

LinkMatrixView LinkModel::prepare(double tx_power_dbm) {
  const SparseLinkView* v = prepare_sparse(tx_power_dbm);
  DIMMER_REQUIRE(v->full_rows(), "prepare() needs a view with full rows");
  return LinkMatrixView{v->val.data(), v->rows()};
}

SparseLinkModel::Config SparseLinkModel::Config::no_culling() {
  Config c;
  c.cull_margin_db = std::numeric_limits<double>::infinity();
  return c;
}

SparseLinkModel::Config SparseLinkModel::Config::bounded_influence(
    int n, double headroom_db) {
  DIMMER_REQUIRE(n >= 2, "bounded_influence needs >= 2 nodes");
  DIMMER_REQUIRE(headroom_db >= 0.0, "headroom_db must be >= 0");
  // floor_mw * (n-1) <= noise_mw * 10^(-headroom/10)
  //   <=> margin_db >= headroom_db + 10*log10(n-1).
  Config c;
  c.cull_margin_db = headroom_db + 10.0 * std::log10(static_cast<double>(n - 1));
  return c;
}

SparseLinkModel::SparseLinkModel(const Topology& topo)
    : SparseLinkModel(topo, Config{}) {}

SparseLinkModel::SparseLinkModel(const Topology& topo, Config cfg)
    : topo_(&topo), cfg_(cfg) {
  // NaN margins would make the keep predicate silently drop every link
  // (NaN comparisons are false); a zero/negative margin would cull links
  // *above* the noise floor, which is a config error, not a model.
  DIMMER_REQUIRE(cfg_.cull_margin_db > 0.0,
                 "cull_margin_db must be positive (may be +inf)");
}

double SparseLinkModel::cull_floor_dbm() const {
  return topo_->radio().noise_floor_dbm - cfg_.cull_margin_db;
}

void SparseLinkModel::rebuild(double tx_power_dbm) {
  const int n = topo_->size();
  const auto un = static_cast<std::size_t>(n);
  const double floor_dbm = cull_floor_dbm();  // -inf when culling is disabled

  links_.row_ptr.assign(1, 0);
  links_.row_ptr.reserve(un + 1);
  links_.col.clear();
  links_.val.clear();
  // The topology's stored entries bound the survivors at any power.
  links_.col.reserve(topo_->gain_nnz());
  links_.val.reserve(topo_->gain_nnz());
  keep_dbm_.resize(un);

  for (NodeId tx = 0; tx < n; ++tx) {
    // rx_power_dbm's expression per stored link, survivors compacted, then
    // the batch dBm->mW kernel. The kernel is lanewise pure (DESIGN.md §12),
    // so a survivor's mW bits do not depend on which other listeners sit
    // beside it in the batch.
    const LinkCsr::Row row = topo_->gains().row(tx);
    int kept = 0;
    for (std::size_t k = 0; k < row.size; ++k) {
      const double dbm = tx_power_dbm + row.val[k];
      if (dbm >= floor_dbm) {
        links_.col.push_back(row.col[k]);
        keep_dbm_[static_cast<std::size_t>(kept++)] = dbm;
      }
    }
    const std::size_t base = links_.val.size();
    links_.val.resize(base + static_cast<std::size_t>(kept));
    dbm_to_mw_batch(keep_dbm_.data(), links_.val.data() + base, kept);
    links_.close_row();
  }
}

const SparseLinkView* SparseLinkModel::prepare_sparse(double tx_power_dbm) {
  // A NaN power would fail the != cache check on *every* call (NaN != NaN),
  // silently rebuilding the CSR per flood and filling it with NaN that
  // poisons SINR/PER downstream. Reject it here, at the seam.
  DIMMER_REQUIRE(std::isfinite(tx_power_dbm), "tx_power_dbm must be finite");
  if (!valid_ || tx_power_dbm != cached_power_dbm_) {
    rebuild(tx_power_dbm);
    cached_power_dbm_ = tx_power_dbm;
    valid_ = true;
    ++rebuilds_;
  }
  return &links_;
}

}  // namespace dimmer::phy
