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

void SparseLinkModel::rebuild(double tx_power_dbm) {
  // The topology's rows as they are: same listeners, and per stored link
  // rx_power_dbm's expression fed through the batch dBm->mW kernel, which
  // converts in place. Assignment reuses the arrays' capacity across
  // rebuilds.
  const LinkCsr& gains = topo_->gains();
  DIMMER_REQUIRE(gains.nnz() <= static_cast<std::size_t>(
                                    std::numeric_limits<int>::max()),
                 "more stored links than one batch call converts");
  links_.row_ptr = gains.row_ptr;
  links_.col = gains.col;
  links_.val.resize(gains.nnz());
  for (std::size_t k = 0; k < gains.nnz(); ++k)
    links_.val[k] = tx_power_dbm + gains.val[k];
  dbm_to_mw_batch(links_.val.data(), links_.val.data(),
                  static_cast<int>(gains.nnz()));
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
