// The PHY <-> flood seam: linear-domain link powers behind an interface.
//
// The flood engine's inner loop needs one number per (tx, rx) link: the
// received power in mW when `tx` transmits at the flood's TX power. Computing
// it from the Topology on every reception costs a pow(10, x/10) per listener
// per transmitter per step. A LinkModel answers the same question through
// precomputed CSR rows instead: `prepare_sparse(tx_power_dbm)` returns a
// SparseLinkView whose entries are computed *once* per (topology, power) with
// the exact same expression the direct path used —
//
//     dbm_to_mw(topo.rx_power_dbm(tx, rx, tx_power_dbm))
//
// — so flood results stay bit-identical to evaluating the Topology inline.
//
// SparseLinkModel is the one builder: it converts every gain the Topology
// stores, so the Topology's gain floor alone decides which links exist
// (DESIGN.md §13). The seam also decouples the flood engine from the
// Topology class itself: alternate backends (trace-driven gains,
// time-varying channels) only need to fill a LinkCsr.
#pragma once

#include <cstddef>

#include "phy/topology.hpp"

namespace dimmer::phy {

/// Non-owning view of a row-major n*n linear-domain (mW) link-power matrix:
/// the val array of a SparseLinkView whose rows are full (see
/// LinkModel::prepare). Valid until the next prepare call on (or destruction
/// of) the model that produced it.
struct LinkMatrixView {
  const double* mw = nullptr;
  int n = 0;

  const double* row(NodeId tx) const {
    return mw + static_cast<std::size_t>(tx) * static_cast<std::size_t>(n);
  }
};

/// The CSR link powers a LinkModel hands the flood engine: per transmitter,
/// the links its backend stores, as parallel (col, val = mW) arrays.
/// Listener ids are strictly ascending within a row, and every stored power
/// is positive (dbm_to_mw never produces 0 for a finite dBm value) — the
/// flood engine relies on both to keep its per-listener accumulation order
/// identical across layouts and to use "accumulated power == 0.0" as "no
/// stored link reaches this listener". When every row is full (nnz == n*n),
/// `val` is the row-major n*n matrix. Valid until the next prepare call on
/// the model.
using SparseLinkView = LinkCsr;

/// Interface the flood engine consumes instead of poking Topology directly.
///
/// Implementations are stateful caches: a prepare call may recompute internal
/// storage, so a single LinkModel instance must not be shared by concurrently
/// running flood engines (one model per simulation thread, as with RNGs).
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// The topology this model describes (radio constants, interference
  /// geometry). Every view has exactly `topology().size()` rows.
  virtual const Topology& topology() const = 0;

  /// Returns the CSR link powers for `tx_power_dbm`. Implementations cache:
  /// repeated calls with the same power are O(1). The flood engine calls
  /// this once per flood.
  virtual const SparseLinkView* prepare_sparse(double tx_power_dbm) = 0;

  /// The same links as a row-major matrix; REQUIREs full rows. The flood
  /// engine never calls it: it serves callers that read matrix rows.
  virtual LinkMatrixView prepare(double tx_power_dbm);
};

/// The link-model builder: CSR rows of mW powers, one per transmitter,
/// cached for the last-prepared TX power. It stores exactly the links the
/// Topology stores; the Topology's gain floor is the one culling decision
/// (DESIGN.md §13).
///
/// Determinism contract: every stored link holds the exact double of the
/// historical per-link expression dbm_to_mw(tx_power + gain), computed
/// through the dbm_to_mw_batch kernel, which is lanewise pure (DESIGN.md
/// §12). Over a topology that keeps every link the rows are full, `val` is
/// the row-major n*n matrix, and the flood engine takes its contiguous row
/// sweep; over a culled topology it scatters the rows.
class SparseLinkModel : public LinkModel {
 public:
  explicit SparseLinkModel(const Topology& topo) : topo_(&topo) {}
  // prepare_sparse hands out a pointer to this object's own table.
  SparseLinkModel(const SparseLinkModel&) = delete;
  SparseLinkModel& operator=(const SparseLinkModel&) = delete;

  const Topology& topology() const override { return *topo_; }

  /// Recomputes only when the TX power changes (floods within a protocol
  /// run virtually always share one TX power, so steady state is one build
  /// per topology).
  const SparseLinkView* prepare_sparse(double tx_power_dbm) override;

  /// Number of full CSR recomputations so far (test/bench introspection).
  int rebuilds() const { return rebuilds_; }

  /// Stored-link count of the last prepared view (0 before any prepare).
  std::size_t nnz() const { return links_.nnz(); }

  /// Bytes held by the CSR arrays (row_ptr + col + val) — the number the
  /// scale bench reports against the dense 8*N^2.
  std::size_t storage_bytes() const { return links_.bytes(); }

 private:
  void rebuild(double tx_power_dbm);

  const Topology* topo_;
  LinkCsr links_;  // received powers in mW
  double cached_power_dbm_ = 0.0;
  bool valid_ = false;
  int rebuilds_ = 0;
};

/// The name perfbench binds its unculled office18 model by.
using CachedLinkModel = SparseLinkModel;

}  // namespace dimmer::phy
