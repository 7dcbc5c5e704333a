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
// SparseLinkModel is the one builder: it walks the Topology's stored gain
// rows and keeps the links at or above its culling floor (DESIGN.md §13).
// CachedLinkModel is the same builder with culling disabled, so its rows are
// full. The seam also decouples the flood engine from the Topology class
// itself: alternate backends (trace-driven gains, time-varying channels)
// only need to fill a LinkCsr.
#pragma once

#include <cstddef>
#include <vector>

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
/// cached for the last-prepared TX power. A link survives iff its rx power
/// is at or above noise_floor_dbm - cull_margin_db; links the Topology
/// already culled are never considered.
///
/// Determinism contract (DESIGN.md §13):
///  - Every stored link holds the exact double of the historical per-link
///    expression: the same rx_power_dbm sum fed through the dbm_to_mw_batch
///    kernel, which is lanewise pure, so compacting survivors before the
///    batch conversion cannot change their bits.
///  - With culling disabled (Config::no_culling) over a topology that keeps
///    every link, rows are full and the flood engine takes its contiguous
///    row sweep (CachedLinkModel).
///  - With culling enabled, the total culled power any listener could ever
///    lose is bounded by cull_floor_mw * fan-in (each culled link is below
///    the floor; tests/phy/test_sparse_link_model.cpp proves the bound), so
///    a floor chosen via Config::bounded_influence keeps the aggregate error
///    strictly below the noise floor's own contribution to SINR.
class SparseLinkModel : public LinkModel {
 public:
  struct Config {
    /// Links whose rx power falls below noise_floor_dbm - cull_margin_db are
    /// dropped. Must be positive; +infinity keeps every link.
    double cull_margin_db = 20.0;

    /// Culling disabled: every link the Topology stores survives. Over a
    /// topology that keeps every link this stores N^2 entries, so only use
    /// it at small N.
    static Config no_culling();

    /// A margin guaranteeing that the *summed* culled power at any listener
    /// stays at least `headroom_db` below the noise floor even if all n-1
    /// other nodes transmit at once: cull_floor_mw * (n-1) <=
    /// noise_mw / 10^(headroom_db/10). Grows as 10*log10(n-1), so the bound
    /// holds at any scale.
    static Config bounded_influence(int n, double headroom_db = 10.0);
  };

  /// Default config: the 20 dB culling margin.
  explicit SparseLinkModel(const Topology& topo);
  SparseLinkModel(const Topology& topo, Config cfg);
  // prepare_sparse hands out a pointer to this object's own table.
  SparseLinkModel(const SparseLinkModel&) = delete;
  SparseLinkModel& operator=(const SparseLinkModel&) = delete;

  const Topology& topology() const override { return *topo_; }

  const SparseLinkView* prepare_sparse(double tx_power_dbm) override;

  /// Number of full CSR recomputations so far (test/bench introspection).
  int rebuilds() const { return rebuilds_; }

  /// Culling floor in dBm (noise floor minus the configured margin).
  double cull_floor_dbm() const;

  /// Survived-link count of the last prepared view (0 before any prepare).
  std::size_t nnz() const { return links_.nnz(); }

  /// Bytes held by the CSR arrays (row_ptr + col + val) — the number the
  /// scale bench reports against the dense 8*N^2.
  std::size_t storage_bytes() const { return links_.bytes(); }

 private:
  void rebuild(double tx_power_dbm);

  const Topology* topo_;
  Config cfg_;
  LinkCsr links_;                 // received powers in mW
  std::vector<double> keep_dbm_;  // rebuild scratch: one row's survivors
  double cached_power_dbm_ = 0.0;
  bool valid_ = false;
  int rebuilds_ = 0;
};

/// The standard backend: SparseLinkModel with culling disabled. Over a
/// topology that keeps every link, its rows are full, so the flood engine
/// sweeps them as a row-major matrix. Recomputes only when the TX power
/// changes (floods within a protocol run virtually always share one TX
/// power, so steady state is one build per topology).
class CachedLinkModel final : public SparseLinkModel {
 public:
  explicit CachedLinkModel(const Topology& topo)
      : SparseLinkModel(topo, Config::no_culling()) {}
};

}  // namespace dimmer::phy
