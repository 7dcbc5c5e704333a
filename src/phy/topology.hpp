// Node placement and the static link gains, stored as CSR rows.
//
// A Topology owns node positions plus a deterministic per-link shadowing draw,
// and answers "what power does node j see when node i transmits?" for both
// in-network nodes and external points (jammers, WiFi APs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "phy/geometry.hpp"
#include "phy/propagation.hpp"
#include "util/check.hpp"

namespace dimmer::phy {

using NodeId = int;

/// The one CSR link table: per row (a transmitter), the column ids it links
/// to (listeners, strictly ascending) and one value per link, in parallel
/// arrays. Topology stores its dB gains in one; SparseLinkModel stores the
/// received mW powers of one TX power in another.
struct LinkCsr {
  std::vector<std::size_t> row_ptr{0};  ///< rows()+1 offsets into col/val
  std::vector<NodeId> col;              ///< column ids, ascending per row
  std::vector<double> val;              ///< values, parallel to col

  /// One stored row: parallel (col, val) arrays. Columns absent from the
  /// row are links the builder dropped.
  struct Row {
    const NodeId* col;
    const double* val;
    std::size_t size;
  };

  int rows() const { return static_cast<int>(row_ptr.size() - 1); }
  std::size_t nnz() const { return col.size(); }
  /// Bytes held by the three arrays.
  std::size_t bytes() const {
    return row_ptr.size() * sizeof(std::size_t) + col.size() * sizeof(NodeId) +
           val.size() * sizeof(double);
  }
  /// Every row holds every column (nnz == rows^2): `val` is then the
  /// row-major rows x rows matrix.
  bool full_rows() const {
    const auto n = static_cast<std::size_t>(rows());
    return nnz() == n * n;
  }

  /// Appends one entry to the open row; columns must ascend.
  void push(NodeId c, double v) {
    col.push_back(c);
    val.push_back(v);
  }
  /// Closes the open row.
  void close_row() { row_ptr.push_back(col.size()); }

  /// Row `r`; debug-only bounds check.
  Row row(NodeId r) const {
    DIMMER_DEBUG_ASSERT(r >= 0 && r < rows(), "row out of range");
    const std::size_t begin = row_ptr[static_cast<std::size_t>(r)];
    return Row{col.data() + begin, val.data() + begin,
               row_ptr[static_cast<std::size_t>(r) + 1] - begin};
  }
};

class Topology {
 public:
  /// Keeps every link: the culling constructor with a -infinity floor.
  /// `shadow_seed` fixes the lognormal shadowing draws; identical seeds give
  /// identical radio environments.
  Topology(std::vector<Vec2> positions, PathLossModel model,
           RadioConstants radio, std::uint64_t shadow_seed);

  /// Stores link gains as CSR rows, one per transmitter. Gains below
  /// `gain_floor_db` are dropped at construction, so storage is O(nnz);
  /// dropped pairs read as -infinity, i.e. a link that physically does not
  /// exist. Surviving entries do not depend on the floor (same distance,
  /// same hashed shadowing draw). Self-gains (0.0) always survive. With a
  /// -infinity floor every row is full.
  Topology(std::vector<Vec2> positions, PathLossModel model,
           RadioConstants radio, std::uint64_t shadow_seed,
           double gain_floor_db);

  int size() const { return static_cast<int>(positions_.size()); }
  Vec2 position(NodeId n) const;
  const PathLossModel& path_loss() const { return model_; }
  const RadioConstants& radio() const { return radio_; }
  std::uint64_t shadow_seed() const { return shadow_seed_; }

  /// The culling floor (-infinity when every link is kept).
  double gain_floor_db() const { return gain_floor_db_; }
  /// The gains in dB as CSR rows, one per transmitter, listener ids
  /// ascending, diagonal (0.0) included. Pairs absent from a row were culled.
  const LinkCsr& gains() const { return gain_; }
  /// Stored gain entries (diagonal included); N^2 when nothing was culled.
  std::size_t gain_nnz() const { return gain_.nnz(); }
  /// Bytes held by the CSR gain arrays — the number bench_flood_scale
  /// reports against a dense 8*N^2 matrix.
  std::size_t gain_storage_bytes() const { return gain_.bytes(); }

  /// Link gain in dB between two nodes (path loss + static shadowing, < 0).
  /// Bounds are checked in debug builds only — callers are expected to
  /// validate node ids at their own API boundary. A binary search within
  /// the CSR row; culled pairs return -infinity. Bulk consumers walk
  /// gains() rows instead.
  double gain_db(NodeId tx, NodeId rx) const;

  /// Received power in dBm at `rx` for a transmission from `tx`. Same
  /// debug-only bounds policy as gain_db.
  double rx_power_dbm(NodeId tx, NodeId rx, double tx_power_dbm) const;

  /// Gain from an arbitrary point (e.g. a jammer) to a node. `shadow_tag`
  /// identifies the external transmitter so its shadowing is stable. On a
  /// restricted() sub-topology the shadowing draw keys on the node's
  /// *parent* id, so a cell-local node hears exactly the interference its
  /// global counterpart would.
  double gain_from_point_db(Vec2 p, NodeId rx, std::uint64_t shadow_tag) const;

  /// Extracts the sub-topology induced by `members` (strictly ascending
  /// parent node ids, >= 2 of them): local node i is parent node members[i],
  /// every surviving gain entry is copied bit-for-bit from the parent (no
  /// re-draw — pairwise shadowing between members is preserved, unlike
  /// rebuilding a Topology from the member positions, which would re-key
  /// the draws on the compacted ids), and external-point shadowing keys on
  /// the parent ids (see gain_from_point_db). The floor is inherited. This
  /// is the Cell seam's id-remapping primitive: restricting to *all* nodes
  /// yields a topology whose every query is bit-identical to the parent
  /// (asserted in tests/phy/test_topology.cpp).
  Topology restricted(const std::vector<NodeId>& members) const;

  /// Parent id of a local node: members[n] for restricted() topologies, n
  /// itself otherwise. Composes across nested restrictions.
  NodeId parent_id(NodeId n) const;

  /// BFS hop counts from `root` over "good" links (clean-SNR PER below 10%
  /// for `frame_bytes` at `tx_power_dbm`), walking the stored gain rows:
  /// O(N + nnz). Unreachable nodes get -1.
  std::vector<int> hop_counts(NodeId root, int frame_bytes = 36,
                              double tx_power_dbm = 0.0) const;

  /// Smallest SINR (dB) with per_802154(sinr, frame_bytes) <= target_per.
  /// Memoized per thread: the 60-iteration bisection runs once per distinct
  /// (frame_bytes, target_per) pair.
  static double sinr_threshold_db(int frame_bytes, double target_per);

 private:
  struct RestrictedTag {};
  Topology(RestrictedTag, const Topology& parent,
           const std::vector<NodeId>& members);

  /// The pairwise gain expression, evaluated symmetrically (distance and
  /// the shadowing hash key on the lower id first), so both directions of a
  /// link hold the same bits.
  double pair_gain(NodeId a, NodeId b) const;

  std::vector<Vec2> positions_;
  PathLossModel model_;
  RadioConstants radio_;
  std::uint64_t shadow_seed_;

  double gain_floor_db_ = -std::numeric_limits<double>::infinity();
  LinkCsr gain_;

  // restricted(): local -> parent node ids (empty = identity).
  std::vector<NodeId> parent_ids_;
};

// ---- Topology factories ------------------------------------------------

/// n nodes on a line, `spacing_m` apart (multi-hop chains for tests).
Topology make_line_topology(int n, double spacing_m,
                            std::uint64_t shadow_seed = 1);

/// rows x cols grid with `spacing_m` pitch.
Topology make_grid_topology(int rows, int cols, double spacing_m,
                            std::uint64_t shadow_seed = 1);

/// n nodes placed uniformly at random in a width x height box; retries the
/// placement until the topology is connected from node 0.
Topology make_random_topology(int n, double width_m, double height_m,
                              std::uint64_t seed);

/// The paper's 18-node, 3-hop office deployment (Fig. 4a): offices and lab
/// rooms along a corridor; node 0 is the coordinator at one end.
Topology make_office18_topology(std::uint64_t shadow_seed = 18);

/// A 48-node D-Cube-like deployment spanning several rooms/floors;
/// node 0 is the coordinator (paper: device ID 202).
Topology make_dcube48_topology(std::uint64_t shadow_seed = 48);

/// Large deterministic campus: `n` nodes on a near-square jittered grid
/// (the dcube48 recipe generalized), 9 m pitch with ±2.5 m seeded jitter so
/// adjacent nodes sit well inside the office model's ~15 m solid-link range.
/// Connected by construction — no placement retries — which is what makes
/// 1000+-node topologies build in one Topology construction instead of
/// make_random_topology's rejection loop. Node 0 is the coordinator in the
/// first grid corner; the flood diameter grows as sqrt(n). Keeps every link:
/// make_campus_topology_culled with a -infinity floor.
Topology make_campus_topology(int n, std::uint64_t shadow_seed = 1);

/// Campus factory with construction-time gain culling (see the culling
/// Topology constructor): identical placement and surviving gains to
/// make_campus_topology(n, shadow_seed), only links above the floor stored.
Topology make_campus_topology_culled(int n, std::uint64_t shadow_seed,
                                     double gain_floor_db);

/// The gain floor that drops every link whose received power, at the 0 dBm
/// the paper transmits at, sits more than `cull_margin_db` below the noise
/// floor: noise_floor_dbm - cull_margin_db. Passing it to a culling factory
/// is the one culling decision (DESIGN.md §13); the link model converts
/// every link the topology keeps.
double gain_cull_floor_db(const RadioConstants& radio, double cull_margin_db);

}  // namespace dimmer::phy
