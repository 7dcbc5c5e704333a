#include "phy/topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "phy/per.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::phy {

namespace {
/// Deterministic standard-normal draw from a hash (Box-Muller on two hashes).
double hashed_normal(std::uint64_t h) {
  double u1 = util::pure_uniform(util::splitmix64(h));
  double u2 = util::pure_uniform(util::splitmix64(h ^ 0xabcdef1234567890ULL));
  if (u1 < 1e-12) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}
}  // namespace

Topology::Topology(std::vector<Vec2> positions, PathLossModel model,
                   RadioConstants radio, std::uint64_t shadow_seed)
    : Topology(std::move(positions), model, radio, shadow_seed,
               -std::numeric_limits<double>::infinity()) {}

double Topology::pair_gain(NodeId a, NodeId b) const {
  if (a == b) return 0.0;
  // Evaluate with the lower id first: distance() is bitwise symmetric
  // ((x-y)^2 == (y-x)^2 exactly) and the shadowing hash keys on
  // (min, max), so both argument orders give the same bits.
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  const double d = distance(positions_[static_cast<std::size_t>(lo)],
                            positions_[static_cast<std::size_t>(hi)]);
  const double shadow =
      model_.shadowing_sigma_db *
      hashed_normal(util::hash_u64(shadow_seed_, static_cast<std::uint64_t>(lo),
                                   static_cast<std::uint64_t>(hi)));
  return -model_.path_loss_db(d) + shadow;
}

Topology::Topology(std::vector<Vec2> positions, PathLossModel model,
                   RadioConstants radio, std::uint64_t shadow_seed,
                   double gain_floor_db)
    : positions_(std::move(positions)),
      model_(model),
      radio_(radio),
      shadow_seed_(shadow_seed),
      gain_floor_db_(gain_floor_db) {
  DIMMER_REQUIRE(positions_.size() >= 2, "topology needs at least two nodes");
  DIMMER_REQUIRE(!std::isnan(gain_floor_db), "gain_floor_db must not be NaN");
  const int n = size();
  const auto un = static_cast<std::size_t>(n);
  gain_.row_ptr.reserve(un + 1);
  // Full rows without a floor, else a typical mesh survivor count: rows
  // append without a dense intermediate, so a culled topology's peak memory
  // is O(nnz), never O(N^2).
  const std::size_t expect =
      gain_floor_db == -std::numeric_limits<double>::infinity() ? un * un
                                                                 : un * 16;
  gain_.col.reserve(expect);
  gain_.val.reserve(expect);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      // The diagonal (0.0 self-gain) always survives; NaN floors are
      // rejected above so `>=` is a total predicate.
      const double g = pair_gain(a, b);
      if (a == b || g >= gain_floor_db) gain_.push(b, g);
    }
    gain_.close_row();
  }
}

Vec2 Topology::position(NodeId n) const {
  DIMMER_REQUIRE(n >= 0 && n < size(), "node id out of range");
  return positions_[static_cast<std::size_t>(n)];
}

double Topology::gain_db(NodeId tx, NodeId rx) const {
  DIMMER_DEBUG_ASSERT(tx >= 0 && tx < size() && rx >= 0 && rx < size(),
                      "node id out of range");
  // CSR row binary search; a culled pair is a link that does not exist.
  const LinkCsr::Row row = gain_.row(tx);
  const NodeId* end = row.col + row.size;
  const NodeId* it = std::lower_bound(row.col, end, rx);
  if (it == end || *it != rx) return -std::numeric_limits<double>::infinity();
  return row.val[it - row.col];
}

double Topology::rx_power_dbm(NodeId tx, NodeId rx,
                              double tx_power_dbm) const {
  return tx_power_dbm + gain_db(tx, rx);
}

double Topology::gain_from_point_db(Vec2 p, NodeId rx,
                                    std::uint64_t shadow_tag) const {
  DIMMER_REQUIRE(rx >= 0 && rx < size(), "node id out of range");
  double d = distance(p, positions_[static_cast<std::size_t>(rx)]);
  // Restricted sub-topologies key the draw on the parent id, so a cell-local
  // node sees the exact interference shadowing of its global counterpart.
  double shadow =
      model_.shadowing_sigma_db *
      hashed_normal(util::hash_u64(shadow_seed_ ^ 0x9d2c5680ULL, shadow_tag,
                                   static_cast<std::uint64_t>(parent_id(rx))));
  return -model_.path_loss_db(d) + shadow;
}

NodeId Topology::parent_id(NodeId n) const {
  DIMMER_REQUIRE(n >= 0 && n < size(), "node id out of range");
  return parent_ids_.empty() ? n : parent_ids_[static_cast<std::size_t>(n)];
}

Topology::Topology(RestrictedTag, const Topology& parent,
                   const std::vector<NodeId>& members)
    : model_(parent.model_),
      radio_(parent.radio_),
      shadow_seed_(parent.shadow_seed_),
      gain_floor_db_(parent.gain_floor_db_) {
  const int m = static_cast<int>(members.size());
  DIMMER_REQUIRE(m >= 2, "restricted topology needs >= 2 members");
  positions_.reserve(members.size());
  parent_ids_.reserve(members.size());
  std::vector<NodeId> local(static_cast<std::size_t>(parent.size()), -1);
  for (int i = 0; i < m; ++i) {
    const NodeId g = members[static_cast<std::size_t>(i)];
    DIMMER_REQUIRE(g >= 0 && g < parent.size(), "member id out of range");
    DIMMER_REQUIRE(i == 0 || g > members[static_cast<std::size_t>(i) - 1],
                   "members must be strictly ascending");
    positions_.push_back(parent.positions_[static_cast<std::size_t>(g)]);
    // Compose through the parent's own mapping so nested restrictions still
    // key external shadowing on the original topology's ids.
    parent_ids_.push_back(parent.parent_id(g));
    local[static_cast<std::size_t>(g)] = i;
  }
  // Copy the member rows' stored entries bit-for-bit; ascending parent ids
  // map to ascending local ids, and a pair culled in the parent stays
  // culled here.
  gain_.row_ptr.reserve(static_cast<std::size_t>(m) + 1);
  for (NodeId a = 0; a < m; ++a) {
    const LinkCsr::Row row =
        parent.gain_.row(members[static_cast<std::size_t>(a)]);
    for (std::size_t k = 0; k < row.size; ++k) {
      const NodeId b = local[static_cast<std::size_t>(row.col[k])];
      if (b >= 0) gain_.push(b, row.val[k]);
    }
    gain_.close_row();
  }
}

Topology Topology::restricted(const std::vector<NodeId>& members) const {
  return Topology(RestrictedTag{}, *this, members);
}

double Topology::sinr_threshold_db(int frame_bytes, double target_per) {
  DIMMER_REQUIRE(target_per > 0.0 && target_per < 1.0,
                 "target_per out of (0,1)");
  // The bisection is a pure function of (frame_bytes, target_per) but costs
  // 60 per_802154 evaluations; hop_counts historically re-ran it on every
  // call (make_random_topology: up to 256 calls per topology). Memoize the
  // handful of distinct argument pairs per thread — the cached value is the
  // bisection's own output, so results are unchanged.
  struct Entry {
    int frame_bytes;
    double target_per;
    double threshold;
  };
  thread_local std::vector<Entry> cache;
  for (const Entry& e : cache)
    if (e.frame_bytes == frame_bytes && e.target_per == target_per)
      return e.threshold;

  double lo = -10.0, hi = 20.0;
  for (int i = 0; i < 60; ++i) {
    double mid = 0.5 * (lo + hi);
    if (per_802154(mid, frame_bytes) > target_per)
      lo = mid;
    else
      hi = mid;
  }
  cache.push_back(Entry{frame_bytes, target_per, hi});
  return hi;
}

std::vector<int> Topology::hop_counts(NodeId root, int frame_bytes,
                                      double tx_power_dbm) const {
  DIMMER_REQUIRE(root >= 0 && root < size(), "node id out of range");
  const double need_dbm =
      radio_.noise_floor_dbm + sinr_threshold_db(frame_bytes, 0.1);
  std::vector<int> hops(static_cast<std::size_t>(size()), -1);
  // BFS over the stored gain rows. The frontier is a plain vector consumed
  // front to back (never reallocated past n); columns are stored ascending
  // per row, so discovery order — and therefore every hop count — matches
  // the historical dense BFS that scanned all N nodes per dequeue. Culled
  // pairs are absent from the rows: their -infinity gain could never clear
  // the threshold anyway.
  std::vector<NodeId> frontier;
  frontier.reserve(static_cast<std::size_t>(size()));
  hops[static_cast<std::size_t>(root)] = 0;
  frontier.push_back(root);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const LinkCsr::Row row = gain_.row(u);
    for (std::size_t k = 0; k < row.size; ++k) {
      const NodeId v = row.col[k];
      if (hops[static_cast<std::size_t>(v)] >= 0) continue;
      if (tx_power_dbm + row.val[k] < need_dbm) continue;
      hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
      frontier.push_back(v);
    }
  }
  return hops;
}

// ---- Factories -----------------------------------------------------------

namespace {
/// Office-grade propagation: walls push the exponent up; links are solid to
/// ~15 m and marginal around ~25 m at 0 dBm, giving multi-hop office scales.
PathLossModel office_path_loss() {
  PathLossModel m;
  m.pl_d0_db = 46.0;
  m.exponent = 3.8;  // walls between offices and lab rooms
  m.shadowing_sigma_db = 4.0;
  return m;
}
}  // namespace

Topology make_line_topology(int n, double spacing_m,
                            std::uint64_t shadow_seed) {
  DIMMER_REQUIRE(n >= 2, "line topology needs >= 2 nodes");
  std::vector<Vec2> pos;
  pos.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pos.push_back({spacing_m * i, 0.0});
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_grid_topology(int rows, int cols, double spacing_m,
                            std::uint64_t shadow_seed) {
  DIMMER_REQUIRE(rows >= 1 && cols >= 1 && rows * cols >= 2,
                 "grid topology needs >= 2 nodes");
  std::vector<Vec2> pos;
  pos.reserve(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      pos.push_back({spacing_m * c, spacing_m * r});
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_random_topology(int n, double width_m, double height_m,
                              std::uint64_t seed) {
  DIMMER_REQUIRE(n >= 2, "random topology needs >= 2 nodes");
  util::Pcg32 rng(seed);
  for (int attempt = 0; attempt < 256; ++attempt) {
    std::vector<Vec2> pos;
    pos.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      pos.push_back({rng.uniform(0.0, width_m), rng.uniform(0.0, height_m)});
    Topology t(std::move(pos), office_path_loss(), RadioConstants{},
               util::hash_u64(seed, static_cast<std::uint64_t>(attempt)));
    auto hops = t.hop_counts(0);
    if (std::all_of(hops.begin(), hops.end(), [](int h) { return h >= 0; }))
      return t;
  }
  throw util::RequireError(
      "could not generate a connected random topology; "
      "box too large for the node count");
}

Topology make_office18_topology(std::uint64_t shadow_seed) {
  // 18 nodes along a 55 m office corridor with lab rooms on both sides;
  // node 0 (coordinator) sits in the first office, matching the paper's
  // 3-hop diameter at 0 dBm.
  std::vector<Vec2> pos = {
      {2.0, 3.0},   // 0: coordinator, first office
      {6.5, 9.0},   // 1
      {9.5, 2.5},   // 2
      {13.5, 9.5},  // 3
      {16.5, 3.5},  // 4
      {20.0, 9.0},  // 5
      {23.5, 2.5},  // 6
      {27.0, 9.5},  // 7
      {30.0, 4.0},  // 8
      {33.5, 10.5}, // 9
      {36.5, 2.5},  // 10
      {40.0, 9.0},  // 11
      {43.0, 3.5},  // 12
      {46.0, 10.0}, // 13
      {48.5, 4.5},  // 14
      {51.5, 10.5}, // 15
      {54.0, 2.5},  // 16
      {55.0, 9.5},  // 17
  };
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_dcube48_topology(std::uint64_t shadow_seed) {
  // 48 devices over an 85 m x 30 m multi-room floor, deterministic placement
  // (jittered grid) so the topology is stable across runs; ~4-5 hops.
  std::vector<Vec2> pos;
  pos.reserve(48);
  util::Pcg32 rng(util::hash_u64(0xDC0BEULL, shadow_seed));
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 8; ++c) {
      double x = 4.0 + c * 11.0 + rng.uniform(-3.0, 3.0);
      double y = 3.0 + r * 5.0 + rng.uniform(-1.8, 1.8);
      pos.push_back({x, y});
    }
  }
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed);
}

Topology make_campus_topology(int n, std::uint64_t shadow_seed) {
  return make_campus_topology_culled(n, shadow_seed,
                                     -std::numeric_limits<double>::infinity());
}

Topology make_campus_topology_culled(int n, std::uint64_t shadow_seed,
                                     double gain_floor_db) {
  DIMMER_REQUIRE(n >= 2, "campus topology needs >= 2 nodes");
  // Near-square layout: cols = ceil(sqrt(n)), last row possibly partial.
  // Pitch 9 m with ±2.5 m jitter keeps adjacent nodes between 4 m and
  // ~14 m apart — inside the office model's solid-link range — so the grid
  // is connected without the placement-retry loop make_random_topology
  // needs (asserted for representative sizes in tests/phy/test_topology).
  const int cols =
      std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  std::vector<Vec2> pos;
  pos.reserve(static_cast<std::size_t>(n));
  util::Pcg32 rng(util::hash_u64(0xCA3D05ULL, shadow_seed));
  for (int i = 0; i < n; ++i) {
    const int r = i / cols;
    const int c = i % cols;
    const double x = 4.0 + 9.0 * c + rng.uniform(-2.5, 2.5);
    const double y = 4.0 + 9.0 * r + rng.uniform(-2.5, 2.5);
    pos.push_back({x, y});
  }
  return Topology(std::move(pos), office_path_loss(), RadioConstants{},
                  shadow_seed, gain_floor_db);
}

double gain_cull_floor_db(const RadioConstants& radio, double cull_margin_db) {
  return radio.noise_floor_dbm - cull_margin_db;
}

}  // namespace dimmer::phy
