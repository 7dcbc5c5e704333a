// Multi-cell federation of LWB cells with gateway bridging (DESIGN.md §15).
//
// The paper's central-coordinator design is its own stated scalability
// limit: one LWB host schedules every node. Federation composes many cells —
// each a full single-cell core (core::Cell: DimmerNetwork + scheduler +
// failover) over a restricted sub-topology — into one city-scale network:
//
//  - Deterministic geometric partitioner: nodes are sorted by position
//    (x, then y, then id) and split into `n_cells` contiguous stripes of
//    near-equal size. Same topology + same cell count = same partition,
//    on every machine and for any worker count.
//  - Cell tree + gateways: stripes form a path; each cell's parent is its
//    neighbor stripe toward the root cell (the one containing the global
//    sink). For every child/parent edge the strongest cross-stripe link is
//    found and its child-side endpoint becomes the *gateway*: a node that is
//    a member of BOTH cells. The child cell's protocol sink points at the
//    gateway, so RoundStats::sink_received answers "did the gateway hear
//    this slot?" — packets the gateway heard are queued and re-sourced by
//    the gateway in the parent cell's next round, hop by hop to the root.
//  - Offset round schedules: a cell's round starts at
//    (tree depth % 2) * round_period / 2 into the federation epoch. The
//    stripe tree is bipartite, so a gateway's two cells always run in
//    opposite phases — it is never in two overlapping rounds.
//  - Inter-cell handoff: coordinator failover (FailoverConfig) is per cell;
//    when a cell's coordinator AND all its backups die, its rounds stay
//    orphaned, and after `handoff_silent_epochs` consecutive orphaned
//    epochs the federation declares the cell dead and re-registers its
//    flows in the nearest alive ancestor cell's schedule, sourced at the
//    gateway on the path (a member of that ancestor). The gateway proxies
//    the orphaned flows — the neighbor's coordinator now allocates their
//    slots. If the root cell dies, the federation is lost.
//  - Worker partitioning: cells of one phase share no mutable state (own
//    RNG streams, own metrics registries, pure interference field), so each
//    phase fans out across `workers` threads — cells are assigned to
//    workers by greedy size-balancing (largest first, deterministic
//    tie-break). Results are bit-identical for ANY worker count; only trace
//    line order may vary (same caveat as parallel trials).
//
// Determinism: per-cell RNG seeds derive from hash_u64(seed, cell_id);
// bridging/handoff/accounting run single-threaded at phase barriers in
// ascending cell order. bench_city_scale runs federations through
// bench::run_sweep, so BENCH_city_scale.json is byte-identical for any
// DIMMER_JOBS / campaign shard count on top.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cell.hpp"

namespace dimmer::core {

struct FederationConfig {
  int n_cells = 2;
  /// Per-cell protocol template. Cloned into every cell; sink/backups are
  /// overridden per cell (see federation rules above). round_period is the
  /// epoch length shared by all cells.
  ProtocolConfig protocol;
  /// Global sink node; its stripe becomes the root cell. Also the delivery
  /// target of every flow.
  phy::NodeId sink = 0;
  /// Read by nothing in src/: a cell's links are the ones the global
  /// topology stores. Kept only because perfbench assigns it.
  bool sparse_links = true;
  /// Per-cell backup coordinators auto-assigned (the next N lowest own-node
  /// ids after the coordinator; the cell's own gateway is never picked for
  /// leadership, so a leadership wipe-out leaves the handoff proxy alive).
  /// 0 disables failover entirely.
  int auto_backups = 2;
  /// Consecutive fully-orphaned epochs before a dead cell's flows hand off.
  int handoff_silent_epochs = 3;
  /// Scheduler slot budget per cell round (streams first, then bridged).
  std::size_t max_slots_per_round = 16;
  /// Bridge queue cap per cell; oldest packets drop beyond it.
  std::size_t max_bridge_backlog = 64;
  /// Threads stepping cells within one phase. 1 = fully sequential (and the
  /// only mode the zero-allocation steady-state audit covers).
  int workers = 1;
};

/// One epoch's aggregate outcome (every cell ran exactly one round).
struct FederationStats {
  std::uint64_t epoch = 0;
  int cells_alive = 0;
  int orphaned_cells = 0;  ///< cells whose round ran without a coordinator
  double min_reliability = 1.0;   ///< across alive cells
  double mean_reliability = 1.0;  ///< across alive cells
  std::uint64_t originated = 0;   ///< new packets sourced this epoch
  std::uint64_t bridged = 0;      ///< packets queued at gateways this epoch
  std::uint64_t delivered = 0;    ///< packets that reached the sink this epoch
  sim::TimeUs total_radio_on_us = 0;  ///< summed across all cells
  int handoffs = 0;               ///< inter-cell handoffs this epoch
  bool lost = false;              ///< root cell died: federation over
};

class Federation {
 public:
  using ControllerFactory =
      std::function<std::unique_ptr<AdaptivityController>(int cell_id)>;

  /// Partitions `topo` into cfg.n_cells cells and builds them. The factory
  /// creates each cell's adaptivity controller (cells never share one).
  Federation(const phy::Topology& topo,
             const phy::InterferenceField& interference, FederationConfig cfg,
             const ControllerFactory& make_controller, std::uint64_t seed);

  // -- Introspection --------------------------------------------------------
  int cell_count() const { return static_cast<int>(cells_.size()); }
  Cell& cell(int c);
  const Cell& cell(int c) const;
  /// Home cell of a global node (gateways belong to their own stripe).
  int cell_of(phy::NodeId global) const;
  /// Parent cell index in the cell tree; -1 for the root cell.
  int parent(int c) const;
  int root() const { return root_; }
  /// Gateway (GLOBAL id) bridging cell `c` toward its parent; -1 for root.
  phy::NodeId gateway(int c) const;
  phy::NodeId sink() const { return cfg_.sink; }
  bool cell_dead(int c) const;
  bool lost() const { return lost_; }
  int handoff_count() const { return handoffs_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t packets_originated() const { return originated_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }
  /// Mean sink latency of delivered packets, in epochs (0 before any).
  double mean_delivery_latency_epochs() const;
  /// Per-cell metrics registry (cells never share one across threads).
  obs::MetricsRegistry& cell_metrics(int c);

  /// Deterministic greedy size-balanced assignment of `sizes` items across
  /// `workers` bins (largest item first to the least-loaded bin; ties to the
  /// lowest index). Exposed for the load-balance tests.
  static std::vector<int> balance(const std::vector<int>& sizes, int workers);

  // -- Traffic --------------------------------------------------------------
  /// Registers a periodic flow from a global source node toward the sink.
  /// The flow schedules in the source's home cell (until a handoff moves
  /// it). Returns a federation-wide flow id.
  std::size_t add_flow(phy::NodeId global_source, sim::TimeUs ipi);

  /// Marks a node failed/recovered in EVERY cell it is a member of (a
  /// gateway lives in two cells; a physical crash must hit both).
  void fail_node(phy::NodeId global, bool failed);
  /// Fails cell `c`'s current coordinator and every configured backup —
  /// the inter-cell handoff trigger (bench_city_scale's kill scenario).
  void fail_cell_leadership(int c);

  /// Runs one round in every cell (phase by phase), bridges gateway
  /// traffic, and advances the handoff state machine.
  FederationStats run_epoch();

  /// Per-cell trace tagging (cell=<id>); pass a thread-safe sink when
  /// workers > 1. Metrics flow into the per-cell registries regardless.
  void set_instrumentation(obs::TraceSink* trace);

 private:
  struct Flow {
    phy::NodeId source = -1;  ///< global id of the original source
    sim::TimeUs ipi = 0;
    int home_cell = -1;
    int current_cell = -1;
    std::size_t sched_id = 0;  ///< stream id within current_cell's scheduler
  };
  struct BridgedPacket {
    phy::NodeId origin = -1;      ///< global id (gateway for proxied flows)
    std::uint32_t born_epoch = 0;
  };
  /// FIFO with head compaction: steady-state push/pop never allocates once
  /// capacity has warmed up.
  struct BridgeQueue {
    std::vector<BridgedPacket> buf;
    std::size_t head = 0;
    std::size_t size() const { return buf.size() - head; }
    void push(const BridgedPacket& p) { buf.push_back(p); }
    BridgedPacket pop() {
      BridgedPacket p = buf[head++];
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      }
      return p;
    }
  };

  void compose_sources(int c, FederationStats& st);
  void account_round(int c, FederationStats& st, double& rel_sum,
                     int& rel_cells);
  void handoff(int c, FederationStats& st);

  FederationConfig cfg_;
  const phy::Topology* topo_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics_;
  std::vector<int> cell_of_;          // global node -> home cell
  std::vector<int> parent_;           // cell -> parent cell (-1 = root)
  std::vector<phy::NodeId> gateway_;  // cell -> gateway global id (-1 = root)
  std::vector<std::vector<int>> children_;
  std::vector<int> depth_;
  int root_ = 0;

  std::vector<Flow> flows_;
  std::vector<BridgeQueue> bridge_q_;       // per cell, toward its parent
  std::vector<int> orphan_streak_;          // consecutive orphaned epochs
  std::vector<char> dead_;                  // handed-off cells
  // Per-cell per-epoch slot composition (reused; parallel vectors).
  std::vector<std::vector<phy::NodeId>> sources_;  // local ids
  std::vector<std::vector<BridgedPacket>> origins_;
  // Phase structure: cells grouped by schedule offset, ascending.
  std::vector<std::vector<int>> phases_;

  std::uint64_t epoch_ = 0;
  std::uint64_t originated_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t latency_epochs_sum_ = 0;
  int handoffs_ = 0;
  bool lost_ = false;
};

}  // namespace dimmer::core
