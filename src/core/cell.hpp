// One LWB cell of a multi-cell federation.
//
// A Cell is the single-network core (DimmerNetwork + lwb::Scheduler) wrapped
// with the three things federation needs and the paper's single-cell design
// never had (DESIGN.md §15):
//
//  - Node-id remapping: the cell simulates over a Topology::restricted()
//    sub-topology whose local ids 0..m-1 map to the federation's global
//    topology ids. Every gain a member pair shares is copied bit-for-bit
//    from the global topology, culled links included, and the cell's
//    DimmerNetwork owns the link model over those rows. So a cell covering
//    *all* nodes is provably byte-identical to a bare DimmerNetwork over
//    the global topology (tests/core/test_cell.cpp asserts FloodResult and
//    RNG end-state).
//  - A per-cell RNG stream: each cell draws from its own seed (the
//    federation derives seeds via util::hash_u64(federation_seed, cell_id)),
//    so cells stay in RNG lockstep regardless of how many of them run or in
//    which order/threads they are stepped.
//  - Per-cell observability tagging: set_instrumentation wraps the trace
//    sink in a TaggedSink("cell", "<id>"), and the federation gives each
//    cell its own MetricsRegistry, so city-scale traces stay attributable.
//
// The cell's protocol sink doubles as its *uplink*: for non-root cells the
// federation points it at the gateway node, so RoundStats::sink_received
// directly answers "did the gateway hear this slot's packet?" — the bridging
// predicate (see federation.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "lwb/scheduler.hpp"

namespace dimmer::core {

struct CellConfig {
  int cell_id = 0;
  /// Strictly ascending GLOBAL node ids (>= 2). Gateways shared with a
  /// neighbor cell appear in both cells' member lists.
  std::vector<phy::NodeId> members;
  /// Coordinator, GLOBAL id; must be a member.
  phy::NodeId coordinator = -1;
  /// Per-cell protocol configuration. sink, failover.backups and
  /// feedback_nodes are GLOBAL ids (remapped internally; -1 sink stays -1 =
  /// the cell coordinator). fault_plan node ids are cell-LOCAL: fault plans
  /// are authored against one cell's own timeline.
  ProtocolConfig protocol;
  /// This cell's round-start offset inside the federation round period.
  /// Neighboring cells get opposite parity offsets so a shared gateway is
  /// never in two overlapping rounds (federation.hpp).
  sim::TimeUs schedule_offset = 0;
};

class Cell {
 public:
  /// `seed` seeds the cell's own protocol RNG stream. The global topology
  /// and interference field must outlive the cell.
  Cell(const phy::Topology& global_topo,
       const phy::InterferenceField& interference, CellConfig cfg,
       std::unique_ptr<AdaptivityController> controller, std::uint64_t seed);

  int id() const { return cfg_.cell_id; }
  int size() const { return static_cast<int>(cfg_.members.size()); }
  sim::TimeUs schedule_offset() const { return cfg_.schedule_offset; }
  const std::vector<phy::NodeId>& members() const { return cfg_.members; }

  // -- Id remapping ---------------------------------------------------------
  bool is_member(phy::NodeId global) const;
  /// Local id of a member; throws for non-members.
  phy::NodeId to_local(phy::NodeId global) const;
  /// Global id of a local node.
  phy::NodeId to_global(phy::NodeId local) const;

  // -- The wrapped single-cell core ----------------------------------------
  DimmerNetwork& network() { return *net_; }
  const DimmerNetwork& network() const { return *net_; }
  lwb::Scheduler& scheduler() { return sched_; }
  const lwb::Scheduler& scheduler() const { return sched_; }
  /// The restricted per-cell topology (local ids).
  const phy::Topology& topology() const { return topo_; }

  /// Executes one round with LOCAL-id sources (the federation schedules in
  /// local ids: scheduler streams and bridge slots are registered locally).
  /// Returns the pooled per-cell RoundStats, valid until the next call.
  const RoundStats& run_round(const std::vector<phy::NodeId>& local_sources);
  /// The pooled stats of the most recent round (run_round's return value).
  const RoundStats& last_round() const { return round_buf_; }

  /// Tags the trace sink with cell=<id> and forwards to the network and
  /// scheduler. Give each cell its own MetricsRegistry for per-cell metrics.
  void set_instrumentation(obs::Instrumentation instr);

 private:
  CellConfig cfg_;
  phy::Topology topo_;  // restricted to cfg_.members (owned; net_ borrows)
  std::unique_ptr<DimmerNetwork> net_;
  lwb::Scheduler sched_;
  std::vector<phy::NodeId> global_to_local_;  // -1 = not a member
  std::optional<obs::TaggedSink> tagged_;
  RoundStats round_buf_;  // pooled across rounds (zero-alloc steady state)
};

}  // namespace dimmer::core
