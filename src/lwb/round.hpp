// LWB round structure on top of Glossy floods.
//
// A round starts with a control slot (the coordinator floods the schedule and
// — in Dimmer — the adaptivity command), followed by one data slot per
// scheduled source. The RoundExecutor runs the floods, maintains each node's
// synchronization state, and reports per-slot outcomes that the protocol
// layers (Dimmer, static LWB, the PID baseline, Crystal) consume.
//
// Synchronization model: every node listens to every control slot. A node
// that received the schedule recently (sync_age <= max_sync_age) participates
// in data slots using its cached schedule; beyond that it is desynchronized —
// it skips data slots, its own sourced slots stay silent, and it burns
// bootstrap-listening energy until it hears a schedule again (this is the
// mechanism behind LWB's reliability/energy collapse under heavy channel-26
// jamming in the paper's Fig. 7).
#pragma once

#include <cstdint>
#include <vector>

#include "flood/glossy.hpp"
#include "phy/channels.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace dimmer::lwb {

/// Static round-level configuration (paper §V-A "Parameters").
struct RoundConfig {
  sim::TimeUs slot_len_us = sim::ms(20);   ///< max slot duration
  sim::TimeUs slot_gap_us = sim::ms(2);    ///< inter-slot processing gap
  int payload_bytes = 30;                  ///< incl. 3 B LWB + 2 B Dimmer hdr
  double tx_power_dbm = 0.0;
  phy::Channel control_channel = phy::kControlChannel;
  /// Data-slot hopping sequence; empty = single-channel operation.
  std::vector<phy::Channel> hop_sequence;
  /// Rounds a node may coast on a cached schedule before desynchronizing.
  int max_sync_age = 2;
  double coherence_gain = 0.5;
};

/// Mutable per-node protocol state the executor updates every round.
struct NodeState {
  int n_tx = 3;            ///< retransmission parameter in effect
  bool forwarder = true;   ///< false = passive receiver (Dimmer MAB role)
  int sync_age = 0;        ///< rounds since last schedule reception
  /// Crash-fault injection: a failed node's radio is off — it neither
  /// receives nor relays nor sources, and costs no energy.
  bool failed = false;
};

/// Outcome of one data slot.
struct DataSlotOutcome {
  phy::NodeId source = -1;
  phy::Channel channel = 0;
  bool source_synced = false;  ///< silent slot if the source was desynced
  flood::FloodResult flood;    ///< empty flood if !source_synced
};

/// Transient, externally-injected disruptions for one round (fed by the
/// fault layer; see src/fault). Passing nullptr / a default-constructed
/// value leaves the executor's behaviour bit-identical to the undisrupted
/// path — the zero-perturbation guarantee the fault tests assert.
struct RoundDisruptions {
  /// The schedule packet is corrupt: the control flood runs and costs the
  /// usual energy, but no node can use its contents — nobody resyncs and
  /// the new N_TX command is not applied (the coordinator itself keeps its
  /// locally-generated schedule).
  bool control_corrupted = false;
  /// Per-node reception blackout. A deaf node cannot receive (and therefore
  /// cannot relay) in any slot of this round; it burns full listening
  /// energy while scanning. Empty = nobody is deaf.
  std::vector<bool> deaf;

  bool deaf_node(phy::NodeId i) const {
    return !deaf.empty() && deaf[static_cast<std::size_t>(i)];
  }
};

/// Outcome of one full round. [[nodiscard]] so a computed round can never be
/// dropped on the floor unnoticed (dimmer-lint: nodiscard-result).
struct [[nodiscard]] RoundResult {
  flood::FloodResult control;
  std::vector<DataSlotOutcome> data;
  /// Per node: total radio-on time this round and slots it was awake for
  /// (for the paper's "radio-on time averaged over all slots" metric).
  std::vector<sim::TimeUs> radio_on_us;
  /// Per node: the control slot's share of radio_on_us. Unlike
  /// control.nodes[i].radio_on_us this covers disrupted paths too (orphaned
  /// rounds, deaf listeners), so stats collectors charge the right energy.
  std::vector<sim::TimeUs> control_radio_on_us;
  std::vector<int> awake_slots;
  /// Nodes that received this round's control flood (schedule + command).
  std::vector<bool> got_control;
  sim::TimeUs duration_us = 0;
};

/// Executes LWB rounds over a persistent flood engine.
///
/// The executor owns the engine (and through it the cached mW link matrix)
/// plus a FloodWorkspace and per-slot config scratch, so steady-state rounds
/// perform no per-flood heap allocations; see DESIGN.md §10. One executor
/// serves one simulation thread — run_round reuses internal scratch, so
/// concurrent calls on the same instance are not allowed (the experiment
/// runner gives every trial its own DimmerNetwork, hence its own executor).
class RoundExecutor {
 public:
  RoundExecutor(const phy::Topology& topo,
                const phy::InterferenceField& interference, RoundConfig cfg);

  /// Binds an external LinkModel backend instead of the internally-owned
  /// SparseLinkModel (non-owning; must outlive the executor), e.g. a
  /// decorator that times or counts the link seam.
  RoundExecutor(phy::LinkModel& links,
                const phy::InterferenceField& interference, RoundConfig cfg);

  /// Executes one round starting at absolute time `start`.
  /// `states` (one per node) is updated in place: sync ages advance, and the
  /// executor applies `next_n_tx` to nodes that receive the control slot
  /// (the paper: "Immediately after the control slot, all nodes apply the
  /// new N_TX parameter"). Desynchronized nodes keep their stale value.
  ///
  /// A *failed* coordinator yields an orphaned round: the control slot is
  /// silent (every alive node listens the full slot in vain and its sync age
  /// advances), while data slots still run off cached schedules until the
  /// sources desynchronize. `disruptions` injects per-round fault effects;
  /// nullptr means none.
  RoundResult run_round(sim::TimeUs start, std::uint64_t round_index,
                        phy::NodeId coordinator,
                        const std::vector<phy::NodeId>& data_sources,
                        int next_n_tx, std::vector<NodeState>& states,
                        util::Pcg32& rng,
                        const RoundDisruptions* disruptions = nullptr) const;

  /// Hot-path variant: identical semantics to run_round, but writes into a
  /// caller-owned RoundResult whose buffers (including every slot's
  /// FloodResult) are reused across rounds — with a stable source count the
  /// whole round executes without heap allocations. `result` is overwritten.
  void run_round_into(sim::TimeUs start, std::uint64_t round_index,
                      phy::NodeId coordinator,
                      const std::vector<phy::NodeId>& data_sources,
                      int next_n_tx, std::vector<NodeState>& states,
                      util::Pcg32& rng, const RoundDisruptions* disruptions,
                      RoundResult& result) const;

  const RoundConfig& config() const { return cfg_; }
  const phy::Topology& topology() const { return *topo_; }

  /// Channel used for the i-th data slot of a round (slot-based hopping).
  phy::Channel data_channel(std::uint64_t round_index,
                            std::size_t slot_index) const;

  /// Total on-air duration of a round with `n_data_slots` data slots.
  sim::TimeUs round_duration(std::size_t n_data_slots) const;

  /// Optional observability hooks; forwarded to the flood engine for every
  /// slot. Purely observational — results are identical with or without.
  void set_instrumentation(obs::Instrumentation instr) {
    instr_ = instr;
    engine_.set_instrumentation(instr);
  }

 private:
  /// Shared constructor tail: validates cfg_ and sizes the flood workspace.
  void init_from_config();

  const phy::Topology* topo_;
  RoundConfig cfg_;
  flood::GlossyFlood engine_;  ///< persistent: keeps the mW link cache warm
  obs::Instrumentation instr_;
  // Reused per-round scratch (hence "one executor per simulation thread").
  mutable flood::FloodWorkspace ws_;
  mutable std::vector<flood::NodeFloodConfig> slot_cfgs_;
  /// Warmed DataSlotOutcomes parked here when a round has fewer data slots
  /// than the last one, so a later growth recycles their buffers instead of
  /// allocating (the slot count varies round to round under federation
  /// bridging; see run_round_into).
  mutable std::vector<DataSlotOutcome> slot_pool_;
};

}  // namespace dimmer::lwb
