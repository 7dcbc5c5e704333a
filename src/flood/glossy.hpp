// Glossy synchronous-transmission flood engine.
//
// A flood is simulated at packet granularity: time inside a slot is divided
// into steps of one frame airtime plus a software delay. The initiator
// transmits at step 0; any node that first receives at step t transmits at
// t+1 and then alternates RX/TX (Glossy's relay counting) until it has spent
// its retransmission budget N_TX, after which it turns its radio off.
// N_TX = 0 marks a *passive receiver* (Dimmer's forwarder selection): the
// node switches its radio off right after its first successful reception.
//
// Reception combines the powers of all concurrent synchronized transmitters
// (they send identical bits within <0.5 us, so there is no collision, only
// partially-coherent combining) against noise plus sampled interference.
// Bit-level constructive-interference fidelity is *not* modelled; see
// DESIGN.md ("Substitutions") for why slot-level behaviour is what Dimmer's
// control loop observes.
//
// Hot path (DESIGN.md §10): link powers come from a phy::LinkModel —
// precomputed linear-domain (mW) CSR rows, one prepare_sparse call per
// flood — rather than per-reception dBm->mW conversions, interference
// comes from a phy::InterferenceView
// (a cached source->listener table evaluated once per step, not one
// InterferenceField::sample per listener), and all per-flood scratch lives
// in a caller-owned FloodWorkspace so `run_into` allocates nothing in
// steady state. Results are bit-identical to the historical direct-Topology
// engine (asserted by tests/flood/test_differential.cpp against a frozen
// reference copy).
// Row layout (DESIGN.md §13): when every row is full (nnz == n^2) the step
// loop sweeps the rows as a contiguous matrix; when links were culled it
// scatters each transmitter's row. Either way it skips listeners that no
// stored link reaches; the scatter and the sweep are proven bit-identical
// on the same links (tests/flood/test_sparse_differential.cpp).
#pragma once

#include <memory>
#include <vector>

#include <cstdint>

#include "flood/workspace.hpp"
#include "obs/trace.hpp"
#include "phy/channels.hpp"
#include "phy/interference.hpp"
#include "phy/link_model.hpp"
#include "phy/topology.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace dimmer::flood {

/// Documented cap on airtime steps per flood slot (~1M steps; every slot the
/// paper's protocols use is < 100 steps). GlossyFlood::max_steps rejects
/// slot_len_us / step quotients above this instead of letting the 64-bit
/// quotient wrap through an int truncation.
inline constexpr int kMaxFloodSteps = 1 << 20;

/// Per-node flood configuration.
struct NodeFloodConfig {
  /// Retransmission budget. 0 = passive receiver (radio off after first RX).
  /// The initiator always transmits at least once regardless.
  int n_tx = 3;
  /// False: the node sits this flood out entirely (e.g. desynchronized).
  bool participates = true;
};

/// Flood-wide parameters.
struct FloodParams {
  phy::Channel channel = phy::kControlChannel;
  sim::TimeUs slot_start_us = 0;        ///< absolute time (interference phase)
  sim::TimeUs slot_len_us = sim::ms(20);///< paper: slots last at most 20 ms
  int payload_bytes = 30;               ///< paper: 30 B incl. LWB+Dimmer hdrs
  double tx_power_dbm = 0.0;            ///< paper: 0 dBm
  /// Fraction of the non-strongest concurrent power that combines usefully
  /// at the receiver (1 = perfectly coherent, 0 = only capture of strongest).
  double coherence_gain = 0.5;
  /// Software turnaround between RX and TX (radio stays on).
  sim::TimeUs processing_us = 25;
  /// Round index stamped on trace events (purely observational; the engine
  /// itself is round-agnostic).
  std::uint64_t trace_round = 0;
};

/// Per-node flood outcome.
struct NodeFloodResult {
  bool received = false;   ///< got the packet (initiator: trivially true)
  int first_rx_step = -1;  ///< step of first successful reception
  int transmissions = 0;   ///< times this node transmitted the packet
  sim::TimeUs radio_on_us = 0;
};

/// Whole-flood outcome. [[nodiscard]] so `run()`'s return value cannot be
/// silently discarded (dimmer-lint: nodiscard-result).
struct [[nodiscard]] FloodResult {
  std::vector<NodeFloodResult> nodes;
  /// Per node: whether it took part in the flood. Non-participants keep a
  /// default NodeFloodResult and are excluded from every aggregate below.
  std::vector<bool> participated;
  int steps_simulated = 0;
  phy::NodeId initiator = -1;

  /// All aggregate counts, computed in a single O(n) pass.
  struct Summary {
    int receivers = 0;     ///< participating non-initiator nodes that received
    int participants = 0;  ///< participating non-initiator nodes
    int transmissions = 0; ///< total TX count incl. the initiator
    sim::TimeUs radio_on_us = 0;  ///< summed over participants incl. initiator
  };
  Summary summarize() const;

  /// Number of participating non-initiator nodes that received the packet.
  int receiver_count() const { return summarize().receivers; }
  /// received / participating non-initiator nodes (1.0 if none participate).
  double delivery_ratio() const;

  /// Reinitializes in place as a flood that never happened (crashed
  /// initiator): `n_nodes` entries, no receptions, no participants, no
  /// energy. Reuses existing capacity — no allocation in steady state.
  void make_silent(int n_nodes, phy::NodeId initiator);

  /// Convenience wrapper around make_silent for fresh results.
  static FloodResult silent(int n_nodes, phy::NodeId initiator);
};

/// Flood simulator bound to a link model + interference field.
///
/// The engine carries no result-affecting state across floods; it keeps two
/// caches — the link-power cache inside its LinkModel and its
/// phy::InterferenceView of the field (rebuilt whenever the field's
/// version changes) — so a single engine instance is meant to live as long
/// as its topology (lwb::RoundExecutor owns one for the whole simulation).
/// Both caches are mutated by run_into, so like a Pcg32, one engine must not
/// run floods concurrently from multiple threads; independent trials own
/// independent engines.
class GlossyFlood {
 public:
  /// Convenience: binds an internally-owned SparseLinkModel over `topo`.
  GlossyFlood(const phy::Topology& topo, const phy::InterferenceField& interf);

  /// Binds an external LinkModel backend (non-owning; must outlive the
  /// engine). This is the seam for alternate PHY backends.
  GlossyFlood(phy::LinkModel& links, const phy::InterferenceField& interf);

  /// Number of airtime steps that fit in a slot.
  static int max_steps(const FloodParams& p, const phy::RadioConstants& radio);

  /// Step length (airtime + processing) in microseconds.
  static sim::TimeUs step_len_us(const FloodParams& p,
                                 const phy::RadioConstants& radio);

  /// Runs one flood. `configs` must have one entry per topology node.
  /// Convenience wrapper over run_into with one-shot scratch/result storage.
  FloodResult run(phy::NodeId initiator,
                  const std::vector<NodeFloodConfig>& configs,
                  const FloodParams& params, util::Pcg32& rng) const;

  /// Hot-path entry: identical semantics to run(), but every byte of
  /// per-flood state lives in `ws` and `out`, so repeated calls with the
  /// same workspace/result perform zero heap allocations (asserted by
  /// tests/flood/test_workspace.cpp). `ws` and `out` are overwritten.
  void run_into(phy::NodeId initiator,
                const std::vector<NodeFloodConfig>& configs,
                const FloodParams& params, util::Pcg32& rng,
                FloodWorkspace& ws, FloodResult& out) const;

  /// Optional observability hooks (see obs/trace.hpp). Sinks never touch the
  /// RNG stream or control flow, so results are identical with or without.
  void set_instrumentation(obs::Instrumentation instr) { instr_ = instr; }

  const phy::LinkModel& link_model() const { return *links_; }

 private:
  /// Emits flood.* metrics and the trace event; `interf_samples` and
  /// `source_evals` are the flood's listener samples and activity() calls.
  void record(const FloodResult& result, const FloodParams& params,
              double exposure_sum, std::uint64_t interf_samples,
              std::uint64_t source_evals) const;

  std::unique_ptr<phy::SparseLinkModel> owned_links_;  // only for the
                                                       // Topology convenience
                                                       // constructor
  phy::LinkModel* links_;
  const phy::InterferenceField* interf_;
  mutable phy::InterferenceView view_;  // cache over *interf_, see run_into
  obs::Instrumentation instr_;
};

}  // namespace dimmer::flood
