// Timing the interference layer from outside: replays public
// InterferenceField::sample calls over a workload's own field, topology and
// flood windows, and reports the call count and host ns per call.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/channels.hpp"
#include "phy/interference.hpp"
#include "phy/topology.hpp"
#include "sim/time.hpp"

namespace perfbench {

struct ReplayResult {
  std::uint64_t calls = 0;
  double ns_per_call = 0.0;
};

/// For every slot start, `steps` flood steps of the default flood timing,
/// every node of `topo` samples once per step. Stops after `max_calls`.
ReplayResult replay_interference(const dimmer::phy::InterferenceField& field,
                                 const dimmer::phy::Topology& topo,
                                 const std::vector<dimmer::sim::TimeUs>& slots,
                                 int steps, dimmer::phy::Channel channel,
                                 std::uint64_t max_calls);

}  // namespace perfbench
