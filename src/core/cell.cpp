#include "core/cell.hpp"

#include <string>
#include <utility>

#include "util/check.hpp"

namespace dimmer::core {

Cell::Cell(const phy::Topology& global_topo,
           const phy::InterferenceField& interference, CellConfig cfg,
           std::unique_ptr<AdaptivityController> controller, std::uint64_t seed)
    : cfg_(std::move(cfg)), topo_(global_topo.restricted(cfg_.members)) {
  DIMMER_REQUIRE(cfg_.cell_id >= 0, "cell_id must be >= 0");

  global_to_local_.assign(static_cast<std::size_t>(global_topo.size()), -1);
  for (std::size_t i = 0; i < cfg_.members.size(); ++i)
    global_to_local_[static_cast<std::size_t>(cfg_.members[i])] =
        static_cast<phy::NodeId>(i);

  // Remap the GLOBAL-id protocol knobs into the cell-local id space.
  ProtocolConfig local = cfg_.protocol;
  if (local.sink >= 0) local.sink = to_local(local.sink);
  for (phy::NodeId& b : local.failover.backups) b = to_local(b);
  for (phy::NodeId& f : local.feedback_nodes) f = to_local(f);

  net_ = std::make_unique<DimmerNetwork>(topo_, interference, std::move(local),
                                         std::move(controller),
                                         to_local(cfg_.coordinator), seed);
}

bool Cell::is_member(phy::NodeId global) const {
  return global >= 0 &&
         global < static_cast<phy::NodeId>(global_to_local_.size()) &&
         global_to_local_[static_cast<std::size_t>(global)] >= 0;
}

phy::NodeId Cell::to_local(phy::NodeId global) const {
  DIMMER_REQUIRE(is_member(global), "node is not a member of this cell");
  return global_to_local_[static_cast<std::size_t>(global)];
}

phy::NodeId Cell::to_global(phy::NodeId local) const {
  DIMMER_REQUIRE(local >= 0 && local < size(), "local id out of range");
  return cfg_.members[static_cast<std::size_t>(local)];
}

const RoundStats& Cell::run_round(
    const std::vector<phy::NodeId>& local_sources) {
  net_->run_round_into(local_sources, round_buf_);
  return round_buf_;
}

void Cell::set_instrumentation(obs::Instrumentation instr) {
  if (instr.trace != nullptr) {
    tagged_.emplace(instr.trace, "cell", std::to_string(cfg_.cell_id));
    instr.trace = &*tagged_;
  } else {
    tagged_.reset();
  }
  net_->set_instrumentation(instr);
  sched_.set_instrumentation(instr);
}

}  // namespace dimmer::core
