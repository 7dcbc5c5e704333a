#include "core/federation.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::core {

Federation::Federation(const phy::Topology& topo,
                       const phy::InterferenceField& interference,
                       FederationConfig cfg,
                       const ControllerFactory& make_controller,
                       std::uint64_t seed)
    : cfg_(std::move(cfg)), topo_(&topo) {
  const int n = topo.size();
  const int k = cfg_.n_cells;
  DIMMER_REQUIRE(k >= 1, "n_cells must be >= 1");
  DIMMER_REQUIRE(n >= 2 * k, "need >= 2 nodes per cell");
  DIMMER_REQUIRE(cfg_.sink >= 0 && cfg_.sink < n, "sink out of range");
  DIMMER_REQUIRE(cfg_.workers >= 1, "workers must be >= 1");
  DIMMER_REQUIRE(cfg_.auto_backups >= 0, "auto_backups must be >= 0");
  DIMMER_REQUIRE(cfg_.handoff_silent_epochs >= 1,
                 "handoff_silent_epochs must be >= 1");
  DIMMER_REQUIRE(cfg_.max_slots_per_round > 0,
                 "max_slots_per_round must be > 0");
  DIMMER_REQUIRE(cfg_.max_bridge_backlog > 0,
                 "max_bridge_backlog must be > 0");
  DIMMER_REQUIRE(make_controller != nullptr, "controller factory required");
  // These template knobs are per-cell and federation-owned; a global-id
  // value would silently mean different nodes in different cells.
  DIMMER_REQUIRE(cfg_.protocol.feedback_nodes.empty(),
                 "federation template must leave feedback_nodes empty");
  DIMMER_REQUIRE(cfg_.protocol.failover.backups.empty(),
                 "federation assigns backups; template must leave them empty");
  DIMMER_REQUIRE(cfg_.protocol.fault_plan.empty(),
                 "inject federation faults via fail_node, not a fault plan");

  // --- Geometric stripe partition: sort by (x, y, id), cut into k chunks.
  std::vector<phy::NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](phy::NodeId a, phy::NodeId b) {
    const phy::Vec2 pa = topo.position(a);
    const phy::Vec2 pb = topo.position(b);
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;
  });
  std::vector<std::vector<phy::NodeId>> own(static_cast<std::size_t>(k));
  std::size_t pos = 0;
  for (int c = 0; c < k; ++c) {
    std::size_t sz = static_cast<std::size_t>(n / k) +
                     (c < n % k ? std::size_t{1} : std::size_t{0});
    auto& o = own[static_cast<std::size_t>(c)];
    o.assign(order.begin() + static_cast<std::ptrdiff_t>(pos),
             order.begin() + static_cast<std::ptrdiff_t>(pos + sz));
    std::sort(o.begin(), o.end());
    pos += sz;
  }
  cell_of_.assign(static_cast<std::size_t>(n), -1);
  for (int c = 0; c < k; ++c)
    for (phy::NodeId id : own[static_cast<std::size_t>(c)])
      cell_of_[static_cast<std::size_t>(id)] = c;

  // --- Cell tree: stripes form a path; parents point toward the root
  // stripe (the sink's). Depth parity decides the schedule phase.
  root_ = cell_of_[static_cast<std::size_t>(cfg_.sink)];
  parent_.assign(static_cast<std::size_t>(k), -1);
  depth_.assign(static_cast<std::size_t>(k), 0);
  children_.assign(static_cast<std::size_t>(k), {});
  for (int c = 0; c < k; ++c) {
    if (c == root_) continue;
    const int p = c < root_ ? c + 1 : c - 1;
    parent_[static_cast<std::size_t>(c)] = p;
    depth_[static_cast<std::size_t>(c)] = c < root_ ? root_ - c : c - root_;
    children_[static_cast<std::size_t>(p)].push_back(c);
  }
  for (auto& ch : children_) std::sort(ch.begin(), ch.end());

  // --- Gateways: per child/parent edge, the strongest cross-stripe link;
  // its child-side endpoint joins BOTH member lists.
  gateway_.assign(static_cast<std::size_t>(k), -1);
  std::vector<std::vector<phy::NodeId>> members = own;
  for (int c = 0; c < k; ++c) {
    if (c == root_) continue;
    const int p = parent_[static_cast<std::size_t>(c)];
    double best = -std::numeric_limits<double>::infinity();
    phy::NodeId best_u = -1;
    // Each child-stripe node's stored links into the parent stripe, in
    // ascending (u, v) order; culled pairs are absent, as their -infinity
    // gain could never win.
    for (phy::NodeId u : own[static_cast<std::size_t>(c)]) {
      const phy::LinkCsr::Row row = topo.gains().row(u);
      for (std::size_t j = 0; j < row.size; ++j) {
        if (cell_of_[static_cast<std::size_t>(row.col[j])] != p) continue;
        if (row.val[j] > best) {
          best = row.val[j];
          best_u = u;
        }
      }
    }
    DIMMER_REQUIRE(best > -std::numeric_limits<double>::infinity(),
                   "adjacent cells share no surviving link (over-culled?)");
    gateway_[static_cast<std::size_t>(c)] = best_u;
    auto& pm = members[static_cast<std::size_t>(p)];
    auto it = std::lower_bound(pm.begin(), pm.end(), best_u);
    if (it == pm.end() || *it != best_u) pm.insert(it, best_u);
  }

  // --- Build the cells.
  cells_.reserve(static_cast<std::size_t>(k));
  metrics_.reserve(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    const auto& o = own[static_cast<std::size_t>(c)];
    CellConfig cc;
    cc.cell_id = c;
    cc.members = members[static_cast<std::size_t>(c)];
    cc.sparse_links = cfg_.sparse_links;
    cc.schedule_offset =
        (depth_[static_cast<std::size_t>(c)] % 2) * (cfg_.protocol.round_period / 2);
    cc.protocol = cfg_.protocol;
    cc.protocol.start_time += cc.schedule_offset;
    cc.protocol.sink =
        c == root_ ? cfg_.sink : gateway_[static_cast<std::size_t>(c)];
    // Leadership (coordinator + backups) skips the cell's own gateway:
    // bridging and coordination must never share a node, or one crash would
    // sever both the cell and its uplink — and the handoff proxy would be
    // dead on arrival.
    const phy::NodeId gw = gateway_[static_cast<std::size_t>(c)];
    int picked = 0;
    for (phy::NodeId id : o) {
      if (id == gw) continue;
      if (picked == 0)
        cc.coordinator = id;
      else
        cc.protocol.failover.backups.push_back(id);
      if (++picked > cfg_.auto_backups) break;
    }
    cells_.push_back(std::make_unique<Cell>(topo, interference, std::move(cc),
                                            make_controller(c),
                                            util::hash_u64(seed, static_cast<std::uint64_t>(c))));
    metrics_.push_back(std::make_unique<obs::MetricsRegistry>());
    cells_.back()->set_instrumentation(
        obs::Instrumentation{nullptr, metrics_.back().get()});
  }

  // --- Phases: cells grouped by schedule offset, ascending offset, then
  // ascending cell id (accounting order within a phase barrier).
  std::vector<sim::TimeUs> offsets;
  for (int c = 0; c < k; ++c) {
    sim::TimeUs off = cells_[static_cast<std::size_t>(c)]->schedule_offset();
    if (std::find(offsets.begin(), offsets.end(), off) == offsets.end())
      offsets.push_back(off);
  }
  std::sort(offsets.begin(), offsets.end());
  phases_.assign(offsets.size(), {});
  for (int c = 0; c < k; ++c) {
    sim::TimeUs off = cells_[static_cast<std::size_t>(c)]->schedule_offset();
    const std::size_t ph = static_cast<std::size_t>(
        std::find(offsets.begin(), offsets.end(), off) - offsets.begin());
    phases_[ph].push_back(c);
  }

  bridge_q_.resize(static_cast<std::size_t>(k));
  orphan_streak_.assign(static_cast<std::size_t>(k), 0);
  dead_.assign(static_cast<std::size_t>(k), 0);
  sources_.assign(static_cast<std::size_t>(k), {});
  origins_.assign(static_cast<std::size_t>(k), {});
}

Cell& Federation::cell(int c) {
  DIMMER_REQUIRE(c >= 0 && c < cell_count(), "cell index out of range");
  return *cells_[static_cast<std::size_t>(c)];
}

const Cell& Federation::cell(int c) const {
  DIMMER_REQUIRE(c >= 0 && c < cell_count(), "cell index out of range");
  return *cells_[static_cast<std::size_t>(c)];
}

int Federation::cell_of(phy::NodeId global) const {
  DIMMER_REQUIRE(global >= 0 &&
                     global < static_cast<phy::NodeId>(cell_of_.size()),
                 "node id out of range");
  return cell_of_[static_cast<std::size_t>(global)];
}

int Federation::parent(int c) const {
  DIMMER_REQUIRE(c >= 0 && c < cell_count(), "cell index out of range");
  return parent_[static_cast<std::size_t>(c)];
}

phy::NodeId Federation::gateway(int c) const {
  DIMMER_REQUIRE(c >= 0 && c < cell_count(), "cell index out of range");
  return gateway_[static_cast<std::size_t>(c)];
}

bool Federation::cell_dead(int c) const {
  DIMMER_REQUIRE(c >= 0 && c < cell_count(), "cell index out of range");
  return dead_[static_cast<std::size_t>(c)] != 0;
}

double Federation::mean_delivery_latency_epochs() const {
  return delivered_ > 0 ? static_cast<double>(latency_epochs_sum_) /
                              static_cast<double>(delivered_)
                        : 0.0;
}

obs::MetricsRegistry& Federation::cell_metrics(int c) {
  DIMMER_REQUIRE(c >= 0 && c < cell_count(), "cell index out of range");
  return *metrics_[static_cast<std::size_t>(c)];
}

std::vector<int> Federation::balance(const std::vector<int>& sizes,
                                     int workers) {
  DIMMER_REQUIRE(workers >= 1, "workers must be >= 1");
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sizes[a] != sizes[b] ? sizes[a] > sizes[b] : a < b;
  });
  std::vector<long long> load(static_cast<std::size_t>(workers), 0);
  std::vector<int> bin(sizes.size(), 0);
  for (std::size_t i : order) {
    const std::size_t w = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    bin[i] = static_cast<int>(w);
    load[w] += sizes[i];
  }
  return bin;
}

std::size_t Federation::add_flow(phy::NodeId global_source, sim::TimeUs ipi) {
  int c = cell_of(global_source);
  phy::NodeId src = global_source;
  // A dead home cell can never schedule the flow: register it directly in
  // the nearest alive ancestor, proxied at the gateway on the path.
  while (c != -1 && dead_[static_cast<std::size_t>(c)]) {
    src = gateway_[static_cast<std::size_t>(c)];
    c = parent_[static_cast<std::size_t>(c)];
  }
  DIMMER_REQUIRE(c != -1, "federation lost: no alive cell for this flow");
  Cell& cell = *cells_[static_cast<std::size_t>(c)];
  Flow f;
  f.source = global_source;
  f.ipi = ipi;
  f.home_cell = cell_of(global_source);
  f.current_cell = c;
  f.sched_id = cell.scheduler().add_stream(cell.to_local(src), ipi,
                                           cell.network().now());
  flows_.push_back(f);
  return flows_.size() - 1;
}

void Federation::fail_node(phy::NodeId global, bool failed) {
  for (auto& cp : cells_)
    if (cp->is_member(global))
      cp->network().set_node_failed(cp->to_local(global), failed);
}

void Federation::fail_cell_leadership(int c) {
  Cell& cl = cell(c);
  fail_node(cl.to_global(cl.network().coordinator()), true);
  for (phy::NodeId b : cl.network().config().failover.backups)
    fail_node(cl.to_global(b), true);
}

void Federation::compose_sources(int c, FederationStats& st) {
  Cell& cl = *cells_[static_cast<std::size_t>(c)];
  std::vector<phy::NodeId>& src = sources_[static_cast<std::size_t>(c)];
  std::vector<BridgedPacket>& org = origins_[static_cast<std::size_t>(c)];
  // Flow slots first (the scheduler's deadline order)...
  cl.scheduler().schedule_round_into(cl.network().now(),
                                     cfg_.max_slots_per_round, src);
  org.clear();
  for (phy::NodeId s : src) {
    org.push_back(
        BridgedPacket{cl.to_global(s), static_cast<std::uint32_t>(epoch_)});
    ++originated_;
    ++st.originated;
  }
  // ...then bridged packets from each child's gateway queue, in child order.
  for (int ch : children_[static_cast<std::size_t>(c)]) {
    BridgeQueue& q = bridge_q_[static_cast<std::size_t>(ch)];
    if (q.size() == 0) continue;
    const phy::NodeId g_local =
        cl.to_local(gateway_[static_cast<std::size_t>(ch)]);
    while (q.size() > 0 && src.size() < cfg_.max_slots_per_round) {
      src.push_back(g_local);
      org.push_back(q.pop());
    }
  }
}

void Federation::account_round(int c, FederationStats& st, double& rel_sum,
                               int& rel_cells) {
  Cell& cl = *cells_[static_cast<std::size_t>(c)];
  const RoundStats& rs = cl.last_round();
  const std::vector<BridgedPacket>& org =
      origins_[static_cast<std::size_t>(c)];

  st.total_radio_on_us += rs.total_radio_on_us;
  if (rs.orphaned) ++st.orphaned_cells;
  if (!dead_[static_cast<std::size_t>(c)]) {
    rel_sum += rs.reliability;
    st.min_reliability = std::min(st.min_reliability, rs.reliability);
    ++rel_cells;
  }

  for (std::size_t s = 0; s < rs.sink_received.size(); ++s) {
    if (!rs.sink_received[s]) continue;
    if (c == root_) {
      ++delivered_;
      ++st.delivered;
      latency_epochs_sum_ += epoch_ - org[s].born_epoch + 1;
    } else {
      BridgeQueue& q = bridge_q_[static_cast<std::size_t>(c)];
      if (q.size() >= cfg_.max_bridge_backlog) {
        (void)q.pop();  // drop-oldest keeps the queue bounded
        ++dropped_;
      }
      q.push(org[s]);
      ++st.bridged;
    }
  }

  // The inter-cell handoff state machine: failover inside the cell gets
  // first shot (a backup takeover clears the orphan streak); only a cell
  // whose coordinator AND backups are all gone stays orphaned long enough.
  if (!dead_[static_cast<std::size_t>(c)]) {
    if (rs.orphaned) {
      if (++orphan_streak_[static_cast<std::size_t>(c)] >=
          cfg_.handoff_silent_epochs)
        handoff(c, st);
    } else {
      orphan_streak_[static_cast<std::size_t>(c)] = 0;
    }
  }
}

void Federation::handoff(int c, FederationStats& st) {
  dead_[static_cast<std::size_t>(c)] = 1;
  ++handoffs_;
  ++st.handoffs;

  int a = parent_[static_cast<std::size_t>(c)];
  phy::NodeId g = gateway_[static_cast<std::size_t>(c)];
  while (a != -1 && dead_[static_cast<std::size_t>(a)]) {
    g = gateway_[static_cast<std::size_t>(a)];
    a = parent_[static_cast<std::size_t>(a)];
  }
  if (a == -1) {
    // The root (or its whole ancestor chain) is gone: nobody can schedule
    // toward the sink anymore.
    lost_ = true;
    st.lost = true;
    for (Flow& f : flows_) {
      if (f.current_cell != c) continue;
      cells_[static_cast<std::size_t>(c)]->scheduler().remove_stream(
          f.sched_id);
      f.current_cell = -1;
    }
    return;
  }

  // Re-register the dead cell's flows in the ancestor's schedule, sourced
  // at the gateway on the path (a member of that ancestor): the neighbor
  // coordinator now allocates their slots.
  Cell& anc = *cells_[static_cast<std::size_t>(a)];
  const phy::NodeId proxy = anc.to_local(g);
  for (Flow& f : flows_) {
    if (f.current_cell != c) continue;
    cells_[static_cast<std::size_t>(c)]->scheduler().remove_stream(f.sched_id);
    f.sched_id =
        anc.scheduler().add_stream(proxy, f.ipi, anc.network().now());
    f.current_cell = a;
  }
}

FederationStats Federation::run_epoch() {
  FederationStats st;
  st.epoch = epoch_;
  double rel_sum = 0.0;
  int rel_cells = 0;

  for (const std::vector<int>& phase : phases_) {
    // Barrier 1 (sequential, ascending cell id): schedule flows and drain
    // gateway queues into this phase's source lists.
    for (int c : phase) compose_sources(c, st);

    // Parallel section: cells of one phase share no mutable state.
    const int w =
        std::min(cfg_.workers, static_cast<int>(phase.size()));
    if (w <= 1) {
      for (int c : phase)
        (void)cells_[static_cast<std::size_t>(c)]->run_round(
            sources_[static_cast<std::size_t>(c)]);
    } else {
      std::vector<int> sizes;
      sizes.reserve(phase.size());
      for (int c : phase)
        sizes.push_back(cells_[static_cast<std::size_t>(c)]->size());
      const std::vector<int> bin = balance(sizes, w);
      auto run_bin = [&](int b) {
        for (std::size_t i = 0; i < phase.size(); ++i)
          if (bin[i] == b)
            (void)cells_[static_cast<std::size_t>(phase[i])]->run_round(
                sources_[static_cast<std::size_t>(phase[i])]);
      };
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(w - 1));
      for (int b = 1; b < w; ++b) threads.emplace_back(run_bin, b);
      run_bin(0);
      for (std::thread& t : threads) t.join();
    }

    // Barrier 2 (sequential, ascending cell id): bridge, deliver, and run
    // the handoff state machine — identical for any worker count.
    for (int c : phase) account_round(c, st, rel_sum, rel_cells);
  }

  st.cells_alive = rel_cells;
  st.mean_reliability = rel_cells > 0 ? rel_sum / rel_cells : 1.0;
  st.lost = lost_;
  ++epoch_;
  return st;
}

void Federation::set_instrumentation(obs::TraceSink* trace) {
  for (std::size_t c = 0; c < cells_.size(); ++c)
    cells_[c]->set_instrumentation(
        obs::Instrumentation{trace, metrics_[c].get()});
}

}  // namespace dimmer::core
