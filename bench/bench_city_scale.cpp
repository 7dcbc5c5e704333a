// City-scale federation benchmark (DESIGN.md §15).
//
// The paper's central-coordinator design tops out at one LWB cell; this
// harness exercises the multi-cell federation on a 1024-node campus
// topology partitioned into 8 cells; the topology is culled at construction,
// so every cell floods over CSR rows. Two scenarios per protocol:
//
//  - "steady": periodic flows from every cell bridge hop-by-hop across
//    gateways to the global sink; no faults.
//  - "coord-kill": one third into the run the deepest cell's coordinator
//    AND all its backups are crashed. In-cell failover is impossible, so
//    after `handoff_silent_epochs` orphaned epochs the federation hands the
//    cell's flows to its parent, where the shared gateway proxies them —
//    delivery must continue after the handoff (checked below).
//
// Every (scenario, protocol, run) cell is one trial via bench::run_sweep
// (exp::Runner with DIMMER_JOBS workers, or the sharded campaign engine
// under DIMMER_CAMPAIGN_DIR). Within a trial, DIMMER_FED_WORKERS threads
// step the cells of each schedule phase (Federation::balance partitions
// cells across them). BENCH_city_scale.json is byte-identical for any
// DIMMER_JOBS, shard count, and DIMMER_FED_WORKERS value — trials share
// nothing, and the federation's bridging/accounting barriers are
// single-threaded in cell order.
//
// DIMMER_BENCH_SCALE shrinks the epoch count for smoke runs; the topology
// stays at 1024 nodes / 8 cells (the point of the bench).
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/pid.hpp"
#include "bench/common.hpp"
#include "core/controller.hpp"
#include "core/federation.hpp"
#include "core/scenarios.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "phy/topology.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/wallclock.hpp"

using namespace dimmer;

namespace {

constexpr int kNodes = 1024;
constexpr int kCells = 8;

int fed_workers() {
  return util::env_positive_int("DIMMER_FED_WORKERS").value_or(1);
}

std::unique_ptr<core::AdaptivityController> cell_controller(
    const std::string& protocol) {
  if (protocol == "pid") return std::make_unique<baselines::PidController>();
  return std::make_unique<core::StaticController>(3);
}

/// The cell farthest from the root in the stripe path — the kill victim.
int deepest_cell(const core::Federation& fed) {
  int best = 0, best_depth = -1;
  for (int c = 0; c < fed.cell_count(); ++c) {
    int d = 0;
    for (int p = fed.parent(c); p != -1; p = fed.parent(p)) ++d;
    if (d > best_depth) {
      best_depth = d;
      best = c;
    }
  }
  return best;
}

}  // namespace

int main() {
  const int epochs = bench::scaled(240, 20);  // 16 min of 4 s rounds
  const int kill_epoch = epochs / 3;
  const int workers = fed_workers();
  const char* protocols[] = {"lwb", "pid"};
  const char* scenarios[] = {"steady", "coord-kill"};
  const int runs = bench::scaled(2, 1);

  std::vector<exp::TrialSpec> specs;
  for (const char* scen : scenarios) {
    for (const char* proto : protocols) {
      for (int run = 0; run < runs; ++run) {
        exp::TrialSpec s;
        s.scenario = std::string(proto) + "@" + scen;
        const std::uint64_t variant =
            (std::string(scen) == "coord-kill" ? 2u : 0u) +
            (std::string(proto) == "pid" ? 1u : 0u);
        s.seed = util::hash_u64(0xC17FEDULL, variant,
                                static_cast<std::uint64_t>(run));
        s.params["run"] = run;
        s.params["kill"] = std::string(scen) == "coord-kill" ? 1.0 : 0.0;
        s.tags["protocol"] = proto;
        s.tags["scenario"] = scen;
        specs.push_back(std::move(s));
      }
    }
  }

  auto trial = [&](const exp::TrialSpec& spec, util::Pcg32&) {
    phy::Topology topo = phy::make_campus_topology_culled(
        kNodes, 42,
        phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0));
    phy::InterferenceField field;
    core::add_office_ambient(field, topo);

    core::FederationConfig fc;
    fc.n_cells = kCells;
    fc.sink = 0;
    fc.workers = workers;
    const std::string protocol = spec.tags.at("protocol");
    core::Federation fed(
        topo, field, fc,
        [&protocol](int) { return cell_controller(protocol); }, spec.seed);

    // Two periodic flows per cell, picked mid-list and high so they never
    // collide with the auto-assigned leadership (the lowest non-gateway
    // member ids).
    const sim::TimeUs ipi = fc.protocol.round_period;
    for (int c = 0; c < fed.cell_count(); ++c) {
      const auto& m = fed.cell(c).members();
      (void)fed.add_flow(m[m.size() / 2], ipi);
      phy::NodeId hi = m[m.size() - 2];
      if (hi == fed.gateway(c)) hi = m[m.size() - 3];
      (void)fed.add_flow(hi, ipi);
    }

    const bool kill = spec.params.at("kill") > 0.0;
    const int victim = deepest_cell(fed);

    util::RunningStats rel, radio_ms;
    double min_rel = 1.0;
    std::uint64_t delivered_pre_kill = 0;
    int orphaned_epoch_cells = 0;
    for (int e = 0; e < epochs; ++e) {
      if (kill && e == kill_epoch) {
        delivered_pre_kill = fed.packets_delivered();
        fed.fail_cell_leadership(victim);
      }
      core::FederationStats st = fed.run_epoch();
      rel.add(st.mean_reliability);
      min_rel = std::min(min_rel, st.min_reliability);
      radio_ms.add(sim::to_ms(st.total_radio_on_us));
      orphaned_epoch_cells += st.orphaned_cells;
    }

    exp::TrialResult r;
    if (fed.packets_originated() == 0) {
      r.ok = false;
      r.error = "no packets originated";
      return r;
    }
    if (kill) {
      if (fed.handoff_count() < 1) {
        r.ok = false;
        r.error = "coordinator kill produced no inter-cell handoff";
        return r;
      }
      if (fed.lost()) {
        r.ok = false;
        r.error = "federation lost: handoff chain reached the root";
        return r;
      }
      if (fed.packets_delivered() <= delivered_pre_kill) {
        r.ok = false;
        r.error = "no deliveries after the inter-cell handoff";
        return r;
      }
    } else if (fed.handoff_count() != 0) {
      r.ok = false;
      r.error = "spurious handoff in the steady scenario";
      return r;
    }

    r.metrics["delivery_ratio"] =
        static_cast<double>(fed.packets_delivered()) /
        static_cast<double>(fed.packets_originated());
    r.metrics["mean_reliability"] = rel.mean();
    r.metrics["min_reliability"] = min_rel;
    r.metrics["latency_epochs"] = fed.mean_delivery_latency_epochs();
    r.metrics["radio_on_ms_per_epoch"] = radio_ms.mean();
    r.metrics["handoffs"] = fed.handoff_count();
    r.metrics["orphaned_epoch_cells"] = orphaned_epoch_cells;
    r.metrics["dropped"] = static_cast<double>(fed.packets_dropped());
    r.stats["mean_reliability"] = rel;
    r.stats["radio_on_ms_per_epoch"] = radio_ms;
    // Per-cell registries merged in ascending cell order: deterministic for
    // any worker count.
    for (int c = 0; c < fed.cell_count(); ++c)
      r.registry.merge(fed.cell_metrics(c));
    return r;
  };

  util::Stopwatch sw;
  bench::Sweep sweep = bench::run_sweep(std::move(specs), trial);
  std::vector<exp::Trial>& trials = sweep.trials;
  double wall = sw.seconds();
  bench::require_all_ok(trials);

  util::Table t({"scenario", "protocol", "delivery", "mean rel", "min rel",
                 "latency [ep]", "radio-on [ms/ep]", "handoffs"});
  for (const char* scen : scenarios) {
    for (const char* proto : protocols) {
      std::string scenario = std::string(proto) + "@" + scen;
      t.add_row(
          {scen, proto,
           util::Table::pct(
               exp::metric_stats(trials, scenario, "delivery_ratio").mean(), 1),
           util::Table::pct(
               exp::metric_stats(trials, scenario, "mean_reliability").mean(),
               2),
           util::Table::pct(
               exp::metric_stats(trials, scenario, "min_reliability").mean(),
               2),
           util::Table::num(
               exp::metric_stats(trials, scenario, "latency_epochs").mean()),
           util::Table::num(exp::metric_stats(trials, scenario,
                                              "radio_on_ms_per_epoch")
                                .mean()),
           util::Table::num(
               exp::metric_stats(trials, scenario, "handoffs").mean(), 1)});
    }
  }

  std::cout << "City-scale federation: " << kNodes << " nodes, " << kCells
            << " cells, sparse links, " << epochs << " epochs, " << workers
            << " federation worker(s)\n\n";
  t.print(std::cout);
  std::cout << "\n(coord-kill crashes the deepest cell's coordinator and"
               " every backup at epoch " << kill_epoch
            << "; the federation hands its flows to the parent cell via the"
               " shared gateway)\n";
  return bench::finish("city_scale", trials, sweep.jobs, wall);
}
