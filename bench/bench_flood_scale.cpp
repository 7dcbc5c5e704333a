// Flood scaling benchmark: culled vs unculled link rows on 1000+-node
// campus topologies.
//
// For each size the harness times cycling-initiator floods through (a) the
// sparse leg: GlossyFlood over a SparseLinkModel of a construction-culled
// Topology (make_campus_topology_culled at a 20 dB margin below the noise
// floor; CSR scatter + zero-power listener skip), so neither the topology
// nor the link model ever holds N^2 entries, and (b) the "dense" leg:
// GlossyFlood over its own SparseLinkModel of make_campus_topology(n),
// i.e. unculled CSR rows holding all N^2 links, which the engine sweeps as
// a row-major matrix, every listener every step. It reports the sparse
// leg's construction time (topology build and link build), ns/step,
// floods/sec and delivery ratio for both legs, plus the storage story at
// both layers: link-model nnz/CSR bytes and topology gain nnz/bytes against
// a dense 8*N^2 matrix. The dense leg is skipped above kDenseMaxNodes —
// holding (and sweeping) every link at 4096 nodes is exactly the cost
// culling exists to avoid.
//
// Timing fields here are measurements, not simulation outputs: this file is
// exempt from the byte-identity rule that covers the figure benches.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "exp/json.hpp"
#include "flood/glossy.hpp"
#include "flood/workspace.hpp"
#include "phy/link_model.hpp"
#include "phy/topology.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"
#include "util/wallclock.hpp"

using namespace dimmer;

namespace {

/// Largest size the dense comparison leg still runs at (N^2 = 4M stored
/// links per layer; beyond this the leg is measured as absent, not slow).
constexpr int kDenseMaxNodes = 2048;

struct Timing {
  double seconds = 0.0;
  long long steps = 0;
  int floods = 0;
  double delivery_sum = 0.0;

  double floods_per_sec() const {
    return seconds > 0.0 ? floods / seconds : 0.0;
  }
  double ns_per_step() const {
    return steps > 0 ? seconds * 1e9 / static_cast<double>(steps) : 0.0;
  }
  double mean_delivery() const {
    return floods > 0 ? delivery_sum / floods : 0.0;
  }
};

flood::FloodParams params_for(int flood_idx) {
  flood::FloodParams p;
  // Campus floods cross tens of hops: give the wave a 60 ms slot (~51
  // steps) instead of the paper's 20 ms office slot.
  p.slot_len_us = sim::ms(60);
  p.slot_start_us = static_cast<sim::TimeUs>(flood_idx) * sim::ms(80);
  return p;
}

Timing time_engine(const flood::GlossyFlood& engine, int n, int floods,
                   std::uint64_t seed) {
  std::vector<flood::NodeFloodConfig> cfgs(static_cast<std::size_t>(n),
                                           flood::NodeFloodConfig{2, true});
  flood::FloodWorkspace ws;
  flood::FloodResult r;
  util::Pcg32 rng(seed);
  engine.run_into(0, cfgs, params_for(0), rng, ws, r);  // warm-up: builds
                                                        // the link cache
  Timing t;
  const double t0 = util::wallclock_seconds();
  for (int k = 0; k < floods; ++k) {
    engine.run_into(k % n, cfgs, params_for(k), rng, ws, r);
    t.steps += r.steps_simulated;
    t.delivery_sum += r.delivery_ratio();
  }
  t.seconds = util::wallclock_seconds() - t0;
  t.floods = floods;
  return t;
}

}  // namespace

int main() {
  // DIMMER_BENCH_SCALE shrinks the node counts themselves (CI smoke at 0.1
  // runs 128/256/512); the full campaign covers 1k/2k/4k.
  const std::vector<int> sizes = {bench::scaled(1024, 128),
                                  bench::scaled(2048, 256),
                                  bench::scaled(4096, 512)};
  const int floods = bench::scaled(20, 5);
  const std::uint64_t seed = 2026;

  std::printf("simd backend: %s\n\n", util::simd::backend_name());
  std::printf("%-6s %9s %9s %10s %12s %12s %12s %10s %10s %8s %9s %9s\n",
              "nodes", "topo s", "link s", "nnz", "sparse B", "topo B",
              "dense B", "sp ns/st", "dn ns/st", "speedup", "sp deliv",
              "dn deliv");

  std::string rows;
  bool ok = true;
  for (int n : sizes) {
    // Construction-culled topology, 20 dB below the noise floor at 0 dBm
    // TX: surviving gains are bit-identical to make_campus_topology(n), and
    // no N^2 gain set is ever built.
    const double gain_floor =
        phy::gain_cull_floor_db(phy::RadioConstants{}, 20.0);
    const util::Stopwatch topo_clock;
    phy::Topology topo =
        phy::make_campus_topology_culled(n, 1, gain_floor);
    const double topo_build_s = topo_clock.seconds();
    phy::InterferenceField field;  // clean band: pure engine scaling

    phy::SparseLinkModel sparse_links(topo);
    const util::Stopwatch link_clock;
    (void)sparse_links.prepare_sparse(params_for(0).tx_power_dbm);
    const double link_build_s = link_clock.seconds();
    flood::GlossyFlood sparse_engine(sparse_links, field);
    Timing sp = time_engine(sparse_engine, n, floods, seed);

    const auto un = static_cast<std::size_t>(n);
    const std::size_t dense_bytes = sizeof(double) * un * un;
    const bool run_dense = n <= kDenseMaxNodes;
    Timing dn;
    if (run_dense) {
      phy::Topology dense_topo = phy::make_campus_topology(n);
      flood::GlossyFlood dense_engine(dense_topo, field);
      dn = time_engine(dense_engine, n, floods, seed);
    }

    const double speedup =
        run_dense && sp.ns_per_step() > 0.0
            ? dn.ns_per_step() / sp.ns_per_step()
            : 0.0;
    std::printf("%-6d %9.3f %9.3f %10zu %12zu %12zu %12zu %10.1f %10s %7s "
                "%9.3f %9s\n",
                n, topo_build_s, link_build_s, sparse_links.nnz(),
                sparse_links.storage_bytes(),
                topo.gain_storage_bytes(), dense_bytes, sp.ns_per_step(),
                run_dense ? std::to_string(static_cast<long long>(
                                dn.ns_per_step()))
                                .c_str()
                          : "-",
                run_dense
                    ? (std::to_string(speedup).substr(0, 5) + "x").c_str()
                    : "-",
                sp.mean_delivery(),
                run_dense
                    ? std::to_string(dn.mean_delivery()).substr(0, 5).c_str()
                    : "-");

    // The point of the backend: storage scales with survivors, not N^2. At
    // smoke sizes (a 128-node campus fits inside one culling radius) the CSR
    // bookkeeping can exceed the tiny dense matrix, so the bar only binds at
    // the campaign's real scales.
    if (n >= 1024 && sparse_links.storage_bytes() >= dense_bytes) {
      std::cerr << "SPARSE STORAGE NOT SMALLER THAN DENSE at n=" << n << "\n";
      ok = false;
    }
    if (n >= 1024 && topo.gain_storage_bytes() >= dense_bytes) {
      std::cerr << "TOPOLOGY GAIN STORAGE NOT SMALLER THAN DENSE at n=" << n
                << "\n";
      ok = false;
    }
    // Culling must not collapse the flood itself.
    if (sp.mean_delivery() < 0.5) {
      std::cerr << "SPARSE DELIVERY COLLAPSED at n=" << n << " ("
                << sp.mean_delivery() << ")\n";
      ok = false;
    }

    if (!rows.empty()) rows += ",";
    rows += "{\"nodes\": " + std::to_string(n) +
            ", \"floods\": " + std::to_string(floods) +
            ", \"topo_build_s\": " + util::json_number(topo_build_s) +
            ", \"link_build_s\": " + util::json_number(link_build_s) +
            ", \"nnz\": " + std::to_string(sparse_links.nnz()) +
            ", \"sparse_bytes\": " +
            std::to_string(sparse_links.storage_bytes()) +
            ", \"topo_gain_nnz\": " + std::to_string(topo.gain_nnz()) +
            ", \"topo_gain_bytes\": " +
            std::to_string(topo.gain_storage_bytes()) +
            ", \"dense_bytes\": " + std::to_string(dense_bytes) +
            ", \"sparse\": {\"floods_per_sec\": " +
            util::json_number(sp.floods_per_sec()) +
            ", \"ns_per_step\": " + util::json_number(sp.ns_per_step()) +
            ", \"delivery_ratio\": " + util::json_number(sp.mean_delivery()) +
            "}, \"dense\": " +
            (run_dense
                 ? "{\"floods_per_sec\": " +
                       util::json_number(dn.floods_per_sec()) +
                       ", \"ns_per_step\": " +
                       util::json_number(dn.ns_per_step()) +
                       ", \"delivery_ratio\": " +
                       util::json_number(dn.mean_delivery()) + "}"
                 : std::string("null")) +
            ", \"speedup_ns_per_step\": " + util::json_number(speedup) + "}";
  }

  const std::string json =
      "{\"bench\": \"flood_scale\", \"schema_version\": 1, "
      "\"simd_backend\": " +
      util::json_quote(util::simd::backend_name()) + ", \"sizes\": [" +
      rows + "]}\n";
  std::cout << "\n";
  if (!exp::write_artifact("flood_scale", json, &std::cout)) return 1;

  return ok ? 0 : 1;
}
