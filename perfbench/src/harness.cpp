#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "host.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Set-up is repeated at least kMinSetupReps times and until kSetupBudgetS
/// host seconds have passed (at most kMaxSetupReps), and the median reported:
/// cheap set-ups get enough repetitions for a steady median.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 2000;
constexpr double kSetupBudgetS = 1.5;
/// Units a pass runs at least, so that p99 has >= 10 samples beyond it.
const std::size_t kMinUnits = min_samples_for(99.0);

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx) {
  if (name == "office18-dynamic") return make_office18(ctx);
  if (name == "campus-flood") return make_campus(ctx);
  if (name == "city-federation") return make_city(ctx);
  return make_policy(ctx);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Batches run back to back for `budget_s` host seconds (and at least
/// kMinUnits units). Every batch must reproduce the first one's digest.
struct Pass {
  std::vector<double> unit_ms;
  double wall_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t failed_units = 0;
  Batch first;
  LayerMap layers;  // summed over batches
  std::map<std::string, std::vector<double>> timings;
  std::vector<std::string> errors;

  double units_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(unit_ms.size()) / wall_s : 0.0;
  }
};

Pass run_pass(Workload& w, std::uint64_t seed, double budget_s,
              Tracer* tracer) {
  Pass p;
  const double start = now_s();
  do {
    Batch b = w.run_batch(seed, tracer);
    const std::size_t n = b.unit_ms.size();
    if (n == 0) {
      p.errors.push_back("a batch ran no units");
      break;
    }
    bool bad = !b.errors.empty();
    for (const std::string& e : b.errors) p.errors.push_back(e);
    if (p.batches == 0) {
      p.first = b;
    } else if (b.digest != p.first.digest) {
      p.errors.push_back("batch " + std::to_string(p.batches) +
                         " diverged from the first batch of the same seed");
      bad = true;
    }
    if (bad) p.failed_units += n;
    p.unit_ms.insert(p.unit_ms.end(), b.unit_ms.begin(), b.unit_ms.end());
    for (const auto& [k, v] : b.layers) p.layers[k] += v;
    for (const auto& [k, v] : b.timings)
      p.timings[k].insert(p.timings[k].end(), v.begin(), v.end());
    ++p.batches;
  } while (now_s() - start < budget_s || p.unit_ms.size() < kMinUnits);
  p.wall_s = now_s() - start;
  return p;
}

int prepare(const Args& args, std::ostream& err) {
  std::filesystem::create_directories(args.work_dir);
  const Context ctx{args.work_dir};
  prepare_policy(ctx);
  err << "perfbench: caches ready in " << args.work_dir << "\n";
  return 0;
}

int print_digests(const Args& args, std::ostream& out) {
  std::filesystem::create_directories(args.work_dir);
  const Context ctx{args.work_dir};
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> w = make_workload(name, ctx);
    w->setup();
    out << name << ' ' << hex(w->run_batch(kReferenceSeed, nullptr).digest)
        << '\n';
  }
  return 0;
}

/// Per-layer metric names and units, in BENCHMARK.json's per_layer order.
const std::vector<Metric>& layer_catalog() {
  static const std::vector<Metric> catalog = {
      {"phy.topology.build_s", "s", 0}, {"phy.topology.gain_nnz", "count", 0},
      {"phy.topology.bytes", "bytes", 0}, {"phy.link.prepare_s", "s", 0},
      {"phy.link.prepare_calls", "count", 0}, {"phy.link.rebuilds", "count", 0},
      {"phy.link.nnz", "count", 0}, {"phy.link.bytes", "bytes", 0},
      {"phy.interference.sources", "count", 0},
      {"phy.interference.sample_calls", "count", 0},
      {"phy.interference.sample_ns", "ns", 0}, {"flood.run_s", "s", 0},
      {"flood.steps", "count", 0}, {"flood.node_steps", "count", 0},
      {"flood.ns_per_node_step", "ns", 0}, {"flood.transmissions", "count", 0},
      {"flood.receivers", "count", 0}, {"lwb.rounds", "count", 0},
      {"lwb.data_slots", "count", 0}, {"lwb.silent_slots", "count", 0},
      {"core.protocol.round_s", "s", 0}, {"core.protocol.self_s", "s", 0},
      {"core.controller.decide_s", "s", 0},
      {"core.controller.decisions", "count", 0},
      {"core.controller.mean_n_tx", "n_tx", 0},
      {"core.federation.epoch_s", "s", 0},
      {"core.federation.workers", "count", 0},
      {"core.federation.handoffs", "count", 0},
      {"core.federation.dropped", "count", 0},
      {"core.trace_env.collect_s", "s", 0},
      {"core.trace_env.steps", "count", 0}, {"rl.dqn.train_s", "s", 0},
      {"rl.dqn.train_steps", "count", 0}, {"rl.dqn.us_per_train_step", "us", 0},
      {"core.trace_env.eval_s", "s", 0}, {"exp.campaign.run_s", "s", 0},
      {"exp.trial_s", "s", 0}, {"exp.campaign.overhead_s", "s", 0},
      {"exp.journal.bytes", "bytes", 0}, {"exp.journal.records", "count", 0},
      {"exp.campaign.retries", "count", 0},
      {"exp.campaign.worker_deaths", "count", 0},
      {"obs.trace_overhead", "ratio", 0},
  };
  return catalog;
}

/// Recorded digests: "<workload> <16 hex digits>" per line of
/// digests/<backend>.txt. A missing file gives an empty map.
std::map<std::string, std::uint64_t> load_digests(const std::string& backend) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(std::string(PERFBENCH_DIGEST_DIR) + "/" + backend + ".txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    if (ls >> name >> digest && digest.size() == 16)
      out[name] = std::stoull(digest, nullptr, 16);
  }
  return out;
}

}  // namespace

int run(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.mode == Mode::kPrepare) return prepare(args, err);

  const Fingerprint fp = host_fingerprint();
  out << "# host " << fp.line() << "\n";
  if (!fp.release()) {
    err << "perfbench: refusing to report timings from a " << fp.build_type
        << (fp.asserts ? " build with assertions" : " build")
        << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (args.mode == Mode::kPrintDigests) return print_digests(args, out);

  std::filesystem::create_directories(args.work_dir);
  const Context ctx{args.work_dir};
  std::unique_ptr<Workload> w = make_workload(args.workload, ctx);

  std::vector<double> setup_times;
  const double setup_start = now_s();
  while (setup_times.size() < kMinSetupReps ||
         (now_s() - setup_start < kSetupBudgetS &&
          setup_times.size() < kMaxSetupReps)) {
    const double t0 = now_s();
    w->setup();
    setup_times.push_back(now_s() - t0);
  }

  // End-to-end numbers come from the untraced pass only. A traced run
  // splits its time between an untraced and a traced pass so that it can
  // report the tracing overhead and compare their outputs.
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  Pass plain = run_pass(*w, args.seed, budget, nullptr);
  std::vector<std::string> errors = plain.errors;
  std::uint64_t attempted = plain.unit_ms.size();
  std::uint64_t failed = plain.failed_units;

  std::unique_ptr<Tracer> tracer;
  Pass traced;
  if (args.trace) {
    tracer = std::make_unique<Tracer>();
    traced = run_pass(*w, args.seed, budget, tracer.get());
    attempted += traced.unit_ms.size();
    failed += traced.failed_units;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    if (traced.first.digest != plain.first.digest) {
      errors.push_back("traced outputs differ from untraced outputs");
      failed += traced.unit_ms.size();
    }
  }

  // Recorded digest of the reference seed for this build's SIMD backend.
  std::uint64_t ref = plain.first.digest;
  if (args.seed != kReferenceSeed) {
    Batch rb = w->run_batch(kReferenceSeed, nullptr);
    attempted += rb.unit_ms.size();
    ref = rb.digest;
    for (const std::string& e : rb.errors) errors.push_back("reference: " + e);
  }
  const auto recorded = load_digests(fp.backend);
  const auto it = recorded.find(args.workload);
  if (it == recorded.end()) {
    errors.push_back("no digest recorded for backend " + fp.backend);
  } else if (it->second != ref) {
    errors.push_back("reference digest " + hex(ref) + " != recorded " +
                     hex(it->second) + " (backend " + fp.backend + ")");
  }
  // Outputs that cannot be trusted make every unit of the run a failure.
  if (!errors.empty()) failed = attempted;

  const std::size_t n = plain.unit_ms.size();
  out << "# workload " << args.workload << " seed " << args.seed << ": "
      << n << " " << w->unit() << "s in " << plain.batches
      << " batches over " << plain.wall_s << " s; p"
      << highest_supported_percentile(n)
      << " is the highest percentile with >= " << kTailSamples
      << " samples beyond it\n";
  for (const std::string& e : errors) out << "# FAILED: " << e << "\n";

  std::vector<Metric> reported;
  if (!args.trace) {
    reported = {
        {"setup_s", "s", median(setup_times)},
        {"units_per_s", "units/s", plain.units_per_s()},
        {"unit_ms_p50", "ms", percentile(plain.unit_ms, 50.0)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    // Printed but kept out of the gated JSON metrics: on a shared host, a
    // few seconds of slow-down move the slowest 1% of units, so p99 varied
    // by more than any usable regression bound from run to run.
    std::vector<Metric> extra = {
        {"unit_ms_p99", "ms", percentile(plain.unit_ms, 99.0)}};
    for (const auto& [k, v] : plain.timings) extra.push_back({k, "s", median(v)});
    extra.insert(extra.end(), plain.first.outputs.begin(),
                 plain.first.outputs.end());
    extra.push_back({"fail_ratio", "ratio",
                     static_cast<double>(failed) /
                         static_cast<double>(std::max<std::uint64_t>(1, attempted))});
    for (const Metric& m : reported) print_metric_line(out, m);
    for (const Metric& m : extra) print_metric_line(out, m);
  } else {
    const double nb = static_cast<double>(traced.batches);
    LayerMap layers;
    for (const auto& [k, v] : traced.layers) layers[k] = v / nb;
    std::map<std::string, SpanTotals> spans = tracer->totals();
    for (auto& [k, t] : spans) {
      t.total_s /= nb;
      t.self_s /= nb;
    }
    w->finish_layers(layers, spans);
    layers["obs.trace_overhead"] =
        plain.units_per_s() > 0.0
            ? (plain.units_per_s() - traced.units_per_s()) / plain.units_per_s()
            : 0.0;
    for (const Metric& c : layer_catalog()) {
      auto lt = layers.find(c.name);
      reported.push_back({c.name, c.unit, lt == layers.end() ? 0.0 : lt->second});
    }
    for (const Metric& m : reported) print_metric_line(out, m);
    const std::filesystem::path dir =
        std::filesystem::path(args.work_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / (args.workload + "-seed" +
                                     std::to_string(args.seed) + ".json"))
                                 .string();
    if (!tracer->write_json(path)) err << "perfbench: cannot write " << path << "\n";
  }

  out << result_json(errors.empty() && failed == 0, attempted, failed, reported)
      << std::endl;
  return 0;
}

}  // namespace perfbench
