#include "core/pretrained.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/scenarios.hpp"
#include "phy/topology.hpp"
#include "rl/quantized.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace dimmer::core {

namespace {

/// Runs task(i) for every i < n on up to util::jobs_from_env() threads, so
/// the i-th result depends only on i, never on the worker count. A task
/// writes only its own slot. Rethrows the lowest-index task's exception.
void run_indexed(std::size_t n, const std::function<void(std::size_t)>& task) {
  const auto workers = std::min<std::size_t>(
      n, static_cast<std::size_t>(util::jobs_from_env()));
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        task(i);
      } catch (...) {  // NOLINT-DIMMER(err-swallow): kept, and rethrown
                       // once the workers have joined.
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// A candidate's trained net and its validation results.
struct Candidate {
  std::optional<rl::Mlp> net;
  PolicyEvaluation mixed, calm;
  double score = 0.0;
};

constexpr const char* kPolicyMagic = "dimmer-policy";
constexpr int kPolicyVersion = 1;

// Every field below is part of the cache key; a new PretrainedOptions field
// must join options_digest (this size check fails until it is looked at).
static_assert(sizeof(void*) != 8 || sizeof(PretrainedOptions) == 72,
              "PretrainedOptions changed: update options_digest");

/// The cache key: a digest of every PretrainedOptions field.
std::string options_digest(const PretrainedOptions& o) {
  std::ostringstream fields;
  fields.precision(17);
  fields << o.features.k << ' ' << o.features.history << ' '
         << o.features.n_max << ' ' << o.features.slot_ms << ' '
         << o.trace_steps << ' ' << o.train_steps << ' ' << o.round_period
         << ' ' << o.seed << ' ' << o.candidates << ' '
         << o.validation_steps;
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0')
      << util::fnv1a64(fields.str());
  return hex.str();
}

/// Reads a policy file's header; returns its options digest.
std::string read_policy_header(std::istream& is) {
  std::string magic, digest;
  int version = 0;
  is >> magic >> version >> digest;
  DIMMER_REQUIRE(!is.fail() && magic == kPolicyMagic &&
                     version == kPolicyVersion && digest.size() == 16,
                 "no dimmer-policy v1 header");
  return digest;
}

}  // namespace

rl::Mlp train_default_policy(const PretrainedOptions& options,
                             std::ostream* log) {
  DIMMER_REQUIRE(options.candidates >= 1, "need at least one candidate");
  phy::Topology topo = phy::make_office18_topology();

  auto make_traces = [&](std::size_t steps, std::uint64_t tag) {
    TraceCollectionConfig tc;
    tc.steps = steps;
    tc.seed = util::hash_u64(options.seed, tag);
    tc.round_period = options.round_period;
    // Start mid-morning so traces span work hours and quiet evenings.
    tc.start_time = sim::hours(9) + sim::minutes(30);
    phy::InterferenceField field;
    add_training_schedule(
        field, topo,
        tc.start_time + static_cast<sim::TimeUs>(tc.steps) * tc.round_period,
        util::hash_u64(options.seed, tag, 0x5C4EDULL));
    return collect_traces(topo, field, tc);
  };
  // A calm-only validation slice (daytime ambient, no jammers): separates
  // policies that converge back to the low-N_TX optimum from those that
  // park at a wasteful plateau after interference.
  auto make_calm_traces = [&] {
    TraceCollectionConfig tc;
    tc.steps = options.validation_steps / 2;
    tc.seed = util::hash_u64(options.seed, 0xCA17ULL);
    tc.round_period = options.round_period;
    tc.start_time = sim::hours(11);
    phy::InterferenceField field;
    add_office_ambient(field, topo, util::hash_u64(options.seed, 0xCA18ULL));
    return collect_traces(topo, field, tc);
  };

  if (log)
    *log << "[dimmer] collecting " << options.trace_steps
         << " training + " << options.validation_steps
         << " validation trace steps (8 shadow networks each)...\n";
  // The three datasets and the candidates are independent of each other, so
  // each runs as its own task; results land in per-index slots.
  std::optional<TraceDataset> traces, validation, calm_validation;
  run_indexed(3, [&](std::size_t i) {
    if (i == 0) traces.emplace(make_traces(options.trace_steps, 0x717ACEULL));
    if (i == 1)
      validation.emplace(make_traces(options.validation_steps, 0x7A11DULL));
    if (i == 2) calm_validation.emplace(make_calm_traces());
  });

  TraceEnv::Config env_cfg;
  env_cfg.features = options.features;

  const auto n = static_cast<std::size_t>(options.candidates);
  auto trainer_config = [&](std::size_t c) {
    TrainerConfig tr;
    tr.total_steps = options.train_steps;
    tr.seed = util::hash_u64(options.seed, 0xD9AULL, c);
    // Scale the annealing window with the training budget, keeping the
    // paper's 1:2 ratio (100k of 200k steps).
    tr.dqn.epsilon_anneal_steps = options.train_steps / 2;
    tr.dqn.lr_decay_steps = options.train_steps * 3 / 4;
    return tr;
  };
  if (log)
    *log << "[dimmer] training " << n << " DQN candidates for "
         << options.train_steps << " steps each...\n";
  std::vector<Candidate> candidates(n);
  run_indexed(n, [&](std::size_t c) {
    const TrainerConfig tr = trainer_config(c);
    Candidate& out = candidates[c];
    rl::Mlp net = train_dqn_on_traces(traces.value(), env_cfg, tr);
    rl::QuantizedMlp q(net);
    out.mixed = evaluate_policy(validation.value(), q, env_cfg,
                                /*episodes=*/60,
                                util::hash_u64(tr.seed, 0x5E1ULL));
    out.calm = evaluate_policy(calm_validation.value(), q, env_cfg,
                               /*episodes=*/40,
                               util::hash_u64(tr.seed, 0x5E2ULL));
    out.net.emplace(std::move(net));
    out.score = 0.5 * out.mixed.avg_reward + 0.5 * out.calm.avg_reward;
  });

  // Selection in candidate order: the first best score wins.
  std::size_t best = 0;
  double best_reward = -1e18;
  for (std::size_t c = 0; c < n; ++c) {
    const Candidate& cand = candidates[c];
    if (log)
      *log << "[dimmer]   candidate " << (c + 1) << "/" << n
           << " validation: mixed reward " << cand.mixed.avg_reward
           << ", calm reward " << cand.calm.avg_reward << " (calm mean N_TX "
           << cand.calm.avg_n_tx << ") -> score " << cand.score << '\n';
    if (cand.score > best_reward) {
      best_reward = cand.score;
      best = c;
    }
  }
  return std::move(candidates[best].net.value());
}

bool save_policy(const std::string& path, const rl::Mlp& net,
                 const PretrainedOptions& options) {
  std::ostringstream os;
  os << kPolicyMagic << ' ' << kPolicyVersion << ' ' << options_digest(options)
     << '\n';
  net.save(os);
  try {
    util::write_file_atomic(path, os.str());
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

rl::Mlp load_policy(const std::string& path) {
  std::ifstream is(path);
  DIMMER_REQUIRE(is.good(), "cannot open policy file " + path);
  (void)read_policy_header(is);
  return rl::Mlp::load(is);
}

rl::Mlp load_or_train_policy(const std::string& cache_path,
                             const PretrainedOptions& options,
                             std::ostream* log) {
  {
    std::ifstream is(cache_path);
    if (is.good()) {
      // A stale, truncated, corrupt or foreign cache must never crash the
      // caller: every check throws or fails, and we fall back to
      // retraining (overwriting the bad cache below).
      try {
        if (read_policy_header(is) != options_digest(options)) {
          if (log)
            *log << "[dimmer] cached policy was trained with other options; "
                    "retraining...\n";
        } else {
          rl::Mlp net = rl::Mlp::load(is);
          FeatureBuilder fb(options.features);
          if (net.input_size() == fb.input_size() && net.output_size() == 3) {
            if (log)
              *log << "[dimmer] loaded cached policy: " << cache_path << '\n';
            return net;
          }
          if (log)
            *log << "[dimmer] cached policy shape mismatch; retraining...\n";
        }
      } catch (const std::exception& e) {
        if (log)
          *log << "[dimmer] cached policy unreadable (" << e.what()
               << "); retraining...\n";
      }
    }
  }
  rl::Mlp net = train_default_policy(options, log);
  const bool saved = save_policy(cache_path, net, options);
  if (log) {
    if (saved)
      *log << "[dimmer] cached policy to " << cache_path << '\n';
    else
      *log << "[dimmer] warning: could not write cache " << cache_path << '\n';
  }
  return net;
}

}  // namespace dimmer::core
