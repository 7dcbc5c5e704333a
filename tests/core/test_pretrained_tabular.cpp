#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "core/pretrained.hpp"
#include "core/trace_env.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::core {
namespace {

/// Budgets small enough for the retrain paths of a unit test.
PretrainedOptions tiny_options() {
  PretrainedOptions opt;
  opt.trace_steps = 40;
  opt.train_steps = 200;
  opt.candidates = 1;
  opt.validation_steps = 30;
  return opt;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(Pretrained, LoadsMatchingCachedPolicyWithoutTraining) {
  // A cache keyed on the same options must be returned verbatim — no trace
  // collection, no training (this test would take minutes otherwise).
  std::string path = ::testing::TempDir() + "dimmer_cached_policy.mlp";
  rl::Mlp original({31, 30, 3}, 77);
  PretrainedOptions opt;
  ASSERT_TRUE(save_policy(path, original, opt));
  std::ostringstream log;
  rl::Mlp loaded = load_or_train_policy(path, opt, &log);
  EXPECT_NE(log.str().find("loaded cached policy"), std::string::npos)
      << log.str();
  std::vector<double> x(31, 0.25);
  EXPECT_EQ(loaded.forward(x), original.forward(x));
  std::remove(path.c_str());
}

TEST(Pretrained, SavePolicyWritesHeaderThenTheMlpText) {
  std::string path = ::testing::TempDir() + "dimmer_saved_policy.mlp";
  rl::Mlp net({31, 30, 3}, 5);
  ASSERT_TRUE(save_policy(path, net, PretrainedOptions{}));
  const std::string text = slurp(path);
  const std::size_t eol = text.find('\n');
  ASSERT_NE(eol, std::string::npos);
  EXPECT_EQ(text.rfind("dimmer-policy 1 ", 0), 0u) << text.substr(0, eol);
  EXPECT_EQ(eol, std::string("dimmer-policy 1 ").size() + 16);
  // The weights section is exactly Mlp::save's output.
  std::ostringstream weights;
  net.save(weights);
  EXPECT_EQ(text.substr(eol + 1), weights.str());
  // Any option changes the key; the weights section does not change.
  PretrainedOptions other;
  other.train_steps = 1000;
  ASSERT_TRUE(save_policy(path, net, other));
  const std::string retext = slurp(path);
  EXPECT_NE(retext.substr(0, eol), text.substr(0, eol));
  EXPECT_EQ(retext.substr(eol + 1), weights.str());
  // load_policy takes an explicitly chosen file whatever trained it.
  std::vector<double> x(31, 0.5);
  EXPECT_EQ(load_policy(path).forward(x), net.forward(x));
  EXPECT_FALSE(save_policy(::testing::TempDir() + "no/such/dir/p.mlp", net,
                           other));
  std::remove(path.c_str());
}

TEST(Pretrained, CacheOfOtherOptionsHeaderlessOrTruncatedRetrains) {
  const PretrainedOptions opt = tiny_options();
  PretrainedOptions other = opt;
  other.train_steps = 1000;  // e.g. ./examples/train_dqn --train-steps 1000
  rl::Mlp stranger({31, 30, 3}, 9);
  std::ostringstream plain;
  stranger.save(plain);
  std::string path = ::testing::TempDir() + "dimmer_keyed_policy.mlp";

  struct Case {
    const char* name;
    std::function<void()> write;
    const char* reason;
  };
  const Case cases[] = {
      {"other options", [&] { ASSERT_TRUE(save_policy(path, stranger, other)); },
       "trained with other options"},
      {"no header",
       [&] {
         std::ofstream os(path);
         os << plain.str();
       },
       "unreadable"},
      {"truncated",
       [&] {
         ASSERT_TRUE(save_policy(path, stranger, opt));
         const std::string text = slurp(path);
         std::ofstream os(path);
         os << text.substr(0, text.size() / 2);
       },
       "unreadable"},
  };
  for (const Case& c : cases) {
    c.write();
    std::ostringstream log;
    rl::Mlp policy = load_or_train_policy(path, opt, &log);
    EXPECT_NE(log.str().find(c.reason), std::string::npos)
        << c.name << ": " << log.str();
    EXPECT_NE(log.str().find("retraining"), std::string::npos) << c.name;
    // The rewritten cache is keyed on `opt` now: a second call loads it.
    std::ostringstream relog;
    rl::Mlp reloaded = load_or_train_policy(path, opt, &relog);
    EXPECT_NE(relog.str().find("loaded cached policy"), std::string::npos)
        << c.name << ": " << relog.str();
    std::vector<double> x(31, 0.25);
    EXPECT_EQ(reloaded.forward(x), policy.forward(x)) << c.name;
  }
  std::remove(path.c_str());
}

TEST(Pretrained, CorruptCacheFallsBackToRetraining) {
  // A damaged cache file (torn write, disk corruption) must never abort the
  // pipeline: load_or_train_policy logs, retrains, and overwrites the cache.
  std::string path = ::testing::TempDir() + "dimmer_corrupt_policy.mlp";
  {
    std::ofstream os(path);
    os << "dimmer-mlp 1\n2\n31 30 1\n0.5 0.5\n";  // truncated mid-stream
  }
  const PretrainedOptions opt = tiny_options();
  std::ostringstream log;
  rl::Mlp policy = load_or_train_policy(path, opt, &log);
  EXPECT_EQ(policy.input_size(), FeatureBuilder(opt.features).input_size());
  EXPECT_NE(log.str().find("retraining"), std::string::npos) << log.str();
  // The rewritten cache is valid now: a second call loads it directly.
  std::ostringstream relog;
  rl::Mlp reloaded = load_or_train_policy(path, opt, &relog);
  EXPECT_EQ(relog.str().find("retraining"), std::string::npos) << relog.str();
  std::vector<double> x(static_cast<std::size_t>(policy.input_size()), 0.25);
  EXPECT_EQ(reloaded.forward(x), policy.forward(x));
  std::remove(path.c_str());
}

TEST(Pretrained, ChosenNetIsByteIdenticalForOneAndFourJobs) {
  // Trace collection and the candidates run on DIMMER_JOBS workers; the
  // chosen net must not depend on how many.
  PretrainedOptions opt = tiny_options();
  opt.candidates = 4;
  const char* saved = std::getenv("DIMMER_JOBS");
  const std::string restore = saved ? saved : "";
  std::string text[2];
  const char* jobs[2] = {"1", "4"};
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(setenv("DIMMER_JOBS", jobs[i], 1), 0);
    std::ostringstream os;
    train_default_policy(opt).save(os);
    text[i] = os.str();
  }
  if (saved)
    setenv("DIMMER_JOBS", restore.c_str(), 1);
  else
    unsetenv("DIMMER_JOBS");
  EXPECT_EQ(text[0], text[1]);
}

TEST(Pretrained, DefaultsMatchThePaper) {
  PretrainedOptions opt;
  EXPECT_EQ(opt.train_steps, 200000u);  // "200 000 iterations"
  EXPECT_EQ(opt.features.k, 10);
  EXPECT_EQ(opt.features.history, 2);
  EXPECT_EQ(opt.round_period, sim::seconds(4));
}

TEST(TabularDiscretizer, StateCountAndBounds) {
  TabularDiscretizer disc;
  EXPECT_EQ(disc.n_states(), 4u * 3 * 9 * 2);
  FeatureBuilder fb(disc.features);
  util::Pcg32 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    GlobalSnapshot snap(18);
    snap.current_round = 1;
    for (auto& e : snap.entries) {
      e.reliability = rng.uniform();
      e.radio_on_ms = rng.uniform(0.0, 20.0);
      e.round = 1;
      e.ever_heard = true;
    }
    std::deque<bool> hist = {rng.bernoulli(0.5)};
    auto x = fb.build(snap, rng.uniform_int(0, 8), hist);
    EXPECT_LT(disc.state(x), disc.n_states());
  }
}

TEST(TabularDiscretizer, SeparatesTheAxesItEncodes) {
  TabularDiscretizer disc;
  FeatureBuilder fb(disc.features);
  auto make = [&](double rel, double radio, int n, bool lossless) {
    GlobalSnapshot snap(18);
    snap.current_round = 1;
    for (auto& e : snap.entries) {
      e.reliability = rel;
      e.radio_on_ms = radio;
      e.round = 1;
      e.ever_heard = true;
    }
    std::deque<bool> hist = {lossless};
    return disc.state(fb.build(snap, n, hist));
  };
  EXPECT_NE(make(1.0, 8.0, 3, true), make(0.3, 8.0, 3, true));   // reliability
  EXPECT_NE(make(1.0, 2.0, 3, true), make(1.0, 19.0, 3, true));  // radio
  EXPECT_NE(make(1.0, 8.0, 3, true), make(1.0, 8.0, 7, true));   // N_TX
  EXPECT_NE(make(1.0, 8.0, 3, true), make(1.0, 8.0, 3, false));  // history
}

TEST(TabularDiscretizer, RejectsWrongVectorSize) {
  TabularDiscretizer disc;
  EXPECT_THROW(disc.state(std::vector<double>(7, 0.0)), util::RequireError);
}

}  // namespace
}  // namespace dimmer::core
