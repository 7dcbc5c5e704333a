// Experience replay buffer for the DQN (uniform sampling, ring eviction).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace dimmer::rl {

/// One (s, a, R, s', done) tuple. For n-step returns, `reward` holds the
/// discounted n-step sum and `discount` the matching bootstrap factor
/// (gamma^n); discount < 0 means "single step, use the agent's gamma".
struct Transition {
  std::vector<double> state;
  int action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool done = false;
  double discount = -1.0;
};

/// Storage grows with the content, doubling up to `capacity`: most agents
/// see far fewer transitions than the default capacity, and reserving it
/// up front (50 000 x sizeof(Transition), 4 MB) inflated every short
/// training run's heap.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : cap_(capacity) {
    DIMMER_REQUIRE(capacity > 0, "replay capacity must be positive");
  }

  void push(Transition t) {
    if (buf_.size() < cap_) {
      if (buf_.size() == buf_.capacity())
        buf_.reserve(std::min(cap_, std::max<std::size_t>(
                                        kInitialReserve, 2 * buf_.size())));
      buf_.push_back(std::move(t));
    } else {
      buf_[head_] = std::move(t);
      head_ = (head_ + 1) % cap_;
    }
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return cap_; }
  /// Transitions the storage holds room for; never more than capacity().
  std::size_t reserved() const { return buf_.capacity(); }
  bool empty() const { return buf_.empty(); }

  const Transition& at(std::size_t i) const {
    DIMMER_REQUIRE(i < buf_.size(), "replay index out of range");
    return buf_[i];
  }

  /// Uniform sample with replacement of `n` transition indices into `out`
  /// (resized to n; a reused buffer is not reallocated).
  void sample_indices(std::size_t n, util::Pcg32& rng,
                      std::vector<std::size_t>& out) const {
    DIMMER_REQUIRE(!buf_.empty(), "cannot sample from an empty buffer");
    out.resize(n);
    for (auto& i : out)
      i = rng.uniform_below(static_cast<std::uint32_t>(buf_.size()));
  }

 private:
  static constexpr std::size_t kInitialReserve = 64;

  std::size_t cap_;
  std::vector<Transition> buf_;
  std::size_t head_ = 0;
};

}  // namespace dimmer::rl
