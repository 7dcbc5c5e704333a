// Forwarding decorators over the simulator's two public virtual seams.
//
// They change nothing about what the wrapped object computes: every call is
// forwarded unchanged, and the decorator only counts calls and, when a tracer
// is attached, records a span around them. A run through them is
// bit-identical to a run without them (tests/test_perfbench.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/controller.hpp"
#include "phy/link_model.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedLinkModel final : public dimmer::phy::LinkModel {
 public:
  explicit TimedLinkModel(dimmer::phy::LinkModel& inner,
                          Tracer* tracer = nullptr)
      : inner_(&inner), tracer_(tracer) {}

  const dimmer::phy::Topology& topology() const override {
    return inner_->topology();
  }
  dimmer::phy::LinkMatrixView prepare(double tx_power_dbm) override {
    ScopedSpan span(tracer_, "phy.link.prepare");
    ++calls_;
    return inner_->prepare(tx_power_dbm);
  }
  const dimmer::phy::SparseLinkView* prepare_sparse(
      double tx_power_dbm) override {
    ScopedSpan span(tracer_, "phy.link.prepare");
    ++calls_;
    return inner_->prepare_sparse(tx_power_dbm);
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  std::uint64_t calls() const { return calls_; }

 private:
  dimmer::phy::LinkModel* inner_;
  Tracer* tracer_;
  std::uint64_t calls_ = 0;
};

class TimedController final : public dimmer::core::AdaptivityController {
 public:
  TimedController(std::unique_ptr<dimmer::core::AdaptivityController> inner,
                  Tracer* tracer = nullptr)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int decide(const dimmer::core::GlobalSnapshot& snapshot, bool round_lossless,
             int current_n_tx) override {
    ScopedSpan span(tracer_, "core.controller.decide");
    const int n = inner_->decide(snapshot, round_lossless, current_n_tx);
    ++decisions_;
    n_tx_sum_ += static_cast<std::uint64_t>(n);
    return n;
  }
  const char* name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void set_instrumentation(dimmer::obs::Instrumentation instr) override {
    inner_->set_instrumentation(instr);
  }

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t n_tx_sum() const { return n_tx_sum_; }

 private:
  std::unique_ptr<dimmer::core::AdaptivityController> inner_;
  Tracer* tracer_;
  std::uint64_t decisions_ = 0;
  std::uint64_t n_tx_sum_ = 0;
};

}  // namespace perfbench
