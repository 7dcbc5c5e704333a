#include "replay.hpp"

#include "flood/glossy.hpp"
#include "spans.hpp"

namespace perfbench {

ReplayResult replay_interference(const dimmer::phy::InterferenceField& field,
                                 const dimmer::phy::Topology& topo,
                                 const std::vector<dimmer::sim::TimeUs>& slots,
                                 int steps, dimmer::phy::Channel channel,
                                 std::uint64_t max_calls) {
  const dimmer::flood::FloodParams params;
  const dimmer::sim::TimeUs step_len =
      dimmer::flood::GlossyFlood::step_len_us(params, topo.radio());
  const dimmer::sim::TimeUs airtime = step_len - params.processing_us;
  ReplayResult r;
  double sink = 0.0;
  const double t0 = now_s();
  [&] {
    for (dimmer::sim::TimeUs slot : slots)
      for (int t = 0; t < steps; ++t) {
        const dimmer::sim::TimeUs a = slot + t * step_len;
        for (dimmer::phy::NodeId rx = 0; rx < topo.size(); ++rx) {
          sink += field.sample(a, a + airtime, channel, rx, topo).power_mw;
          if (++r.calls >= max_calls) return;
        }
      }
  }();
  const double elapsed = now_s() - t0;
  // Keeps the summed power observable so the loop cannot be elided.
  if (sink < 0.0) r.calls += 1;
  r.ns_per_call = r.calls > 0 ? elapsed * 1e9 / static_cast<double>(r.calls)
                              : 0.0;
  return r;
}

}  // namespace perfbench
