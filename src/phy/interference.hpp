// Interference sources.
//
// Every source is a positioned transmitter with a *pure* activity function:
// given an interval and a channel it reports which fraction of the interval
// the source occupies. Purity (no mutable state) lets the flood engine query
// arbitrary time windows in any order while staying fully deterministic.
//
// Three families mirror the paper's scenarios:
//  - BurstJammer: JamLab-style periodic 13 ms bursts (controlled 802.15.4
//    interference, §V-A), plus on/off scenario windows.
//  - WifiInterferer: WiFi-like traffic bursts blanketing the 802.15.4
//    channels under a WiFi channel (D-Cube levels, §V-E).
//  - AmbientInterferer: low-duty office background (WiFi/Bluetooth PANs
//    "outside of our control ... during work hours").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "phy/channels.hpp"
#include "phy/geometry.hpp"
#include "phy/topology.hpp"
#include "sim/time.hpp"

namespace dimmer::phy {

class InterferenceSource {
 public:
  virtual ~InterferenceSource() = default;

  /// Fraction of [t0,t1) during which the source transmits on `ch`, in [0,1].
  virtual double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const = 0;

  virtual Vec2 position() const = 0;
  virtual double tx_power_dbm() const = 0;

  /// Stable identity for shadowing draws toward network nodes.
  virtual std::uint64_t shadow_tag() const = 0;
};

/// JamLab-style periodic jammer: `burst` of carrier every `period`, within an
/// optional [start,stop) scenario window. Channels are an explicit set.
class BurstJammer : public InterferenceSource {
 public:
  struct Config {
    Vec2 position{};
    double tx_power_dbm = 0.0;
    sim::TimeUs burst_us = sim::ms(13);   ///< "13 ms TX bursts" (§V-A)
    sim::TimeUs period_us = sim::ms(130); ///< e.g. 10% duty
    sim::TimeUs phase_us = 0;
    sim::TimeUs start_us = 0;
    sim::TimeUs stop_us = -1;  ///< -1: never stops
    std::vector<Channel> channels{kControlChannel};
    std::uint64_t tag = 1;
  };

  explicit BurstJammer(Config cfg);

  double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const override;
  Vec2 position() const override { return cfg_.position; }
  double tx_power_dbm() const override { return cfg_.tx_power_dbm; }
  std::uint64_t shadow_tag() const override { return cfg_.tag; }

  const Config& config() const { return cfg_; }

  /// Convenience: a jammer occupying the medium `duty` (0..1) of the time
  /// with 13 ms bursts, the paper's parameterisation ("a 10% interference
  /// corresponds to a 13 ms burst every 130 ms").
  static Config jamlab(Vec2 pos, double duty, Channel ch = kControlChannel,
                       std::uint64_t tag = 1);

 private:
  Config cfg_;
};

/// WiFi-like interferer: in every frame of `frame_us` it emits one burst of
/// hash-randomised length (mean `duty * frame_us`) at a hash-randomised
/// offset, covering all 802.15.4 channels under its WiFi channel.
class WifiInterferer : public InterferenceSource {
 public:
  struct Config {
    Vec2 position{};
    double tx_power_dbm = 12.0;   ///< APs are louder than motes
    int wifi_channel = 13;        ///< covers 802.15.4 channels 24..26
    double duty = 0.4;            ///< mean occupied fraction
    sim::TimeUs frame_us = sim::ms(40);
    sim::TimeUs start_us = 0;
    sim::TimeUs stop_us = -1;
    std::uint64_t seed = 7;
    std::uint64_t tag = 100;
  };

  explicit WifiInterferer(Config cfg);

  double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const override;
  Vec2 position() const override { return cfg_.position; }
  double tx_power_dbm() const override { return cfg_.tx_power_dbm; }
  std::uint64_t shadow_tag() const override { return cfg_.tag; }

  const Config& config() const { return cfg_; }

 private:
  bool covers(Channel ch) const;
  double frame_overlap(sim::TimeUs t0, sim::TimeUs t1,
                       std::int64_t frame_idx) const;

  Config cfg_;
  std::vector<Channel> covered_;
};

/// Ambient office background: independent low-duty bursts on every channel,
/// modulated by a work-hours profile (quiet at night).
class AmbientInterferer : public InterferenceSource {
 public:
  struct Config {
    Vec2 position{};
    double tx_power_dbm = -4.0;
    double day_duty = 0.06;    ///< mean duty during work hours
    double night_duty = 0.003; ///< "experiments run at night" are clean
    sim::TimeUs frame_us = sim::ms(60);
    /// Burst length as a fraction of the frame. Ambient traffic (Bluetooth
    /// polls, WiFi beacons/ACKs) is short: a few ms. Short bursts are what
    /// extra retransmissions can actually escape within a slot.
    double burst_fraction = 1.0 / 12.0;
    double day_start_h = 8.0;  ///< work-hours window within a 24 h day
    double day_end_h = 19.0;
    std::uint64_t seed = 11;
    std::uint64_t tag = 200;
  };

  explicit AmbientInterferer(Config cfg);

  double activity(sim::TimeUs t0, sim::TimeUs t1, Channel ch) const override;
  Vec2 position() const override { return cfg_.position; }
  double tx_power_dbm() const override { return cfg_.tx_power_dbm; }
  std::uint64_t shadow_tag() const override { return cfg_.tag; }

 private:
  double duty_at(sim::TimeUs t) const;

  Config cfg_;
};

/// What a receiver experiences during one packet reception window.
struct InterferenceSample {
  double power_mw = 0.0;  ///< summed received interference power when jammed
  double exposure = 0.0;  ///< fraction of the window exposed to interference
};

/// An owning collection of interference sources, sampled per reception.
class InterferenceField {
 public:
  InterferenceField() = default;
  /// Moves take the sources and leave `other` empty under a new version().
  InterferenceField(InterferenceField&& other) noexcept;
  InterferenceField& operator=(InterferenceField&& other) noexcept;

  void add(std::unique_ptr<InterferenceSource> src);
  std::size_t size() const { return sources_.size(); }
  bool empty() const { return sources_.empty(); }
  void clear();

  /// The i-th source, in add() order (the order sample() sums in).
  const InterferenceSource& source(std::size_t i) const { return *sources_[i]; }

  /// Content stamp for caches (InterferenceView): add(), clear() and moves
  /// give the field a value no live field has held, so an unchanged
  /// version means unchanged sources. 0 only ever marks an empty field.
  std::uint64_t version() const { return version_; }

  /// Received interference at node `rx` for a packet spanning [t0,t1) on `ch`.
  /// The definition every cached path (InterferenceView) must reproduce.
  InterferenceSample sample(sim::TimeUs t0, sim::TimeUs t1, Channel ch,
                            NodeId rx, const Topology& topo) const;

 private:
  std::vector<std::unique_ptr<InterferenceSource>> sources_;
  std::uint64_t version_ = 0;
};

/// InterferenceField::sample for every listener of one flood, bit for bit,
/// without its per-listener cost (DESIGN.md §10, "Interference view"):
///  - the static source->listener power dbm_to_mw(tx + gain_from_point_db)
///    is tabulated once per (field version, topology), listener-major;
///  - prefilter() drops, once per flood, every source idle over the whole
///    flood window (activity is an occupied-time measure, so idle over a
///    window means idle over each of its sub-windows);
///  - evaluate() calls activity() once per step for the remaining
///    candidates, and sample(rx) then sums table entries over the active
///    ones in ascending source order — the adds and maxes sample() makes.
/// A view is mutable scratch: like the LinkModel cache beside it in
/// flood::GlossyFlood, one view must not serve two threads at once.
class InterferenceView {
 public:
  /// Rebuilds the table if `field` or `topo` is not the one last bound or
  /// the field's version changed since; otherwise a no-op. Only a rebuild
  /// allocates.
  void bind(const InterferenceField& field, const Topology& topo);

  /// Keeps as candidates the bound field's sources with activity > 0 over
  /// [t0,t1) on `ch`, which must cover every window later passed to
  /// evaluate(). Returns the activity() calls made.
  std::size_t prefilter(sim::TimeUs t0, sim::TimeUs t1, Channel ch);

  /// Evaluates each candidate's activity over the reception window [t0,t1)
  /// on the prefiltered channel. Returns the activity() calls made.
  std::size_t evaluate(sim::TimeUs t0, sim::TimeUs t1);

  /// field.sample(t0, t1, ch, rx, topo) for the window last evaluated.
  InterferenceSample sample(NodeId rx) const {
    InterferenceSample out;
    if (n_active_ == 0) return out;
    const double* row = rx_mw_.data() + static_cast<std::size_t>(rx) * n_sources_;
    for (std::size_t k = 0; k < n_active_; ++k) out.power_mw += row[active_[k]];
    out.exposure = exposure_;
    return out;
  }

 private:
  const InterferenceField* field_ = nullptr;
  const Topology* topo_ = nullptr;
  std::uint64_t version_ = 0;
  std::size_t n_sources_ = 0;
  std::vector<double> rx_mw_;  ///< [listener * n_sources_ + source], mW
  Channel channel_ = kControlChannel;
  /// Source indices, ascending: candidates_[0, n_candidates_) pass the
  /// flood prefilter, active_[0, n_active_) are active in the current step.
  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> active_;
  std::size_t n_candidates_ = 0;
  std::size_t n_active_ = 0;
  double exposure_ = 0.0;  ///< max activity over the active sources
};

/// D-Cube style controlled WiFi interference profiles (§V-E): level 1 is
/// moderate AP traffic; level 2 adds APs and raises the duty cycle.
void add_dcube_wifi_level(InterferenceField& field, const Topology& topo,
                          int level, std::uint64_t seed = 0xD0CBEULL);

}  // namespace dimmer::phy
