// Victim-side DDoS detection (paper §6.1).
//
// The paper assumes "there exists an efficient DDoS detection method" and
// discusses why detection is hard inside a cluster. We provide the two
// standard lightweight detectors so the end-to-end pipeline
// (detect -> identify -> block) is runnable:
//   * RateThresholdDetector — EWMA inbound packet rate vs. threshold, the
//     classic volumetric-flood alarm;
//   * EntropyDetector — Shannon entropy of claimed source addresses over a
//     sliding window; random spoofing pushes entropy far above the benign
//     baseline, single-source floods push it far below;
//   * SynHalfOpenDetector — count of TCP connections stuck half-open,
//     modelling the SYN-flood symptom the paper describes in §1.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "netsim/stats.hpp"
#include "netsim/time.hpp"
#include "packet/packet.hpp"

namespace ddpm::detect {

/// Common interface: feed every delivered packet; `alarmed` latches once
/// triggered until reset().
class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string name() const = 0;
  virtual void observe(const pkt::Packet& packet, netsim::SimTime now) = 0;
  virtual bool alarmed() const noexcept = 0;
  virtual void reset() = 0;

  /// Approximate heap footprint of the detector's state, for the
  /// memory-vs-scale telemetry. 0 = "constant and negligible".
  virtual std::size_t memory_bytes() const noexcept { return 0; }

  /// Time of the first alarm, if any.
  std::optional<netsim::SimTime> alarm_time() const noexcept { return alarm_time_; }

 protected:
  // C.67: a Detector sliced through the base handle would shed the derived
  // detector's window state and latch spuriously.
  Detector() = default;
  Detector(const Detector&) = default;
  Detector& operator=(const Detector&) = default;

  void latch(netsim::SimTime now) {
    if (!alarm_time_) alarm_time_ = now;
  }
  std::optional<netsim::SimTime> alarm_time_;
};

class RateThresholdDetector final : public Detector {
 public:
  /// Alarms when the EWMA inbound rate exceeds `threshold` packets/tick.
  RateThresholdDetector(double threshold, double half_life)
      : threshold_(threshold), half_life_(half_life), rate_(half_life) {}

  std::string name() const override { return "rate-threshold"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;

  double current_rate(netsim::SimTime now) const { return rate_.rate(now); }

 private:
  double threshold_;
  double half_life_;
  netsim::EwmaRate rate_;
};

class EntropyDetector final : public Detector {
 public:
  /// The window is clamped to this many packets. The cap bounds the
  /// per-source map: this detector keeps an EXACT count per distinct
  /// source inside the window, so without it a spoofed flood (every
  /// packet a fresh source) would grow `counts_` without limit — the
  /// attacker controls the detector's memory. At million-source scale use
  /// stream::SketchEntropyDetector, whose footprint is fixed by
  /// construction (hashed buckets, not per-source entries).
  static constexpr std::size_t kMaxWindow = std::size_t(1) << 16;

  /// Alarms when the source-address entropy over the last `window` packets
  /// leaves [low_bits, high_bits]. The window must fill once first.
  EntropyDetector(std::size_t window, double low_bits, double high_bits)
      : window_(window < kMaxWindow ? window : kMaxWindow),
        low_(low_bits),
        high_(high_bits) {}

  std::string name() const override { return "source-entropy"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;
  std::size_t memory_bytes() const noexcept override;

  double current_entropy() const;
  std::size_t window() const noexcept { return window_; }

 private:
  std::size_t window_;
  double low_, high_;
  std::deque<std::uint32_t> recent_;
  std::unordered_map<std::uint32_t, std::uint64_t> counts_;
};

/// CUSUM change-point detector over fixed arrival-count windows.
///
/// The classic answer to pulsing (shrew) floods that evade EWMA smoothing
/// (ablation A7b): the statistic S = max(0, S + count - mean - slack)
/// RATCHETS across bursts instead of decaying between them, so a 10%-duty
/// pulse train that never lifts the EWMA above threshold still drives S
/// over h after a few periods.
class CusumDetector final : public Detector {
 public:
  /// `window` ticks per bucket; `benign_mean` the expected benign arrivals
  /// per bucket; `slack` the per-bucket drift allowance (k); `threshold`
  /// the alarm level (h), in arrival units.
  CusumDetector(netsim::SimTime window, double benign_mean, double slack,
                double threshold)
      : window_(window),
        benign_mean_(benign_mean),
        slack_(slack),
        threshold_(threshold) {}

  std::string name() const override { return "cusum"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;

  double statistic() const noexcept { return s_; }

 private:
  /// Folds completed windows up to `now` into the statistic.
  void advance(netsim::SimTime now);

  netsim::SimTime window_;
  double benign_mean_;
  double slack_;
  double threshold_;
  double s_ = 0.0;
  std::uint64_t bucket_ = 0;      // index of the open window
  std::uint64_t in_bucket_ = 0;   // arrivals in the open window
};

class SynHalfOpenDetector final : public Detector {
 public:
  /// A SYN opens a half-open slot that closes after `handshake_timeout` if
  /// no matching completion arrives. Attack SYNs (spoofed) never complete.
  /// Alarms when more than `max_half_open` slots are pending.
  SynHalfOpenDetector(std::size_t max_half_open,
                      netsim::SimTime handshake_timeout)
      : max_half_open_(max_half_open), timeout_(handshake_timeout) {}

  std::string name() const override { return "syn-half-open"; }
  void observe(const pkt::Packet& packet, netsim::SimTime now) override;
  bool alarmed() const noexcept override { return alarm_time_.has_value(); }
  void reset() override;

  std::size_t half_open(netsim::SimTime now) const;

 private:
  void expire(netsim::SimTime now) const;

  std::size_t max_half_open_;
  netsim::SimTime timeout_;
  mutable std::deque<netsim::SimTime> pending_;  // open times, FIFO
};

}  // namespace ddpm::detect
