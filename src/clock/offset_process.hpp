// Clock offset processes: how a client's clock error θ evolves over true
// time. The paper's evaluation (§4) uses the i.i.d. model (a fresh draw
// from f_θ at every message); the other processes model the realities §5
// worries about — drift, random-walk wander, and mean-reverting
// (temperature-like) excursions — and are exercised by the learning
// experiments.
//
// Sign convention (see docs/architecture.md, "Conventions and paper
// errata"): θ converts a local stamp to sequencer time, T* = T + θ. A
// client clock therefore *reads* local = true − θ.
#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "stats/distribution.hpp"

namespace tommy::clock {

class OffsetProcess {
 public:
  virtual ~OffsetProcess() = default;

  /// Offset θ at the given true time. Must be called with non-decreasing
  /// times (stateful processes advance internally).
  [[nodiscard]] virtual double offset_at(TimePoint true_time) = 0;

  [[nodiscard]] virtual std::string describe() const = 0;
};

using OffsetProcessPtr = std::unique_ptr<OffsetProcess>;

/// Fresh independent draw from a distribution at every read — the paper's
/// §4 generative model ("samples noise ε from the distribution").
class IidOffset final : public OffsetProcess {
 public:
  IidOffset(stats::DistributionPtr distribution, Rng rng);

  [[nodiscard]] double offset_at(TimePoint true_time) override;
  [[nodiscard]] std::string describe() const override;

 private:
  stats::DistributionPtr distribution_;
  Rng rng_;
};

/// Constant offset (a perfectly stable but mis-set clock).
class ConstantOffset final : public OffsetProcess {
 public:
  explicit ConstantOffset(double offset) : offset_(offset) {}

  [[nodiscard]] double offset_at(TimePoint) override { return offset_; }
  [[nodiscard]] std::string describe() const override;

 private:
  double offset_;
};

/// Linear drift: θ(t) = initial + rate · t, optionally plus i.i.d. noise.
class DriftOffset final : public OffsetProcess {
 public:
  /// `rate` is seconds of error per second of true time (e.g. 40e-6 for a
  /// 40 ppm oscillator); `noise` may be null.
  DriftOffset(double initial, double rate, stats::DistributionPtr noise,
              Rng rng);

  [[nodiscard]] double offset_at(TimePoint true_time) override;
  [[nodiscard]] std::string describe() const override;

 private:
  double initial_;
  double rate_;
  stats::DistributionPtr noise_;
  Rng rng_;
};

/// Brownian wander: independent Gaussian increments with standard
/// deviation `rate_per_sqrt_s · sqrt(dt)` between reads.
class RandomWalkOffset final : public OffsetProcess {
 public:
  RandomWalkOffset(double initial, double rate_per_sqrt_s, Rng rng);

  [[nodiscard]] double offset_at(TimePoint true_time) override;
  [[nodiscard]] std::string describe() const override;

 private:
  double value_;
  double rate_;
  TimePoint last_time_{TimePoint::epoch()};
  bool started_{false};
  Rng rng_;
};

/// Ornstein–Uhlenbeck: mean-reverting offset with stationary distribution
/// N(mean, stationary_sigma²) and reversion time constant tau. Models a
/// sync daemon continuously pulling the clock back while the environment
/// pushes it away.
class OuOffset final : public OffsetProcess {
 public:
  OuOffset(double mean, double stationary_sigma, Duration tau, Rng rng);

  [[nodiscard]] double offset_at(TimePoint true_time) override;
  [[nodiscard]] std::string describe() const override;

 private:
  double mean_;
  double sigma_;
  double tau_s_;
  double value_;
  TimePoint last_time_{TimePoint::epoch()};
  bool started_{false};
  Rng rng_;
};

}  // namespace tommy::clock
