// Baseline sequencers the paper compares against or motivates from:
//
//  * TrueTimeSequencer (§4's baseline) — per-message uncertainty interval;
//    messages whose intervals overlap (transitively) share a rank.
//  * WfoSequencer (Figure 2) — WaitsForOne: trusts raw local timestamps;
//    offline this reduces to sorting by T with singleton batches.
//  * FifoSequencer (Figure 4 / classical sequencers) — arrival order,
//    singleton batches.
#pragma once

#include "core/client_registry.hpp"
#include "core/sequencer.hpp"

namespace tommy::core {

struct TrueTimeConfig {
  /// Interval half-width in standard deviations ([T−3σ, T+3σ] in §4).
  double k_sigma{3.0};
  /// Center intervals on the mean-corrected stamp T + μ. The paper's one
  /// sentence writes [T−3σ, T+3σ]; a real TrueTime would center on its
  /// best estimate, so correction defaults on (see docs/architecture.md,
  /// "Conventions and paper errata"). Disable to get the literal form.
  bool mean_correct{true};
};

class TrueTimeSequencer final : public Sequencer {
 public:
  TrueTimeSequencer(const ClientRegistry& registry, TrueTimeConfig config = {});

  [[nodiscard]] SequencerResult sequence(
      std::vector<Message> messages) override;
  [[nodiscard]] std::string name() const override { return "truetime"; }

 private:
  const ClientRegistry& registry_;
  TrueTimeConfig config_;
};

/// WaitsForOne: fair exactly when clock errors are negligible relative to
/// inter-message gaps. Ranks strictly by local timestamp.
class WfoSequencer final : public Sequencer {
 public:
  [[nodiscard]] SequencerResult sequence(
      std::vector<Message> messages) override;
  [[nodiscard]] std::string name() const override { return "wfo"; }
};

/// Classical arrival-order sequencer (requires Message::arrival).
class FifoSequencer final : public Sequencer {
 public:
  [[nodiscard]] SequencerResult sequence(
      std::vector<Message> messages) override;
  [[nodiscard]] std::string name() const override { return "fifo"; }
};

}  // namespace tommy::core
