// OracleSequencer: the naive online sequencer (§3.5, Appendix C) that the
// production OnlineSequencer is held bit-identical to. Every question is
// answered from first principles:
//
//  * "confidently after" evaluates preceding_probability per query;
//  * the pending buffer is a sorted deque searched with corrected stamps
//    recomputed on every comparison, and re-sorted whenever the registry
//    generation moves (a re-announce re-keys every buffered message);
//  * the head batch is the from-scratch O(n²) closure sweep
//    (BatchRule::kClosure), recomputed on every emission attempt;
//  * the completeness gate (Q2) scans every expected client and evaluates
//    its frontier hw_c + Q_{θc}(1 − p_safe) per query.
//
// It calls no fast_* engine method, so none of the critical-gap tables,
// incremental closure, holdback chunks or frontier heap the production
// path depends on can mask a bug in themselves. Header-only and
// test-local: harness code, not library surface. Quadratic per poll, so
// keep the streams it drives in the low thousands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "core/online_sequencer.hpp"
#include "core/preceding.hpp"
#include "core/service.hpp"

namespace tommy::core::testing {

class OracleSequencer {
 public:
  /// Same contract as OnlineSequencer's registry constructor:
  /// `expected_clients` is the completeness-gate set (duplicates collapse
  /// to one gate entry), `config.preceding` configures the private engine.
  OracleSequencer(const ClientRegistry& registry,
                  std::vector<ClientId> expected_clients,
                  OnlineConfig config = {})
      : engine_(registry, config.preceding),
        registry_(registry),
        config_(config),
        generation_(registry.generation()) {
    TOMMY_EXPECTS(config_.threshold > 0.5 && config_.threshold < 1.0);
    TOMMY_EXPECTS(config_.p_safe > 0.5 && config_.p_safe < 1.0);
    TOMMY_EXPECTS(!expected_clients.empty());
    for (ClientId c : expected_clients) {
      TOMMY_EXPECTS(registry_.contains(c));
      if (slot_by_client_.emplace(c, clients_.size()).second) {
        clients_.push_back(ClientState{c});
      }
    }
  }

  OracleSequencer(const OracleSequencer&) = delete;
  OracleSequencer& operator=(const OracleSequencer&) = delete;

  /// Ingests a message; `m.arrival` is the sequencer time of receipt and
  /// must be non-decreasing across calls (FIFO channels).
  void submit(const Message& m) {
    maybe_resort();
    TOMMY_EXPECTS(m.arrival >= last_arrival_);
    last_arrival_ = std::max(last_arrival_, m.arrival);
    ClientState& state = state_of(m.client);
    state.high_water = std::max(state.high_water, m.stamp);
    state.last_heard = std::max(state.last_heard, m.arrival);
    touch(state);
    ingest(m);
  }

  /// Ingests a heartbeat carrying client `c`'s local stamp.
  void heartbeat(ClientId c, TimePoint local_stamp, TimePoint now) {
    maybe_resort();
    ClientState& state = state_of(c);
    state.high_water = std::max(state.high_water, local_stamp);
    state.last_heard = std::max(state.last_heard, now);
    touch(state);
  }

  /// Marks `c` departed: out of the completeness gate until it speaks
  /// again. Idempotent.
  void retire_client(ClientId c) {
    ClientState& state = state_of(c);
    state.departed = true;
    state.heard = true;  // a never-heard departure stops gating too
  }

  [[nodiscard]] std::vector<EmissionRecord> poll(TimePoint now) {
    maybe_resort();
    return drain(now, /*ignore_gates=*/false);
  }

  [[nodiscard]] std::vector<EmissionRecord> flush(TimePoint now) {
    maybe_resort();
    return drain(now, /*ignore_gates=*/true);
  }

  /// T_b of the current head batch (infinite future if buffer empty).
  [[nodiscard]] TimePoint next_safe_time() const {
    if (buffer_.empty()) return TimePoint::infinite_future();
    return safe_time_for_naive(head_batch_size_naive());
  }

  [[nodiscard]] std::size_t pending_count() const { return buffer_.size(); }
  [[nodiscard]] Rank next_rank() const { return next_rank_; }
  [[nodiscard]] std::size_t fairness_violations() const {
    return fairness_violations_;
  }

  [[nodiscard]] std::vector<ClientId> timed_out_clients(TimePoint now) const {
    std::vector<ClientId> out;
    if (!config_.client_silence_timeout.is_finite()) return out;
    for (const ClientState& state : clients_) {
      if (state.departed) continue;  // departed, not timed out
      if (!state.heard ||
          now - state.last_heard > config_.client_silence_timeout) {
        out.push_back(state.id);
      }
    }
    return out;
  }

 private:
  struct ClientState {
    ClientId id;
    TimePoint high_water{TimePoint(-std::numeric_limits<double>::infinity())};
    TimePoint last_heard{TimePoint(-std::numeric_limits<double>::infinity())};
    bool heard{false};
    bool departed{false};
  };

  ClientState& state_of(ClientId c) {
    const auto it = slot_by_client_.find(c);
    TOMMY_EXPECTS(it != slot_by_client_.end());  // not an expected client
    return clients_[it->second];
  }

  static void touch(ClientState& state) {
    state.departed = false;  // hearing from a retired client revives it
    state.heard = true;
  }

  /// The naive buffer order: (corrected stamp, id), both stamps evaluated
  /// afresh per comparison.
  [[nodiscard]] bool corrected_less(const Message& lhs,
                                    const Message& rhs) const {
    const TimePoint lk = engine_.corrected_stamp(lhs);
    const TimePoint rk = engine_.corrected_stamp(rhs);
    if (lk != rk) return lk < rk;
    return lhs.id < rhs.id;
  }

  /// A registry re-announce re-keys every buffered message: restore the
  /// (corrected, id) order before any insert or closure reads the buffer.
  void maybe_resort() {
    if (registry_.generation() == generation_) return;
    generation_ = registry_.generation();
    std::sort(buffer_.begin(), buffer_.end(),
              [this](const Message& lhs, const Message& rhs) {
                return corrected_less(lhs, rhs);
              });
  }

  [[nodiscard]] bool confidently_after(const Message& later,
                                       const Message& earlier) const {
    return engine_.preceding_probability(earlier, later) > config_.threshold;
  }

  void ingest(const Message& m) {
    // Fairness-violation check: did this message confidently belong at or
    // before a rank already emitted?
    for (const Message& emitted : last_emitted_) {
      if (!confidently_after(m, emitted)) {
        ++fairness_violations_;
        break;
      }
    }
    const auto pos = std::lower_bound(
        buffer_.begin(), buffer_.end(), m,
        [this](const Message& lhs, const Message& rhs) {
          return corrected_less(lhs, rhs);
        });
    buffer_.insert(pos, m);
  }

  /// Size of the head batch under the closure rule (BatchRule::kClosure).
  [[nodiscard]] std::size_t head_batch_size_naive() const {
    TOMMY_ASSERT(!buffer_.empty());
    const std::size_t n = buffer_.size();
    std::size_t reach = 0;
    std::size_t absorbed = 0;
    std::size_t e = 1;
    while (e < n) {
      for (; absorbed < e; ++absorbed) {
        for (std::size_t j = absorbed + 1; j < n; ++j) {
          if (!confidently_after(buffer_[j], buffer_[absorbed])) {
            reach = std::max(reach, j);
          }
        }
      }
      if (reach < e) return e;  // clean cut: head batch is buffer_[0..e)
      e = reach + 1;
    }
    return n;
  }

  [[nodiscard]] TimePoint safe_time_for_naive(std::size_t batch_size) const {
    TimePoint t_b = TimePoint(-std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < batch_size; ++k) {
      t_b = std::max(t_b,
                     engine_.safe_emission_time(buffer_[k], config_.p_safe));
    }
    return t_b;
  }

  [[nodiscard]] bool completeness_satisfied_naive(TimePoint t_b,
                                                  TimePoint now) const {
    for (const ClientState& state : clients_) {
      if (state.departed) continue;  // explicit departure: out of the gate
      const bool timed_out =
          config_.client_silence_timeout.is_finite() &&
          (!state.heard ||
           now - state.last_heard > config_.client_silence_timeout);
      if (timed_out) continue;  // liveness guard: drop from the gate
      if (!state.heard) return false;
      const TimePoint frontier = engine_.completeness_frontier(
          state.id, state.high_water, config_.p_safe);
      if (frontier < t_b) return false;
    }
    return true;
  }

  std::vector<EmissionRecord> drain(TimePoint now, bool ignore_gates) {
    std::vector<EmissionRecord> out;
    while (!buffer_.empty()) {
      const std::size_t size = head_batch_size_naive();
      const TimePoint t_b = safe_time_for_naive(size);
      if (!ignore_gates) {
        if (now < t_b) break;
        if (!completeness_satisfied_naive(t_b, now)) break;
      }
      EmissionRecord record;
      record.batch.rank = next_rank_++;
      record.batch.messages.assign(
          buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(size));
      record.emitted_at = now;
      record.safe_time = t_b;
      last_emitted_ = record.batch.messages;
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(size));
      out.push_back(std::move(record));
    }
    return out;
  }

  PrecedingEngine engine_;
  const ClientRegistry& registry_;
  OnlineConfig config_;
  std::vector<ClientState> clients_;
  std::unordered_map<ClientId, std::size_t> slot_by_client_;
  std::deque<Message> buffer_;  // sorted by (corrected stamp, id)
  /// Registry generation buffer_ is sorted for.
  std::uint64_t generation_;
  Rank next_rank_{0};
  std::vector<Message> last_emitted_;  // for violation detection
  std::size_t fairness_violations_{0};
  TimePoint last_arrival_{TimePoint(-std::numeric_limits<double>::infinity())};
};

/// The production OnlineSequencer behind the oracle's Message-based
/// surface, so one templated drive can feed both the same call sequence.
/// Every submit/heartbeat goes through the client's Session, opened once
/// at construction; everything else is the sequencer's own API.
class SessionDriver : public OnlineSequencer {
 public:
  SessionDriver(const ClientRegistry& registry,
                const std::vector<ClientId>& expected_clients,
                OnlineConfig config = {})
      : OnlineSequencer(registry, expected_clients, config) {
    for (ClientId c : expected_clients) sessions_.emplace(c, open_session(c));
  }

  void submit(const Message& m) {
    sessions_.at(m.client).submit(m.stamp, m.id, m.arrival);
  }
  void heartbeat(ClientId c, TimePoint local_stamp, TimePoint now) {
    sessions_.at(c).heartbeat(local_stamp, now);
  }

 private:
  std::unordered_map<ClientId, Session> sessions_;
};

/// The service-level oracle: one OracleSequencer per populated shard of a
/// FairOrderingService, partitioned by the service's own shard_of, plus a
/// from-scratch implementation of the DrainPolicy::kGlobalMerge release
/// rule — held records leave in (safe_time, shard, rank) order once their
/// safe_time is strictly below every oracle shard's next_safe_time.
class OracleShards {
 public:
  struct Tagged {
    EmissionRecord record;
    std::uint32_t shard;
  };

  OracleShards(const ClientRegistry& registry,
               const FairOrderingService& service,
               const std::vector<ClientId>& expected, OnlineConfig config,
               DrainPolicy policy)
      : policy_(policy) {
    std::vector<std::vector<ClientId>> members(service.shard_count());
    for (ClientId c : expected) {
      shard_by_client_[c] = service.shard_of(c);
      members[service.shard_of(c)].push_back(c);
    }
    shards_.resize(service.shard_count());
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (members[s].empty()) continue;
      shards_[s] =
          std::make_unique<OracleSequencer>(registry, members[s], config);
    }
  }

  void submit(const Message& m) { shard_for(m.client).submit(m); }
  void heartbeat(ClientId c, TimePoint local_stamp, TimePoint now) {
    shard_for(c).heartbeat(c, local_stamp, now);
  }

  [[nodiscard]] std::vector<Tagged> poll(TimePoint now) {
    return drain(now, /*flush_all=*/false);
  }
  [[nodiscard]] std::vector<Tagged> flush(TimePoint now) {
    return drain(now, /*flush_all=*/true);
  }

 private:
  OracleSequencer& shard_for(ClientId c) {
    return *shards_[shard_by_client_.at(c)];
  }

  /// A held record keyed by its release order.
  struct Held {
    std::tuple<double, std::uint32_t, Rank> key;
    EmissionRecord record;
    bool operator>(const Held& other) const { return key > other.key; }
  };

  std::vector<Tagged> drain(TimePoint now, bool flush_all) {
    std::vector<Tagged> out;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]) continue;
      auto records =
          flush_all ? shards_[s]->flush(now) : shards_[s]->poll(now);
      for (EmissionRecord& record : records) {
        if (policy_ == DrainPolicy::kShardLocal) {
          out.push_back(Tagged{std::move(record), s});
        } else {
          const auto key = std::make_tuple(record.safe_time.seconds(), s,
                                           record.batch.rank);
          held_.push(Held{key, std::move(record)});
        }
      }
    }
    if (policy_ == DrainPolicy::kShardLocal) return out;
    TimePoint gate = TimePoint::infinite_future();
    for (const auto& shard : shards_) {
      if (shard) gate = std::min(gate, shard->next_safe_time());
    }
    while (!held_.empty() &&
           (flush_all || held_.top().record.safe_time < gate)) {
      out.push_back(Tagged{held_.top().record, std::get<1>(held_.top().key)});
      held_.pop();
    }
    return out;
  }

  std::vector<std::unique_ptr<OracleSequencer>> shards_;
  std::unordered_map<ClientId, std::uint32_t> shard_by_client_;
  DrainPolicy policy_;
  std::priority_queue<Held, std::vector<Held>, std::greater<>> held_;
};

}  // namespace tommy::core::testing
