// FairOrderingService: the multi-shard front-end over the online
// sequencer — the service boundary scalable fair-ordering deployments
// need (key-range sharding over a shared primed engine, per-connection
// sessions, sink-style emission).
//
// Layering (see docs/architecture.md):
//
//   Session ──► OnlineSequencer shard ──► FairOrderingService
//
//  * A `KeyRouter` statically partitions the expected client set across N
//    shards (default: contiguous client-id ranges). Routing happens once
//    per connection at open_session; the per-message path never consults
//    the router.
//  * Every shard is a full OnlineSequencer over its clients only: its
//    completeness gate waits for its own clients, its ranks are dense
//    within the shard, and its fairness guarantees hold shard-locally.
//    Cross-shard ordering is not arbitrated by default — that is the
//    price of horizontal scale, and the router exists precisely so that
//    keys whose relative order matters can be routed to the same shard.
//    `DrainPolicy::kGlobalMerge` offers a single merged stream for
//    consumers that need one, gated on min(next_safe_time) across shards.
//  * All shards share ONE PrecedingEngine, primed once: the flat
//    critical-gap/offset tables and Δθ density cache are read-mostly
//    derived state of the registry, identical for every shard, so
//    sharing them makes shard count a memory no-op for the engine.
//  * Emission is sink-style: poll(now, sink) hands each emitted batch to
//    the sink exactly once (rvalue, no intermediate vectors), tagged with
//    the emitting shard's index.
//
// ── Execution and threads ───────────────────────────────────────────────
//
// Every call runs inline on the caller's thread: a session submit is the
// shard's ordered-buffer insert, a poll walks the shards in index order.
// Parallelism across shards comes from running shards in separate
// processes (dist::ShardNode), not from threads inside one service.
// Callers serialize ingest, poll/flush, reconfiguration installs and the
// shard state accessors among themselves (the wire front-end does it
// with one ingest mutex). The exceptions are the topology readers
// (expects_client, shard_of, has_shard, engine), the epoch counters
// (primed_generation, epoch) and the reconfig requests (expect_client,
// reconfig_pending, request_reconfig), which are safe from any thread:
// they race only the off-thread primer and installs, under the topology
// lock, the reconfig mutex or atomics.
//
// A 1-shard service is bit-identical to a bare OnlineSequencer (the
// randomized equivalence tests assert this), so the facade costs nothing
// when sharding is not wanted.
//
// ── Live reconfiguration (RCU-style epoch swap) ─────────────────────────
//
// The service can absorb registry churn — re-announced summaries and
// joining clients — without a restart and without dropping traffic:
//
//   announce / expect_client ─► request_reconfig ─► [prime off-thread]
//        ─► try_install_reconfig ─► rebind + publish ─► resume
//
//  * request_reconfig starts (or notes, if one is running) a primer
//    thread that builds a brand-new PrecedingEngine against the updated
//    registry and primes its critical-gap tables — all off the ingest
//    path; the live epoch keeps serving from the old engine meanwhile.
//    A torn prime (an announce landing mid-build) is detected via the
//    generation recorded at build start and simply re-primed.
//  * try_install_reconfig is the swap point, serialized with ingest by
//    the caller like poll: every shard rebinds to the staged engine,
//    shards populated for the first time get sequencers, and the new
//    topology (routes, engine, primed generation, epoch counter) is
//    published under the topology lock. Sessions opened in the old epoch
//    stay valid — they revalidate by generation on next use.
//  * reconfigure() is the blocking convenience loop (prime + install
//    until the service has caught up with the registry); tests and
//    sequential oracles use it for deterministic epoch boundaries.
//  * close_session / retirement: a departed client is removed from its
//    shard's completeness-gate frontier so the gate stops waiting for
//    it; a later submit from the same client revives it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/online_sequencer.hpp"

namespace tommy::core {

/// Pluggable client → shard partition. Must be pure: the service calls it
/// once per expected client at construction and caches the assignment, so
/// a router that answered differently per call would silently misroute.
class KeyRouter {
 public:
  virtual ~KeyRouter() = default;
  /// Shard index in [0, shard_count) for `client`.
  [[nodiscard]] virtual std::uint32_t route(ClientId client,
                                            std::uint32_t shard_count) const
      = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Default router: contiguous client-id ranges. The id span [lo, hi] is
/// split into shard_count equal-width ranges; ids outside the span clamp
/// to the first/last shard. Keeps id-adjacent clients (which usually means
/// topology-adjacent: same region, same rack) on the same shard.
class RangeRouter final : public KeyRouter {
 public:
  /// Routes over the inclusive id span [lo, hi].
  RangeRouter(ClientId lo, ClientId hi);

  [[nodiscard]] std::uint32_t route(ClientId client,
                                    std::uint32_t shard_count) const override;
  [[nodiscard]] std::string name() const override { return "range"; }

 private:
  std::uint64_t lo_;
  std::uint64_t span_;  // hi − lo + 1
};

/// Alternative router for sparse or adversarially clustered id spaces:
/// client id modulo shard count.
class ModuloRouter final : public KeyRouter {
 public:
  [[nodiscard]] std::uint32_t route(ClientId client,
                                    std::uint32_t shard_count) const override;
  [[nodiscard]] std::string name() const override { return "modulo"; }
};

/// How poll/flush hand multi-shard emissions to the sink.
enum class DrainPolicy {
  /// Shard-local order (the default, and the paper's model applied per
  /// shard): each shard's records arrive in its own rank order, shards
  /// visited in index order; cross-shard order is whatever the visit
  /// order produces. Zero added latency.
  kShardLocal,
  /// One merged stream: records are held back and released in ascending
  /// (safe_time T_b, shard, rank) order, a record leaving only once
  /// min(next_safe_time) over all shards has passed its T_b — i.e. once
  /// every shard's next pending batch is provably later. Consumers that
  /// need one total stream trade emission latency (up to one batch per
  /// shard is withheld) for it. flush() releases everything. Two caveats
  /// bound the "total order" claim, both inherited from the per-shard
  /// machinery rather than introduced by the merge: (a) a batch
  /// rank-blocked behind a high-uncertainty batch on its own shard can
  /// carry an earlier T_b than records already released (the same
  /// reordering the per-shard stream itself exhibits w.r.t. T_b), and
  /// (b) a shard with an empty buffer gates nothing (its next_safe_time
  /// is infinite), so a straggler landing on it later — an arrival past
  /// the p_safe margin, probability bounded by the same 1 − p_safe that
  /// bounds fairness violations — can emit behind records it should have
  /// preceded.
  kGlobalMerge,
};

/// Builder-style service configuration.
struct ServiceConfig {
  /// Per-shard sequencer configuration; `online.preceding` configures the
  /// shared engine.
  OnlineConfig online{};
  std::uint32_t shard_count{1};
  /// nullptr → RangeRouter over the expected clients' id span.
  std::shared_ptr<const KeyRouter> router{};
  DrainPolicy drain_policy{DrainPolicy::kShardLocal};

  ServiceConfig& with_online(OnlineConfig config) {
    online = config;
    return *this;
  }
  ServiceConfig& with_shards(std::uint32_t count) {
    shard_count = count;
    return *this;
  }
  ServiceConfig& with_router(std::shared_ptr<const KeyRouter> r) {
    router = std::move(r);
    return *this;
  }
  ServiceConfig& with_threshold(double threshold) {
    online.threshold = threshold;
    return *this;
  }
  ServiceConfig& with_p_safe(double p_safe) {
    online.p_safe = p_safe;
    return *this;
  }
  ServiceConfig& with_drain_policy(DrainPolicy policy) {
    drain_policy = policy;
    return *this;
  }
};

/// Why `open_session` can fail when asked politely (try_open_session):
/// a wire front-end cannot treat a peer-controlled client id as a
/// precondition the way in-process callers do.
enum class OpenError : std::uint8_t {
  kNone,
  /// The client is not in the service's expected set and no reconfig is
  /// pending that would add it (unknown peers have no shard).
  kUnknownClient,
  /// The client is queued to join at the next reconfig install
  /// (expect_client + request_reconfig) but the new epoch has not been
  /// installed yet. Retry after the install — the wire front-end maps
  /// this to a ReconfigPending response.
  kRegistryChanged,
};

[[nodiscard]] const char* to_string(OpenError error);

/// Adapts an invocable `fn(EmissionRecord&&, std::uint32_t shard)` to the
/// EmissionSink interface without allocation or type erasure.
template <typename F>
class CallbackSink final : public EmissionSink {
 public:
  explicit CallbackSink(F& fn) : fn_(fn) {}
  void on_emission(EmissionRecord&& record, std::uint32_t shard) override {
    fn_(std::move(record), shard);
  }

 private:
  F& fn_;
};

class FairOrderingService {
 public:
  /// Per-connection handle bound to its client's shard at open:
  /// submit/heartbeat forward straight to the shard sequencer's session
  /// (no routing, no hashing per message).
  class Session {
   public:
    Session() = default;

    void submit(TimePoint stamp, MessageId id, TimePoint now);
    /// Batched submit; arrivals must be non-decreasing within the span
    /// (per-session FIFO) but are exempt from the cross-session arrival
    /// ordering submit() asserts — batches accumulated per session
    /// interleave with other sessions' traffic by construction, and
    /// per-shard emissions are ingest-order-independent between polls
    /// (see OnlineSequencer::Session::submit_relaxed).
    void submit_batch(std::span<const Submission> items);
    void heartbeat(TimePoint local_stamp, TimePoint now);

    [[nodiscard]] ClientId client() const { return client_; }
    [[nodiscard]] std::uint32_t shard() const { return shard_; }

   private:
    friend class FairOrderingService;

    OnlineSequencer::Session inner_;
    ClientId client_{};
    std::uint32_t shard_{0};
  };

  /// The registry must cover every expected client and outlive the
  /// service. Shards with no routed clients are simply absent (their
  /// index stays valid; they emit nothing).
  FairOrderingService(const ClientRegistry& registry,
                      std::vector<ClientId> expected_clients,
                      ServiceConfig config = {});
  ~FairOrderingService();

  FairOrderingService(const FairOrderingService&) = delete;
  FairOrderingService& operator=(const FairOrderingService&) = delete;

  /// Opens an ingest handle for `client`; the one place routing happens.
  /// An unknown client is a precondition failure — external callers with
  /// peer-controlled ids should use try_open_session.
  [[nodiscard]] Session open_session(ClientId client);

  /// Non-aborting open_session for connection front-ends: returns nullopt
  /// (and the reason via `error`) instead of failing a precondition on
  /// unknown clients, and reports clients queued to join at the next
  /// install (OpenError::kRegistryChanged).
  [[nodiscard]] std::optional<Session> try_open_session(
      ClientId client, OpenError* error = nullptr);

  /// True iff `client` currently has a shard (expected at construction or
  /// added by a reconfig install). Thread-safe.
  [[nodiscard]] bool expects_client(ClientId client) const;

  /// Registry generation the live epoch's engine was primed at. Moves
  /// forward at each reconfig install; sessions revalidate against it.
  [[nodiscard]] std::uint64_t primed_generation() const {
    return primed_generation_.load(std::memory_order_acquire);
  }

  // ── Live reconfiguration ────────────────────────────────────────────
  // See the file-header section. expect_client, reconfig_pending and
  // request_reconfig are thread-safe; the installs rebind live shards
  // and are serialized with ingest and poll by the caller.

  /// Queues `client` (which must already be announced in the registry)
  /// to join the service at the next reconfig install. Idempotent; a
  /// no-op for clients that already have a shard.
  void expect_client(ClientId client);

  /// True iff an install is outstanding: the registry generation has
  /// moved past the live epoch's, or clients are queued to join.
  [[nodiscard]] bool reconfig_pending() const;

  /// Starts priming a new epoch off-thread if one is needed and no primer
  /// is already running. Returns the registry generation the reconfig is
  /// targeting (callers can poll primed_generation() against it).
  std::uint64_t request_reconfig();

  /// Installs the staged epoch if the primer has finished: rebinds shards
  /// to the new engine, publishes the new topology. Returns true on
  /// install; false when nothing was staged, the stage was torn (a
  /// re-prime is kicked off), or no reconfig is pending.
  bool try_install_reconfig();

  /// Blocking convenience: prime + install until the service has caught
  /// up with the registry and no joins are queued. Deterministic epoch
  /// boundary for tests and sequential oracles.
  void reconfigure();

  /// Monotone count of installed epochs (0 = the constructed epoch).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Retires the session's client from its shard's completeness gate: the
  /// gate stops waiting for the client immediately. The handle must not
  /// be used afterwards; a later open_session + submit for the same
  /// client revives it.
  void close_session(Session& session);

  /// Drains every shard's safe batches into `sink` (shard-tagged; order
  /// per the configured DrainPolicy). Returns the number of batches
  /// handed to the sink by this call.
  std::size_t poll(TimePoint now, EmissionSink& sink);
  /// Callback overload: fn(EmissionRecord&&, std::uint32_t shard).
  /// Constrained so EmissionSink implementations always take the sink
  /// overload above instead of being wrapped (and failing to compile)
  /// here.
  template <typename F>
    requires(!std::is_base_of_v<EmissionSink, std::remove_reference_t<F>>)
  std::size_t poll(TimePoint now, F&& fn) {
    CallbackSink<F> sink(fn);
    return poll(now, static_cast<EmissionSink&>(sink));
  }

  /// Shutdown drain, ignoring the emission gates (see
  /// OnlineSequencer::flush). Under kGlobalMerge also releases every
  /// held-back record. Returns the number of batches emitted.
  std::size_t flush(TimePoint now, EmissionSink& sink);
  template <typename F>
    requires(!std::is_base_of_v<EmissionSink, std::remove_reference_t<F>>)
  std::size_t flush(TimePoint now, F&& fn) {
    CallbackSink<F> sink(fn);
    return flush(now, static_cast<EmissionSink&>(sink));
  }

  /// Earliest next_safe_time across shards (infinite future when all
  /// buffers are empty) — the next instant a poll could emit. Does not
  /// account for records the global merge is holding back (those are
  /// already emitted, merely withheld).
  [[nodiscard]] TimePoint next_safe_time() const;

  /// One shard's own frontier — the same value the aggregate minimizes
  /// over, without the min: what a distributed shard node lifts onto the
  /// wire as its SafeTimeAnnounce, leaving the merge tier to recompute
  /// min over its live peers. Infinite future for an absent (never
  /// populated) shard — an empty buffer gates nothing, exactly as in the
  /// in-process merge. Precondition: `shard` < shard_count().
  [[nodiscard]] TimePoint next_safe_time(std::uint32_t shard) const;

  [[nodiscard]] std::size_t pending_count() const;
  [[nodiscard]] std::size_t fairness_violations() const;
  /// Messages inside batches the global merge has emitted but not yet
  /// released (always 0 under kShardLocal).
  [[nodiscard]] std::size_t held_back_count() const;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Shard assignment of `client` (hash lookup; cold path). Thread-safe.
  [[nodiscard]] std::uint32_t shard_of(ClientId client) const;
  /// Direct access to a shard's sequencer (diagnostics, tests).
  /// Precondition: the shard exists (some client routed to it).
  [[nodiscard]] const OnlineSequencer& shard(std::uint32_t index) const;
  [[nodiscard]] OnlineSequencer& shard(std::uint32_t index);
  [[nodiscard]] bool has_shard(std::uint32_t index) const;

  /// The live epoch's engine. Do not hold the reference across a reconfig
  /// install (the epoch swap retires it).
  [[nodiscard]] const PrecedingEngine& engine() const;
  [[nodiscard]] const KeyRouter& router() const { return *router_; }
  [[nodiscard]] const ClientRegistry& registry() const { return registry_; }

 private:
  /// The drain core poll/flush share.
  std::size_t drain(TimePoint now, bool flush_all, EmissionSink& sink);
  /// Releases held-back records (kGlobalMerge) whose safe_time has been
  /// passed by `min_next_safe`; everything when `release_all`.
  std::size_t release_merged(TimePoint min_next_safe, bool release_all,
                             EmissionSink& sink);

  /// Launches the off-thread primer. Requires reconfig_.mutex held and no
  /// primer currently running (reconfig_.priming false).
  void start_prime_locked();
  /// The swap: rebinds every shard, creates shards for first-time-
  /// populated partitions, then publishes routes, engine, generation,
  /// and epoch.
  void install_staged(std::shared_ptr<const PrecedingEngine> staged,
                      std::vector<ClientId> joins);
  /// Steals and joins the primer thread (never call holding
  /// reconfig_.mutex while the primer may still want it).
  void join_primer();

  /// Off-thread prime state for the next epoch.
  struct Reconfig {
    mutable std::mutex mutex;
    std::thread primer;
    /// Staged engine, handed off exactly once to the installer that
    /// clears `ready`.
    std::shared_ptr<const PrecedingEngine> staged;
    /// Announced clients awaiting a shard at the next install.
    std::vector<ClientId> pending_clients;
    bool priming{false};
    std::atomic<bool> ready{false};
  };

  const ClientRegistry& registry_;
  std::shared_ptr<const KeyRouter> router_;
  OnlineConfig online_config_{};
  /// Guards the published topology: shard_by_client_, shards_ slot
  /// pointers, engine_. Readers (expects_client, shard_of, open paths)
  /// take it shared; only install_staged takes it unique.
  mutable std::shared_mutex topology_mutex_;
  std::shared_ptr<const PrecedingEngine> engine_;
  std::vector<std::unique_ptr<OnlineSequencer>> shards_;
  std::unordered_map<ClientId, std::uint32_t> shard_by_client_;
  DrainPolicy drain_policy_{DrainPolicy::kShardLocal};
  std::atomic<std::uint64_t> primed_generation_{0};
  std::atomic<std::uint64_t> epoch_{0};
  Reconfig reconfig_;
  /// kGlobalMerge holdback: emitted records not yet released, with their
  /// shard tags, as a binary min-heap on (safe_time, shard, rank) — a
  /// release round pops the released prefix in O(released · log H)
  /// instead of re-sorting the whole holdback. (shard, rank) is unique,
  /// so pop order equals the fully-sorted order.
  std::vector<std::pair<EmissionRecord, std::uint32_t>> holdback_;
};

}  // namespace tommy::core
