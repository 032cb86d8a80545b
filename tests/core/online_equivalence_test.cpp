// Equivalence of the online sequencer's constant-time fast path with the
// naive oracle (tests/core/oracle_sequencer.hpp): over randomized
// scenarios — Gaussian and non-Gaussian populations, forced numeric
// evaluation, heartbeats, silence timeouts, client retirement and revival,
// violation-inducing low p_safe, mid-run re-announces — both must emit the
// exact same EmissionRecord sequence (ranks, members, order, emission and
// safe times) and count the same fairness violations. This is the
// contract that lets the critical-gap reduction and the incremental
// closure replace the O(n²) probability sweeps on the hot path.
//
// The same harness also proves the ingest/emission surfaces are pure
// re-skins of that contract: per-connection Session handles on a bare
// sequencer and a 1-shard FairOrderingService (sessions + emission sink)
// must both be bit-identical to the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/online_sequencer.hpp"
#include "core/service.hpp"
#include "oracle_sequencer.hpp"
#include "sim/offline_runner.hpp"
#include "stats/gaussian.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;
using testing::OracleSequencer;
using testing::SessionDriver;

struct Scenario {
  sim::Population population;
  std::vector<Message> messages;       // arrival-feasible input order
  ClientRegistry registry;
  std::vector<ClientId> expected;      // completeness-gate client set
  /// Retire the sender of every retire_every-th message (0 = never); it
  /// stays out of the periodic heartbeats until its next message revives
  /// it.
  std::size_t retire_every{0};
};

enum class Shape { kGaussian, kGumbel, kBimodal, kGaussianRetireRevive };

Scenario make_scenario(std::uint64_t seed, Shape shape, std::size_t clients,
                       std::size_t count, bool silent_last_client) {
  Rng rng(seed);
  // The retire shape keeps clock noise well below the message gap, so
  // batches stay small and the completeness gate (not T_b) decides when
  // they leave: the regime in which a departure changes emissions.
  const double scale = shape == Shape::kGaussianRetireRevive
                           ? rng.uniform(2e-6, 8e-6)
                           : rng.uniform(5e-6, 300e-6);
  auto make_pop = [&]() {
    switch (shape) {
      case Shape::kGumbel:
        return sim::gumbel_population(clients, scale, rng);
      case Shape::kBimodal:
        return sim::bimodal_population(clients, scale, rng);
      case Shape::kGaussian:
      case Shape::kGaussianRetireRevive:
      default:
        return sim::gaussian_population(clients, scale, rng);
    }
  };
  Scenario s{make_pop(), {}, {}, {}, 0};
  s.expected = s.population.ids();
  if (shape == Shape::kGaussianRetireRevive) s.retire_every = 53;
  // Optionally keep the last client silent (never generates) to exercise
  // the silence-timeout path identically in both modes.
  std::vector<ClientId> speakers = s.expected;
  if (silent_last_client) speakers.pop_back();

  const double gap_us = rng.uniform(2.0, 60.0);
  const auto events = sim::poisson_workload(
      speakers, count, Duration::from_micros(gap_us), rng);
  sim::MaterializeConfig mat;
  mat.mean_net_delay = Duration::from_micros(rng.uniform(0.0, 40.0));
  const auto observed =
      sim::materialize_messages(s.population, events, mat, rng);
  s.messages.reserve(observed.size());
  for (const auto& om : observed) s.messages.push_back(om.message);
  // FIFO channels deliver in arrival order.
  std::stable_sort(s.messages.begin(), s.messages.end(),
                   [](const Message& a, const Message& b) {
                     return a.arrival < b.arrival;
                   });
  s.population.seed_registry(s.registry);
  return s;
}

struct DriveResult {
  std::vector<EmissionRecord> records;
  std::size_t violations{0};
  Rank final_rank{0};
  std::size_t pending_after_flush{0};
  std::vector<double> next_safe_samples;
  std::vector<std::vector<ClientId>> timeout_samples;
};

/// Feeds the scenario through `seq` (an OracleSequencer or a
/// SessionDriver) on a deterministic schedule derived only from the input,
/// so both see byte-identical calls: interleaved polls, periodic
/// heartbeats, optional retirements, a settling heartbeat+poll, then a
/// flush of any remainder.
template <typename Seq>
DriveResult drive(Seq& seq, const Scenario& s) {
  DriveResult out;
  auto append = [&](std::vector<EmissionRecord>&& recs) {
    for (auto& r : recs) out.records.push_back(std::move(r));
  };
  std::unordered_set<ClientId> retired;
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    Message copy = m;
    copy.arrival = now;
    seq.submit(copy);
    retired.erase(m.client);  // its own message revives it
    ++k;
    if (s.retire_every != 0 && k % s.retire_every == 0) {
      seq.retire_client(m.client);
      retired.insert(m.client);
    }
    if (k % 13 == 0) {
      for (ClientId c : s.expected) {
        if (!retired.contains(c)) seq.heartbeat(c, now, now);
      }
    }
    if (k % 7 == 0) append(seq.poll(now));
    if (k % 29 == 0) {
      out.next_safe_samples.push_back(seq.next_safe_time().seconds());
      out.timeout_samples.push_back(seq.timed_out_clients(now));
    }
  }
  for (ClientId c : s.expected) seq.heartbeat(c, now + 1_s, now + 1_ms);
  append(seq.poll(now + 1_s));
  append(seq.flush(now + 2_s));
  out.pending_after_flush = seq.pending_count();
  out.violations = seq.fairness_violations();
  out.final_rank = seq.next_rank();
  return out;
}

void expect_identical(const DriveResult& fast, const DriveResult& ref,
                      const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(fast.records.size(), ref.records.size());
  for (std::size_t r = 0; r < fast.records.size(); ++r) {
    SCOPED_TRACE("record " + std::to_string(r));
    const EmissionRecord& a = fast.records[r];
    const EmissionRecord& b = ref.records[r];
    EXPECT_EQ(a.batch.rank, b.batch.rank);
    EXPECT_EQ(a.emitted_at.seconds(), b.emitted_at.seconds());
    EXPECT_EQ(a.safe_time.seconds(), b.safe_time.seconds());
    ASSERT_EQ(a.batch.messages.size(), b.batch.messages.size());
    for (std::size_t m = 0; m < a.batch.messages.size(); ++m) {
      EXPECT_EQ(a.batch.messages[m], b.batch.messages[m]);
    }
  }
  EXPECT_EQ(fast.violations, ref.violations);
  EXPECT_EQ(fast.final_rank, ref.final_rank);
  EXPECT_EQ(fast.pending_after_flush, ref.pending_after_flush);
  EXPECT_EQ(fast.next_safe_samples, ref.next_safe_samples);
  ASSERT_EQ(fast.timeout_samples.size(), ref.timeout_samples.size());
  for (std::size_t t = 0; t < fast.timeout_samples.size(); ++t) {
    EXPECT_EQ(fast.timeout_samples[t], ref.timeout_samples[t]);
  }
}

/// drive() against a FairOrderingService: service sessions for ingest,
/// the emission sink for output. With one shard the collected stream must
/// be bit-identical to the bare sequencer's.
DriveResult drive_service(FairOrderingService& service, const Scenario& s) {
  EXPECT_EQ(s.retire_every, 0u);  // close_session ends a handle for good
  std::unordered_map<ClientId, FairOrderingService::Session> sessions;
  for (ClientId c : s.expected) sessions.emplace(c, service.open_session(c));
  DriveResult out;
  auto collect = [&out](EmissionRecord&& record, std::uint32_t) {
    out.records.push_back(std::move(record));
  };
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    sessions.at(m.client).submit(m.stamp, m.id, now);
    ++k;
    if (k % 13 == 0) {
      for (ClientId c : s.expected) sessions.at(c).heartbeat(now, now);
    }
    if (k % 7 == 0) service.poll(now, collect);
    if (k % 29 == 0) {
      out.next_safe_samples.push_back(service.next_safe_time().seconds());
      // timed_out_clients has no service-level aggregate; sample the
      // shards in index order for the same deterministic view.
      std::vector<ClientId> timed_out;
      for (std::uint32_t sh = 0; sh < service.shard_count(); ++sh) {
        if (!service.has_shard(sh)) continue;
        for (ClientId c : service.shard(sh).timed_out_clients(now)) {
          timed_out.push_back(c);
        }
      }
      out.timeout_samples.push_back(std::move(timed_out));
    }
  }
  for (ClientId c : s.expected) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, collect);
  service.flush(now + 2_s, collect);
  out.pending_after_flush = service.pending_count();
  out.violations = service.fairness_violations();
  Rank final_rank = 0;
  for (std::uint32_t sh = 0; sh < service.shard_count(); ++sh) {
    if (service.has_shard(sh)) final_rank += service.shard(sh).next_rank();
  }
  out.final_rank = final_rank;
  return out;
}

/// The fast path (through sessions) against the oracle on one scenario.
DriveResult run_equivalence(std::uint64_t seed, Shape shape,
                            std::size_t clients, std::size_t count,
                            OnlineConfig config, bool silent_last_client,
                            const char* label) {
  const Scenario s =
      make_scenario(seed, shape, clients, count, silent_last_client);

  SessionDriver fast(s.registry, s.expected, config);
  const DriveResult fast_result = drive(fast, s);

  OracleSequencer oracle(s.registry, s.expected, config);
  const DriveResult oracle_result = drive(oracle, s);

  // Sanity: the drive actually exercised emission, not just buffering.
  EXPECT_FALSE(oracle_result.records.empty());
  expect_identical(fast_result, oracle_result, label);
  return fast_result;
}

/// Asserts both ingest surfaces — session handles on a bare sequencer and
/// a 1-shard service — agree bit-for-bit with the oracle.
void run_surface_equivalence(std::uint64_t seed, Shape shape,
                             std::size_t clients, std::size_t count,
                             OnlineConfig config, const char* label) {
  const Scenario s = make_scenario(seed, shape, clients, count, false);

  OracleSequencer oracle(s.registry, s.expected, config);
  const DriveResult oracle_result = drive(oracle, s);
  EXPECT_FALSE(oracle_result.records.empty());

  SessionDriver sessioned(s.registry, s.expected, config);
  const DriveResult session_result = drive(sessioned, s);
  expect_identical(session_result, oracle_result, label);

  ServiceConfig service_config;
  service_config.with_online(config).with_shards(1);
  FairOrderingService service(s.registry, s.expected, service_config);
  const DriveResult service_result = drive_service(service, s);
  expect_identical(service_result, oracle_result, label);
}

TEST(OnlineEquivalence, GaussianClosedForm) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.999;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    run_equivalence(seed, Shape::kGaussian, 8, 500, config, false,
                    "gaussian");
  }
}

TEST(OnlineEquivalence, GaussianForcedNumeric) {
  OnlineConfig config;
  config.threshold = 0.8;
  config.p_safe = 0.99;
  config.preceding.force_numeric = true;
  config.preceding.grid_points = 256;
  for (std::uint64_t seed : {7u, 13u}) {
    run_equivalence(seed, Shape::kGaussian, 6, 300, config, false,
                    "forced-numeric");
  }
}

TEST(OnlineEquivalence, GumbelNumericPath) {
  OnlineConfig config;
  config.threshold = 0.7;
  config.p_safe = 0.99;
  config.preceding.grid_points = 256;
  for (std::uint64_t seed : {5u, 17u}) {
    run_equivalence(seed, Shape::kGumbel, 6, 300, config, false, "gumbel");
  }
}

TEST(OnlineEquivalence, BimodalMixturePath) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.995;
  config.preceding.grid_points = 256;
  for (std::uint64_t seed : {3u, 9u}) {
    run_equivalence(seed, Shape::kBimodal, 6, 300, config, false, "bimodal");
  }
}

TEST(OnlineEquivalence, SilenceTimeoutWithSilentClient) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.99;
  config.client_silence_timeout = 500_us;
  for (std::uint64_t seed : {21u, 42u}) {
    run_equivalence(seed, Shape::kGaussian, 7, 400, config, true,
                    "silence-timeout");
  }
}

TEST(OnlineEquivalence, ViolationInducingLowPSafe) {
  // Aggressive emission makes late arrivals land behind emitted ranks, so
  // the fairness-violation counters must also agree (and actually count).
  OnlineConfig config;
  config.threshold = 0.6;
  config.p_safe = 0.51;
  std::size_t total_violations = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    total_violations += run_equivalence(seed, Shape::kGaussian, 8, 400,
                                        config, false, "low-p-safe")
                            .violations;
  }
  EXPECT_GT(total_violations, 0u);
}

TEST(OnlineEquivalence, RetireReviveWithSilenceTimeout) {
  // Departures mid-stream: the fast path pulls the retired client's node
  // out of the min-frontier heap (heap_remove_at, usually not the root)
  // while the oracle's gate scan simply skips departed clients; the
  // client's next message puts it back. The finite timeout drops and
  // re-admits silent clients on top, so both exclusion mechanisms
  // interleave.
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.99;
  config.client_silence_timeout = 500_us;
  for (std::uint64_t seed : {21u, 42u}) {
    run_equivalence(seed, Shape::kGaussianRetireRevive, 8, 400, config, false,
                    "retire-revive");
  }
}

/// Gate states where retiring a client pulls a node from the middle of
/// the fast path's min-frontier heap and the node moved into its place
/// must sift UP: seven clients with equal clocks heartbeat high-waters
/// 1, 5, 2, 6, 7, 3, 4 (heap [A1 B5 C2 D6 E7 F3 G4]); retiring D moves G
/// under B, which only a sift-up repairs. A, C and F then move far ahead,
/// so with the repair skipped the root would become B although G is the
/// minimum — and a batch G has not yet cleared would leave early.
template <typename Seq>
std::vector<EmissionRecord> drive_mid_heap_retire(Seq& seq) {
  const double high_waters[] = {1.0, 5.0, 2.0, 6.0, 7.0, 3.0, 4.0};
  for (std::uint32_t c = 0; c < 7; ++c) {
    seq.heartbeat(ClientId(c), TimePoint(high_waters[c]), TimePoint(1.0));
  }
  seq.retire_client(ClientId(3));
  for (std::uint32_t c : {0u, 2u, 5u}) {
    seq.heartbeat(ClientId(c), TimePoint(10.0), TimePoint(1.0));
  }
  // T_b ≈ 4.5 + 2.3 ms: past G's frontier (≈ 4.0), short of B's (≈ 5.0).
  seq.submit(Message{MessageId(1), ClientId(0), TimePoint(4.5),
                     TimePoint(5.0)});
  std::vector<EmissionRecord> out = seq.poll(TimePoint(5.0));
  EXPECT_TRUE(out.empty()) << "G still gates the batch";
  seq.heartbeat(ClientId(6), TimePoint(10.0), TimePoint(5.0));
  for (auto& r : seq.poll(TimePoint(5.0))) out.push_back(std::move(r));
  return out;
}

TEST(OnlineEquivalence, MidHeapRetireKeepsTheGateMinimum) {
  ClientRegistry registry;
  std::vector<ClientId> clients;
  for (std::uint32_t c = 0; c < 7; ++c) {
    registry.announce(ClientId(c),
                      std::make_unique<stats::Gaussian>(0.0, 1e-3));
    clients.push_back(ClientId(c));
  }
  OnlineConfig config;
  config.p_safe = 0.99;
  SessionDriver fast(registry, clients, config);
  OracleSequencer oracle(registry, clients, config);
  const auto fast_records = drive_mid_heap_retire(fast);
  const auto oracle_records = drive_mid_heap_retire(oracle);
  ASSERT_EQ(fast_records.size(), 1u);
  ASSERT_EQ(oracle_records.size(), 1u);
  EXPECT_EQ(fast_records[0].batch.messages, oracle_records[0].batch.messages);
  EXPECT_EQ(fast_records[0].safe_time, oracle_records[0].safe_time);
}

/// The re-announce schedule: the stream arrives in order, client 0 is
/// re-learned as N(new_mean, new_sigma) halfway through, and every
/// `poll_every` messages all clients heartbeat and the sequencer polls.
/// `Seq` is built here against a fresh registry (the announce mutates it).
template <typename Seq>
DriveResult drive_reannounce(const sim::Population& population,
                             const std::vector<sim::ObservedMessage>& observed,
                             const OnlineConfig& config, double new_mean,
                             double new_sigma, std::size_t poll_every) {
  ClientRegistry registry;
  population.seed_registry(registry);
  Seq seq(registry, population.ids(), config);
  DriveResult out;
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const auto& om : observed) {
    now = std::max(now, om.message.arrival);
    Message copy = om.message;
    copy.arrival = now;
    seq.submit(copy);
    if (++k == observed.size() / 2) {
      registry.announce(population.ids().front(),
                        std::make_unique<stats::Gaussian>(new_mean, new_sigma));
    }
    if (k % poll_every == 0) {
      for (ClientId c : population.ids()) seq.heartbeat(c, now, now);
      for (auto& r : seq.poll(now)) out.records.push_back(std::move(r));
    }
  }
  for (ClientId c : population.ids()) {
    seq.heartbeat(c, now + 1_s, now + 1_ms);
  }
  for (auto& r : seq.poll(now + 1_s)) out.records.push_back(std::move(r));
  for (auto& r : seq.flush(now + 2_s)) out.records.push_back(std::move(r));
  out.violations = seq.fairness_violations();
  out.final_rank = seq.next_rank();
  out.pending_after_flush = seq.pending_count();
  return out;
}

TEST(OnlineEquivalence, MidRunReannounceRefreshesConstants) {
  // Re-announcing a distribution mid-run must take effect in the fast
  // path exactly as it does in the oracle: both re-key and re-sort their
  // buffer at the first entry-point call after the announce, so the
  // sorted invariant (and the windowed scans it licenses) holds across
  // the boundary, and sessions opened before the announce refresh their
  // cached offsets through the generation counter. Two regimes: a mild
  // re-learn whose re-sort is a no-op, and a drastic mean shift (≫ every
  // critical gap) landing on a deep backlog, where the re-sort genuinely
  // reorders the pending buffer.
  struct Variant {
    std::uint64_t seed;
    double new_mean;
    double new_sigma;
    std::size_t poll_every;
    const char* label;
  };
  for (const Variant& v :
       {Variant{99, 20e-6, 120e-6, 7, "mild-shift"},
        Variant{99, 0.5, 120e-6, 61, "drastic-shift-deep-buffer"},
        Variant{77, 20e-6, 120e-6, 7, "session-reannounce"}}) {
    Rng rng(v.seed);
    sim::Population population = sim::gaussian_population(6, 50e-6, rng);
    const auto events =
        sim::poisson_workload(population.ids(), 300, 10_us, rng);
    const auto observed = sim::materialize_messages(
        population, events, sim::MaterializeConfig{}, rng);

    OnlineConfig config;
    config.threshold = 0.75;
    config.p_safe = 0.99;
    expect_identical(
        drive_reannounce<SessionDriver>(population, observed, config,
                                        v.new_mean, v.new_sigma,
                                        v.poll_every),
        drive_reannounce<OracleSequencer>(population, observed, config,
                                          v.new_mean, v.new_sigma,
                                          v.poll_every),
        v.label);
  }
}

TEST(OnlineEquivalence, NumericReannounceDropsStaleDensities) {
  // On the numeric path a re-announce must also retire the cached Δθ
  // densities: fresh means mixed with stale difference quantiles would
  // break the critical-gap correspondence (and its row bounds). Drive a
  // forced-numeric run with a drastic mid-run re-learn and require the
  // fast path to stay bit-identical to the oracle.
  Rng rng(1234);
  sim::Population population = sim::gaussian_population(5, 60e-6, rng);
  const auto events = sim::poisson_workload(population.ids(), 200, 12_us, rng);
  const auto observed = sim::materialize_messages(
      population, events, sim::MaterializeConfig{}, rng);

  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.99;
  config.preceding.force_numeric = true;
  config.preceding.grid_points = 128;
  expect_identical(drive_reannounce<SessionDriver>(population, observed,
                                                   config, 5e-3, 200e-6, 17),
                   drive_reannounce<OracleSequencer>(population, observed,
                                                     config, 5e-3, 200e-6, 17),
                   "numeric-reannounce");
}

TEST(OnlineEquivalence, SessionAndServiceSurfacesMatchOracle) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.999;
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    run_surface_equivalence(seed, Shape::kGaussian, 8, 500, config,
                            "surfaces");
  }
  config.p_safe = 0.99;
  for (std::uint64_t seed : {11u, 29u}) {
    run_surface_equivalence(seed, Shape::kGaussian, 6, 250, config,
                            "surfaces-small");
  }
}

TEST(OnlineEquivalence, SessionSurfaceMatchesOracleNumericPath) {
  OnlineConfig config;
  config.threshold = 0.7;
  config.p_safe = 0.99;
  config.preceding.grid_points = 256;
  run_surface_equivalence(17u, Shape::kGumbel, 6, 300, config,
                          "surfaces-numeric");
}

TEST(OnlineEquivalence, SessionSurfaceMatchesOracleWithViolations) {
  // Low p_safe forces emissions past in-flight messages, so the session
  // path's violation accounting must match the oracle's exactly too.
  OnlineConfig config;
  config.threshold = 0.6;
  config.p_safe = 0.51;
  for (std::uint64_t seed : {1u, 2u}) {
    run_surface_equivalence(seed, Shape::kGaussian, 8, 400, config,
                            "surfaces-violations");
  }
}

TEST(OnlineEquivalence, DuplicateExpectedClientsCollapse) {
  // The original unordered_map-backed constructor silently deduplicated
  // repeated expected clients; the dense ClientState vector must do the
  // same or the duplicate entry never hears anything and the
  // completeness gate blocks every emission.
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(0.0, 1e-4));
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 1e-4));
  OnlineConfig config;
  config.p_safe = 0.99;
  OnlineSequencer seq(registry, {ClientId(0), ClientId(0), ClientId(1)},
                      config);
  auto zero = seq.open_session(ClientId(0));
  auto one = seq.open_session(ClientId(1));
  zero.submit(TimePoint(1.0), MessageId(1), TimePoint(1.0));
  zero.heartbeat(TimePoint(10.0), TimePoint(1.1));
  one.heartbeat(TimePoint(10.0), TimePoint(1.1));
  const auto emitted = seq.poll(TimePoint(5.0));
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].batch.messages.size(), 1u);
}

}  // namespace
}  // namespace tommy::core
