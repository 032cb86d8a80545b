// FairOrderingService facade + session-handle surface: routing, shard
// composition over the shared primed engine, sink emission, session
// lifecycle (unknown clients, re-announce/generation refresh, flush
// interleaving), and the ingest FIFO-contract precondition.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "oracle_sequencer.hpp"
#include "sim/offline_runner.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"
#include "stats/gaussian.hpp"
#include "stats/summary.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

constexpr double kSigma = 1e-3;

ClientRegistry make_registry(std::uint32_t n, double sigma = kSigma) {
  ClientRegistry registry;
  for (std::uint32_t c = 0; c < n; ++c) {
    registry.announce(ClientId(c),
                      std::make_unique<stats::Gaussian>(0.0, sigma));
  }
  return registry;
}

std::vector<ClientId> ids(std::uint32_t n) {
  std::vector<ClientId> out;
  for (std::uint32_t c = 0; c < n; ++c) out.push_back(ClientId(c));
  return out;
}

/// The randomized stream the multi-shard tests replay: 12 Gaussian
/// clients, 600 Poisson messages, in FIFO arrival order.
struct LiveStream {
  sim::Population pop;
  std::vector<sim::ObservedMessage> observed;
};

LiveStream live_stream() {
  Rng rng(123);
  LiveStream stream{sim::gaussian_population(12, 60e-6, rng), {}};
  const auto events =
      sim::poisson_workload(stream.pop.ids(), 600, 15_us, rng);
  stream.observed = sim::materialize_messages(stream.pop, events,
                                              sim::MaterializeConfig{}, rng);
  std::stable_sort(stream.observed.begin(), stream.observed.end(),
                   [](const sim::ObservedMessage& a,
                      const sim::ObservedMessage& b) {
                     return a.message.arrival < b.message.arrival;
                   });
  return stream;
}

TEST(KeyRouters, RangeRouterSplitsTheSpanEvenly) {
  const RangeRouter router(ClientId(0), ClientId(99));
  std::vector<std::size_t> counts(4, 0);
  for (std::uint32_t c = 0; c < 100; ++c) {
    const std::uint32_t s = router.route(ClientId(c), 4);
    ASSERT_LT(s, 4u);
    ++counts[s];
  }
  for (std::size_t count : counts) EXPECT_EQ(count, 25u);
  // Ranges are contiguous: routing is monotone in the id.
  std::uint32_t prev = 0;
  for (std::uint32_t c = 0; c < 100; ++c) {
    const std::uint32_t s = router.route(ClientId(c), 4);
    EXPECT_GE(s, prev);
    prev = s;
  }
  // Ids outside the span clamp instead of crashing.
  EXPECT_EQ(router.route(ClientId(1000), 4), 3u);
}

TEST(KeyRouters, ModuloRouterWrapsIds) {
  const ModuloRouter router;
  for (std::uint32_t c = 0; c < 20; ++c) {
    EXPECT_EQ(router.route(ClientId(c), 3), c % 3);
  }
}

TEST(FairOrderingServiceTest, PartitionsClientsAcrossShards) {
  const ClientRegistry registry = make_registry(8);
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  FairOrderingService service(registry, ids(8), config);

  EXPECT_EQ(service.shard_count(), 2u);
  EXPECT_TRUE(service.has_shard(0));
  EXPECT_TRUE(service.has_shard(1));
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(service.shard_of(ClientId(c)), c < 4 ? 0u : 1u);
  }
}

TEST(FairOrderingServiceTest, EmptyShardsAreTolerated) {
  const ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  // Everything routes to shard 0 of 3; shards 1 and 2 stay unpopulated.
  class ZeroRouter final : public KeyRouter {
   public:
    std::uint32_t route(ClientId, std::uint32_t) const override { return 0; }
    std::string name() const override { return "zero"; }
  };
  config.with_shards(3).with_router(std::make_shared<ZeroRouter>());
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(4), config);

  EXPECT_TRUE(service.has_shard(0));
  EXPECT_FALSE(service.has_shard(1));
  EXPECT_FALSE(service.has_shard(2));

  auto session = service.open_session(ClientId(2));
  session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  EXPECT_EQ(service.pending_count(), 1u);
  std::size_t emitted = 0;
  EXPECT_EQ(service.poll(TimePoint(1.0),
                         [&](EmissionRecord&&, std::uint32_t) { ++emitted; }),
            0u);  // completeness gate: quiet clients block, shards absent
                  // from the partition do not
  EXPECT_EQ(service.next_safe_time(),
            service.shard(0).next_safe_time());
}

TEST(FairOrderingServiceTest, SinkReceivesShardTaggedRankOrderedBatches) {
  const ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  FairOrderingService service(registry, ids(4), config);

  std::unordered_map<std::uint32_t, FairOrderingService::Session> sessions;
  for (std::uint32_t c = 0; c < 4; ++c) {
    sessions.emplace(c, service.open_session(ClientId(c)));
  }
  EXPECT_EQ(sessions.at(0).shard(), 0u);
  EXPECT_EQ(sessions.at(3).shard(), 1u);

  // Two well-separated messages per shard.
  sessions.at(0).submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  sessions.at(3).submit(TimePoint(1.05), MessageId(2), TimePoint(1.051));
  sessions.at(1).submit(TimePoint(1.1), MessageId(3), TimePoint(1.101));
  sessions.at(2).submit(TimePoint(1.15), MessageId(4), TimePoint(1.151));

  for (std::uint32_t c = 0; c < 4; ++c) {
    sessions.at(c).heartbeat(TimePoint(20.0), TimePoint(1.2));
  }

  std::vector<std::pair<std::uint32_t, Rank>> seen;  // (shard, rank)
  std::vector<MessageId> order;
  const std::size_t emitted =
      service.poll(TimePoint(10.0), [&](EmissionRecord&& record,
                                        std::uint32_t shard) {
        seen.emplace_back(shard, record.batch.rank);
        for (const Message& m : record.batch.messages) order.push_back(m.id);
      });
  EXPECT_EQ(emitted, 4u);
  // Shards are visited in index order; ranks are dense per shard.
  const std::vector<std::pair<std::uint32_t, Rank>> expected_seen = {
      {0u, 0u}, {0u, 1u}, {1u, 0u}, {1u, 1u}};
  EXPECT_EQ(seen, expected_seen);
  const std::vector<MessageId> expected_order = {MessageId(1), MessageId(3),
                                                 MessageId(2), MessageId(4)};
  EXPECT_EQ(order, expected_order);
  EXPECT_EQ(service.pending_count(), 0u);
}

TEST(FairOrderingServiceTest, MultiShardMatchesIndependentBareSequencers) {
  // A sharded service must behave exactly like N bare sequencers, each
  // fed its routed sub-stream: randomized check, per-shard bit-identical
  // emissions.
  const LiveStream stream = live_stream();
  const sim::Population& pop = stream.pop;
  const auto& observed = stream.observed;
  ClientRegistry registry;
  pop.seed_registry(registry);
  constexpr std::uint32_t kShards = 3;
  ServiceConfig config;
  config.with_shards(kShards).with_p_safe(0.995);
  FairOrderingService service(registry, pop.ids(), config);

  // Independent twins: one bare sequencer per shard over that shard's
  // clients only (sharing the service's partition via shard_of).
  std::vector<std::vector<ClientId>> members(kShards);
  for (ClientId c : pop.ids()) {
    members[service.shard_of(c)].push_back(c);
  }
  OnlineConfig online;
  online.p_safe = 0.995;
  std::vector<std::unique_ptr<testing::SessionDriver>> twins;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_FALSE(members[s].empty());
    twins.push_back(std::make_unique<testing::SessionDriver>(
        registry, members[s], online));
  }

  std::unordered_map<ClientId, FairOrderingService::Session> sessions;
  for (ClientId c : pop.ids()) sessions.emplace(c, service.open_session(c));

  std::vector<std::vector<EmissionRecord>> service_out(kShards);
  auto sink = [&](EmissionRecord&& record, std::uint32_t shard) {
    service_out[shard].push_back(std::move(record));
  };
  std::vector<std::vector<EmissionRecord>> twin_out(kShards);

  TimePoint now(0.0);
  std::size_t k = 0;
  for (const auto& om : observed) {
    now = std::max(now, om.message.arrival);
    const std::uint32_t shard = service.shard_of(om.message.client);
    sessions.at(om.message.client)
        .submit(om.message.stamp, om.message.id, now);
    Message copy = om.message;
    copy.arrival = now;
    twins[shard]->submit(copy);
    ++k;
    if (k % 11 == 0) {
      for (ClientId c : pop.ids()) {
        sessions.at(c).heartbeat(now, now);
        twins[service.shard_of(c)]->heartbeat(c, now, now);
      }
    }
    if (k % 5 == 0) {
      service.poll(now, sink);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        for (auto& r : twins[s]->poll(now)) {
          twin_out[s].push_back(std::move(r));
        }
      }
    }
  }
  for (ClientId c : pop.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
    twins[service.shard_of(c)]->heartbeat(c, now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, sink);
  service.flush(now + 2_s, sink);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (auto& r : twins[s]->poll(now + 1_s)) twin_out[s].push_back(std::move(r));
    for (auto& r : twins[s]->flush(now + 2_s)) {
      twin_out[s].push_back(std::move(r));
    }
  }

  std::size_t total = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_EQ(service_out[s].size(), twin_out[s].size());
    for (std::size_t r = 0; r < service_out[s].size(); ++r) {
      const EmissionRecord& a = service_out[s][r];
      const EmissionRecord& b = twin_out[s][r];
      EXPECT_EQ(a.batch.rank, b.batch.rank);
      EXPECT_EQ(a.emitted_at.seconds(), b.emitted_at.seconds());
      EXPECT_EQ(a.safe_time.seconds(), b.safe_time.seconds());
      ASSERT_EQ(a.batch.messages.size(), b.batch.messages.size());
      for (std::size_t m = 0; m < a.batch.messages.size(); ++m) {
        EXPECT_EQ(a.batch.messages[m], b.batch.messages[m]);
      }
      total += a.batch.messages.size();
    }
    EXPECT_EQ(service.shard(s).fairness_violations(),
              twins[s]->fairness_violations());
  }
  EXPECT_EQ(total, observed.size());
  EXPECT_EQ(service.pending_count(), 0u);
}

TEST(FairOrderingServiceTest, GlobalMergeMatchesTheOracleMerge) {
  // kGlobalMerge against one oracle per shard and the oracle's own
  // (safe_time, shard, rank) release heap, under live traffic: heartbeats
  // and polls interleave with ingest, so the release gate — not the final
  // flush — decides what leaves when. Delivery order must match exactly.
  const LiveStream stream = live_stream();
  const sim::Population& pop = stream.pop;
  const auto& observed = stream.observed;
  ClientRegistry registry;
  pop.seed_registry(registry);
  ServiceConfig config;
  config.with_shards(3).with_p_safe(0.995).with_drain_policy(
      DrainPolicy::kGlobalMerge);
  FairOrderingService service(registry, pop.ids(), config);
  testing::OracleShards oracle(registry, service, pop.ids(), config.online,
                               DrainPolicy::kGlobalMerge);

  using Delivery = std::tuple<std::uint32_t, Rank, std::vector<MessageId>>;
  auto delivery = [](const EmissionRecord& record, std::uint32_t shard) {
    std::vector<MessageId> ids;
    for (const Message& m : record.batch.messages) ids.push_back(m.id);
    return Delivery{shard, record.batch.rank, std::move(ids)};
  };
  std::vector<Delivery> got;
  std::vector<Delivery> want;
  auto sink = [&](EmissionRecord&& record, std::uint32_t shard) {
    got.push_back(delivery(record, shard));
  };
  auto take = [&](std::vector<testing::OracleShards::Tagged>&& records) {
    for (const auto& t : records) want.push_back(delivery(t.record, t.shard));
  };

  std::unordered_map<ClientId, FairOrderingService::Session> sessions;
  for (ClientId c : pop.ids()) sessions.emplace(c, service.open_session(c));
  std::size_t max_held = 0;
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const auto& om : observed) {
    now = std::max(now, om.message.arrival);
    sessions.at(om.message.client)
        .submit(om.message.stamp, om.message.id, now);
    Message copy = om.message;
    copy.arrival = now;
    oracle.submit(copy);
    if (++k % 11 == 0) {
      for (ClientId c : pop.ids()) {
        sessions.at(c).heartbeat(now, now);
        oracle.heartbeat(c, now, now);
      }
    }
    if (k % 5 == 0) {
      service.poll(now, sink);
      take(oracle.poll(now));
      max_held = std::max(max_held, service.held_back_count());
    }
  }
  for (ClientId c : pop.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
    oracle.heartbeat(c, now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, sink);
  take(oracle.poll(now + 1_s));
  service.flush(now + 2_s, sink);
  take(oracle.flush(now + 2_s));

  EXPECT_GT(max_held, 0u);  // the gate actually withheld records
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, want);
}

TEST(FairOrderingServiceTest, FlushInterleavesWithLiveSessions) {
  // flush() is a gate-ignoring drain, not a terminal state: sessions keep
  // submitting afterwards and ranks stay dense.
  const ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.999);
  FairOrderingService service(registry, ids(2), config);
  auto a = service.open_session(ClientId(0));
  auto b = service.open_session(ClientId(1));

  a.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  b.submit(TimePoint(1.1), MessageId(2), TimePoint(1.101));

  // Mid-stream shutdown drain: both messages leave despite closed gates.
  std::vector<EmissionRecord> flushed;
  EXPECT_EQ(service.flush(TimePoint(1.2),
                          [&](EmissionRecord&& r, std::uint32_t) {
                            flushed.push_back(std::move(r));
                          }),
            2u);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].batch.rank, 0u);
  EXPECT_EQ(flushed[1].batch.rank, 1u);
  EXPECT_EQ(service.pending_count(), 0u);

  // The same sessions stay live and feed the next ranks.
  a.submit(TimePoint(2.0), MessageId(3), TimePoint(2.001));
  b.submit(TimePoint(2.1), MessageId(4), TimePoint(2.101));
  a.heartbeat(TimePoint(30.0), TimePoint(2.2));
  b.heartbeat(TimePoint(30.0), TimePoint(2.2));
  std::vector<EmissionRecord> polled;
  service.poll(TimePoint(10.0), [&](EmissionRecord&& r, std::uint32_t) {
    polled.push_back(std::move(r));
  });
  ASSERT_EQ(polled.size(), 2u);
  EXPECT_EQ(polled[0].batch.rank, 2u);  // ranks continue past the flush
  EXPECT_EQ(polled[0].batch.messages[0].id, MessageId(3));
  EXPECT_EQ(polled[1].batch.rank, 3u);
  EXPECT_EQ(service.fairness_violations(), 0u);
}

TEST(FairOrderingServiceTest, BareSequencerFlushInterleavesWithSessions) {
  // Same interleaving at the OnlineSequencer level (no facade).
  const ClientRegistry registry = make_registry(2);
  OnlineConfig config;
  config.p_safe = 0.999;
  OnlineSequencer seq(registry, ids(2), config);
  auto a = seq.open_session(ClientId(0));
  auto b = seq.open_session(ClientId(1));

  a.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  const auto flushed = seq.flush(TimePoint(1.1));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].batch.rank, 0u);

  b.submit(TimePoint(2.0), MessageId(2), TimePoint(2.001));
  a.submit(TimePoint(2.2), MessageId(3), TimePoint(2.201));
  a.heartbeat(TimePoint(30.0), TimePoint(2.3));
  b.heartbeat(TimePoint(30.0), TimePoint(2.3));
  const auto polled = seq.poll(TimePoint(10.0));
  ASSERT_EQ(polled.size(), 2u);
  EXPECT_EQ(polled[0].batch.rank, 1u);
  EXPECT_EQ(polled[0].batch.messages[0].id, MessageId(2));
  EXPECT_EQ(polled[1].batch.rank, 2u);
  EXPECT_EQ(seq.next_rank(), 3u);
}

TEST(FairOrderingServiceTest, OpenSessionOnUnknownClientDies) {
  const ClientRegistry registry = make_registry(2);
  OnlineConfig config;
  config.p_safe = 0.99;
  OnlineSequencer seq(registry, ids(2), config);
  EXPECT_DEATH((void)seq.open_session(ClientId(99)), "precondition");

  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  EXPECT_DEATH((void)service.open_session(ClientId(99)), "precondition");
}

TEST(FairOrderingServiceTest, OpenSessionOnRegisteredButUnexpectedClientDies) {
  // Registry knows client 2, but the sequencer's expected set does not:
  // sessions (like the legacy entry points) must refuse it.
  const ClientRegistry registry = make_registry(3);
  OnlineConfig config;
  config.p_safe = 0.99;
  OnlineSequencer seq(registry, ids(2), config);
  EXPECT_DEATH((void)seq.open_session(ClientId(2)), "precondition");
}

TEST(FairOrderingServiceTest, SessionRefreshesAfterReannounce) {
  // Generation-counter path: a session opened before a re-announce keeps
  // working and picks up the new distribution (visible through T_b, which
  // tracks the re-announced safe-emission quantile).
  ClientRegistry registry;
  registry.announce(ClientId(0),
                    std::make_unique<stats::Gaussian>(0.0, 1e-3));
  registry.announce(ClientId(1),
                    std::make_unique<stats::Gaussian>(0.0, 1e-3));
  OnlineConfig config;
  config.p_safe = 0.999;
  OnlineSequencer seq(registry, ids(2), config);
  auto session = seq.open_session(ClientId(0));

  session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  const double tb_tight = seq.next_safe_time().seconds();
  EXPECT_NEAR(tb_tight, 1.0 + 1e-3 * 3.0902, 1e-5);
  (void)seq.flush(TimePoint(1.5));

  // Client 0's clock is re-learned 100× wider. The already-open session
  // must serve the new constants (stale caches would keep the old T_b).
  registry.announce(ClientId(0),
                    std::make_unique<stats::Gaussian>(0.0, 0.1));
  session.submit(TimePoint(2.0), MessageId(2), TimePoint(2.001));
  const double tb_wide = seq.next_safe_time().seconds();
  EXPECT_NEAR(tb_wide, 2.0 + 0.1 * 3.0902, 1e-3);

  // And a session opened after the re-announce agrees with it.
  auto fresh = seq.open_session(ClientId(0));
  fresh.submit(TimePoint(2.0001), MessageId(3), TimePoint(2.01));
  EXPECT_NEAR(seq.next_safe_time().seconds(), tb_wide, 2e-3);
}

TEST(FairOrderingServiceTest, OutOfOrderArrivalDies) {
  // The ingest contract (FIFO delivery: arrival stamps non-decreasing
  // across every session of a sequencer) is a checked precondition.
  const ClientRegistry registry = make_registry(2);
  OnlineConfig config;
  config.p_safe = 0.99;

  OnlineSequencer seq(registry, ids(2), config);
  auto session = seq.open_session(ClientId(0));
  auto other = seq.open_session(ClientId(1));
  session.submit(TimePoint(1.0), MessageId(1), TimePoint(2.0));
  EXPECT_DEATH(session.submit(TimePoint(1.1), MessageId(2), TimePoint(1.0)),
               "precondition");
  EXPECT_DEATH(other.submit(TimePoint(1.1), MessageId(2), TimePoint(1.0)),
               "precondition");
}

TEST(FairOrderingServiceTest, ServiceConfigBuilderComposes) {
  ServiceConfig config;
  OnlineConfig online;
  online.client_silence_timeout = 5_ms;
  config.with_online(online)
      .with_threshold(0.8)
      .with_p_safe(0.995)
      .with_shards(2)
      .with_router(std::make_shared<ModuloRouter>());
  EXPECT_EQ(config.online.threshold, 0.8);
  EXPECT_EQ(config.online.p_safe, 0.995);
  EXPECT_EQ(config.online.client_silence_timeout, 5_ms);
  EXPECT_EQ(config.shard_count, 2u);
  ASSERT_NE(config.router, nullptr);
  EXPECT_EQ(config.router->name(), "modulo");

  const ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(4), config);
  EXPECT_EQ(service.router().name(), "modulo");
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(service.shard_of(ClientId(c)), c % 2);
  }
}

TEST(FairOrderingServiceTest, CustomSinkClassTakesTheSinkOverload) {
  // A user-defined EmissionSink lvalue must bind to poll(now,
  // EmissionSink&), not get wrapped by the constrained callback
  // template (which would not compile).
  class CountingSink final : public EmissionSink {
   public:
    void on_emission(EmissionRecord&& record, std::uint32_t) override {
      messages += record.batch.messages.size();
    }
    std::size_t messages{0};
  };

  const ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  auto session = service.open_session(ClientId(0));
  session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  session.heartbeat(TimePoint(20.0), TimePoint(1.1));
  service.open_session(ClientId(1)).heartbeat(TimePoint(20.0), TimePoint(1.1));

  CountingSink sink;
  EXPECT_EQ(service.poll(TimePoint(10.0), sink), 1u);
  EXPECT_EQ(sink.messages, 1u);
}

TEST(FairOrderingServiceTest, MismatchedSharedEngineConfigDies) {
  // Two sequencers sharing one engine with different (threshold, p_safe)
  // would re-prime the whole engine on every call; that misuse is a
  // checked precondition at construction.
  const ClientRegistry registry = make_registry(2);
  auto engine = std::make_shared<const PrecedingEngine>(registry);
  OnlineConfig first;
  first.p_safe = 0.99;
  OnlineSequencer a(engine, ids(2), first);
  OnlineConfig second;
  second.p_safe = 0.999;  // disagrees with what `a` primed
  EXPECT_DEATH(OnlineSequencer(engine, ids(2), second), "precondition");
}

TEST(FairOrderingServiceTest, SharedEngineIsPrimedOnceAndReallyShared) {
  const ClientRegistry registry = make_registry(6);
  ServiceConfig config;
  config.with_shards(3).with_p_safe(0.99);
  FairOrderingService service(registry, ids(6), config);
  EXPECT_TRUE(service.engine().fast_ready(config.online.threshold,
                                          config.online.p_safe));
  for (std::uint32_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(service.has_shard(s));
    // Every shard sees the whole registry through the one engine.
    EXPECT_EQ(&service.shard(s).registry(), &registry);
  }
}

// ── Connection-front-end hooks (try_open_session & friends) ─────────────

TEST(FairOrderingServiceTest, ExpectsClientReflectsTheExpectedSet) {
  const ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(3), {});  // client 3 not expected
  EXPECT_TRUE(service.expects_client(ClientId(0)));
  EXPECT_TRUE(service.expects_client(ClientId(2)));
  EXPECT_FALSE(service.expects_client(ClientId(3)));
  EXPECT_FALSE(service.expects_client(ClientId(99)));
}

TEST(FairOrderingServiceTest, TryOpenSessionReportsUnknownClients) {
  const ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), {});

  OpenError error{};
  auto session = service.try_open_session(ClientId(7), &error);
  EXPECT_FALSE(session.has_value());
  EXPECT_EQ(error, OpenError::kUnknownClient);

  session = service.try_open_session(ClientId(1), &error);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(error, OpenError::kNone);
  session->submit(TimePoint(1.0), MessageId(5), TimePoint(1.01));
  EXPECT_EQ(service.pending_count(), 1u);
}

TEST(FairOrderingServiceTest, MovedRegistryKeepsSessionsOpenAndReconfigures) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  EXPECT_EQ(service.primed_generation(), registry.generation());
  EXPECT_FALSE(service.reconfig_pending());

  // A changed re-announce does not freeze the service: known
  // clients keep opening sessions against the live epoch while the
  // reconfig is outstanding.
  registry.announce(ClientId(0),
                    stats::DistributionSummary(stats::GaussianParams{0.0, kSigma}));
  const std::uint64_t moved = registry.generation();
  EXPECT_NE(moved, service.primed_generation());
  EXPECT_TRUE(service.reconfig_pending());

  OpenError error{};
  const auto session = service.try_open_session(ClientId(0), &error);
  EXPECT_TRUE(session.has_value());
  EXPECT_EQ(error, OpenError::kNone);

  // The blocking convenience loop installs the new epoch.
  service.reconfigure();
  EXPECT_EQ(service.primed_generation(), moved);
  EXPECT_FALSE(service.reconfig_pending());
  EXPECT_GE(service.epoch(), 1u);
}

TEST(FairOrderingServiceTest, AnnounceRefreshesEveryShardSharingTheEngine) {
  // A re-announce moves a client on shard 1, but shard 0 is the first to
  // touch the shared engine afterwards and re-primes it. Shard 1 must
  // still re-key its buffered entries before the install, exactly as the
  // per-shard oracle re-sorts.
  std::vector<Message> stream;  // clients 2 and 3 live on shard 1
  double now = 1.0;
  std::uint64_t id = 0;
  for (int k = 0; k < 20; ++k) {
    now += 1e-4;
    stream.push_back(Message{MessageId(id++), ClientId(2 + k % 2),
                             TimePoint(now), TimePoint(now + 1e-3)});
  }
  const std::size_t announce_at = stream.size();
  stream.push_back(Message{MessageId(id++), ClientId(0), TimePoint(now),
                           TimePoint(now + 1e-3)});  // shard 0 re-primes first
  for (int k = 0; k < 6; ++k) {
    now += 1e-4;
    stream.push_back(Message{MessageId(id++), ClientId(2 + k % 2),
                             TimePoint(now), TimePoint(now + 1.1e-3)});
  }

  auto run = [&](bool oracle) {
    ClientRegistry registry = make_registry(4, 1e-4);
    ServiceConfig config;
    config.with_shards(2).with_p_safe(0.99);
    FairOrderingService service(registry, ids(4), config);
    testing::OracleShards shards(registry, service, ids(4), config.online,
                                 DrainPolicy::kShardLocal);
    std::vector<FairOrderingService::Session> sessions;
    for (std::uint32_t c = 0; c < 4; ++c) {
      sessions.push_back(service.open_session(ClientId(c)));
    }
    for (std::size_t k = 0; k < stream.size(); ++k) {
      if (k == announce_at) {
        // Client 3's clock turns out to run 5 ms ahead of client 2's.
        registry.announce(ClientId(3),
                          std::make_unique<stats::Gaussian>(5e-3, 1e-4));
      }
      const Message& m = stream[k];
      if (oracle) {
        shards.submit(m);
      } else {
        sessions[m.client.value()].submit(m.stamp, m.id, m.arrival);
      }
    }
    std::vector<std::pair<std::uint32_t, std::vector<MessageId>>> out;
    auto collect = [&out](EmissionRecord&& record, std::uint32_t shard) {
      std::vector<MessageId> batch;
      for (const Message& m : record.batch.messages) batch.push_back(m.id);
      out.emplace_back(shard, std::move(batch));
    };
    if (oracle) {
      for (auto& tagged : shards.flush(TimePoint(10.0))) {
        collect(std::move(tagged.record), tagged.shard);
      }
    } else {
      service.flush(TimePoint(10.0), collect);
    }
    return out;
  };
  const auto fast = run(false);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(fast, run(true));
}

TEST(ClientRegistryTest, IdenticalSummaryReannounceKeepsGenerationStable) {
  ClientRegistry registry;
  const stats::DistributionSummary summary(stats::GaussianParams{1e-4, 2e-3});
  EXPECT_TRUE(registry.announce(ClientId(1), summary));
  const std::uint64_t generation = registry.generation();
  ASSERT_TRUE(registry.announced_summary(ClientId(1)).has_value());

  EXPECT_FALSE(registry.announce(ClientId(1), summary));  // no-op re-send
  EXPECT_EQ(registry.generation(), generation);

  const stats::DistributionSummary changed(stats::GaussianParams{2e-4, 2e-3});
  EXPECT_TRUE(registry.announce(ClientId(1), changed));
  EXPECT_EQ(registry.generation(), generation + 1);

  // Direct Distribution announces always replace and clear the wire form.
  EXPECT_TRUE(registry.announce(
      ClientId(1), std::make_unique<stats::Gaussian>(0.0, 1e-3)));
  EXPECT_EQ(registry.announced_summary(ClientId(1)), std::nullopt);
  EXPECT_EQ(registry.generation(), generation + 2);
}

}  // namespace
}  // namespace tommy::core
