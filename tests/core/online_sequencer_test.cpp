#include "core/online_sequencer.hpp"

#include <gtest/gtest.h>

#include "stats/gaussian.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

constexpr double kSigma = 1e-3;  // 1 ms clock noise

class OnlineSequencerTest : public ::testing::Test {
 protected:
  OnlineSequencerTest() {
    for (std::uint32_t c : {0u, 1u}) {
      registry_.announce(ClientId(c),
                         std::make_unique<stats::Gaussian>(0.0, kSigma));
    }
    config_.threshold = 0.75;
    config_.p_safe = 0.999;
  }

  OnlineSequencer make() {
    return OnlineSequencer(registry_, {ClientId(0), ClientId(1)}, config_);
  }

  static Message msg(std::uint64_t id, std::uint32_t client, double stamp,
                     double arrival) {
    return Message{MessageId(id), ClientId(client), TimePoint(stamp),
                   TimePoint(arrival)};
  }

  /// Ingests `m` through a session for its client, arriving at
  /// `m.arrival`.
  static void submit(OnlineSequencer& seq, const Message& m) {
    seq.open_session(m.client).submit(m.stamp, m.id, m.arrival);
  }

  static void heartbeat(OnlineSequencer& seq, std::uint32_t client,
                        double stamp, double now) {
    seq.open_session(ClientId(client))
        .heartbeat(TimePoint(stamp), TimePoint(now));
  }

  /// Heartbeats recent and far-stamped enough to satisfy completeness.
  static void open_gates(OnlineSequencer& seq, double now) {
    heartbeat(seq, 0, now + 10.0, now);
    heartbeat(seq, 1, now + 10.0, now);
  }

  ClientRegistry registry_;
  OnlineConfig config_;
};

TEST_F(OnlineSequencerTest, EmptyPollsEmitNothing) {
  OnlineSequencer seq = make();
  EXPECT_TRUE(seq.poll(TimePoint(1.0)).empty());
  EXPECT_EQ(seq.next_safe_time(), TimePoint::infinite_future());
  EXPECT_EQ(seq.pending_count(), 0u);
}

TEST_F(OnlineSequencerTest, SafeEmissionWaitsForTb) {
  OnlineSequencer seq = make();
  submit(seq, msg(1, 0, 1.0, 1.001));
  open_gates(seq, 1.002);

  const TimePoint t_b = seq.next_safe_time();
  EXPECT_NEAR(t_b.seconds(), 1.0 + kSigma * 3.0902, 1e-5);

  EXPECT_TRUE(seq.poll(t_b - 1_us).empty());
  const auto emitted = seq.poll(t_b + 1_us);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].batch.rank, 0u);
}

TEST_F(OnlineSequencerTest, RanksAreDenseAndOrdered) {
  OnlineSequencer seq = make();
  // Three well-separated messages (100 ms apart >> 1 ms noise).
  submit(seq, msg(1, 0, 1.0, 1.001));
  submit(seq, msg(2, 1, 1.1, 1.101));
  submit(seq, msg(3, 0, 1.2, 1.201));
  open_gates(seq, 1.3);

  const auto emitted = seq.poll(TimePoint(2.0));
  ASSERT_EQ(emitted.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(emitted[k].batch.rank, k);
    ASSERT_EQ(emitted[k].batch.messages.size(), 1u);
  }
  EXPECT_EQ(emitted[0].batch.messages[0].id, MessageId(1));
  EXPECT_EQ(emitted[1].batch.messages[0].id, MessageId(2));
  EXPECT_EQ(emitted[2].batch.messages[0].id, MessageId(3));
  EXPECT_EQ(seq.next_rank(), 3u);
}

TEST_F(OnlineSequencerTest, CloseStampsShareABatch) {
  OnlineSequencer seq = make();
  // 0.1 ms apart with 1 ms noise: unorderable at threshold 0.75.
  submit(seq, msg(1, 0, 1.0, 1.001));
  submit(seq, msg(2, 1, 1.0001, 1.0011));
  open_gates(seq, 1.01);

  const auto emitted = seq.poll(TimePoint(2.0));
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].batch.messages.size(), 2u);
}

TEST_F(OnlineSequencerTest, CompletenessBlocksWithoutAnyHeartbeat) {
  OnlineSequencer seq = make();
  submit(seq, msg(1, 0, 1.0, 1.001));
  // Client 1 has never been heard from; no timeout configured.
  EXPECT_TRUE(seq.poll(TimePoint(10.0)).empty());
  // Client 1 speaking is not enough: client 0's own high-water mark (its
  // message stamp) must also clear T_b — a later message from client 0
  // could still demand a lower rank.
  heartbeat(seq, 1, 9.0, 10.0);
  EXPECT_TRUE(seq.poll(TimePoint(10.0)).empty());
  // Once client 0's own clock has visibly moved past T_b, emission
  // unblocks.
  heartbeat(seq, 0, 9.0, 10.0);
  EXPECT_EQ(seq.poll(TimePoint(10.0)).size(), 1u);
}

TEST_F(OnlineSequencerTest, SilenceTimeoutRestoresLiveness) {
  config_.client_silence_timeout = 100_ms;
  OnlineSequencer seq = make();
  submit(seq, msg(1, 0, 1.0, 1.001));
  // Client 1 stays silent. Before the timeout the sequencer is stuck...
  EXPECT_TRUE(seq.poll(TimePoint(1.05)).empty());
  EXPECT_EQ(seq.timed_out_clients(TimePoint(1.05)).size(), 1u);
  // ...after it, the gate drops client 1 (the §3.5 liveness trade-off).
  const auto emitted = seq.poll(TimePoint(1.2));
  ASSERT_EQ(emitted.size(), 1u);
}

TEST_F(OnlineSequencerTest, ViolationCountedForLateConfidentMessage) {
  OnlineSequencer seq = make();
  submit(seq, msg(1, 0, 1.0, 1.001));
  open_gates(seq, 1.01);
  ASSERT_EQ(seq.poll(TimePoint(2.0)).size(), 1u);
  EXPECT_EQ(seq.fairness_violations(), 0u);

  // A message stamped 0.5 — confidently before the emitted batch.
  submit(seq, msg(2, 1, 0.5, 2.1));
  EXPECT_EQ(seq.fairness_violations(), 1u);

  // A message stamped well after it is not a violation.
  submit(seq, msg(3, 1, 5.0, 5.1));
  EXPECT_EQ(seq.fairness_violations(), 1u);
}

TEST_F(OnlineSequencerTest, HigherPSafeDelaysEmission) {
  config_.p_safe = 0.9;
  OnlineSequencer low = make();
  config_.p_safe = 0.9999;
  OnlineSequencer high = make();

  for (OnlineSequencer* seq : {&low, &high}) {
    submit(*seq, msg(1, 0, 1.0, 1.001));
  }
  EXPECT_LT(low.next_safe_time(), high.next_safe_time());
}

TEST_F(OnlineSequencerTest, EmittedBatchesNeverDecreaseInCorrectedStamp) {
  OnlineSequencer seq = make();
  // A mixed stream; all gaps large enough to order confidently.
  double stamp = 1.0;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    submit(seq, msg(id, id % 2, stamp, stamp + 0.001));
    stamp += 0.05;
  }
  open_gates(seq, stamp);
  const auto emitted = seq.poll(TimePoint(stamp + 1.0));
  ASSERT_EQ(emitted.size(), 10u);
  for (std::size_t k = 1; k < emitted.size(); ++k) {
    EXPECT_LT(emitted[k - 1].batch.messages[0].stamp,
              emitted[k].batch.messages[0].stamp);
  }
}

TEST_F(OnlineSequencerTest, PollIsIdempotentBetweenArrivals) {
  OnlineSequencer seq = make();
  submit(seq, msg(1, 0, 1.0, 1.001));
  open_gates(seq, 1.01);
  EXPECT_EQ(seq.poll(TimePoint(2.0)).size(), 1u);
  EXPECT_TRUE(seq.poll(TimePoint(2.1)).empty());
  EXPECT_TRUE(seq.poll(TimePoint(3.0)).empty());
}

TEST_F(OnlineSequencerTest, UnknownClientIsRejected) {
  OnlineSequencer seq = make();
  EXPECT_DEATH((void)seq.open_session(ClientId(99)), "precondition");
}

TEST_F(OnlineSequencerTest, ConfigValidation) {
  EXPECT_DEATH(
      {
        config_.threshold = 0.4;
        (void)make();
      },
      "precondition");
}

}  // namespace
}  // namespace tommy::core
