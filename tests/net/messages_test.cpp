#include "net/messages.hpp"

#include <gtest/gtest.h>

#include "net/wire.hpp"

namespace tommy::net {
namespace {

TEST(Wire, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-1.5e-6);
  const auto bytes = w.take();

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), -1.5e-6);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, ReaderRejectsTruncation) {
  ByteWriter w;
  w.u32(42);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_TRUE(r.u32().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Codec, TimestampedMessageRoundTrip) {
  const TimestampedMessage m{ClientId(7), MessageId(123456789),
                             TimePoint(1.25e-3)};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<TimestampedMessage>(*decoded));
  EXPECT_EQ(std::get<TimestampedMessage>(*decoded), m);
}

TEST(Codec, HeartbeatRoundTrip) {
  const Heartbeat h{ClientId(9), TimePoint(42.5)};
  const auto decoded = decode(encode(h));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<Heartbeat>(*decoded));
  EXPECT_EQ(std::get<Heartbeat>(*decoded), h);
}

TEST(Codec, GaussianAnnouncementRoundTrip) {
  const DistributionAnnouncement a{
      ClientId(3),
      stats::DistributionSummary(stats::GaussianParams{1e-5, 2e-6})};
  const auto decoded = decode(encode(a));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<DistributionAnnouncement>(*decoded));
  EXPECT_EQ(std::get<DistributionAnnouncement>(*decoded), a);
}

TEST(Codec, HistogramAnnouncementRoundTrip) {
  const DistributionAnnouncement a{
      ClientId(4), stats::DistributionSummary(stats::HistogramParams{
                       -1e-3, 1e-3, {0.1, 0.2, 0.4, 0.2, 0.1}})};
  const auto decoded = decode(encode(a));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<DistributionAnnouncement>(*decoded), a);
}

TEST(Codec, BatchEmissionRoundTrip) {
  BatchEmission b;
  b.rank = 17;
  b.messages = {MessageId(1), MessageId(5), MessageId(9)};
  const auto decoded = decode(encode(b));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<BatchEmission>(*decoded));
  EXPECT_EQ(std::get<BatchEmission>(*decoded), b);
}

TEST(Codec, EmptyBatchRoundTrip) {
  BatchEmission b;
  b.rank = 0;
  const auto decoded = decode(encode(b));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<BatchEmission>(*decoded).messages.empty());
}

TEST(Codec, ReconfigPendingRoundTrip) {
  const ReconfigPending p{0xDEADBEEFCAFEULL};
  const auto decoded = decode(encode(p));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<ReconfigPending>(*decoded));
  EXPECT_EQ(std::get<ReconfigPending>(*decoded), p);
}

TEST(Codec, HandshakeAckRoundTrip) {
  const HandshakeAck a{42};
  const auto decoded = decode(encode(a));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<HandshakeAck>(*decoded));
  EXPECT_EQ(std::get<HandshakeAck>(*decoded), a);
}

TEST(Codec, SafeTimeAnnounceRoundTrip) {
  const SafeTimeAnnounce s{3, 7, TimePoint(1.0625)};
  const auto decoded = decode(encode(s));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<SafeTimeAnnounce>(*decoded));
  EXPECT_EQ(std::get<SafeTimeAnnounce>(*decoded), s);
}

TEST(Codec, SafeTimeAnnounceInfiniteFrontierRoundTrip) {
  // An idle shard's frontier is infinite; the f64 codec must carry it.
  const SafeTimeAnnounce s{0, 0, TimePoint::infinite_future()};
  const auto decoded = decode(encode(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SafeTimeAnnounce>(*decoded), s);
}

TEST(Codec, MergeWatermarkRoundTrip) {
  const MergeWatermark w{42, 3, 1ULL << 41, TimePoint(1.5e-3)};
  const auto decoded = decode(encode(w));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<MergeWatermark>(*decoded));
  EXPECT_EQ(std::get<MergeWatermark>(*decoded), w);
}

TEST(Codec, EmptyMergeWatermarkRoundTrip) {
  // released == 0 is the "nothing released yet" watermark; the cursor
  // fields are zeros by convention.
  const MergeWatermark w{};
  const auto decoded = decode(encode(w));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<MergeWatermark>(*decoded));
  EXPECT_EQ(std::get<MergeWatermark>(*decoded), w);
}

TEST(Codec, ReplayTruncatedRoundTrip) {
  const ReplayTruncated t{2, 5, 1ULL << 35};
  const auto decoded = decode(encode(t));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<ReplayTruncated>(*decoded));
  EXPECT_EQ(std::get<ReplayTruncated>(*decoded), t);
}

TEST(Codec, OrderedBatchRoundTrip) {
  OrderedBatch b;
  b.node = 2;
  b.epoch = 5;
  b.rank = 40;
  b.safe_time = TimePoint(1.5e-3);
  b.emitted_at = TimePoint(2.25);
  b.messages = {
      OrderedBatch::Entry{ClientId(1), MessageId(10), TimePoint(1.0),
                          TimePoint(1.0005)},
      OrderedBatch::Entry{ClientId(3), MessageId(1ULL << 60),
                          TimePoint(1.0001), TimePoint(1.0006)},
  };
  const auto decoded = decode(encode(b));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<OrderedBatch>(*decoded));
  EXPECT_EQ(std::get<OrderedBatch>(*decoded), b);
}

TEST(Codec, EmptyOrderedBatchRoundTrip) {
  OrderedBatch b;
  b.node = 0;
  b.epoch = 0;
  b.rank = 0;
  b.safe_time = TimePoint(0.5);
  b.emitted_at = TimePoint(0.75);
  const auto decoded = decode(encode(b));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<OrderedBatch>(*decoded).messages.empty());
}

TEST(Codec, OrderedBatchCountMismatchRejected) {
  OrderedBatch b;
  b.rank = 1;
  b.messages = {OrderedBatch::Entry{ClientId(1), MessageId(2),
                                    TimePoint(3.0), TimePoint(4.0)}};
  auto bytes = encode(b);
  // Count field sits after tag(1) + node(4) + epoch(8) + rank(8) +
  // safe_time(8) + emitted_at(8) = offset 37; claim 2 entries, provide 1.
  bytes[37] = 2;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsMalformedInput) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({0xFF, 0x00}).has_value());  // unknown tag

  // Truncated payloads of every type.
  for (const WireMessage& m :
       {WireMessage(TimestampedMessage{ClientId(1), MessageId(2),
                                       TimePoint(3.0)}),
        WireMessage(Heartbeat{ClientId(1), TimePoint(2.0)}),
        WireMessage(BatchEmission{4, {MessageId(1)}}),
        WireMessage(ReconfigPending{9}),
        WireMessage(HandshakeAck{11}),
        WireMessage(SafeTimeAnnounce{1, 2, TimePoint(3.0)}),
        WireMessage(OrderedBatch{
            1,
            2,
            3,
            TimePoint(4.0),
            TimePoint(5.0),
            {OrderedBatch::Entry{ClientId(6), MessageId(7), TimePoint(8.0),
                                 TimePoint(9.0)}}})}) {
    auto bytes = encode(m);
    bytes.pop_back();
    EXPECT_FALSE(decode(bytes).has_value());
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  auto bytes = encode(Heartbeat{ClientId(1), TimePoint(2.0)});
  bytes.push_back(0x00);
  EXPECT_FALSE(decode(bytes).has_value());
}

// Exhaustive truncation torture, one sample per codec (both announcement
// encodings, a populated and an empty batch): at EVERY possible split
// point of the encoded buffer, the prefix must decode to "not a message"
// (nullopt) — never crash, never mis-parse as a shorter valid message.
// This is the property the framing layer's incremental decoder leans on.
TEST(Codec, EveryPrefixOfEveryCodecIsRejected) {
  const std::vector<WireMessage> samples = {
      WireMessage(DistributionAnnouncement{
          ClientId(3),
          stats::DistributionSummary(stats::GaussianParams{1e-5, 2e-6})}),
      WireMessage(DistributionAnnouncement{
          ClientId(4), stats::DistributionSummary(stats::HistogramParams{
                           -1e-3, 1e-3, {0.1, 0.2, 0.4, 0.2, 0.1}})}),
      WireMessage(
          TimestampedMessage{ClientId(1), MessageId(2), TimePoint(3.0)}),
      WireMessage(Heartbeat{ClientId(1), TimePoint(2.0)}),
      WireMessage(BatchEmission{
          4, {MessageId(1), MessageId(7), MessageId(1ULL << 60)}}),
      WireMessage(BatchEmission{0, {}}),
      WireMessage(ReconfigPending{1ULL << 40}),
      WireMessage(HandshakeAck{3}),
      WireMessage(SafeTimeAnnounce{9, 1ULL << 33, TimePoint(1.25)}),
      WireMessage(OrderedBatch{
          2,
          1,
          17,
          TimePoint(1.5e-3),
          TimePoint(2.25),
          {OrderedBatch::Entry{ClientId(1), MessageId(10), TimePoint(1.0),
                               TimePoint(1.0005)},
           OrderedBatch::Entry{ClientId(3), MessageId(1ULL << 60),
                               TimePoint(1.0001), TimePoint(1.0006)}}}),
      WireMessage(OrderedBatch{0, 0, 0, TimePoint(0.5), TimePoint(0.75), {}}),
      WireMessage(MergeWatermark{7, 1, 1ULL << 50, TimePoint(2.5)}),
      WireMessage(MergeWatermark{}),
      WireMessage(ReplayTruncated{3, 2, 129}),
  };
  for (std::size_t sample = 0; sample < samples.size(); ++sample) {
    const auto bytes = encode(samples[sample]);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(decode(prefix).has_value())
          << "sample " << sample << " mis-parsed at prefix length " << len
          << "/" << bytes.size();
    }
    const auto full = decode(bytes);
    ASSERT_TRUE(full.has_value()) << "sample " << sample;
    EXPECT_EQ(*full, samples[sample]);
  }
}

TEST(Codec, BatchCountMismatchRejected) {
  BatchEmission b;
  b.rank = 1;
  b.messages = {MessageId(1), MessageId(2)};
  auto bytes = encode(b);
  // Claim 3 messages but provide 2 (count field is at offset 9).
  bytes[9] = 3;
  EXPECT_FALSE(decode(bytes).has_value());
}

// A length field is peer-controlled: a decoder must check it against the
// bytes actually present before sizing anything by it. Each frame below
// is a few dozen bytes claiming 2^32 − 1 entries; trusting the count
// would ask the allocator for tens of gigabytes (std::bad_alloc, which
// nothing on the server path catches) or, for a smaller lie, zero-fill
// gigabytes before noticing the frame is short.
void claim_max_count(std::vector<std::uint8_t>& bytes, std::size_t offset) {
  ASSERT_LE(offset + 4, bytes.size());
  for (std::size_t i = 0; i < 4; ++i) bytes[offset + i] = 0xFF;
}

TEST(Codec, BatchEmissionCountBeyondFrameRejected) {
  auto bytes = encode(BatchEmission{4, {}});
  ASSERT_EQ(bytes.size(), 13u);
  claim_max_count(bytes, 9);  // after tag(1) + rank(8)
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, OrderedBatchCountBeyondFrameRejected) {
  auto bytes = encode(
      OrderedBatch{1, 2, 3, TimePoint(4.0), TimePoint(5.0), {}});
  ASSERT_EQ(bytes.size(), 41u);
  claim_max_count(bytes, 37);  // after the 37-byte fixed header
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, HistogramBinCountBeyondFrameRejected) {
  // A one-bin histogram announcement with its bin cut off: tag(1) +
  // client(4) + payload length(4), then the payload's tag(1) + lo(8) +
  // hi(8) + bin count(4) — 30 bytes, the count claiming 2^32 − 1 bins.
  auto bytes = encode(DistributionAnnouncement{
      ClientId(1), stats::DistributionSummary(
                       stats::HistogramParams{-1e-3, 1e-3, {1.0}})});
  bytes.resize(bytes.size() - 8);
  ASSERT_EQ(bytes.size(), 30u);
  bytes[5] = 21;  // payload length now excludes the dropped bin
  claim_max_count(bytes, 26);
  EXPECT_FALSE(decode(bytes).has_value());
}

}  // namespace
}  // namespace tommy::net
