#include "net/messages.hpp"

#include "common/check.hpp"
#include "net/wire.hpp"

namespace tommy::net {

namespace {

constexpr std::uint8_t kTagDistribution = 1;
constexpr std::uint8_t kTagTimestamped = 2;
constexpr std::uint8_t kTagHeartbeat = 3;
constexpr std::uint8_t kTagBatch = 4;
constexpr std::uint8_t kTagReconfigPending = 5;
constexpr std::uint8_t kTagHandshakeAck = 6;
constexpr std::uint8_t kTagSafeTimeAnnounce = 7;
constexpr std::uint8_t kTagOrderedBatch = 8;
constexpr std::uint8_t kTagMergeWatermark = 9;
constexpr std::uint8_t kTagReplayTruncated = 10;

/// Encoded sizes of one repeated entry, for checking a frame's count
/// field against the bytes it actually carries before allocating.
constexpr std::size_t kBatchEntryBytes = 8;           // id
constexpr std::size_t kOrderedBatchEntryBytes = 28;   // client, id, 2 stamps

}  // namespace

std::vector<std::uint8_t> encode(const WireMessage& message) {
  ByteWriter w;
  if (const auto* d = std::get_if<DistributionAnnouncement>(&message)) {
    w.u8(kTagDistribution);
    w.u32(d->client.value());
    const auto payload = d->summary.serialize();
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
  } else if (const auto* m = std::get_if<TimestampedMessage>(&message)) {
    w.u8(kTagTimestamped);
    w.u32(m->client.value());
    w.u64(m->id.value());
    w.f64(m->local_stamp.seconds());
  } else if (const auto* h = std::get_if<Heartbeat>(&message)) {
    w.u8(kTagHeartbeat);
    w.u32(h->client.value());
    w.f64(h->local_stamp.seconds());
  } else if (const auto* b = std::get_if<BatchEmission>(&message)) {
    w.u8(kTagBatch);
    w.u64(b->rank);
    w.u32(static_cast<std::uint32_t>(b->messages.size()));
    for (MessageId id : b->messages) w.u64(id.value());
  } else if (const auto* p = std::get_if<ReconfigPending>(&message)) {
    w.u8(kTagReconfigPending);
    w.u64(p->generation);
  } else if (const auto* a = std::get_if<HandshakeAck>(&message)) {
    w.u8(kTagHandshakeAck);
    w.u64(a->generation);
  } else if (const auto* s = std::get_if<SafeTimeAnnounce>(&message)) {
    w.u8(kTagSafeTimeAnnounce);
    w.u32(s->node);
    w.u64(s->epoch);
    w.f64(s->next_safe_time.seconds());
  } else if (const auto* o = std::get_if<OrderedBatch>(&message)) {
    w.u8(kTagOrderedBatch);
    w.u32(o->node);
    w.u64(o->epoch);
    w.u64(o->rank);
    w.f64(o->safe_time.seconds());
    w.f64(o->emitted_at.seconds());
    w.u32(static_cast<std::uint32_t>(o->messages.size()));
    for (const OrderedBatch::Entry& e : o->messages) {
      w.u32(e.client.value());
      w.u64(e.id.value());
      w.f64(e.stamp.seconds());
      w.f64(e.arrival.seconds());
    }
  } else if (const auto* wm = std::get_if<MergeWatermark>(&message)) {
    w.u8(kTagMergeWatermark);
    w.u64(wm->released);
    w.u32(wm->node);
    w.u64(wm->rank);
    w.f64(wm->safe_time.seconds());
  } else if (const auto* t = std::get_if<ReplayTruncated>(&message)) {
    w.u8(kTagReplayTruncated);
    w.u32(t->node);
    w.u64(t->epoch);
    w.u64(t->truncated);
  } else {
    TOMMY_ASSERT(false);
  }
  return w.take();
}

std::optional<WireMessage> decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const auto tag = r.u8();
  if (!tag) return std::nullopt;

  switch (*tag) {
    case kTagDistribution: {
      const auto client = r.u32();
      const auto len = r.u32();
      if (!client || !len) return std::nullopt;
      const auto payload = r.raw(*len);
      if (!payload || !r.exhausted()) return std::nullopt;
      auto summary = stats::DistributionSummary::deserialize(*payload);
      if (!summary) return std::nullopt;
      return DistributionAnnouncement{ClientId(*client), std::move(*summary)};
    }
    case kTagTimestamped: {
      const auto client = r.u32();
      const auto id = r.u64();
      const auto stamp = r.f64();
      if (!client || !id || !stamp || !r.exhausted()) return std::nullopt;
      return TimestampedMessage{ClientId(*client), MessageId(*id),
                                TimePoint(*stamp)};
    }
    case kTagHeartbeat: {
      const auto client = r.u32();
      const auto stamp = r.f64();
      if (!client || !stamp || !r.exhausted()) return std::nullopt;
      return Heartbeat{ClientId(*client), TimePoint(*stamp)};
    }
    case kTagBatch: {
      const auto rank = r.u64();
      const auto count = r.u32();
      if (!rank.has_value() || !count) return std::nullopt;
      if (*count > r.remaining() / kBatchEntryBytes) return std::nullopt;
      BatchEmission batch;
      batch.rank = *rank;
      batch.messages.reserve(*count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        const auto id = r.u64();
        if (!id) return std::nullopt;
        batch.messages.emplace_back(*id);
      }
      if (!r.exhausted()) return std::nullopt;
      return batch;
    }
    case kTagReconfigPending: {
      const auto generation = r.u64();
      if (!generation || !r.exhausted()) return std::nullopt;
      return ReconfigPending{*generation};
    }
    case kTagHandshakeAck: {
      const auto generation = r.u64();
      if (!generation || !r.exhausted()) return std::nullopt;
      return HandshakeAck{*generation};
    }
    case kTagSafeTimeAnnounce: {
      const auto node = r.u32();
      const auto epoch = r.u64();
      const auto next_safe = r.f64();
      if (!node || !epoch || !next_safe || !r.exhausted()) {
        return std::nullopt;
      }
      return SafeTimeAnnounce{*node, *epoch, TimePoint(*next_safe)};
    }
    case kTagOrderedBatch: {
      const auto node = r.u32();
      const auto epoch = r.u64();
      const auto rank = r.u64();
      const auto safe_time = r.f64();
      const auto emitted_at = r.f64();
      const auto count = r.u32();
      if (!node || !epoch || !rank.has_value() || !safe_time || !emitted_at
          || !count) {
        return std::nullopt;
      }
      if (*count > r.remaining() / kOrderedBatchEntryBytes) {
        return std::nullopt;
      }
      OrderedBatch batch;
      batch.node = *node;
      batch.epoch = *epoch;
      batch.rank = *rank;
      batch.safe_time = TimePoint(*safe_time);
      batch.emitted_at = TimePoint(*emitted_at);
      batch.messages.reserve(*count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        const auto client = r.u32();
        const auto id = r.u64();
        const auto stamp = r.f64();
        const auto arrival = r.f64();
        if (!client || !id || !stamp || !arrival) return std::nullopt;
        batch.messages.push_back(OrderedBatch::Entry{
            ClientId(*client), MessageId(*id), TimePoint(*stamp),
            TimePoint(*arrival)});
      }
      if (!r.exhausted()) return std::nullopt;
      return batch;
    }
    case kTagMergeWatermark: {
      const auto released = r.u64();
      const auto node = r.u32();
      const auto rank = r.u64();
      const auto safe_time = r.f64();
      if (!released.has_value() || !node.has_value() || !rank.has_value()
          || !safe_time || !r.exhausted()) {
        return std::nullopt;
      }
      return MergeWatermark{*released, *node, *rank, TimePoint(*safe_time)};
    }
    case kTagReplayTruncated: {
      const auto node = r.u32();
      const auto epoch = r.u64();
      const auto truncated = r.u64();
      if (!node.has_value() || !epoch || !truncated.has_value()
          || !r.exhausted()) {
        return std::nullopt;
      }
      return ReplayTruncated{*node, *epoch, *truncated};
    }
    default:
      return std::nullopt;
  }
}

}  // namespace tommy::net
