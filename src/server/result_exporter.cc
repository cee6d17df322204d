#include "server/result_exporter.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace impatience {
namespace server {

namespace {

size_t ClampChunkBytes(size_t v) {
  return std::min<size_t>(std::max<size_t>(v, 1024), 4u << 20);
}

}  // namespace

ResultExporter::ResultExporter(ResultStreamOptions options, size_t num_shards)
    : options_([&options] {
        options.max_chunk_bytes = ClampChunkBytes(options.max_chunk_bytes);
        return options;
      }()),
      records_per_chunk_(std::max<size_t>(
          1, (options_.max_chunk_bytes - kResultChunkHeaderBytes) /
                 kWireEventBytes)) {
  slots_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>());
  }
}

void ResultExporter::OnResult(size_t shard, size_t stream, const Event& e) {
  // Relaxed is fine: a subscriber racing in simply starts at the next
  // sealed chunk, per the delivery-start contract.
  if (!active_.load(std::memory_order_relaxed)) return;
  IMPATIENCE_CHECK(shard < slots_.size());
  ShardSlot* slot = slots_[shard].get();
  // A call can seal twice: the pending records of a previous stream, then
  // (when a chunk holds a single record) the new record itself.
  std::vector<Event> sealed_prev;
  std::vector<Event> sealed_full;
  uint32_t prev_stream = 0;
  Timestamp watermark = kMinTimestamp;
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    watermark = slot->watermark;
    if (!slot->pending.empty() &&
        slot->stream != static_cast<uint32_t>(stream)) {
      prev_stream = slot->stream;
      sealed_prev.swap(slot->pending);
    }
    slot->stream = static_cast<uint32_t>(stream);
    slot->pending.push_back(e);
    if (slot->pending.size() >= records_per_chunk_) {
      sealed_full.swap(slot->pending);
    }
  }
  if (!sealed_prev.empty()) {
    FanOut(shard, prev_stream, watermark, sealed_prev);
  }
  if (!sealed_full.empty()) {
    FanOut(shard, static_cast<uint32_t>(stream), watermark, sealed_full);
  }
}

void ResultExporter::OnShardProgress(size_t shard, Timestamp watermark) {
  IMPATIENCE_CHECK(shard < slots_.size());
  ShardSlot* slot = slots_[shard].get();
  // Advance the watermark even with no subscribers: the first chunk after
  // a future Subscribe should carry the current frontier, not a stale one.
  std::vector<Event> sealed;
  uint32_t stream = 0;
  Timestamp frontier = kMinTimestamp;
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (watermark > slot->watermark) slot->watermark = watermark;
    frontier = slot->watermark;
    if (!slot->pending.empty()) {
      stream = slot->stream;
      sealed.swap(slot->pending);
    }
  }
  if (!sealed.empty()) FanOut(shard, stream, frontier, sealed);
}

uint64_t ResultExporter::Subscribe(uint64_t session_id, uint8_t filter,
                                   size_t shard_filter, TrySink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscription sub;
  sub.id = next_id_++;
  sub.session_id = session_id;
  sub.filter = filter;
  sub.shard_filter = shard_filter;
  sub.sink = std::move(sink);
  subs_.push_back(std::move(sub));
  active_.store(true, std::memory_order_relaxed);
  return subs_.back().id;
}

void ResultExporter::Unsubscribe(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    if (it->id == id) {
      subs_.erase(it);
      break;
    }
  }
  active_.store(!subs_.empty(), std::memory_order_relaxed);
}

void ResultExporter::FanOut(size_t shard, uint32_t stream,
                            Timestamp watermark,
                            const std::vector<Event>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.chunks_built;
  for (size_t i = 0; i < subs_.size();) {
    Subscription& sub = subs_[i];
    if (sub.shard_filter != kAllShards && sub.shard_filter != shard) {
      ++i;
      continue;
    }
    // Encoded straight from `records` into the bytes the sink takes.
    Frame chunk;
    chunk.type = FrameType::kResultChunk;
    chunk.session_id = sub.session_id;
    chunk.result_seq = sub.seq + 1;
    chunk.result_dropped = sub.dropped;
    chunk.result_watermark = watermark;
    chunk.result_shard = static_cast<uint32_t>(shard);
    chunk.result_stream = stream;
    std::string bytes;
    AppendFrame(chunk, records, &bytes);
    if (sub.sink(std::move(bytes))) {
      ++sub.seq;
      sub.consecutive_drops = 0;
      ++counters_.chunks_sent;
      counters_.records_streamed += records.size();
      ++i;
      continue;
    }
    sub.dropped += records.size();
    ++counters_.chunks_dropped;
    counters_.records_dropped += records.size();
    if (++sub.consecutive_drops >= options_.shed_after_drops) {
      // Persistently stalled: stop offering it chunks at all. The
      // connection itself stays up — it can resubscribe once it drains.
      ++counters_.subscribers_shed;
      subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  active_.store(!subs_.empty(), std::memory_order_relaxed);
}

ResultStreamMetrics ResultExporter::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultStreamMetrics c = counters_;
  c.subscribers = subs_.size();
  return c;
}

}  // namespace server
}  // namespace impatience
