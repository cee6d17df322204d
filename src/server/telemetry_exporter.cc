#include "server/telemetry_exporter.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "common/trace.h"

namespace impatience {
namespace server {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

size_t ClampChunkBytes(size_t v) {
  return std::min<size_t>(std::max<size_t>(v, 1024), 4u << 20);
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryOptions options,
                                     SnapshotFn snapshot)
    : options_([&options] {
        options.max_chunk_bytes = ClampChunkBytes(options.max_chunk_bytes);
        return options;
      }()),
      snapshot_(std::move(snapshot)) {
  const int span_ms = std::max(options_.span_interval_ms, 1);
  metrics_every_ = std::max<size_t>(
      1, static_cast<size_t>(std::max(options_.metrics_interval_ms, 1) /
                             span_ms));
  if (options_.start_thread) {
    thread_ = std::thread([this] { ThreadMain(); });
  }
}

TelemetryExporter::~TelemetryExporter() { Stop(); }

void TelemetryExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetryExporter::ThreadMain() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(
                           std::max(options_.span_interval_ms, 1)),
                 [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

uint64_t TelemetryExporter::Subscribe(uint64_t session_id, uint8_t streams,
                                      TrySink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscription sub;
  sub.id = next_id_++;
  sub.session_id = session_id;
  sub.streams = streams;
  sub.sink = std::move(sink);
  subs_.push_back(std::move(sub));
  return subs_.back().id;
}

void TelemetryExporter::Unsubscribe(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    if (it->id == id) {
      subs_.erase(it);
      return;
    }
  }
}

void TelemetryExporter::FanOutLocked(uint8_t stream,
                                     const std::string& body) {
  for (size_t i = 0; i < subs_.size();) {
    Subscription& sub = subs_[i];
    if ((sub.streams & stream) == 0) {
      ++i;
      continue;
    }
    Frame chunk;
    chunk.type = FrameType::kTelemetryChunk;
    chunk.session_id = sub.session_id;
    chunk.telemetry_streams = stream;
    chunk.telemetry_seq = sub.seq + 1;
    chunk.telemetry_dropped = sub.dropped;
    chunk.text = body;
    std::string bytes;
    AppendFrame(chunk, &bytes);
    if (sub.sink(std::move(bytes))) {
      ++sub.seq;
      sub.consecutive_drops = 0;
      ++counters_.chunks_sent;
      ++i;
      continue;
    }
    ++sub.dropped;
    ++counters_.chunks_dropped;
    if (++sub.consecutive_drops >= options_.shed_after_drops) {
      // Persistently stalled: stop offering it chunks at all. The
      // connection itself stays up — it can resubscribe once it drains.
      ++counters_.subscribers_shed;
      subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

std::string TelemetryExporter::BuildMetricsDeltaLocked() {
  const std::vector<ShardMetrics> shards = snapshot_();
  uint64_t frames_in = 0;
  uint64_t events_in = 0;
  uint64_t events_out = 0;
  uint64_t punctuations_in = 0;
  uint64_t queue_depth = 0;
  uint64_t memory_current = 0;
  int64_t max_lag = 0;
  HistogramSnapshot queue_wait;  // Merged across shards (operator+=).
  for (const ShardMetrics& s : shards) {
    frames_in += s.frames_in;
    events_in += s.events_in;
    events_out += s.events_out;
    punctuations_in += s.punctuations_in;
    queue_depth += s.queue_depth;
    memory_current += s.memory_current_bytes;
    max_lag = std::max(max_lag, s.max_watermark_lag);
    queue_wait += s.queue_wait;
  }
  auto delta = [](uint64_t cur, uint64_t prev) {
    return cur >= prev ? cur - prev : 0;
  };
  const bool first = !have_prev_;
  std::string body;
  Appendf(&body, "{\"first\":%s,", first ? "true" : "false");
  Appendf(&body, "\"d_frames_in\":%" PRIu64 ",",
          first ? frames_in : delta(frames_in, prev_frames_in_));
  Appendf(&body, "\"d_events_in\":%" PRIu64 ",",
          first ? events_in : delta(events_in, prev_events_in_));
  Appendf(&body, "\"d_events_out\":%" PRIu64 ",",
          first ? events_out : delta(events_out, prev_events_out_));
  Appendf(&body, "\"d_punctuations_in\":%" PRIu64 ",",
          first ? punctuations_in
                : delta(punctuations_in, prev_punctuations_in_));
  Appendf(&body, "\"d_queue_wait_count\":%" PRIu64 ",",
          delta(queue_wait.count(), first ? 0 : prev_queue_wait_count_));
  Appendf(&body, "\"d_queue_wait_sum_ns\":%" PRIu64 ",",
          delta(queue_wait.sum(), first ? 0 : prev_queue_wait_sum_));
  Appendf(&body, "\"queue_wait_p99_ns\":%" PRIu64 ",", queue_wait.P99());
  Appendf(&body, "\"queue_depth\":%" PRIu64 ",", queue_depth);
  Appendf(&body, "\"memory_current_bytes\":%" PRIu64 ",", memory_current);
  Appendf(&body, "\"max_watermark_lag\":%" PRId64 ",", max_lag);
  Appendf(&body, "\"span_ring_drops\":%" PRIu64 ",",
          counters_.span_ring_drops);
  body += "\"shards\":[";
  prev_shard_events_in_.resize(shards.size(), 0);
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardMetrics& s = shards[i];
    if (i > 0) body += ",";
    Appendf(&body,
            "{\"shard\":%zu,\"d_events_in\":%" PRIu64
            ",\"queue_depth\":%zu,\"max_watermark_lag\":%" PRId64 "}",
            s.shard,
            first ? s.events_in : delta(s.events_in, prev_shard_events_in_[i]),
            s.queue_depth, s.max_watermark_lag);
    prev_shard_events_in_[i] = s.events_in;
  }
  body += "]}";

  prev_frames_in_ = frames_in;
  prev_events_in_ = events_in;
  prev_events_out_ = events_out;
  prev_punctuations_in_ = punctuations_in;
  prev_queue_wait_count_ = queue_wait.count();
  prev_queue_wait_sum_ = queue_wait.sum();
  have_prev_ = true;
  return body;
}

void TelemetryExporter::Tick(bool force_metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  ++ticks_;
  bool want_spans = false;
  bool want_metrics = false;
  for (const Subscription& sub : subs_) {
    if (sub.streams & kTelemetrySpans) want_spans = true;
    if (sub.streams & kTelemetryMetrics) want_metrics = true;
  }
  if (want_spans) {
    // Harvest only while someone is listening: an idle exporter leaves
    // the rings for the one-shot dump path.
    std::vector<std::string> bodies;
    trace::DrainStats stats;
    trace::HarvestChunks(options_.max_chunk_bytes, &bodies, &stats);
    counters_.spans_exported += stats.spans;
    counters_.span_ring_drops += stats.dropped;
    for (const std::string& body : bodies) {
      FanOutLocked(kTelemetrySpans, body);
    }
  }
  if (want_metrics && (force_metrics || ticks_ % metrics_every_ == 0)) {
    const std::string body = BuildMetricsDeltaLocked();
    ++counters_.metrics_deltas;
    FanOutLocked(kTelemetryMetrics, body);
  }
}

void TelemetryExporter::NoteDump(uint64_t chunks_sent,
                                 uint64_t chunks_dropped) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.dump_chunks += chunks_sent;
  if (chunks_dropped > 0) ++counters_.dump_truncated;
}

TelemetryMetrics TelemetryExporter::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  TelemetryMetrics c = counters_;
  c.subscribers = subs_.size();
  return c;
}

}  // namespace server
}  // namespace impatience
