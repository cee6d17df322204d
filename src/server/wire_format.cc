#include "server/wire_format.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"
#include "common/little_endian.h"

namespace impatience {
namespace server {

namespace {

// Little-endian field access; the encoding is identical on any host.
uint16_t GetU16(const uint8_t* p) { return LoadLe<uint16_t>(p); }
uint32_t GetU32(const uint8_t* p) { return LoadLe<uint32_t>(p); }
uint64_t GetU64(const uint8_t* p) { return LoadLe<uint64_t>(p); }
int32_t GetI32(const uint8_t* p) { return static_cast<int32_t>(GetU32(p)); }
int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }

void PutU32(uint8_t* p, uint32_t v) { StoreLe<uint32_t>(p, v); }
void PutU64(uint8_t* p, uint64_t v) { StoreLe<uint64_t>(p, v); }
void PutI32(uint8_t* p, int32_t v) { PutU32(p, static_cast<uint32_t>(v)); }
void PutI64(uint8_t* p, int64_t v) { PutU64(p, static_cast<uint64_t>(v)); }

// Grows `out` by `n` bytes and returns where they start. `out` is a
// std::vector<uint8_t> or a std::string; either may reallocate, so a
// pointer returned earlier is stale after the next call.
template <typename Buf>
uint8_t* Grow(Buf* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return reinterpret_cast<uint8_t*>(out->data()) + at;
}

template <typename Buf>
void AppendBytes(const std::string& bytes, Buf* out) {
  if (bytes.empty()) return;
  std::memcpy(Grow(out, bytes.size()), bytes.data(), bytes.size());
}

// One packed wire event (kWireEventBytes); shared by kEvents and
// kResultChunk so a result record round-trips bit-identically to the
// ingress encoding.
void PutEvent(const Event& e, uint8_t* q) {
  PutI64(q, e.sync_time);
  PutI64(q + 8, e.other_time);
  PutI32(q + 16, e.key);
  PutU64(q + 20, e.hash);
  for (int c = 0; c < 4; ++c) PutI32(q + 28 + 4 * c, e.payload[c]);
}

// The u32 record count and the packed records, in one resize.
template <typename Buf>
void AppendEvents(std::span<const Event> events, Buf* out) {
  uint8_t* q = Grow(out, 4 + events.size() * kWireEventBytes);
  PutU32(q, static_cast<uint32_t>(events.size()));
  q += 4;
  for (const Event& e : events) {
    PutEvent(e, q);
    q += kWireEventBytes;
  }
}

void GetEvent(const uint8_t* q, Event* e) {
  e->sync_time = GetI64(q);
  e->other_time = GetI64(q + 8);
  e->key = GetI32(q + 16);
  e->hash = GetU64(q + 20);
  for (int c = 0; c < 4; ++c) e->payload[c] = GetI32(q + 28 + 4 * c);
}

// The type-specific small header field (byte 5).
uint8_t AuxOf(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kMetricsRequest:
    case FrameType::kMetricsResponse:
      return static_cast<uint8_t>(frame.metrics_format);
    case FrameType::kReject:
      return static_cast<uint8_t>(frame.reject_reason);
    case FrameType::kTraceRequest:
    case FrameType::kTraceResponse:
      return static_cast<uint8_t>(frame.trace_action);
    case FrameType::kSubscribeRequest:
    case FrameType::kSubscribeAck:
    case FrameType::kTelemetryChunk:
      return frame.telemetry_streams;
    case FrameType::kResultSubscribeRequest:
    case FrameType::kResultSubscribeAck:
      return frame.result_filter;
    default:
      return 0;
  }
}

// Appends the payload of `frame`, with `events` standing in for
// frame.events.
template <typename Buf>
void AppendPayload(const Frame& frame, std::span<const Event> events,
                   Buf* out) {
  switch (frame.type) {
    case FrameType::kEvents:
      AppendEvents(events, out);
      return;
    case FrameType::kPunctuation:
      PutI64(Grow(out, 8), frame.punctuation);
      return;
    case FrameType::kMetricsResponse:
    case FrameType::kTraceResponse:
      AppendBytes(frame.text, out);
      return;
    case FrameType::kReject:
      PutU64(Grow(out, 8), frame.reject_count);
      return;
    case FrameType::kSubscribeAck:
    case FrameType::kResultSubscribeAck:
      PutU64(Grow(out, 8), frame.subscription_id);
      return;
    case FrameType::kTelemetryChunk: {
      uint8_t* p = Grow(out, 16);
      PutU64(p, frame.telemetry_seq);
      PutU64(p + 8, frame.telemetry_dropped);
      AppendBytes(frame.text, out);
      return;
    }
    case FrameType::kResultChunk: {
      // The record count closes the fixed prefix; AppendEvents writes it.
      uint8_t* p = Grow(out, kResultChunkHeaderBytes - 4);
      PutU64(p, frame.result_seq);
      PutU64(p + 8, frame.result_dropped);
      PutI64(p + 16, frame.result_watermark);
      PutU32(p + 24, frame.result_shard);
      PutU32(p + 28, frame.result_stream);
      AppendEvents(events, out);
      return;
    }
    case FrameType::kFlushSession:
    case FrameType::kFlushAck:
    case FrameType::kShutdown:
    case FrameType::kShutdownAck:
    case FrameType::kMetricsRequest:
    case FrameType::kTraceRequest:
    case FrameType::kSubscribeRequest:
    case FrameType::kResultSubscribeRequest:
      return;  // Empty payloads.
    case FrameType::kMaintenance:
      break;  // Internal only — falls through to the CHECK below.
  }
  IMPATIENCE_CHECK_MSG(false, "unencodable frame type");
}

// One pass: the header goes straight into `out`, the payload straight
// after it, then payload_len and the CRC are patched into the header.
template <typename Buf>
void AppendFrameTo(const Frame& frame, std::span<const Event> events,
                   Buf* out) {
  const size_t start = out->size();
  // Room for the whole frame up front (an upper bound on every payload
  // type), growing geometrically so a buffer that accumulates many frames
  // still reallocates O(log n) times.
  const size_t need = start + kFrameHeaderBytes + kResultChunkHeaderBytes +
                      events.size() * kWireEventBytes + frame.text.size();
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  uint8_t* h = Grow(out, kFrameHeaderBytes);
  PutU32(h, kWireMagic);
  h[4] = static_cast<uint8_t>(frame.type);
  h[5] = AuxOf(frame);
  h[6] = 0;  // reserved
  h[7] = 0;
  PutU64(h + 8, frame.session_id);
  AppendPayload(frame, events, out);
  const size_t payload_len = out->size() - start - kFrameHeaderBytes;
  IMPATIENCE_CHECK_MSG(payload_len <= kMaxPayloadBytes,
                       "frame payload exceeds kMaxPayloadBytes");
  h = reinterpret_cast<uint8_t*>(out->data()) + start;
  PutU32(h + 16, static_cast<uint32_t>(payload_len));
  PutU32(h + 20, Crc32(h + kFrameHeaderBytes, payload_len));
}

// Decodes a payload already verified against its CRC. Returns kOk or
// kBadPayload.
DecodeStatus ParsePayload(FrameType type, uint8_t aux, const uint8_t* p,
                          size_t n, Frame* frame) {
  switch (type) {
    case FrameType::kEvents: {
      if (n < 4 || aux != 0) return DecodeStatus::kBadPayload;
      const uint32_t count = GetU32(p);
      if (n != 4 + static_cast<size_t>(count) * kWireEventBytes) {
        return DecodeStatus::kBadPayload;
      }
      frame->events.resize(count);
      const uint8_t* q = p + 4;
      for (uint32_t i = 0; i < count; ++i) {
        GetEvent(q, &frame->events[i]);
        q += kWireEventBytes;
      }
      return DecodeStatus::kOk;
    }
    case FrameType::kPunctuation:
      if (n != 8 || aux != 0) return DecodeStatus::kBadPayload;
      frame->punctuation = GetI64(p);
      return DecodeStatus::kOk;
    case FrameType::kMetricsRequest:
      if (n != 0 || aux > 2) return DecodeStatus::kBadPayload;
      frame->metrics_format = static_cast<MetricsFormat>(aux);
      return DecodeStatus::kOk;
    case FrameType::kMetricsResponse:
      if (aux > 2) return DecodeStatus::kBadPayload;
      frame->metrics_format = static_cast<MetricsFormat>(aux);
      frame->text.assign(reinterpret_cast<const char*>(p), n);
      return DecodeStatus::kOk;
    case FrameType::kTraceRequest:
      if (n != 0 || aux > 2) return DecodeStatus::kBadPayload;
      frame->trace_action = static_cast<TraceAction>(aux);
      return DecodeStatus::kOk;
    case FrameType::kTraceResponse:
      if (aux > 2) return DecodeStatus::kBadPayload;
      frame->trace_action = static_cast<TraceAction>(aux);
      frame->text.assign(reinterpret_cast<const char*>(p), n);
      return DecodeStatus::kOk;
    case FrameType::kReject:
      if (n != 8 || aux < 1 || aux > 3) return DecodeStatus::kBadPayload;
      frame->reject_reason = static_cast<RejectReason>(aux);
      frame->reject_count = GetU64(p);
      return DecodeStatus::kOk;
    case FrameType::kSubscribeRequest:
      // aux is a bitmask of the subscribable streams (spans | metrics);
      // an empty mask subscribes to nothing and is rejected.
      if (n != 0 || aux < 1 ||
          aux > (kTelemetrySpans | kTelemetryMetrics)) {
        return DecodeStatus::kBadPayload;
      }
      frame->telemetry_streams = aux;
      return DecodeStatus::kOk;
    case FrameType::kSubscribeAck:
      if (n != 8 || aux < 1 ||
          aux > (kTelemetrySpans | kTelemetryMetrics)) {
        return DecodeStatus::kBadPayload;
      }
      frame->telemetry_streams = aux;
      frame->subscription_id = GetU64(p);
      return DecodeStatus::kOk;
    case FrameType::kTelemetryChunk:
      // aux names exactly one stream: spans, metrics, or dump.
      if (n < 16 || (aux != kTelemetrySpans && aux != kTelemetryMetrics &&
                     aux != kTelemetryDump)) {
        return DecodeStatus::kBadPayload;
      }
      frame->telemetry_streams = aux;
      frame->telemetry_seq = GetU64(p);
      frame->telemetry_dropped = GetU64(p + 8);
      frame->text.assign(reinterpret_cast<const char*>(p) + 16, n - 16);
      return DecodeStatus::kOk;
    case FrameType::kResultSubscribeRequest:
      if (n != 0 ||
          (aux != kResultFilterSession && aux != kResultFilterAll)) {
        return DecodeStatus::kBadPayload;
      }
      frame->result_filter = aux;
      return DecodeStatus::kOk;
    case FrameType::kResultSubscribeAck:
      if (n != 8 ||
          (aux != kResultFilterSession && aux != kResultFilterAll)) {
        return DecodeStatus::kBadPayload;
      }
      frame->result_filter = aux;
      frame->subscription_id = GetU64(p);
      return DecodeStatus::kOk;
    case FrameType::kResultChunk: {
      if (n < kResultChunkHeaderBytes || aux != 0) {
        return DecodeStatus::kBadPayload;
      }
      frame->result_seq = GetU64(p);
      frame->result_dropped = GetU64(p + 8);
      frame->result_watermark = GetI64(p + 16);
      frame->result_shard = GetU32(p + 24);
      frame->result_stream = GetU32(p + 28);
      const uint32_t count = GetU32(p + 32);
      if (n != kResultChunkHeaderBytes +
                   static_cast<size_t>(count) * kWireEventBytes) {
        return DecodeStatus::kBadPayload;
      }
      frame->events.resize(count);
      const uint8_t* q = p + kResultChunkHeaderBytes;
      for (uint32_t i = 0; i < count; ++i) {
        GetEvent(q, &frame->events[i]);
        q += kWireEventBytes;
      }
      return DecodeStatus::kOk;
    }
    case FrameType::kFlushSession:
    case FrameType::kFlushAck:
    case FrameType::kShutdown:
    case FrameType::kShutdownAck:
      return n == 0 && aux == 0 ? DecodeStatus::kOk
                                : DecodeStatus::kBadPayload;
    case FrameType::kMaintenance:
      return DecodeStatus::kBadPayload;  // Internal only, never on the wire.
  }
  return DecodeStatus::kBadPayload;  // Unknown type byte.
}

}  // namespace

void AppendFrame(const Frame& frame, std::vector<uint8_t>* out) {
  AppendFrameTo(frame, frame.events, out);
}

void AppendFrame(const Frame& frame, std::string* out) {
  AppendFrameTo(frame, frame.events, out);
}

void AppendFrame(const Frame& frame, std::span<const Event> events,
                 std::vector<uint8_t>* out) {
  AppendFrameTo(frame, events, out);
}

void AppendFrame(const Frame& frame, std::span<const Event> events,
                 std::string* out) {
  AppendFrameTo(frame, events, out);
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (failed_) return;
  // Drop the consumed prefix before growing, so long-lived connections do
  // not accumulate history.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ >= (size_t{1} << 16))) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

DecodeStatus FrameDecoder::Next(Frame* frame) {
  if (failed_) return error_;
  const size_t avail = buffer_.size() - pos_;
  if (avail < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  const uint8_t* h = buffer_.data() + pos_;

  auto fail = [this](DecodeStatus status) {
    failed_ = true;
    error_ = status;
    return status;
  };

  if (GetU32(h) != kWireMagic) return fail(DecodeStatus::kBadMagic);
  const uint8_t type = h[4];
  const uint8_t aux = h[5];
  if (GetU16(h + 6) != 0) return fail(DecodeStatus::kBadLength);
  const uint64_t session_id = GetU64(h + 8);
  const uint32_t payload_len = GetU32(h + 16);
  const uint32_t expect_crc = GetU32(h + 20);
  if (payload_len > kMaxPayloadBytes) return fail(DecodeStatus::kBadLength);
  if (avail < kFrameHeaderBytes + payload_len) return DecodeStatus::kNeedMore;

  const uint8_t* payload = h + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != expect_crc) {
    return fail(DecodeStatus::kBadCrc);
  }

  *frame = Frame{};
  frame->type = static_cast<FrameType>(type);
  frame->session_id = session_id;
  const DecodeStatus status =
      ParsePayload(frame->type, aux, payload, payload_len, frame);
  if (status != DecodeStatus::kOk) return fail(status);
  pos_ += kFrameHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

}  // namespace server
}  // namespace impatience
