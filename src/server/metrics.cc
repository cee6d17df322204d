#include "server/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/cpu_features.h"

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

// Escapes `s` for embedding inside a JSON string literal: quotes,
// backslashes, and control characters (the characters RFC 8259 forbids
// raw inside strings).
void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          Appendf(out, "\\u%04x", c);
        } else {
          out->push_back(ch);
        }
    }
  }
}

// Escapes `s` for a Prometheus label value: backslash, double quote, and
// newline (the three characters the text exposition format escapes).
void AppendPromLabelEscaped(const std::string& s, std::string* out) {
  for (const char ch : s) {
    switch (ch) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(ch);
    }
  }
}

// Emits one per-shard gauge/counter family: a line per shard.
template <typename Get>
void TextFamily(std::string* out, const ServerMetrics& m, const char* name,
                Get get) {
  for (const ShardMetrics& s : m.shards) {
    Appendf(out, "%s{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            static_cast<uint64_t>(get(s)));
  }
}

// Emits one per-io-loop gauge/counter family: a line per event loop.
template <typename Get>
void TextLoopFamily(std::string* out, const ServerMetrics& m,
                    const char* name, Get get) {
  for (const IoLoopMetrics& l : m.transport.loops) {
    Appendf(out, "%s{loop=\"%zu\"} %" PRIu64 "\n", name, l.loop,
            static_cast<uint64_t>(get(l)));
  }
}

template <typename Get>
void PromLoopFamily(std::string* out, const ServerMetrics& m,
                    const char* name, const char* type, const char* help,
                    Get get) {
  Appendf(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
  for (const IoLoopMetrics& l : m.transport.loops) {
    Appendf(out, "%s{loop=\"%zu\"} %" PRIu64 "\n", name, l.loop,
            static_cast<uint64_t>(get(l)));
  }
}

// The quantiles every latency family exposes, shared by all renderings.
struct QuantilePoint {
  const char* text_label;  // bare-text q="..." label
  const char* prom_label;  // Prometheus quantile="..." label
  double q;
};

constexpr QuantilePoint kQuantiles[] = {
    {"p50", "0.5", 0.50},
    {"p90", "0.9", 0.90},
    {"p99", "0.99", 0.99},
    {"p999", "0.999", 0.999},
};

// Bare-text rendering of one histogram family: quantile lines plus count
// and max per shard.
template <typename Get>
void TextHistogramFamily(std::string* out, const ServerMetrics& m,
                         const char* name, Get get) {
  for (const ShardMetrics& s : m.shards) {
    const HistogramSnapshot& h = get(s);
    for (const QuantilePoint& p : kQuantiles) {
      Appendf(out, "%s{shard=\"%zu\",q=\"%s\"} %" PRIu64 "\n", name, s.shard,
              p.text_label, h.ValueAtQuantile(p.q));
    }
    Appendf(out, "%s_count{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            h.count());
    Appendf(out, "%s_max{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            h.max());
  }
}

// JSON rendering of one histogram as an object value (no trailing comma).
void AppendJsonHistogram(std::string* out, const char* key,
                         const HistogramSnapshot& h) {
  Appendf(out, "\"%s\":{\"count\":%" PRIu64 ",", key, h.count());
  for (const QuantilePoint& p : kQuantiles) {
    Appendf(out, "\"%s\":%" PRIu64 ",", p.text_label, h.ValueAtQuantile(p.q));
  }
  Appendf(out, "\"max\":%" PRIu64 ",\"sum\":%" PRIu64 "}", h.max(), h.sum());
}

// Prometheus summary family: # HELP / # TYPE, then per shard the quantile
// series plus the _sum and _count conventions.
template <typename Get>
void PromSummaryFamily(std::string* out, const ServerMetrics& m,
                       const char* name, const char* help, Get get) {
  Appendf(out, "# HELP %s %s\n# TYPE %s summary\n", name, help, name);
  for (const ShardMetrics& s : m.shards) {
    const HistogramSnapshot& h = get(s);
    for (const QuantilePoint& p : kQuantiles) {
      Appendf(out, "%s{shard=\"%zu\",quantile=\"%s\"} %" PRIu64 "\n", name,
              s.shard, p.prom_label, h.ValueAtQuantile(p.q));
    }
    Appendf(out, "%s_sum{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            h.sum());
    Appendf(out, "%s_count{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            h.count());
  }
}

// Prometheus histogram family: cumulative le buckets plus +Inf, _sum, and
// _count. The le ladder is 2^k - 1 (k = 0, 2, ..., 40): each bound is the
// largest value of its log bucket, so every cumulative count is exact (see
// HistogramSnapshot::CountLessOrEqual). Emitted as a sibling of the
// summary family (suffix _hist) so both conventions stay scrapeable.
template <typename Get>
void PromBucketFamily(std::string* out, const ServerMetrics& m,
                      const char* name, const char* help, Get get) {
  Appendf(out, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  for (const ShardMetrics& s : m.shards) {
    const HistogramSnapshot& h = get(s);
    for (int k = 0; k <= 40; k += 2) {
      const uint64_t le = (uint64_t{1} << k) - 1;
      Appendf(out, "%s_bucket{shard=\"%zu\",le=\"%" PRIu64 "\"} %" PRIu64 "\n",
              name, s.shard, le, h.CountLessOrEqual(le));
    }
    Appendf(out, "%s_bucket{shard=\"%zu\",le=\"+Inf\"} %" PRIu64 "\n", name,
            s.shard, h.count());
    Appendf(out, "%s_sum{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            h.sum());
    Appendf(out, "%s_count{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            h.count());
  }
}

template <typename Get>
void PromShardFamily(std::string* out, const ServerMetrics& m,
                     const char* name, const char* type, const char* help,
                     Get get) {
  Appendf(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
  for (const ShardMetrics& s : m.shards) {
    Appendf(out, "%s{shard=\"%zu\"} %" PRIu64 "\n", name, s.shard,
            static_cast<uint64_t>(get(s)));
  }
}

void PromScalar(std::string* out, const char* name, const char* type,
                const char* help, uint64_t value) {
  Appendf(out, "# HELP %s %s\n# TYPE %s %s\n%s %" PRIu64 "\n", name, help,
          name, type, name, value);
}

}  // namespace

std::string RenderMetricsText(const ServerMetrics& m) {
  std::string out;
  Appendf(&out, "impatience_connections_opened %" PRIu64 "\n",
          m.connections_opened);
  Appendf(&out, "impatience_connections_closed %" PRIu64 "\n",
          m.connections_closed);
  Appendf(&out, "impatience_frames_in %" PRIu64 "\n", m.frames_in);
  Appendf(&out, "impatience_frames_out %" PRIu64 "\n", m.frames_out);
  Appendf(&out, "impatience_bytes_in %" PRIu64 "\n", m.bytes_in);
  Appendf(&out, "impatience_bytes_out %" PRIu64 "\n", m.bytes_out);
  Appendf(&out, "impatience_decode_errors %" PRIu64 "\n", m.decode_errors);
  Appendf(&out, "impatience_shutting_down %d\n", m.shutting_down ? 1 : 0);
  Appendf(&out, "impatience_shards %zu\n", m.shards.size());
  Appendf(&out, "impatience_kernel_level %d\n",
          static_cast<int>(ActiveKernelLevel()));
  Appendf(&out, "impatience_io_accepted %" PRIu64 "\n", m.transport.accepted);
  Appendf(&out, "impatience_io_accept_errors %" PRIu64 "\n",
          m.transport.accept_errors);
  Appendf(&out, "impatience_io_loops %zu\n", m.transport.loops.size());
  Appendf(&out, "impatience_telemetry_subscribers %" PRIu64 "\n",
          m.telemetry.subscribers);
  Appendf(&out, "impatience_telemetry_chunks_sent %" PRIu64 "\n",
          m.telemetry.chunks_sent);
  Appendf(&out, "impatience_telemetry_chunks_dropped %" PRIu64 "\n",
          m.telemetry.chunks_dropped);
  Appendf(&out, "impatience_telemetry_subscribers_shed %" PRIu64 "\n",
          m.telemetry.subscribers_shed);
  Appendf(&out, "impatience_telemetry_spans_exported %" PRIu64 "\n",
          m.telemetry.spans_exported);
  Appendf(&out, "impatience_telemetry_span_ring_drops %" PRIu64 "\n",
          m.telemetry.span_ring_drops);
  Appendf(&out, "impatience_telemetry_metrics_deltas %" PRIu64 "\n",
          m.telemetry.metrics_deltas);
  Appendf(&out, "impatience_telemetry_dump_chunks %" PRIu64 "\n",
          m.telemetry.dump_chunks);
  Appendf(&out, "impatience_telemetry_dump_truncated %" PRIu64 "\n",
          m.telemetry.dump_truncated);
  Appendf(&out, "impatience_results_subscribers %" PRIu64 "\n",
          m.results.subscribers);
  Appendf(&out, "impatience_results_chunks_built %" PRIu64 "\n",
          m.results.chunks_built);
  Appendf(&out, "impatience_results_chunks_sent %" PRIu64 "\n",
          m.results.chunks_sent);
  Appendf(&out, "impatience_results_chunks_dropped %" PRIu64 "\n",
          m.results.chunks_dropped);
  Appendf(&out, "impatience_results_records_streamed %" PRIu64 "\n",
          m.results.records_streamed);
  Appendf(&out, "impatience_results_records_dropped %" PRIu64 "\n",
          m.results.records_dropped);
  Appendf(&out, "impatience_results_subscribers_shed %" PRIu64 "\n",
          m.results.subscribers_shed);

  TextLoopFamily(&out, m, "impatience_io_loop_connections",
                 [](const IoLoopMetrics& l) { return l.connections; });
  TextLoopFamily(&out, m, "impatience_io_loop_epollout_waiting",
                 [](const IoLoopMetrics& l) { return l.epollout_waiting; });
  TextLoopFamily(&out, m, "impatience_io_loop_accepted",
                 [](const IoLoopMetrics& l) { return l.accepted; });
  TextLoopFamily(&out, m, "impatience_io_loop_closed",
                 [](const IoLoopMetrics& l) { return l.closed; });
  TextLoopFamily(&out, m, "impatience_io_loop_closed_slow",
                 [](const IoLoopMetrics& l) { return l.closed_slow; });
  TextLoopFamily(&out, m, "impatience_io_loop_closed_error",
                 [](const IoLoopMetrics& l) { return l.closed_error; });
  TextLoopFamily(&out, m, "impatience_io_loop_epollout_stalls",
                 [](const IoLoopMetrics& l) { return l.epollout_stalls; });

  TextFamily(&out, m, "impatience_shard_queue_depth",
             [](const ShardMetrics& s) { return s.queue_depth; });
  TextFamily(&out, m, "impatience_shard_queue_capacity",
             [](const ShardMetrics& s) { return s.queue_capacity; });
  TextFamily(&out, m, "impatience_shard_queue_bytes",
             [](const ShardMetrics& s) { return s.queue_bytes; });
  TextFamily(&out, m, "impatience_shard_queue_bytes_capacity",
             [](const ShardMetrics& s) { return s.queue_bytes_capacity; });
  TextFamily(&out, m, "impatience_shard_frames_in",
             [](const ShardMetrics& s) { return s.frames_in; });
  TextFamily(&out, m, "impatience_shard_events_in",
             [](const ShardMetrics& s) { return s.events_in; });
  TextFamily(&out, m, "impatience_shard_punctuations_in",
             [](const ShardMetrics& s) { return s.punctuations_in; });
  TextFamily(&out, m, "impatience_shard_sessions",
             [](const ShardMetrics& s) { return s.sessions; });
  TextFamily(&out, m, "impatience_shard_blocked_pushes",
             [](const ShardMetrics& s) { return s.blocked_pushes; });
  TextFamily(&out, m, "impatience_shard_rejected_frames",
             [](const ShardMetrics& s) { return s.rejected_frames; });
  TextFamily(&out, m, "impatience_shard_rejected_events",
             [](const ShardMetrics& s) { return s.rejected_events; });
  TextFamily(&out, m, "impatience_shard_shed_frames",
             [](const ShardMetrics& s) { return s.shed_frames; });
  TextFamily(&out, m, "impatience_shard_shed_events",
             [](const ShardMetrics& s) { return s.shed_events; });
  TextFamily(&out, m, "impatience_shard_events_out",
             [](const ShardMetrics& s) { return s.events_out; });
  TextFamily(&out, m, "impatience_shard_dropped_late",
             [](const ShardMetrics& s) { return s.dropped_late; });
  TextFamily(&out, m, "impatience_shard_sorter_pushes",
             [](const ShardMetrics& s) { return s.sorter.pushes; });
  TextFamily(&out, m, "impatience_shard_sorter_srs_hits",
             [](const ShardMetrics& s) { return s.sorter.srs_hits; });
  TextFamily(&out, m, "impatience_shard_sorter_new_runs",
             [](const ShardMetrics& s) { return s.sorter.new_runs; });
  TextFamily(&out, m, "impatience_shard_sorter_removed_runs",
             [](const ShardMetrics& s) { return s.sorter.removed_runs; });
  TextFamily(&out, m, "impatience_shard_sorter_parallel_merges",
             [](const ShardMetrics& s) { return s.sorter.parallel_merges; });
  TextFamily(&out, m, "impatience_shard_sorter_loser_tree_merges",
             [](const ShardMetrics& s) {
               return s.sorter.loser_tree_merges;
             });
  TextFamily(&out, m, "impatience_shard_sorter_elements_moved",
             [](const ShardMetrics& s) { return s.sorter.merge.elements_moved; });
  TextFamily(&out, m, "impatience_shard_sorter_disjoint_concats",
             [](const ShardMetrics& s) {
               return s.sorter.merge.disjoint_concats;
             });
  TextFamily(&out, m, "impatience_shard_memory_current_bytes",
             [](const ShardMetrics& s) { return s.memory_current_bytes; });
  TextFamily(&out, m, "impatience_shard_memory_peak_bytes",
             [](const ShardMetrics& s) { return s.memory_peak_bytes; });
  TextFamily(&out, m, "impatience_shard_runs_recovered",
             [](const ShardMetrics& s) { return s.runs_recovered; });
  TextFamily(&out, m, "impatience_shard_events_recovered",
             [](const ShardMetrics& s) { return s.events_recovered; });
  TextFamily(&out, m, "impatience_shard_sorter_runs_spilled",
             [](const ShardMetrics& s) { return s.sorter.runs_spilled; });
  TextFamily(&out, m, "impatience_shard_sorter_spill_bytes_written",
             [](const ShardMetrics& s) {
               return s.sorter.spill_bytes_written;
             });
  TextFamily(&out, m, "impatience_shard_sorter_spill_read_bytes",
             [](const ShardMetrics& s) { return s.sorter.spill_read_bytes; });
  TextFamily(&out, m, "impatience_shard_sorter_async_flushes",
             [](const ShardMetrics& s) { return s.sorter.async_flushes; });
  TextFamily(&out, m, "impatience_shard_sorter_readahead_hits",
             [](const ShardMetrics& s) { return s.sorter.readahead_hits; });
  TextFamily(&out, m, "impatience_shard_sorter_readahead_misses",
             [](const ShardMetrics& s) { return s.sorter.readahead_misses; });
  TextFamily(&out, m, "impatience_shard_sorter_idle_flushes",
             [](const ShardMetrics& s) { return s.sorter.idle_flushes; });
  TextFamily(&out, m, "impatience_shard_sorter_spill_compactions",
             [](const ShardMetrics& s) {
               return s.sorter.spill_compactions;
             });
  TextFamily(&out, m, "impatience_shard_sorter_flush_queue_bytes",
             [](const ShardMetrics& s) {
               return s.sorter.flush_queue_bytes;
             });

  TextHistogramFamily(&out, m, "impatience_shard_punct_to_emit_ns",
                      [](const ShardMetrics& s) -> const HistogramSnapshot& {
                        return s.sorter.punct_to_emit;
                      });
  TextHistogramFamily(&out, m, "impatience_shard_ingest_to_emit_ns",
                      [](const ShardMetrics& s) -> const HistogramSnapshot& {
                        return s.sorter.ingest_to_emit;
                      });
  TextHistogramFamily(&out, m, "impatience_shard_queue_wait_ns",
                      [](const ShardMetrics& s) -> const HistogramSnapshot& {
                        return s.queue_wait;
                      });
  TextHistogramFamily(&out, m, "impatience_shard_drain_stall_ns",
                      [](const ShardMetrics& s) -> const HistogramSnapshot& {
                        return s.drain_stall;
                      });
  TextHistogramFamily(&out, m, "impatience_shard_kway_fanin",
                      [](const ShardMetrics& s) -> const HistogramSnapshot& {
                        return s.sorter.kway_fanin;
                      });
  TextHistogramFamily(&out, m, "impatience_shard_spill_merge_fanin",
                      [](const ShardMetrics& s) -> const HistogramSnapshot& {
                        return s.sorter.spill_merge_fanin;
                      });
  TextFamily(&out, m, "impatience_shard_max_watermark_lag",
             [](const ShardMetrics& s) {
               return static_cast<uint64_t>(s.max_watermark_lag);
             });
  return out;
}

std::string RenderMetricsJson(const ServerMetrics& m) {
  std::string out;
  out += "{";
  Appendf(&out, "\"connections_opened\":%" PRIu64 ",", m.connections_opened);
  Appendf(&out, "\"connections_closed\":%" PRIu64 ",", m.connections_closed);
  Appendf(&out, "\"frames_in\":%" PRIu64 ",", m.frames_in);
  Appendf(&out, "\"frames_out\":%" PRIu64 ",", m.frames_out);
  Appendf(&out, "\"bytes_in\":%" PRIu64 ",", m.bytes_in);
  Appendf(&out, "\"bytes_out\":%" PRIu64 ",", m.bytes_out);
  Appendf(&out, "\"decode_errors\":%" PRIu64 ",", m.decode_errors);
  Appendf(&out, "\"shutting_down\":%s,",
          m.shutting_down ? "true" : "false");
  out += "\"kernel_level\":\"";
  AppendJsonEscaped(KernelLevelName(ActiveKernelLevel()), &out);
  out += "\",";
  Appendf(&out, "\"io_accepted\":%" PRIu64 ",", m.transport.accepted);
  Appendf(&out, "\"io_accept_errors\":%" PRIu64 ",",
          m.transport.accept_errors);
  out += "\"io_loops\":[";
  for (size_t i = 0; i < m.transport.loops.size(); ++i) {
    const IoLoopMetrics& l = m.transport.loops[i];
    if (i > 0) out += ",";
    Appendf(&out,
            "{\"loop\":%zu,\"connections\":%zu,\"epollout_waiting\":%zu,"
            "\"accepted\":%" PRIu64 ",\"closed\":%" PRIu64
            ",\"closed_slow\":%" PRIu64 ",\"closed_error\":%" PRIu64
            ",\"epollout_stalls\":%" PRIu64 "}",
            l.loop, l.connections, l.epollout_waiting, l.accepted, l.closed,
            l.closed_slow, l.closed_error, l.epollout_stalls);
  }
  out += "],";
  Appendf(&out,
          "\"telemetry\":{\"subscribers\":%" PRIu64 ",\"chunks_sent\":%" PRIu64
          ",\"chunks_dropped\":%" PRIu64 ",\"subscribers_shed\":%" PRIu64
          ",\"spans_exported\":%" PRIu64 ",\"span_ring_drops\":%" PRIu64
          ",\"metrics_deltas\":%" PRIu64 ",\"dump_chunks\":%" PRIu64
          ",\"dump_truncated\":%" PRIu64 "},",
          m.telemetry.subscribers, m.telemetry.chunks_sent,
          m.telemetry.chunks_dropped, m.telemetry.subscribers_shed,
          m.telemetry.spans_exported, m.telemetry.span_ring_drops,
          m.telemetry.metrics_deltas, m.telemetry.dump_chunks,
          m.telemetry.dump_truncated);
  Appendf(&out,
          "\"results\":{\"subscribers\":%" PRIu64 ",\"chunks_built\":%" PRIu64
          ",\"chunks_sent\":%" PRIu64 ",\"chunks_dropped\":%" PRIu64
          ",\"records_streamed\":%" PRIu64 ",\"records_dropped\":%" PRIu64
          ",\"subscribers_shed\":%" PRIu64 "},",
          m.results.subscribers, m.results.chunks_built,
          m.results.chunks_sent, m.results.chunks_dropped,
          m.results.records_streamed, m.results.records_dropped,
          m.results.subscribers_shed);
  out += "\"shards\":[";
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const ShardMetrics& s = m.shards[i];
    if (i > 0) out += ",";
    out += "{";
    Appendf(&out, "\"shard\":%zu,", s.shard);
    Appendf(&out, "\"queue_depth\":%zu,", s.queue_depth);
    Appendf(&out, "\"queue_capacity\":%zu,", s.queue_capacity);
    Appendf(&out, "\"queue_bytes\":%zu,", s.queue_bytes);
    Appendf(&out, "\"queue_bytes_capacity\":%zu,", s.queue_bytes_capacity);
    Appendf(&out, "\"frames_in\":%" PRIu64 ",", s.frames_in);
    Appendf(&out, "\"events_in\":%" PRIu64 ",", s.events_in);
    Appendf(&out, "\"punctuations_in\":%" PRIu64 ",", s.punctuations_in);
    Appendf(&out, "\"sessions\":%" PRIu64 ",", s.sessions);
    Appendf(&out, "\"blocked_pushes\":%" PRIu64 ",", s.blocked_pushes);
    Appendf(&out, "\"rejected_frames\":%" PRIu64 ",", s.rejected_frames);
    Appendf(&out, "\"rejected_events\":%" PRIu64 ",", s.rejected_events);
    Appendf(&out, "\"shed_frames\":%" PRIu64 ",", s.shed_frames);
    Appendf(&out, "\"shed_events\":%" PRIu64 ",", s.shed_events);
    Appendf(&out, "\"events_out\":%" PRIu64 ",", s.events_out);
    Appendf(&out, "\"dropped_late\":%" PRIu64 ",", s.dropped_late);
    Appendf(&out, "\"sorter_pushes\":%" PRIu64 ",", s.sorter.pushes);
    Appendf(&out, "\"sorter_srs_hits\":%" PRIu64 ",", s.sorter.srs_hits);
    Appendf(&out, "\"sorter_new_runs\":%" PRIu64 ",", s.sorter.new_runs);
    Appendf(&out, "\"sorter_removed_runs\":%" PRIu64 ",",
            s.sorter.removed_runs);
    Appendf(&out, "\"sorter_parallel_merges\":%" PRIu64 ",",
            s.sorter.parallel_merges);
    Appendf(&out, "\"sorter_loser_tree_merges\":%" PRIu64 ",",
            s.sorter.loser_tree_merges);
    Appendf(&out, "\"sorter_elements_moved\":%" PRIu64 ",",
            s.sorter.merge.elements_moved);
    Appendf(&out, "\"sorter_disjoint_concats\":%" PRIu64 ",",
            s.sorter.merge.disjoint_concats);
    Appendf(&out, "\"memory_current_bytes\":%" PRIu64 ",",
            s.memory_current_bytes);
    Appendf(&out, "\"memory_peak_bytes\":%" PRIu64 ",", s.memory_peak_bytes);
    Appendf(&out, "\"runs_recovered\":%" PRIu64 ",", s.runs_recovered);
    Appendf(&out, "\"events_recovered\":%" PRIu64 ",", s.events_recovered);
    Appendf(&out, "\"sorter_runs_spilled\":%" PRIu64 ",",
            s.sorter.runs_spilled);
    Appendf(&out, "\"sorter_spill_bytes_written\":%" PRIu64 ",",
            s.sorter.spill_bytes_written);
    Appendf(&out, "\"sorter_spill_read_bytes\":%" PRIu64 ",",
            s.sorter.spill_read_bytes);
    Appendf(&out, "\"sorter_async_flushes\":%" PRIu64 ",",
            s.sorter.async_flushes);
    Appendf(&out, "\"sorter_readahead_hits\":%" PRIu64 ",",
            s.sorter.readahead_hits);
    Appendf(&out, "\"sorter_readahead_misses\":%" PRIu64 ",",
            s.sorter.readahead_misses);
    Appendf(&out, "\"sorter_idle_flushes\":%" PRIu64 ",",
            s.sorter.idle_flushes);
    Appendf(&out, "\"sorter_spill_compactions\":%" PRIu64 ",",
            s.sorter.spill_compactions);
    Appendf(&out, "\"sorter_flush_queue_bytes\":%" PRIu64 ",",
            s.sorter.flush_queue_bytes);
    AppendJsonHistogram(&out, "punct_to_emit_ns", s.sorter.punct_to_emit);
    out += ",";
    AppendJsonHistogram(&out, "ingest_to_emit_ns", s.sorter.ingest_to_emit);
    out += ",";
    AppendJsonHistogram(&out, "queue_wait_ns", s.queue_wait);
    out += ",";
    AppendJsonHistogram(&out, "drain_stall_ns", s.drain_stall);
    out += ",";
    AppendJsonHistogram(&out, "kway_fanin", s.sorter.kway_fanin);
    out += ",";
    AppendJsonHistogram(&out, "spill_merge_fanin", s.sorter.spill_merge_fanin);
    out += ",";
    Appendf(&out, "\"max_watermark_lag\":%" PRId64 ",", s.max_watermark_lag);
    out += "\"watermarks\":[";
    for (size_t j = 0; j < s.watermarks.size(); ++j) {
      const SessionWatermark& w = s.watermarks[j];
      if (j > 0) out += ",";
      out += "{\"session\":\"";
      AppendJsonEscaped(w.label, &out);
      Appendf(&out,
              "\",\"session_id\":%" PRIu64 ",\"max_sync_time\":%" PRId64
              ",\"last_punctuation\":%" PRId64 ",\"lag\":%" PRId64 "}",
              w.session_id, static_cast<int64_t>(w.max_sync_time),
              static_cast<int64_t>(w.last_punctuation), w.lag);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string RenderMetricsPrometheus(const ServerMetrics& m) {
  std::string out;
  PromScalar(&out, "impatience_connections_opened", "counter",
             "Client connections accepted.", m.connections_opened);
  PromScalar(&out, "impatience_connections_closed", "counter",
             "Client connections closed.", m.connections_closed);
  PromScalar(&out, "impatience_frames_in", "counter",
             "Frames decoded from clients.", m.frames_in);
  PromScalar(&out, "impatience_frames_out", "counter",
             "Frames sent to clients.", m.frames_out);
  PromScalar(&out, "impatience_bytes_in", "counter",
             "Bytes received from clients.", m.bytes_in);
  PromScalar(&out, "impatience_bytes_out", "counter",
             "Bytes sent to clients.", m.bytes_out);
  PromScalar(&out, "impatience_decode_errors", "counter",
             "Connections poisoned by undecodable bytes.", m.decode_errors);
  PromScalar(&out, "impatience_shutting_down", "gauge",
             "1 while drain-and-flush shutdown is in progress.",
             m.shutting_down ? 1 : 0);
  PromScalar(&out, "impatience_shards", "gauge", "Number of shards.",
             m.shards.size());
  PromScalar(&out, "impatience_kernel_level", "gauge",
             "Active SIMD kernel dispatch level.",
             static_cast<uint64_t>(ActiveKernelLevel()));
  PromScalar(&out, "impatience_io_accepted", "counter",
             "Sockets accepted by the TCP front end.",
             m.transport.accepted);
  PromScalar(&out, "impatience_io_accept_errors", "counter",
             "Transient accept() failures (EMFILE, aborts).",
             m.transport.accept_errors);
  PromScalar(&out, "impatience_io_loops", "gauge",
             "Number of epoll I/O event loops.", m.transport.loops.size());

  PromScalar(&out, "impatience_telemetry_subscribers", "gauge",
             "Live streaming telemetry subscriptions.",
             m.telemetry.subscribers);
  PromScalar(&out, "impatience_telemetry_chunks_sent", "counter",
             "Telemetry chunks accepted toward a subscriber.",
             m.telemetry.chunks_sent);
  PromScalar(&out, "impatience_telemetry_chunks_dropped", "counter",
             "Telemetry chunks dropped at a full write budget.",
             m.telemetry.chunks_dropped);
  PromScalar(&out, "impatience_telemetry_subscribers_shed", "counter",
             "Subscriptions removed after persistent stalling.",
             m.telemetry.subscribers_shed);
  PromScalar(&out, "impatience_telemetry_spans_exported", "counter",
             "Span records exported into live telemetry chunks.",
             m.telemetry.spans_exported);
  PromScalar(&out, "impatience_telemetry_span_ring_drops", "counter",
             "Span-ring overwrites observed while harvesting.",
             m.telemetry.span_ring_drops);
  PromScalar(&out, "impatience_telemetry_metrics_deltas", "counter",
             "Metrics-delta telemetry chunks built.",
             m.telemetry.metrics_deltas);
  PromScalar(&out, "impatience_telemetry_dump_chunks", "counter",
             "One-shot trace dump chunks delivered.",
             m.telemetry.dump_chunks);
  PromScalar(&out, "impatience_telemetry_dump_truncated", "counter",
             "Trace dumps that could not queue every chunk.",
             m.telemetry.dump_truncated);

  PromScalar(&out, "impatience_results_subscribers", "gauge",
             "Live result-stream subscriptions.", m.results.subscribers);
  PromScalar(&out, "impatience_results_chunks_built", "counter",
             "Result chunks sealed from pipeline output.",
             m.results.chunks_built);
  PromScalar(&out, "impatience_results_chunks_sent", "counter",
             "Result chunks accepted toward a subscriber.",
             m.results.chunks_sent);
  PromScalar(&out, "impatience_results_chunks_dropped", "counter",
             "Result chunks dropped at a full write budget.",
             m.results.chunks_dropped);
  PromScalar(&out, "impatience_results_records_streamed", "counter",
             "Records inside accepted result chunks.",
             m.results.records_streamed);
  PromScalar(&out, "impatience_results_records_dropped", "counter",
             "Records inside dropped result chunks.",
             m.results.records_dropped);
  PromScalar(&out, "impatience_results_subscribers_shed", "counter",
             "Result subscriptions removed after persistent stalling.",
             m.results.subscribers_shed);

  PromLoopFamily(&out, m, "impatience_io_loop_connections", "gauge",
                 "Connections currently owned by the event loop.",
                 [](const IoLoopMetrics& l) { return l.connections; });
  PromLoopFamily(&out, m, "impatience_io_loop_epollout_waiting", "gauge",
                 "Connections with write interest armed (queued replies a "
                 "slow peer has not drained).",
                 [](const IoLoopMetrics& l) { return l.epollout_waiting; });
  PromLoopFamily(&out, m, "impatience_io_loop_accepted", "counter",
                 "Connections ever assigned to the loop.",
                 [](const IoLoopMetrics& l) { return l.accepted; });
  PromLoopFamily(&out, m, "impatience_io_loop_closed", "counter",
                 "Connections closed, any cause.",
                 [](const IoLoopMetrics& l) { return l.closed; });
  PromLoopFamily(&out, m, "impatience_io_loop_closed_slow", "counter",
                 "Connections shed because the reply queue hit its bound.",
                 [](const IoLoopMetrics& l) { return l.closed_slow; });
  PromLoopFamily(&out, m, "impatience_io_loop_closed_error", "counter",
                 "Connections closed on read/write error or peer reset.",
                 [](const IoLoopMetrics& l) { return l.closed_error; });
  PromLoopFamily(&out, m, "impatience_io_loop_epollout_stalls", "counter",
                 "Writes that could not complete and armed EPOLLOUT.",
                 [](const IoLoopMetrics& l) { return l.epollout_stalls; });

  PromShardFamily(&out, m, "impatience_shard_queue_depth", "gauge",
                  "Frames waiting in the shard ingress queue.",
                  [](const ShardMetrics& s) { return s.queue_depth; });
  PromShardFamily(&out, m, "impatience_shard_queue_capacity", "gauge",
                  "Shard ingress queue capacity in frames.",
                  [](const ShardMetrics& s) { return s.queue_capacity; });
  PromShardFamily(&out, m, "impatience_shard_queue_bytes", "gauge",
                  "Bytes of decoded events in the shard ingress queue.",
                  [](const ShardMetrics& s) { return s.queue_bytes; });
  PromShardFamily(&out, m, "impatience_shard_queue_bytes_capacity", "gauge",
                  "Shard ingress queue capacity in bytes of decoded events.",
                  [](const ShardMetrics& s) {
                    return s.queue_bytes_capacity;
                  });
  PromShardFamily(&out, m, "impatience_shard_frames_in", "counter",
                  "Data frames accepted into the shard queue.",
                  [](const ShardMetrics& s) { return s.frames_in; });
  PromShardFamily(&out, m, "impatience_shard_events_in", "counter",
                  "Events inside accepted frames.",
                  [](const ShardMetrics& s) { return s.events_in; });
  PromShardFamily(&out, m, "impatience_shard_punctuations_in", "counter",
                  "Client punctuation frames.",
                  [](const ShardMetrics& s) { return s.punctuations_in; });
  PromShardFamily(&out, m, "impatience_shard_sessions", "gauge",
                  "Distinct sessions seen by the shard.",
                  [](const ShardMetrics& s) { return s.sessions; });
  PromShardFamily(&out, m, "impatience_shard_blocked_pushes", "counter",
                  "Enqueues that had to wait (block policy).",
                  [](const ShardMetrics& s) { return s.blocked_pushes; });
  PromShardFamily(&out, m, "impatience_shard_rejected_frames", "counter",
                  "Frames refused under the reject policy.",
                  [](const ShardMetrics& s) { return s.rejected_frames; });
  PromShardFamily(&out, m, "impatience_shard_rejected_events", "counter",
                  "Events inside refused frames.",
                  [](const ShardMetrics& s) { return s.rejected_events; });
  PromShardFamily(&out, m, "impatience_shard_shed_frames", "counter",
                  "Frames evicted under the shed policy.",
                  [](const ShardMetrics& s) { return s.shed_frames; });
  PromShardFamily(&out, m, "impatience_shard_shed_events", "counter",
                  "Events inside evicted frames.",
                  [](const ShardMetrics& s) { return s.shed_events; });
  PromShardFamily(&out, m, "impatience_shard_events_out", "counter",
                  "Rows emitted on the subscribed output stream.",
                  [](const ShardMetrics& s) { return s.events_out; });
  PromShardFamily(&out, m, "impatience_shard_dropped_late", "counter",
                  "Events dropped as too late (partition + sorters).",
                  [](const ShardMetrics& s) { return s.dropped_late; });
  PromShardFamily(&out, m, "impatience_shard_sorter_pushes", "counter",
                  "Elements accepted by the shard's Impatience sorters.",
                  [](const ShardMetrics& s) { return s.sorter.pushes; });
  PromShardFamily(&out, m, "impatience_shard_sorter_srs_hits", "counter",
                  "Insertions resolved by speculative run selection.",
                  [](const ShardMetrics& s) { return s.sorter.srs_hits; });
  PromShardFamily(&out, m, "impatience_shard_sorter_new_runs", "counter",
                  "Sorted runs created.",
                  [](const ShardMetrics& s) { return s.sorter.new_runs; });
  PromShardFamily(&out, m, "impatience_shard_sorter_removed_runs", "counter",
                  "Sorted runs removed after punctuations.",
                  [](const ShardMetrics& s) { return s.sorter.removed_runs; });
  PromShardFamily(
      &out, m, "impatience_shard_sorter_parallel_merges", "counter",
      "Punctuation merges executed on the thread pool.",
      [](const ShardMetrics& s) { return s.sorter.parallel_merges; });
  PromShardFamily(
      &out, m, "impatience_shard_sorter_loser_tree_merges", "counter",
      "Punctuation merges executed by the k-way loser tree.",
      [](const ShardMetrics& s) { return s.sorter.loser_tree_merges; });
  PromShardFamily(
      &out, m, "impatience_shard_sorter_elements_moved", "counter",
      "Elements moved by punctuation merges.",
      [](const ShardMetrics& s) { return s.sorter.merge.elements_moved; });
  PromShardFamily(&out, m, "impatience_shard_memory_current_bytes", "gauge",
                  "Bytes buffered across the shard pipeline right now.",
                  [](const ShardMetrics& s) { return s.memory_current_bytes; });
  PromShardFamily(&out, m, "impatience_shard_memory_peak_bytes", "gauge",
                  "High-water mark of shard pipeline buffering since the "
                  "last resetting scrape.",
                  [](const ShardMetrics& s) { return s.memory_peak_bytes; });
  PromShardFamily(&out, m, "impatience_shard_runs_recovered", "counter",
                  "Spilled runs replayed from disk at startup.",
                  [](const ShardMetrics& s) { return s.runs_recovered; });
  PromShardFamily(&out, m, "impatience_shard_events_recovered", "counter",
                  "Events replayed from recovered runs at startup.",
                  [](const ShardMetrics& s) { return s.events_recovered; });
  PromShardFamily(&out, m, "impatience_shard_sorter_runs_spilled", "counter",
                  "Sorter runs evicted to the disk spill tier.",
                  [](const ShardMetrics& s) { return s.sorter.runs_spilled; });
  PromShardFamily(&out, m, "impatience_shard_sorter_spill_bytes_written",
                  "counter", "Bytes written to spilled run files.",
                  [](const ShardMetrics& s) {
                    return s.sorter.spill_bytes_written;
                  });
  PromShardFamily(&out, m, "impatience_shard_sorter_spill_read_bytes",
                  "counter", "Bytes read back from spilled run files.",
                  [](const ShardMetrics& s) {
                    return s.sorter.spill_read_bytes;
                  });
  PromShardFamily(&out, m, "impatience_shard_sorter_async_flushes", "counter",
                  "Sealed blocks handed to the write-behind flusher pool.",
                  [](const ShardMetrics& s) { return s.sorter.async_flushes; });
  PromShardFamily(&out, m, "impatience_shard_sorter_readahead_hits", "counter",
                  "Merge-cursor block prefetches that were ready in time.",
                  [](const ShardMetrics& s) { return s.sorter.readahead_hits; });
  PromShardFamily(&out, m, "impatience_shard_sorter_readahead_misses",
                  "counter",
                  "Merge-cursor blocks loaded synchronously (prefetch late "
                  "or absent).",
                  [](const ShardMetrics& s) {
                    return s.sorter.readahead_misses;
                  });
  PromShardFamily(&out, m, "impatience_shard_sorter_idle_flushes", "counter",
                  "Idle-deadline flushes of quiescent tail blocks.",
                  [](const ShardMetrics& s) { return s.sorter.idle_flushes; });
  PromShardFamily(&out, m, "impatience_shard_sorter_spill_compactions",
                  "counter", "Spilled run files rewritten to reclaim disk.",
                  [](const ShardMetrics& s) {
                    return s.sorter.spill_compactions;
                  });
  PromShardFamily(&out, m, "impatience_shard_sorter_flush_queue_bytes",
                  "gauge",
                  "Bytes queued in the flusher pool at the last observation.",
                  [](const ShardMetrics& s) {
                    return s.sorter.flush_queue_bytes;
                  });

  PromSummaryFamily(&out, m, "impatience_shard_punct_to_emit_nanoseconds",
                    "Punctuation arrival to emit completion, per call.",
                    [](const ShardMetrics& s) -> const HistogramSnapshot& {
                      return s.sorter.punct_to_emit;
                    });
  PromSummaryFamily(&out, m, "impatience_shard_ingest_to_emit_nanoseconds",
                    "Oldest buffered push to emit, per emitting punctuation.",
                    [](const ShardMetrics& s) -> const HistogramSnapshot& {
                      return s.sorter.ingest_to_emit;
                    });
  PromSummaryFamily(&out, m, "impatience_shard_queue_wait_nanoseconds",
                    "Frame wait in the shard ingress queue.",
                    [](const ShardMetrics& s) -> const HistogramSnapshot& {
                      return s.queue_wait;
                    });
  PromSummaryFamily(&out, m, "impatience_shard_drain_stall_nanoseconds",
                    "Drain-loop stall applying one frame to the pipeline.",
                    [](const ShardMetrics& s) -> const HistogramSnapshot& {
                      return s.drain_stall;
                    });
  PromSummaryFamily(&out, m, "impatience_shard_kway_fanin",
                    "Head-run fan-in of each loser-tree punctuation merge.",
                    [](const ShardMetrics& s) -> const HistogramSnapshot& {
                      return s.sorter.kway_fanin;
                    });
  PromSummaryFamily(&out, m, "impatience_shard_spill_merge_fanin",
                    "Fan-in of punctuation merges touching spilled runs.",
                    [](const ShardMetrics& s) -> const HistogramSnapshot& {
                      return s.sorter.spill_merge_fanin;
                    });

  PromBucketFamily(&out, m, "impatience_shard_punct_to_emit_nanoseconds_hist",
                   "Punctuation arrival to emit completion, per call.",
                   [](const ShardMetrics& s) -> const HistogramSnapshot& {
                     return s.sorter.punct_to_emit;
                   });
  PromBucketFamily(&out, m, "impatience_shard_ingest_to_emit_nanoseconds_hist",
                   "Oldest buffered push to emit, per emitting punctuation.",
                   [](const ShardMetrics& s) -> const HistogramSnapshot& {
                     return s.sorter.ingest_to_emit;
                   });
  PromBucketFamily(&out, m, "impatience_shard_queue_wait_nanoseconds_hist",
                   "Frame wait in the shard ingress queue.",
                   [](const ShardMetrics& s) -> const HistogramSnapshot& {
                     return s.queue_wait;
                   });
  PromBucketFamily(&out, m, "impatience_shard_drain_stall_nanoseconds_hist",
                   "Drain-loop stall applying one frame to the pipeline.",
                   [](const ShardMetrics& s) -> const HistogramSnapshot& {
                     return s.drain_stall;
                   });
  PromBucketFamily(&out, m, "impatience_shard_kway_fanin_hist",
                   "Head-run fan-in of each loser-tree punctuation merge.",
                   [](const ShardMetrics& s) -> const HistogramSnapshot& {
                     return s.sorter.kway_fanin;
                   });
  PromBucketFamily(&out, m, "impatience_shard_spill_merge_fanin_hist",
                   "Fan-in of punctuation merges touching spilled runs.",
                   [](const ShardMetrics& s) -> const HistogramSnapshot& {
                     return s.sorter.spill_merge_fanin;
                   });

  Appendf(&out,
          "# HELP impatience_session_watermark_lag Event-time lag of a "
          "session: max sync time minus the shard's last punctuation.\n"
          "# TYPE impatience_session_watermark_lag gauge\n");
  for (const ShardMetrics& s : m.shards) {
    for (const SessionWatermark& w : s.watermarks) {
      Appendf(&out, "impatience_session_watermark_lag{shard=\"%zu\",", s.shard);
      out += "session=\"";
      AppendPromLabelEscaped(w.label, &out);
      Appendf(&out, "\"} %" PRId64 "\n", w.lag);
    }
  }
  PromShardFamily(&out, m, "impatience_shard_max_watermark_lag", "gauge",
                  "Largest per-session event-time watermark lag.",
                  [](const ShardMetrics& s) {
                    return static_cast<uint64_t>(s.max_watermark_lag);
                  });
  return out;
}

}  // namespace server
}  // namespace impatience
