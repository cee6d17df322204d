// Measurement logic of the end-to-end benchmark that must not go wrong
// silently, kept apart from the workloads so the self-test can drive it:
// percentiles with a sample-count rule, the watermark -> scheduled-send
// matcher behind the delivery latency, the output ledgers that check every
// run, the failed-share accounting, peak-RSS and CPU readings, and the
// benchmark's own spans.

#ifndef E2EBENCH_CORE_H_
#define E2EBENCH_CORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/histogram.h"
#include "common/timestamp.h"

namespace e2ebench {

using impatience::Event;
using impatience::Timestamp;

// Monotonic nanoseconds (steady_clock); every time the benchmark takes.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles.

// A percentile q is reported only when at least this many samples lie
// beyond it; below that the tail is a handful of samples and does not
// repeat from run to run.
inline constexpr double kMinSamplesBeyond = 10;

// True when `n` samples support percentile `q` (0 < q < 1) under the rule
// above: n * (1 - q) >= kMinSamplesBeyond.
bool PercentileSupported(size_t n, double q);

// Linear-interpolated quantile of `sorted` (ascending, non-empty).
double QuantileSorted(const std::vector<double>& sorted, double q);

// Median of `values` (copied and sorted); 0 when empty.
double Median(std::vector<double> values);

// Quantile q of one of the program's histograms, interpolated linearly
// inside the log-spaced bucket that holds it. The histogram's own
// ValueAtQuantile returns the bucket's midpoint, which repeats exactly from
// run to run whenever the quantile stays in one bucket. 0 when empty.
double InterpolatedQuantile(const impatience::HistogramSnapshot& h, double q);

// ---------------------------------------------------------------------------
// Delivery matcher.

// Per shard: the running high watermark the generator has pushed into the
// shard, and the scheduled send time of the frame that raised it. Frames
// to one shard travel one connection (or one submit path) in order, so the
// shard's high watermark after frame j is the prefix maximum of the frame
// maxima, and the list below is strictly increasing in watermark.
class WatermarkSchedule {
 public:
  // Records a frame whose largest sync_time is `frame_max`, scheduled to be
  // sent at `sched_ns`. Only frames that raise the watermark are kept.
  void OnFrame(Timestamp frame_max, int64_t sched_ns);

  // Scheduled send time of the first frame that raised the watermark to
  // at least `target`; false when no frame has (yet) reached it.
  bool Match(Timestamp target, int64_t* sched_ns) const;

  Timestamp high_watermark() const;
  size_t size() const { return watermarks_.size(); }

 private:
  std::vector<Timestamp> watermarks_;
  std::vector<int64_t> sched_ns_;
};

// One observed delivery: a result (a chunk's last record, or a sampled
// record at the in-process tap) of `shard` / `stream` with sync_time
// `sync_time`, received at `receipt_ns`.
struct Delivery {
  int64_t receipt_ns = 0;
  uint32_t shard = 0;
  uint32_t stream = 0;
  Timestamp sync_time = 0;
};

// A record of stream i is released once the shard's band frontier for
// stream i, high watermark - latencies[i], reaches its sync_time. Its last
// contributing event is therefore in the frame that first raised the
// watermark to sync_time + latencies[i]. Returns the latencies (ms) of the
// deliveries whose matched frame was scheduled in [from_ns, to_ns);
// `unmatched` counts the deliveries received in that window that match no
// frame.
std::vector<double> DeliveryLatenciesMs(
    const std::vector<Delivery>& deliveries,
    const std::vector<WatermarkSchedule>& schedules,
    const std::vector<Timestamp>& latencies, int64_t from_ns, int64_t to_ns,
    uint64_t* unmatched);

// ---------------------------------------------------------------------------
// Output check.

// Order-sensitive digest of one (shard, stream) output: record count,
// a polynomial checksum over every field, and the number of adjacent pairs
// out of sync_time order.
struct StreamLedger {
  uint64_t count = 0;
  uint64_t checksum = 0;
  uint64_t order_violations = 0;
  Timestamp last = impatience::kMinTimestamp;

  void Add(const Event& e);
};

// (shard, stream) -> ledger.
using Ledger = std::map<std::pair<uint32_t, uint32_t>, StreamLedger>;

// Records of `delivered` that do not match `reference`: per key, the count
// difference, or 1 when counts agree but the checksums differ, plus every
// order violation on the delivered side. 0 means identical.
uint64_t LedgerMismatches(const Ledger& reference, const Ledger& delivered);

// What went wrong in one run, in records. failed_share = Failed / offered.
struct FailureCounts {
  uint64_t events_offered = 0;
  uint64_t events_refused = 0;         // Rejected, shed or closed.
  uint64_t events_unacknowledged = 0;  // Offered but never flushed.
  uint64_t records_dropped = 0;        // Dropped by result fan-out.
  uint64_t records_mismatched = 0;     // Missing, extra, out of order or
                                       // differing from the reference.
};

// The failures, capped at events_offered: several subscribers and streams
// can each miss a copy of one event, but the share never exceeds 1.
uint64_t Failed(const FailureCounts& c);
double FailedShare(const FailureCounts& c);

// ---------------------------------------------------------------------------
// Process readings.

// Resets the process's peak-RSS high-water mark (VmHWM) to the current
// RSS through /proc/self/clear_refs. False if the kernel refuses.
bool ResetPeakRss();

// VmRSS / VmHWM of this process in bytes (0 when unreadable).
uint64_t CurrentRssBytes();
uint64_t PeakRssBytes();

// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();

// Host-wide CPU ticks from /proc/stat: all, and those stolen by the
// hypervisor. Their difference over a phase says how much of the machine
// other guests took while it ran.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostTicks ReadHostTicks();

// ---------------------------------------------------------------------------
// Benchmark spans: one log per thread, kept in memory, written at the end.

struct Span {
  const char* name = nullptr;  // String literal.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::string thread_name) : thread_(std::move(thread_name)) {
    spans_.reserve(1 << 16);
  }

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // May be toggled from another thread than the one that records.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Called by the owning thread only.
  void Add(const char* name, int64_t start_ns, int64_t end_ns) {
    if (enabled()) spans_.push_back(Span{name, start_ns, end_ns});
  }

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Durations (microseconds) of the spans named `name`.
  std::vector<double> DurationsUs(const char* name) const;

 private:
  std::string thread_;
  std::atomic<bool> enabled_{false};
  std::vector<Span> spans_;
};

// Writes the logs as one Chrome trace-event JSON document. False on I/O
// error.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace e2ebench

#endif  // E2EBENCH_CORE_H_
