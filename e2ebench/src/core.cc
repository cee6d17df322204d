#include "core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace e2ebench {

bool PercentileSupported(size_t n, double q) {
  // The tolerance keeps 100 samples enough for a p90 despite 1 - 0.9 not
  // being exact in binary.
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >= kMinSamplesBeyond;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

double InterpolatedQuantile(const impatience::HistogramSnapshot& h, double q) {
  namespace hi = impatience::histogram_internal;
  if (h.count() == 0) return 0;
  const size_t bucket = hi::BucketIndex(h.ValueAtQuantile(q));
  const uint64_t lo = hi::BucketLow(bucket);
  const uint64_t width = hi::BucketLow(bucket + 1) - lo;
  const uint64_t below = lo == 0 ? 0 : h.CountLessOrEqual(lo - 1);
  const uint64_t in_bucket = h.CountLessOrEqual(lo) - below;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(h.count())));
  // Each of the bucket's samples is placed at the middle of its own equal
  // slice of the bucket.
  const double share =
      in_bucket == 0
          ? 0.5
          : std::clamp((rank - static_cast<double>(below) - 0.5) /
                           static_cast<double>(in_bucket),
                       0.0, 1.0);
  return std::min(static_cast<double>(lo) + share * static_cast<double>(width),
                  static_cast<double>(h.max()));
}

void WatermarkSchedule::OnFrame(Timestamp frame_max, int64_t sched_ns) {
  if (!watermarks_.empty() && frame_max <= watermarks_.back()) return;
  watermarks_.push_back(frame_max);
  sched_ns_.push_back(sched_ns);
}

bool WatermarkSchedule::Match(Timestamp target, int64_t* sched_ns) const {
  const auto it =
      std::lower_bound(watermarks_.begin(), watermarks_.end(), target);
  if (it == watermarks_.end()) return false;
  *sched_ns = sched_ns_[static_cast<size_t>(it - watermarks_.begin())];
  return true;
}

Timestamp WatermarkSchedule::high_watermark() const {
  return watermarks_.empty() ? impatience::kMinTimestamp : watermarks_.back();
}

std::vector<double> DeliveryLatenciesMs(
    const std::vector<Delivery>& deliveries,
    const std::vector<WatermarkSchedule>& schedules,
    const std::vector<Timestamp>& latencies, int64_t from_ns, int64_t to_ns,
    uint64_t* unmatched) {
  std::vector<double> out;
  out.reserve(deliveries.size());
  for (const Delivery& d : deliveries) {
    int64_t sched = 0;
    if (d.shard >= schedules.size() || d.stream >= latencies.size() ||
        !schedules[d.shard].Match(d.sync_time + latencies[d.stream],
                                  &sched)) {
      if (d.receipt_ns >= from_ns && d.receipt_ns < to_ns) ++*unmatched;
      continue;
    }
    if (sched < from_ns || sched >= to_ns) continue;
    out.push_back(static_cast<double>(d.receipt_ns - sched) / 1e6);
  }
  return out;
}

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

}  // namespace

void StreamLedger::Add(const Event& e) {
  if (count > 0 && e.sync_time < last) ++order_violations;
  last = e.sync_time;
  uint64_t h = Mix(0, static_cast<uint64_t>(e.sync_time));
  h = Mix(h, static_cast<uint64_t>(e.other_time));
  h = Mix(h, static_cast<uint32_t>(e.key));
  h = Mix(h, e.hash);
  for (int32_t p : e.payload) h = Mix(h, static_cast<uint32_t>(p));
  checksum = checksum * 0x100000001b3ull + h;
  ++count;
}

uint64_t LedgerMismatches(const Ledger& reference, const Ledger& delivered) {
  uint64_t bad = 0;
  for (const auto& [key, ref] : reference) {
    const auto it = delivered.find(key);
    const StreamLedger got = it == delivered.end() ? StreamLedger{} : it->second;
    if (got.count != ref.count) {
      bad += got.count > ref.count ? got.count - ref.count
                                   : ref.count - got.count;
    } else if (got.checksum != ref.checksum) {
      bad += 1;
    }
  }
  for (const auto& [key, got] : delivered) {
    if (reference.find(key) == reference.end()) bad += got.count;
    bad += got.order_violations;
  }
  return bad;
}

uint64_t Failed(const FailureCounts& c) {
  return std::min(c.events_refused + c.events_unacknowledged +
                      c.records_dropped + c.records_mismatched,
                  c.events_offered);
}

double FailedShare(const FailureCounts& c) {
  if (c.events_offered == 0) return 0;
  return static_cast<double>(Failed(c)) /
         static_cast<double>(c.events_offered);
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

namespace {

uint64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stoull(line.substr(len + 1));
    }
  }
  return 0;
}

}  // namespace

uint64_t CurrentRssBytes() { return StatusKb("VmRSS") * 1024; }
uint64_t PeakRssBytes() { return StatusKb("VmHWM") * 1024; }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

HostTicks ReadHostTicks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::vector<double> SpanLog::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, logs[tid]->thread().c_str());
    first = false;
    for (const Span& s : logs[tid]->spans()) {
      std::fprintf(f,
                   ",{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   s.name, tid, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
