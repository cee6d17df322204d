// Tests of the benchmark's own logic — the parts that would go wrong
// silently: the watermark -> scheduled-send matcher, the sample-count rule
// for percentiles, the interpolated histogram quantile, the peak-RSS reset,
// the failed-share accounting and the output check, which must reject a
// dropped record and a swapped pair.
//
//   python3 e2ebench/run.py --selftest

#include <sys/mman.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "core.h"

namespace e2ebench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

void TestMatcher() {
  WatermarkSchedule s;
  s.OnFrame(100, 1000);
  s.OnFrame(90, 2000);  // Does not raise the watermark: ignored.
  s.OnFrame(150, 3000);
  s.OnFrame(150, 4000);  // Equal: the first frame to reach 150 keeps it.
  s.OnFrame(220, 5000);
  EXPECT(s.size() == 3);
  EXPECT(s.high_watermark() == 220);
  int64_t ns = 0;
  EXPECT(s.Match(100, &ns) && ns == 1000);
  EXPECT(s.Match(101, &ns) && ns == 3000);  // First frame reaching >= 101.
  EXPECT(s.Match(150, &ns) && ns == 3000);
  EXPECT(s.Match(-5, &ns) && ns == 1000);
  EXPECT(!s.Match(221, &ns));

  // Stream 1's records need the watermark at sync_time + latencies[1].
  std::vector<WatermarkSchedule> schedules(2);
  schedules[0] = s;
  schedules[1].OnFrame(1000, 1500);
  const std::vector<Timestamp> latencies = {50, 100};
  const std::vector<Delivery> deliveries = {
      {4000, 0, 0, 100},    // 100+50 -> frame at 3000: 1000 ns.
      {6000, 0, 1, 120},    // 120+100 -> frame at 5000: 1000 ns.
      {4500, 0, 1, 121},    // 221 reached by no frame: unmatched.
      {12000, 0, 1, 150},   // Unmatched, but received after the window.
      {2500, 1, 0, 900},    // 950 -> 1500: 1000 ns.
      {9500, 0, 0, -100},   // Matched frame at 1000, before the window.
      {20000, 0, 0, 100},   // Frame at 3000: in the window however late.
  };
  uint64_t unmatched = 0;
  const std::vector<double> ms = DeliveryLatenciesMs(
      deliveries, schedules, latencies, /*from_ns=*/1001, /*to_ns=*/5001,
      &unmatched);
  EXPECT(unmatched == 1);
  EXPECT(ms.size() == 4);
  for (size_t i = 0; i + 1 < ms.size(); ++i) EXPECT(ms[i] == 1000 / 1e6);
  EXPECT(ms.back() == 17000 / 1e6);
  // A window after the last frame matches nothing.
  EXPECT(DeliveryLatenciesMs(deliveries, schedules, latencies, 5001, 9000,
                             &unmatched)
             .empty());
}

void TestPercentileRule() {
  EXPECT(PercentileSupported(100, 0.90));
  EXPECT(!PercentileSupported(99, 0.90));
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(!PercentileSupported(999, 0.99));
  EXPECT(PercentileSupported(20, 0.50));
  EXPECT(!PercentileSupported(19, 0.50));
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT(QuantileSorted(v, 0.5) == 3);
  EXPECT(QuantileSorted(v, 0.25) == 2);
  EXPECT(QuantileSorted(v, 0.9) > 4.5 && QuantileSorted(v, 0.9) < 4.7);
  EXPECT(QuantileSorted({7}, 0.99) == 7);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({}) == 0);
}

void TestInterpolatedQuantile() {
  impatience::HistogramSnapshot h;
  EXPECT(InterpolatedQuantile(h, 0.5) == 0);
  for (uint64_t v = 1000; v < 2000; ++v) h.Record(v);
  const double p50 = InterpolatedQuantile(h, 0.50);
  const double p90 = InterpolatedQuantile(h, 0.90);
  EXPECT(p50 > 1450 && p50 < 1550);
  EXPECT(p90 > 1850 && p90 < 1950);
  EXPECT(p50 < p90);
  EXPECT(InterpolatedQuantile(h, 1.0) <= 1999);
  // One more sample moves the estimate, where the bucket midpoint stays.
  impatience::HistogramSnapshot g = h;
  g.Record(1500);
  EXPECT(g.P50() == h.P50());
  EXPECT(InterpolatedQuantile(g, 0.50) != p50);
  impatience::HistogramSnapshot small;
  for (uint64_t v : {3, 3, 3, 7}) small.Record(v);
  EXPECT(InterpolatedQuantile(small, 0.5) >= 3 &&
         InterpolatedQuantile(small, 0.5) <= 4);
}

void TestPeakRssReset() {
  constexpr size_t kBytes = size_t{64} << 20;
  EXPECT(ResetPeakRss());
  const uint64_t base = PeakRssBytes();
  void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EXPECT(p != MAP_FAILED);
  if (p == MAP_FAILED) return;
  std::memset(p, 1, kBytes);
  EXPECT(PeakRssBytes() >= base + kBytes / 2);
  munmap(p, kBytes);
  const uint64_t held = PeakRssBytes();
  EXPECT(held >= base + kBytes / 2);  // The mark survives the unmap...
  EXPECT(ResetPeakRss());
  // ...until the reset brings it back to what is resident now.
  EXPECT(PeakRssBytes() + kBytes / 2 <= held);
  EXPECT(PeakRssBytes() <= CurrentRssBytes() + (size_t{4} << 20));
}

void TestFailedShare() {
  FailureCounts c;
  c.events_offered = 1000;
  EXPECT(Failed(c) == 0);
  EXPECT(FailedShare(c) == 0);
  c.events_refused = 10;
  c.events_unacknowledged = 5;
  c.records_dropped = 3;
  c.records_mismatched = 2;
  EXPECT(Failed(c) == 20);
  EXPECT(FailedShare(c) == 0.02);
  c.records_dropped = 5000;  // Copies for several subscribers and streams.
  EXPECT(Failed(c) == 1000);
  EXPECT(FailedShare(c) == 1.0);
  EXPECT(FailedShare(FailureCounts{}) == 0);
}

Event Ev(Timestamp t, int32_t payload) {
  Event e;
  e.sync_time = t;
  e.other_time = t + 1;
  e.key = payload % 7;
  e.hash = impatience::HashKey(e.key);
  e.payload = {payload, 0, 0, 0};
  return e;
}

Ledger LedgerOf(const std::vector<Event>& events) {
  Ledger l;
  for (const Event& e : events) l[{0, 1}].Add(e);
  return l;
}

void TestOutputCheck() {
  std::vector<Event> ref;
  for (int i = 0; i < 100; ++i) ref.push_back(Ev(i / 2, i));  // Ties too.
  const Ledger reference = LedgerOf(ref);
  EXPECT(reference.at({0, 1}).order_violations == 0);
  EXPECT(LedgerMismatches(reference, LedgerOf(ref)) == 0);

  std::vector<Event> dropped = ref;
  dropped.erase(dropped.begin() + 40);
  EXPECT(LedgerMismatches(reference, LedgerOf(dropped)) == 1);

  std::vector<Event> swapped = ref;
  std::swap(swapped[10], swapped[12]);  // Different times: out of order.
  const Ledger s1 = LedgerOf(swapped);
  EXPECT(s1.at({0, 1}).order_violations > 0);
  EXPECT(LedgerMismatches(reference, s1) > 0);

  std::vector<Event> tie_swap = ref;
  std::swap(tie_swap[20], tie_swap[21]);  // Same time, different payload.
  const Ledger s2 = LedgerOf(tie_swap);
  EXPECT(s2.at({0, 1}).order_violations == 0);
  EXPECT(LedgerMismatches(reference, s2) == 1);

  std::vector<Event> changed = ref;
  changed[50].payload[3] = 9;
  EXPECT(LedgerMismatches(reference, LedgerOf(changed)) == 1);

  Ledger extra = LedgerOf(ref);
  extra[{1, 0}].Add(Ev(5, 5));  // A stream the reference never emitted.
  EXPECT(LedgerMismatches(reference, extra) == 1);
  EXPECT(LedgerMismatches(reference, Ledger{}) == ref.size());
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::TestMatcher();
  e2ebench::TestPercentileRule();
  e2ebench::TestInterpolatedQuantile();
  e2ebench::TestPeakRssReset();
  e2ebench::TestFailedShare();
  e2ebench::TestOutputCheck();
  if (e2ebench::g_failures > 0) {
    std::printf("selftest: %d check(s) failed\n", e2ebench::g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
