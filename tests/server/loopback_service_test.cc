// End-to-end service tests over the in-process loopback transport: the
// full wire path (encode → CRC → decode → session routing → bounded shard
// queues → Impatience framework pipelines) with no sockets and no timing
// dependence.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/timestamp.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "server/client.h"
#include "server/ingest_service.h"
#include "server/session_shard_manager.h"
#include "workload/generators.h"

namespace impatience {
namespace server {
namespace {

constexpr Timestamp kLatencySmall = 100;
constexpr Timestamp kLatencyLarge = 10000;

std::vector<Event> TestEvents(size_t n, uint64_t seed = 42) {
  SyntheticConfig config;
  config.num_events = n;
  config.percent_disorder = 30;
  config.disorder_stddev = 64;
  config.seed = seed;
  return GenerateSynthetic(config).events;
}

FrameworkOptions TestFramework() {
  FrameworkOptions options;
  options.reorder_latencies = {kLatencySmall, kLatencyLarge};
  options.punctuation_period = 500;
  return options;
}

bool SameEvent(const Event& a, const Event& b) {
  if (a.sync_time != b.sync_time || a.other_time != b.other_time ||
      a.key != b.key || a.hash != b.hash) {
    return false;
  }
  for (int c = 0; c < 4; ++c) {
    if (a.payload[c] != b.payload[c]) return false;
  }
  return true;
}

// Runs the same events through an in-process framework pipeline (no
// server), returning the final output stream.
std::vector<Event> ReferenceRun(const std::vector<Event>& events) {
  typename Ingress<4>::Options ingress;
  ingress.punctuation_period = SIZE_MAX;  // The partition punctuates.
  QueryPipeline<4> q(ingress);
  Streamables<4> streams = ToStreamables<4>(q.disordered(), TestFramework());
  std::vector<Event> out;
  streams.stream(streams.size() - 1).Subscribe([&out](const Event& e) {
    out.push_back(e);
  });
  q.Run(events);
  return out;
}

// Thread-safe collector for the service's result tap (called on shard
// worker threads).
struct Collector {
  std::mutex mu;
  std::vector<Event> events;

  ResultFn Tap() {
    return [this](size_t, size_t, const Event& e) {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(e);
    };
  }
};

TEST(LoopbackServiceTest, SingleShardOutputIdenticalToInProcessPipeline) {
  const std::vector<Event> events = TestEvents(3000);
  const std::vector<Event> reference = ReferenceRun(events);
  ASSERT_FALSE(reference.empty());

  Collector collected;
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.queue_capacity = 64;
  options.shards.backpressure = BackpressurePolicy::kBlock;
  options.shards.framework = TestFramework();
  options.on_result = collected.Tap();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  // One session, frames of 128 events, arrival order preserved.
  for (size_t i = 0; i < events.size(); i += 128) {
    const size_t end = std::min(i + 128, events.size());
    ASSERT_TRUE(client.SendEvents(
        7, std::vector<Event>(events.begin() + i, events.begin() + end)));
  }
  ASSERT_TRUE(client.Shutdown());

  ASSERT_EQ(collected.events.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(SameEvent(collected.events[i], reference[i]))
        << "divergence at output row " << i;
  }
}

TEST(LoopbackServiceTest, ShutdownFlushesEverySessionAcrossShards) {
  const size_t n = 4000;
  const std::vector<Event> events = TestEvents(n, /*seed=*/7);

  Collector collected;
  ServiceOptions options;
  options.shards.num_shards = 4;
  options.shards.queue_capacity = 16;
  options.shards.backpressure = BackpressurePolicy::kBlock;
  // One band with effectively infinite latency: nothing may be dropped,
  // so shutdown must surface every single event.
  options.shards.framework.reorder_latencies = {
      static_cast<Timestamp>(1) << 40};
  options.shards.framework.punctuation_period = 256;
  options.on_result = collected.Tap();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  // Spread over 13 sessions so several sessions share shards.
  for (size_t i = 0; i < events.size(); i += 100) {
    const size_t end = std::min(i + 100, events.size());
    ASSERT_TRUE(client.SendEvents(
        i % 13, std::vector<Event>(events.begin() + i, events.begin() + end)));
  }
  ASSERT_TRUE(client.Shutdown());

  // Lossless policy + one all-covering band: every event must come out.
  EXPECT_EQ(collected.events.size(), n);

  uint64_t events_in = 0;
  uint64_t sessions = 0;
  for (const ShardMetrics& m : service.manager().SnapshotShards()) {
    events_in += m.events_in;
    sessions += m.sessions;
    EXPECT_EQ(m.dropped_late, 0u);
  }
  EXPECT_EQ(events_in, n);
  EXPECT_EQ(sessions, 13u);
  EXPECT_TRUE(service.shutting_down());
}

TEST(LoopbackServiceTest, PerShardOutputIsOrdered) {
  const std::vector<Event> events = TestEvents(2000, /*seed=*/3);

  std::mutex mu;
  std::map<size_t, std::vector<Timestamp>> per_shard;
  ServiceOptions options;
  options.shards.num_shards = 4;
  options.shards.backpressure = BackpressurePolicy::kBlock;
  options.shards.framework = TestFramework();
  options.on_result = [&](size_t shard, size_t, const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    per_shard[shard].push_back(e.sync_time);
  };
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));
  for (size_t i = 0; i < events.size(); i += 64) {
    const size_t end = std::min(i + 64, events.size());
    ASSERT_TRUE(client.SendEvents(
        i, std::vector<Event>(events.begin() + i, events.begin() + end)));
  }
  ASSERT_TRUE(client.Shutdown());

  size_t total = 0;
  for (const auto& [shard, stamps] : per_shard) {
    for (size_t i = 1; i < stamps.size(); ++i) {
      ASSERT_LE(stamps[i - 1], stamps[i])
          << "shard " << shard << " emitted out of order at row " << i;
    }
    total += stamps.size();
  }
  EXPECT_GT(total, 0u);
}

TEST(LoopbackServiceTest, FlushSessionAcksAfterIngest) {
  ServiceOptions options;
  options.shards.num_shards = 2;
  options.shards.framework = TestFramework();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  ASSERT_TRUE(client.SendEvents(5, TestEvents(300)));
  // Blocks until the shard worker has applied everything session 5 sent.
  ASSERT_TRUE(client.FlushSession(5));

  uint64_t events_in = 0;
  for (const ShardMetrics& m : service.manager().SnapshotShards()) {
    events_in += m.events_in;
  }
  EXPECT_EQ(events_in, 300u);
  ASSERT_TRUE(client.Shutdown());
}

TEST(LoopbackServiceTest, RejectPolicySendsRejectFramesWhenSaturated) {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.queue_capacity = 2;
  options.shards.backpressure = BackpressurePolicy::kRejectFrame;
  options.shards.framework = TestFramework();
  // No workers: the queue only drains when the test says so, making
  // saturation deterministic.
  options.shards.manual_drain = true;
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  const std::vector<Event> batch = TestEvents(50);
  ASSERT_TRUE(client.SendEvents(1, batch));  // Queued.
  ASSERT_TRUE(client.SendEvents(1, batch));  // Queued (capacity 2).
  ASSERT_TRUE(client.SendEvents(1, batch));  // Queue full → reject frame.

  Frame reject;
  ASSERT_TRUE(client.PollReject(&reject));
  EXPECT_EQ(reject.reject_reason, RejectReason::kQueueFull);
  EXPECT_EQ(reject.reject_count, 50u);
  EXPECT_EQ(reject.session_id, 1u);

  service.manager().DrainShardForTest(0);
  const std::vector<ShardMetrics> shards =
      service.manager().SnapshotShards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].rejected_frames, 1u);
  EXPECT_EQ(shards[0].rejected_events, 50u);
  EXPECT_EQ(shards[0].events_in, 100u);  // Only the two accepted frames.
}

TEST(LoopbackServiceTest, ShedPolicyEvictsOldestFrame) {
  Collector collected;
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.queue_capacity = 2;
  options.shards.backpressure = BackpressurePolicy::kShedOldest;
  options.shards.framework.reorder_latencies = {
      static_cast<Timestamp>(1) << 40};
  options.shards.manual_drain = true;
  options.on_result = collected.Tap();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  // Three distinguishable frames into a 2-slot queue: frame A must be
  // evicted, B and C survive.
  auto frame_with_key = [](int32_t key) {
    std::vector<Event> events;
    for (int i = 0; i < 10; ++i) {
      Event e;
      e.sync_time = key * 1000 + i;
      e.key = key;
      e.hash = HashKey(key);
      events.push_back(e);
    }
    return events;
  };
  ASSERT_TRUE(client.SendEvents(1, frame_with_key(1)));  // A — evicted.
  ASSERT_TRUE(client.SendEvents(1, frame_with_key(2)));  // B.
  ASSERT_TRUE(client.SendEvents(1, frame_with_key(3)));  // C.

  service.manager().DrainShardForTest(0);
  service.manager().Shutdown();

  const std::vector<ShardMetrics> shards =
      service.manager().SnapshotShards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].shed_frames, 1u);
  EXPECT_EQ(shards[0].shed_events, 10u);

  ASSERT_EQ(collected.events.size(), 20u);
  for (const Event& e : collected.events) {
    EXPECT_NE(e.key, 1) << "evicted frame leaked into the pipeline";
  }
}

TEST(LoopbackServiceTest, QueueBytesBoundRejectsBeforeFrameCap) {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.queue_capacity = 256;  // Far above what the bytes allow.
  options.shards.backpressure = BackpressurePolicy::kRejectFrame;
  options.shards.framework = TestFramework();
  options.shards.manual_drain = true;
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  // Frames are admitted while the queued bytes are under the bound, so
  // the last admitted frame may overshoot it by less than one frame.
  const std::vector<Event> batch = TestEvents(512);
  const size_t frame_bytes = batch.size() * sizeof(Event);
  const size_t admitted = (kShardQueueBytes + frame_bytes - 1) / frame_bytes;
  for (size_t i = 0; i <= admitted; ++i) {
    ASSERT_TRUE(client.SendEvents(1, batch));
  }
  Frame reject;
  ASSERT_TRUE(client.PollReject(&reject));
  EXPECT_EQ(reject.reject_reason, RejectReason::kQueueFull);
  EXPECT_EQ(reject.reject_count, batch.size());
  EXPECT_FALSE(client.PollReject(&reject));  // Exactly one refused.

  std::vector<ShardMetrics> shards = service.manager().SnapshotShards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].queue_depth, admitted);
  EXPECT_EQ(shards[0].queue_bytes, admitted * frame_bytes);
  EXPECT_EQ(shards[0].queue_bytes_capacity, kShardQueueBytes);
  EXPECT_EQ(shards[0].rejected_frames, 1u);

  service.manager().DrainShardForTest(0);
  shards = service.manager().SnapshotShards();
  EXPECT_EQ(shards[0].queue_depth, 0u);
  EXPECT_EQ(shards[0].queue_bytes, 0u);
  EXPECT_EQ(shards[0].events_in, admitted * batch.size());
}

TEST(LoopbackServiceTest, MaxPayloadFrameAcceptedAndFlushedUnderBlock) {
  // One frame of the largest payload the wire allows decodes to far more
  // than the shard queue's byte bound; an empty queue must still admit
  // it, and the frames behind it must wait for it rather than deadlock.
  const size_t max_events = (kMaxPayloadBytes - 4) / kWireEventBytes;
  ASSERT_GT(max_events * sizeof(Event), kShardQueueBytes);
  std::vector<Event> big = TestEvents(max_events, /*seed=*/11);
  ASSERT_EQ(big.size(), max_events);

  Collector collected;
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.backpressure = BackpressurePolicy::kBlock;
  // One all-covering band: every event must come out.
  options.shards.framework.reorder_latencies = {
      static_cast<Timestamp>(1) << 40};
  options.on_result = collected.Tap();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  ASSERT_TRUE(client.SendEvents(3, big));
  EXPECT_EQ(client.bytes_sent(),
            kFrameHeaderBytes + 4 + max_events * kWireEventBytes);
  ASSERT_TRUE(client.SendEvents(3, TestEvents(100, /*seed=*/12)));
  ASSERT_TRUE(client.FlushSession(3));
  ASSERT_TRUE(client.Shutdown());

  const std::vector<ShardMetrics> shards = service.manager().SnapshotShards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].events_in, max_events + 100);
  EXPECT_EQ(shards[0].rejected_frames, 0u);
  EXPECT_EQ(shards[0].queue_bytes, 0u);
  EXPECT_EQ(collected.events.size(), max_events + 100);
}

TEST(LoopbackServiceTest, SubmitAfterShutdownRejectedAsShuttingDown) {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.framework = TestFramework();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));
  ASSERT_TRUE(client.Shutdown());

  ASSERT_TRUE(client.SendEvents(1, TestEvents(20)));
  Frame reject;
  ASSERT_TRUE(client.PollReject(&reject));
  EXPECT_EQ(reject.reject_reason, RejectReason::kShuttingDown);
  EXPECT_EQ(reject.reject_count, 20u);
}

TEST(LoopbackServiceTest, MetricsTextAndJson) {
  ServiceOptions options;
  options.shards.num_shards = 2;
  options.shards.framework = TestFramework();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  ASSERT_TRUE(client.SendEvents(1, TestEvents(500)));
  ASSERT_TRUE(client.FlushSession(1));  // Barrier: events are ingested.

  std::string text;
  ASSERT_TRUE(client.GetMetrics(MetricsFormat::kText, &text));
  // Events + flush + the metrics request itself.
  EXPECT_NE(text.find("impatience_frames_in 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("impatience_shard_queue_capacity{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_queue_capacity{shard=\"1\"}"),
            std::string::npos);
  // Drained queues hold no bytes; the byte bound is the fixed constant.
  EXPECT_NE(text.find("impatience_shard_queue_bytes{shard=\"0\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("impatience_shard_queue_bytes_capacity{shard=\"1\"} " +
                      std::to_string(kShardQueueBytes) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("impatience_shard_sorter_pushes"), std::string::npos);

  std::string json;
  ASSERT_TRUE(client.GetMetrics(MetricsFormat::kJson, &json));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"events_in\":500"), std::string::npos) << json;
  ASSERT_TRUE(client.Shutdown());
}

TEST(LoopbackServiceTest, GarbageBytesPoisonConnectionNotService) {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.framework = TestFramework();
  IngestService service(options);

  {
    LoopbackChannel bad(&service);
    std::vector<uint8_t> garbage(64, 0x5A);
    EXPECT_FALSE(bad.Write(garbage.data(), garbage.size()));
    // The reject-with-decode-error frame is waiting in the inbox.
    uint8_t buf[256];
    EXPECT_GT(bad.Read(buf, sizeof(buf), /*blocking=*/false), 0);
  }

  EXPECT_EQ(service.Snapshot().decode_errors, 1u);

  // A fresh connection on the same service still works.
  IngestClient client(std::make_unique<LoopbackChannel>(&service));
  ASSERT_TRUE(client.SendEvents(1, TestEvents(50)));
  ASSERT_TRUE(client.Shutdown());
}

TEST(LoopbackServiceTest, SessionsRouteToStableShards) {
  ShardManagerOptions options;
  options.num_shards = 4;
  options.framework.reorder_latencies = {kLatencySmall};
  options.manual_drain = true;
  SessionShardManager manager(options);
  for (uint64_t session = 0; session < 100; ++session) {
    const size_t shard = manager.ShardOf(session);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(manager.ShardOf(session), shard);  // Stable.
  }
  // The mix spreads sequential ids: no shard owns everything.
  size_t counts[4] = {0, 0, 0, 0};
  for (uint64_t session = 0; session < 100; ++session) {
    ++counts[manager.ShardOf(session)];
  }
  for (const size_t c : counts) EXPECT_GT(c, 0u);
}

TEST(LoopbackServiceTest, CountersResetBetweenScrapes) {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.framework = TestFramework();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  ASSERT_TRUE(client.SendEvents(1, TestEvents(1000)));
  ASSERT_TRUE(client.FlushSession(1));

  std::vector<ShardMetrics> first =
      service.manager().SnapshotShards(/*reset_sorter_counters=*/true);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_GT(first[0].sorter.pushes, 0u);

  // Nothing new ingested: the reset scrape starts from zero.
  std::vector<ShardMetrics> second = service.manager().SnapshotShards();
  EXPECT_EQ(second[0].sorter.pushes, 0u);
  // Cumulative traffic counters are NOT reset.
  EXPECT_EQ(second[0].events_in, 1000u);
  ASSERT_TRUE(client.Shutdown());
}

}  // namespace
}  // namespace server
}  // namespace impatience
