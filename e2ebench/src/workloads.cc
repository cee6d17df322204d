#include "workloads.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/cpu_features.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "server/client.h"
#include "server/ingest_service.h"
#include "server/session_shard_manager.h"
#include "server/tcp_transport.h"
#include "server/wire_format.h"
#include "sort/impatience_sorter.h"
#include "workload/generators.h"

namespace e2ebench {

using impatience::kMinute;
using impatience::kMinTimestamp;
using impatience::kSecond;
namespace server = impatience::server;

BaseStream::BaseStream(uint64_t seed, size_t events) {
  impatience::CloudLogConfig config;
  config.num_events = events - events % kEventsPerFrame;
  config.seed = seed;
  events_ = impatience::GenerateCloudLog(config).events;
  Timestamp lo = events_.front().sync_time;
  Timestamp hi = lo;
  for (size_t f = 0; f * kEventsPerFrame < events_.size(); ++f) {
    Timestamp m = kMinTimestamp;
    for (size_t i = 0; i < kEventsPerFrame; ++i) {
      const Timestamp t = events_[f * kEventsPerFrame + i].sync_time;
      m = std::max(m, t);
      lo = std::min(lo, t);
    }
    hi = std::max(hi, m);
    frame_max_.push_back(m);
  }
  // Replay k+1 starts above everything replay k sent, so the boundary adds
  // no lateness of its own.
  period_ = hi - lo + 1;
}

Timestamp BaseStream::Frame(size_t i, std::vector<Event>* out) const {
  const size_t f = i % frames();
  const Timestamp shift = static_cast<Timestamp>(i / frames()) * period_;
  out->assign(events_.begin() + static_cast<ptrdiff_t>(f * kEventsPerFrame),
              events_.begin() +
                  static_cast<ptrdiff_t>((f + 1) * kEventsPerFrame));
  if (shift != 0) {
    for (Event& e : *out) {
      e.sync_time += shift;
      e.other_time += shift;
    }
  }
  return frame_max_[f] + shift;
}

std::vector<std::vector<uint64_t>> SessionsByShard() {
  server::ShardManagerOptions options;
  options.num_shards = kShards;
  options.manual_drain = true;
  options.backpressure = server::BackpressurePolicy::kRejectFrame;
  server::SessionShardManager router(options);
  std::vector<std::vector<uint64_t>> sessions(kShards);
  for (uint64_t id = 1;; ++id) {
    std::vector<uint64_t>& s = sessions[router.ShardOf(id)];
    if (s.size() < kSessionsPerShard) s.push_back(id);
    bool full = true;
    for (const auto& v : sessions) full &= v.size() == kSessionsPerShard;
    if (full) return sessions;
  }
}

namespace {

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Path {
  kSubmit,    // SessionShardManager::Submit in process: no wire, no socket.
  kLoopback,  // IngestClient -> wire -> IngestService, in process.
  kTcp,       // IngestClient -> TcpServer (epoll) -> IngestService.
};

// Every workload measures delivery latency in a paced (open-loop) phase at
// `paced_meps`, each events frame followed by a punctuation frame so that
// rounds follow the data: latency without backlog. A closed-loop workload
// first measures throughput, CPU and memory as fast as the server takes
// frames (half of the run), then runs the paced phase (the other half);
// an open-loop workload measures everything in one paced phase.
struct WorkloadSpec {
  const char* name;
  Path path;
  bool closed_loop;
  double paced_meps;
  size_t subscribers;     // Wildcard result subscribers (TCP only).
  std::vector<Timestamp> latencies;
  size_t memory_budget;   // Total bytes across shards; 0 = RAM only.
  // Per-connection bound on queued result bytes; 0 = the server default.
  size_t result_queue_bytes = 0;
};

// Paced rates sit at about a third of each workload's closed-loop
// throughput on a 4-vCPU host, so other guests' load does not build a
// backlog.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      // Wire framing, the epoll loop and the shard queues at saturation;
      // the result and storage layers do no work.
      {"tcp_ingest", Path::kTcp, true, 1.0, 0, {kSecond / 2, 10 * kSecond},
       0},
      // Result sealing, fan-out and egress: open loop well under what two
      // all-stream subscribers take (chunks are dropped at 1 Me/s, and at
      // 0.5 Me/s some runs build a backlog when the host is loaded).
      {"tcp_results", Path::kTcp, false, 0.25, 2,
       {kSecond / 2, 10 * kSecond}, 0},
      // Sort, merge and framework without wire or transport; the wide
      // latencies make punctuation merges run at high fan-in.
      {"shard_ram", Path::kSubmit, true, 2.0, 0, {1 * kSecond, 1 * kMinute},
       0},
  };
  return specs;
}

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

constexpr size_t kQueueCapacity = 256;        // Frames per shard queue.
constexpr size_t kPunctuationPeriod = 10000;  // Events per auto round.
constexpr size_t kWarmupFrames = 400;         // 204 800 events.
// setup_s is the median of at least kMinSetups set-ups, and of more (up to
// kMaxSetups) while they fit in kSetupBudgetS seconds.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;
constexpr size_t kTapSampleEvery = 512;       // In-process delivery samples.

// ---------------------------------------------------------------------------
// Server-side view of every result record, fed by the pipelines' emission
// hook on the shard worker threads (one thread per shard, so each slot has
// a single writer). Read only after the workers have been joined.

class ResultTap {
 public:
  ResultTap(size_t shards, size_t streams) {
    for (size_t s = 0; s < shards; ++s) {
      slots_.push_back(std::make_unique<Slot>());
      slots_.back()->ledgers.resize(streams);
      slots_.back()->samples.reserve(1 << 16);
    }
  }

  void OnResult(size_t shard, size_t stream, const Event& e) {
    Slot& slot = *slots_[shard];
    slot.ledgers[stream].Add(e);
    slot.records.fetch_add(1, std::memory_order_relaxed);
    if (++slot.since_sample == kTapSampleEvery) {
      slot.since_sample = 0;
      slot.samples.push_back(Delivery{NowNs(), static_cast<uint32_t>(shard),
                                      static_cast<uint32_t>(stream),
                                      e.sync_time});
    }
  }

  uint64_t records() const {
    uint64_t n = 0;
    for (const auto& s : slots_) n += s->records.load(std::memory_order_relaxed);
    return n;
  }

  Ledger ToLedger() const {
    Ledger out;
    for (size_t s = 0; s < slots_.size(); ++s) {
      for (size_t j = 0; j < slots_[s]->ledgers.size(); ++j) {
        if (slots_[s]->ledgers[j].count > 0) {
          out[{static_cast<uint32_t>(s), static_cast<uint32_t>(j)}] =
              slots_[s]->ledgers[j];
        }
      }
    }
    return out;
  }

  // Records delivered on `stream` of `shard`.
  uint64_t count(size_t shard, size_t stream) const {
    return slots_[shard]->ledgers[stream].count;
  }

  std::vector<Delivery> Samples() const {
    std::vector<Delivery> out;
    for (const auto& s : slots_) {
      out.insert(out.end(), s->samples.begin(), s->samples.end());
    }
    return out;
  }

 private:
  struct alignas(64) Slot {
    std::vector<StreamLedger> ledgers;
    std::atomic<uint64_t> records{0};
    size_t since_sample = 0;
    std::vector<Delivery> samples;
  };
  std::vector<std::unique_ptr<Slot>> slots_;
};

// ---------------------------------------------------------------------------
// Counts the bytes a client reads, so result egress is measured on the
// wire rather than computed from the frame format.

class CountingChannel : public server::ByteChannel {
 public:
  explicit CountingChannel(std::unique_ptr<server::ByteChannel> inner)
      : inner_(std::move(inner)) {}

  bool Write(const uint8_t* data, size_t n) override {
    return inner_->Write(data, n);
  }
  int64_t Read(uint8_t* out, size_t n, bool blocking) override {
    const int64_t r = inner_->Read(out, n, blocking);
    if (r > 0) bytes_.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);
    return r;
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<server::ByteChannel> inner_;
  std::atomic<uint64_t> bytes_{0};
};

// ---------------------------------------------------------------------------
// A wildcard result subscriber on its own connection and blocking reader
// thread, so receipt times are not quantised by poll sleeps.

class Subscriber {
 public:
  explicit Subscriber(size_t index)
      : log_("subscriber-" + std::to_string(index)) {
    deliveries_.reserve(1 << 18);
  }
  ~Subscriber() { Join(); }

  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  bool Start(uint16_t port, uint64_t session_id, std::string* error) {
    auto tcp = server::TcpChannel::Connect(port, error);
    if (tcp == nullptr) return false;
    auto channel = std::make_unique<CountingChannel>(std::move(tcp));
    channel_ = channel.get();
    client_ = std::make_unique<server::IngestClient>(std::move(channel));
    if (!client_->SubscribeResults(session_id, server::kResultFilterAll)) {
      *error = "result subscription refused";
      return false;
    }
    thread_ = std::thread([this] { Loop(); });
    return true;
  }

  // Call after the server severed the connection.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  uint64_t records() const { return records_.load(std::memory_order_acquire); }
  uint64_t bytes_in() const { return channel_ != nullptr ? channel_->bytes() : 0; }
  SpanLog& log() { return log_; }

  // Valid after Join().
  const Ledger& ledger() const { return ledger_; }
  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  uint64_t seq_gaps() const { return seq_gaps_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void Loop() {
    server::Frame chunk;
    uint64_t expect = 1;
    for (;;) {
      const int64_t start = NowNs();
      const bool ok = client_->NextResults(&chunk);
      const int64_t now = NowNs();
      if (!ok) break;
      log_.Add("NextResults", start, now);
      if (chunk.result_seq != expect) ++seq_gaps_;
      expect = chunk.result_seq + 1;
      dropped_ = chunk.result_dropped;
      StreamLedger& ledger = ledger_[{chunk.result_shard, chunk.result_stream}];
      for (const Event& e : chunk.events) ledger.Add(e);
      if (!chunk.events.empty()) {
        deliveries_.push_back(Delivery{now, chunk.result_shard,
                                       chunk.result_stream,
                                       chunk.events.back().sync_time});
      }
      records_.fetch_add(chunk.events.size(), std::memory_order_release);
    }
  }

  SpanLog log_;
  CountingChannel* channel_ = nullptr;  // Owned by client_.
  std::unique_ptr<server::IngestClient> client_;
  std::thread thread_;
  std::atomic<uint64_t> records_{0};
  Ledger ledger_;
  std::vector<Delivery> deliveries_;
  uint64_t seq_gaps_ = 0;
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// The system under test behind one interface: the TCP server with its
// clients, or the shard manager driven in process.

class Target {
 public:
  virtual ~Target() = default;

  // Sends one events frame of `session` (routed to `shard`). False when
  // the frame could not be handed over.
  virtual bool Send(size_t shard, uint64_t session,
                    const std::vector<Event>& events, SpanLog* log) = 0;
  virtual bool Punctuate(size_t shard, uint64_t session, Timestamp t) = 0;
  // Barrier: returns once every frame sent so far is in its shard pipeline.
  virtual bool FlushAll(SpanLog* log) = 0;
  // Drain-and-flush shutdown: every buffered event is released; the shard
  // workers are joined on return.
  virtual void Drain() = 0;
  // After Drain: waits until every subscriber has received `records`
  // records or the deadline passes, then closes every connection.
  virtual void Close(uint64_t records) = 0;
  // Service, transport and shard counters. `reset` restarts the sorter
  // counters and the shard histograms after reading them.
  virtual server::ServerMetrics Snapshot(bool reset) = 0;
  // Events the target refused synchronously.
  virtual uint64_t refused() const { return 0; }

  std::vector<std::unique_ptr<Subscriber>>& subscribers() {
    return subscribers_;
  }

  void set_sessions(std::vector<std::vector<uint64_t>> sessions) {
    sessions_ = std::move(sessions);
  }

 protected:
  std::vector<std::vector<uint64_t>> sessions_;  // sessions_[shard]
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
};

server::ShardManagerOptions ShardOptions(const WorkloadSpec& spec) {
  server::ShardManagerOptions o;
  o.num_shards = kShards;
  o.queue_capacity = kQueueCapacity;
  o.backpressure = server::BackpressurePolicy::kBlock;
  o.framework.reorder_latencies = spec.latencies;
  o.framework.punctuation_period = kPunctuationPeriod;
  o.subscribe_all_streams = spec.subscribers > 0;
  o.memory_budget = spec.memory_budget;
  o.spill_flusher_threads = 0;
  return o;
}

server::ServiceOptions ServiceOptionsFor(const WorkloadSpec& spec,
                                         ResultTap* tap) {
  server::ServiceOptions o;
  o.shards = ShardOptions(spec);
  o.on_result = [tap](size_t shard, size_t stream, const Event& e) {
    tap->OnResult(shard, stream, e);
  };
  return o;
}

server::ServerMetrics SnapshotService(server::IngestService* service,
                                      bool reset) {
  server::ServerMetrics m = service->Snapshot();
  if (reset) m.shards = service->manager().SnapshotShards(true);
  return m;
}

class TcpTarget : public Target {
 public:
  TcpTarget(const WorkloadSpec& spec, ResultTap* tap)
      : service_(ServiceOptionsFor(spec, tap)),
        server_(&service_, /*port=*/0,
                [&] {
                  server::TcpServerOptions o;
                  o.io_threads = 1;
                  if (spec.result_queue_bytes > 0) {
                    o.telemetry_write_queue_bytes = spec.result_queue_bytes;
                    o.max_write_queue_bytes = 2 * spec.result_queue_bytes;
                  }
                  return o;
                }()),
        spec_(spec) {}

  ~TcpTarget() override {
    server_.Stop();
    for (auto& s : subscribers_) s->Join();
  }

  bool Open(std::string* error) {
    if (!server_.Start(error)) return false;
    for (size_t c = 0; c < kShards; ++c) {
      auto channel = server::TcpChannel::Connect(server_.port(), error);
      if (channel == nullptr) return false;
      clients_.push_back(
          std::make_unique<server::IngestClient>(std::move(channel)));
    }
    for (size_t i = 0; i < spec_.subscribers; ++i) {
      subscribers_.push_back(std::make_unique<Subscriber>(i));
      if (!subscribers_.back()->Start(server_.port(), 1000 + i, error)) {
        return false;
      }
    }
    return true;
  }

  bool Send(size_t shard, uint64_t session, const std::vector<Event>& events,
            SpanLog* log) override {
    const int64_t start = NowNs();
    const bool ok = clients_[shard]->SendEvents(session, events);
    log->Add("SendEvents", start, NowNs());
    return ok;
  }

  bool Punctuate(size_t shard, uint64_t session, Timestamp t) override {
    return clients_[shard]->SendPunctuation(session, t);
  }

  bool FlushAll(SpanLog* log) override {
    for (size_t c = 0; c < kShards; ++c) {
      for (uint64_t session : sessions_[c]) {
        const int64_t start = NowNs();
        const bool ok = clients_[c]->FlushSession(session);
        log->Add("FlushSession", start, NowNs());
        if (!ok) return false;
      }
    }
    return true;
  }

  void Drain() override { service_.Shutdown(); }

  void Close(uint64_t records) override {
    const int64_t deadline = NowNs() + 10'000'000'000;
    for (auto& s : subscribers_) {
      while (s->records() < records && NowNs() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    server_.Stop();
    for (auto& s : subscribers_) s->Join();
  }

  server::ServerMetrics Snapshot(bool reset) override {
    return SnapshotService(&service_, reset);
  }

 private:
  server::IngestService service_;
  server::TcpServer server_;
  const WorkloadSpec& spec_;
  std::vector<std::unique_ptr<server::IngestClient>> clients_;
};

// The service behind the in-process loopback channel: the full wire path
// (client encode, decode, dispatch) on the caller's thread, no socket.
class LoopbackTarget : public Target {
 public:
  LoopbackTarget(const WorkloadSpec& spec, ResultTap* tap)
      : service_(ServiceOptionsFor(spec, tap)),
        client_(std::make_unique<server::LoopbackChannel>(&service_)) {}

  bool Send(size_t, uint64_t session, const std::vector<Event>& events,
            SpanLog* log) override {
    const int64_t start = NowNs();
    const bool ok = client_.SendEvents(session, events);
    log->Add("SendEvents", start, NowNs());
    return ok;
  }

  bool Punctuate(size_t, uint64_t session, Timestamp t) override {
    return client_.SendPunctuation(session, t);
  }

  bool FlushAll(SpanLog* log) override {
    for (const auto& shard_sessions : sessions_) {
      for (uint64_t session : shard_sessions) {
        const int64_t start = NowNs();
        const bool ok = client_.FlushSession(session);
        log->Add("FlushSession", start, NowNs());
        if (!ok) return false;
      }
    }
    return true;
  }

  void Drain() override { service_.Shutdown(); }
  void Close(uint64_t) override {}

  server::ServerMetrics Snapshot(bool reset) override {
    return SnapshotService(&service_, reset);
  }

 private:
  server::IngestService service_;
  server::IngestClient client_;
};

class ShardTarget : public Target {
 public:
  ShardTarget(const WorkloadSpec& spec, ResultTap* tap)
      : manager_(
            ShardOptions(spec),
            [tap](size_t shard, size_t stream, const Event& e) {
              tap->OnResult(shard, stream, e);
            },
            [this](uint64_t) {
              std::lock_guard<std::mutex> lock(mu_);
              ++flush_acks_;
              cv_.notify_all();
            }) {}

  bool Send(size_t, uint64_t session, const std::vector<Event>& events,
            SpanLog* log) override {
    server::Frame frame;
    frame.type = server::FrameType::kEvents;
    frame.session_id = session;
    frame.events = events;
    const int64_t start = NowNs();
    const server::SubmitResult r = manager_.Submit(std::move(frame));
    log->Add("Submit", start, NowNs());
    refused_ += r.affected_events;
    return r.push != impatience::QueuePush::kClosed;
  }

  bool Punctuate(size_t, uint64_t session, Timestamp t) override {
    server::Frame frame;
    frame.type = server::FrameType::kPunctuation;
    frame.session_id = session;
    frame.punctuation = t;
    return manager_.Submit(std::move(frame)).push !=
           impatience::QueuePush::kClosed;
  }

  bool FlushAll(SpanLog* log) override {
    const int64_t start = NowNs();
    uint64_t expect = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      expect = flush_acks_;
    }
    for (const auto& shard_sessions : sessions_) {
      for (uint64_t session : shard_sessions) {
        server::Frame frame;
        frame.type = server::FrameType::kFlushSession;
        frame.session_id = session;
        if (manager_.Submit(std::move(frame)).push ==
            impatience::QueuePush::kClosed) {
          return false;
        }
        ++expect;
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    const bool ok = cv_.wait_for(lock, std::chrono::seconds(60),
                                 [&] { return flush_acks_ >= expect; });
    log->Add("FlushSession", start, NowNs());
    return ok;
  }

  void Drain() override { manager_.Shutdown(); }
  void Close(uint64_t) override {}

  server::ServerMetrics Snapshot(bool reset) override {
    server::ServerMetrics m;
    m.shards = manager_.SnapshotShards(reset);
    return m;
  }

  uint64_t refused() const override { return refused_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t flush_acks_ = 0;  // Guarded by mu_.
  server::SessionShardManager manager_;
  uint64_t refused_ = 0;
};

// ---------------------------------------------------------------------------
// One server instance with its generator state.

struct Instance {
  std::unique_ptr<ResultTap> tap;
  std::unique_ptr<Target> target;
  std::vector<WatermarkSchedule> schedules{kShards};
  size_t next_frame = 0;
  uint64_t offered = 0;       // Events handed to Send.
  uint64_t acknowledged = 0;  // Events covered by a completed barrier.
  bool send_failed = false;
};

// A timed phase, cut into windows of about kWindowS. Each end-to-end figure
// is the median over the windows, so a few hundred milliseconds of
// interference from other work on the host move one window, not the run.
struct PhaseResult {
  // Window k spans edge_ns[k] .. edge_ns[k + 1]; offered events and process
  // CPU seconds are read at every edge, and window k's peak RSS at its
  // closing edge (the high-water mark is reset at every edge).
  std::vector<int64_t> edge_ns;
  std::vector<uint64_t> edge_offered;
  std::vector<double> edge_cpu_s;
  std::vector<double> window_peak_rss;
  int64_t end_ns = 0;  // After the closing flush barrier.
  double steal_share = 0;  // Host CPU stolen by other guests meanwhile.
  std::vector<double> late_ms;  // Paced: actual minus scheduled send, ms.
  bool ok = false;

  void Edge(int64_t ns, uint64_t offered) {
    if (!edge_ns.empty()) {
      window_peak_rss.push_back(static_cast<double>(PeakRssBytes()));
    }
    ResetPeakRss();
    edge_ns.push_back(ns);
    edge_offered.push_back(offered);
    edge_cpu_s.push_back(ProcessCpuSeconds());
  }
  size_t windows() const { return edge_ns.empty() ? 0 : edge_ns.size() - 1; }
  int64_t start_ns() const { return edge_ns.front(); }
  uint64_t events() const { return edge_offered.back() - edge_offered.front(); }
  // Open loop: events acknowledged over the whole phase, closing barrier
  // included — the achieved rate, which falls below the offered rate only
  // when the server is saturated.
  double AchievedMeps() const {
    return static_cast<double>(events()) /
           static_cast<double>(end_ns - start_ns()) * 1e3;
  }
  double MedianMeps() const {
    std::vector<double> v;
    for (size_t k = 0; k < windows(); ++k) {
      v.push_back(static_cast<double>(edge_offered[k + 1] - edge_offered[k]) /
                  static_cast<double>(edge_ns[k + 1] - edge_ns[k]) * 1e3);
    }
    return Median(v);
  }
  double MedianCpuSPerMevent() const {
    std::vector<double> v;
    for (size_t k = 0; k < windows(); ++k) {
      if (edge_offered[k + 1] == edge_offered[k]) continue;  // A stall.
      v.push_back((edge_cpu_s[k + 1] - edge_cpu_s[k]) /
                  (static_cast<double>(edge_offered[k + 1] - edge_offered[k]) /
                   1e6));
    }
    return Median(v);
  }
};

constexpr double kWindowS = 0.5;

void SleepUntil(int64_t ns) {
  timespec ts;
  ts.tv_sec = ns / 1'000'000'000;
  ts.tv_nsec = ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const BaseStream& base)
      : spec_(spec), base_(base), sessions_(SessionsByShard()),
        gen_log_("generator") {
    buffer_.reserve(kEventsPerFrame);
  }

  // Constructs the server and opens every connection and subscription.
  bool Open(Instance* inst, std::string* error) {
    inst->tap = std::make_unique<ResultTap>(kShards, spec_.latencies.size());
    switch (spec_.path) {
      case Path::kTcp: {
        auto t = std::make_unique<TcpTarget>(spec_, inst->tap.get());
        if (!t->Open(error)) return false;
        inst->target = std::move(t);
        break;
      }
      case Path::kLoopback:
        inst->target = std::make_unique<LoopbackTarget>(spec_, inst->tap.get());
        break;
      case Path::kSubmit:
        inst->target = std::make_unique<ShardTarget>(spec_, inst->tap.get());
        break;
    }
    inst->target->set_sessions(sessions_);
    return true;
  }

  // Sends up to `max_frames` frames until `end_ns`, then waits for the
  // flush barrier. With `paced_meps` > 0 the frames are paced at that rate
  // (sleeping to each frame's absolute deadline, never spinning) and each
  // is followed by a punctuation frame; else they go as fast as the target
  // takes them. With `phase`, records how late each paced send started and
  // the edges of `windows` equal windows.
  bool Generate(Instance* inst, size_t max_frames, int64_t end_ns,
                double paced_meps, PhaseResult* phase, size_t windows) {
    const int64_t start = NowNs();
    const double interval_ns =
        paced_meps > 0 ? static_cast<double>(kEventsPerFrame) / paced_meps * 1e3
                       : 0;
    const int64_t window_ns =
        phase != nullptr ? (end_ns - start) / static_cast<int64_t>(windows)
                         : INT64_MAX;
    int64_t next_edge = start;
    for (size_t k = 0; k < max_frames; ++k) {
      int64_t sched = NowNs();
      if (interval_ns > 0) {
        sched = start + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
      }
      if (sched >= end_ns) break;
      if (phase != nullptr && sched >= next_edge &&
          phase->edge_ns.size() < windows) {
        phase->Edge(sched, inst->offered);
        next_edge = start + window_ns * static_cast<int64_t>(phase->edge_ns.size());
      }
      if (interval_ns > 0) {
        SleepUntil(sched);
        if (phase != nullptr) {
          phase->late_ms.push_back(static_cast<double>(NowNs() - sched) / 1e6);
        }
      }
      if (!SendFrame(inst, sched, /*punctuate=*/interval_ns > 0)) return false;
    }
    if (phase != nullptr) phase->Edge(NowNs(), inst->offered);
    return Barrier(inst);
  }

  // Set-up as setup_s times it: open, then acknowledge the warm-up prefix
  // through the full path.
  bool SetUp(Instance* inst, double* seconds, std::string* error) {
    const int64_t start = NowNs();
    if (!Open(inst, error)) return false;
    // An open-loop workload warms up at its pace: a burst would overrun
    // the subscribers' bounded result queues.
    if (!Generate(inst, kWarmupFrames, INT64_MAX,
                  spec_.closed_loop ? 0 : spec_.paced_meps, nullptr, 0)) {
      *error = "warm-up prefix was not acknowledged";
      return false;
    }
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
    return true;
  }

  // One timed phase of `seconds`, closed loop or paced at `paced_meps`,
  // ended by a flush barrier.
  PhaseResult RunPhase(Instance* inst, double seconds, double paced_meps) {
    PhaseResult r;
    const HostTicks ticks0 = ReadHostTicks();
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    const size_t windows =
        std::max<size_t>(4, static_cast<size_t>(seconds / kWindowS + 0.5));
    if (paced_meps > 0) {
      r.late_ms.reserve(
          static_cast<size_t>(seconds * paced_meps * 1e6 / kEventsPerFrame) + 1);
    }
    r.ok = Generate(inst, SIZE_MAX, end, paced_meps, &r, windows) &&
           !inst->send_failed && r.windows() == windows;
    r.end_ns = NowNs();
    const HostTicks ticks1 = ReadHostTicks();
    if (ticks1.total > ticks0.total) {
      r.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                      static_cast<double>(ticks1.total - ticks0.total);
    }
    return r;
  }

  SpanLog& gen_log() { return gen_log_; }

 private:
  bool SendFrame(Instance* inst, int64_t sched_ns, bool punctuate) {
    const size_t i = inst->next_frame++;
    const size_t shard = i % kShards;
    const uint64_t session = sessions_[shard][(i / kShards) % kSessionsPerShard];
    const Timestamp frame_max = base_.Frame(i, &buffer_);
    inst->schedules[shard].OnFrame(frame_max, sched_ns);
    inst->offered += buffer_.size();
    if (!inst->target->Send(shard, session, buffer_, &gen_log_) ||
        (punctuate &&
         !inst->target->Punctuate(
             shard, session,
             inst->schedules[shard].high_watermark() - spec_.latencies.back()))) {
      inst->send_failed = true;
      return false;
    }
    return true;
  }

  bool Barrier(Instance* inst) {
    if (!inst->target->FlushAll(&gen_log_)) return false;
    inst->acknowledged = inst->offered;
    return true;
  }

  const WorkloadSpec& spec_;
  const BaseStream& base_;
  const std::vector<std::vector<uint64_t>> sessions_;
  SpanLog gen_log_;
  std::vector<Event> buffer_;
};

// ---------------------------------------------------------------------------
// The output check, run on every run after the final drain: per shard, the
// last stream delivered every accepted event that was not too late; every
// (shard, stream) output is in sync_time order; every subscriber received
// exactly the tap's records, in order, with gap-free sequence numbers.
FailureCounts CheckOutput(const Instance& inst, const WorkloadSpec& spec,
                          const server::ServerMetrics& final_metrics) {
  FailureCounts failures;
  failures.events_offered = inst.offered;
  failures.events_unacknowledged = inst.offered - inst.acknowledged;
  uint64_t accepted = 0;
  for (const server::ShardMetrics& s : final_metrics.shards) {
    accepted += s.events_in - s.shed_events;
    const uint64_t expected = s.events_in - s.shed_events - s.dropped_late;
    const uint64_t got = inst.tap->count(s.shard, spec.latencies.size() - 1);
    failures.records_mismatched +=
        got > expected ? got - expected : expected - got;
  }
  failures.events_refused =
      inst.target->refused() +
      (inst.acknowledged > accepted ? inst.acknowledged - accepted : 0);
  const Ledger reference = inst.tap->ToLedger();
  failures.records_mismatched += LedgerMismatches(reference, reference);
  failures.records_dropped = final_metrics.results.records_dropped;
  for (const auto& s : inst.target->subscribers()) {
    // Records the exporter reported dropped are counted once, as dropped.
    const uint64_t mismatched = LedgerMismatches(reference, s->ledger());
    failures.records_mismatched +=
        (mismatched > s->dropped() ? mismatched - s->dropped() : 0) +
        s->seq_gaps();
  }
  return failures;
}

struct DeliveryStats {
  std::vector<double> p50s;    // Per supported window.
  std::vector<double> p90s;
  std::vector<double> all_ms;  // Every sample of the phase, sorted.
  uint64_t unmatched = 0;
};

// Delivery latency over a phase: the subscribers' chunks when there are
// any, else the tap's samples. Per window, p50 and p90 of the deliveries
// whose last contributing frame was scheduled in the window; the run
// reports the median over the windows.
DeliveryStats MeasureDelivery(const Instance& inst, const WorkloadSpec& spec,
                              const PhaseResult& phase) {
  std::vector<Delivery> deliveries;
  for (const auto& s : inst.target->subscribers()) {
    deliveries.insert(deliveries.end(), s->deliveries().begin(),
                      s->deliveries().end());
  }
  if (inst.target->subscribers().empty()) deliveries = inst.tap->Samples();

  DeliveryStats out;
  for (size_t k = 0; k < phase.windows(); ++k) {
    const int64_t to =
        k + 1 == phase.windows() ? phase.end_ns : phase.edge_ns[k + 1];
    std::vector<double> ms =
        DeliveryLatenciesMs(deliveries, inst.schedules, spec.latencies,
                            phase.edge_ns[k], to, &out.unmatched);
    out.all_ms.insert(out.all_ms.end(), ms.begin(), ms.end());
    if (!PercentileSupported(ms.size(), 0.90)) continue;
    std::sort(ms.begin(), ms.end());
    out.p50s.push_back(QuantileSorted(ms, 0.50));
    out.p90s.push_back(QuantileSorted(ms, 0.90));
  }
  std::sort(out.all_ms.begin(), out.all_ms.end());
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer counters over a traced phase.

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PercentileOr0(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, q);
}

void AddLayerCounters(const server::ServerMetrics& before,
                      const server::ServerMetrics& after, uint64_t events,
                      uint64_t subscriber_bytes,
                      const std::vector<double>& send_us,
                      std::vector<Metric>* out) {
  impatience::ImpatienceCounters sorter;
  impatience::HistogramSnapshot queue_wait;
  impatience::HistogramSnapshot drain_stall;
  uint64_t frames = 0;
  uint64_t blocked = 0;
  for (const server::ShardMetrics& s : after.shards) {
    sorter += s.sorter;
    queue_wait += s.queue_wait;
    drain_stall += s.drain_stall;
    frames += s.frames_in;
    blocked += s.blocked_pushes;
  }
  for (const server::ShardMetrics& s : before.shards) {
    frames -= s.frames_in;
    blocked -= s.blocked_pushes;
  }
  const double mevents = static_cast<double>(events) / 1e6;
  auto us = [](const impatience::HistogramSnapshot& h, double q) {
    return InterpolatedQuantile(h, q) / 1e3;
  };
  auto add = [out](const char* name, double value, const char* unit) {
    out->push_back(Metric{name, value, unit});
  };
  add("sort.runs_per_mevent", Ratio(static_cast<double>(sorter.new_runs), mevents),
      "1/Me");
  add("sort.kway_fanin_p50", static_cast<double>(sorter.kway_fanin.P50()), "runs");
  add("sort.parallel_merges", static_cast<double>(sorter.parallel_merges), "count");
  add("sort.punct_to_emit_p50_us", us(sorter.punct_to_emit, 0.50), "us");
  add("sort.punct_to_emit_p99_us", us(sorter.punct_to_emit, 0.99), "us");
  add("shard.queue_wait_p50_us", us(queue_wait, 0.50), "us");
  add("shard.queue_wait_p99_us", us(queue_wait, 0.99), "us");
  add("shard.drain_stall_p50_us", us(drain_stall, 0.50), "us");
  add("shard.blocked_push_share",
      Ratio(static_cast<double>(blocked), static_cast<double>(frames)), "fraction");

  uint64_t stalls = 0;
  for (const auto& l : after.transport.loops) stalls += l.epollout_stalls;
  for (const auto& l : before.transport.loops) stalls -= l.epollout_stalls;
  add("io.send_p99_us", PercentileOr0(send_us, 0.99), "us");
  add("io.epollout_stalls", static_cast<double>(stalls), "count");
  add("io.bytes_in_per_event",
      Ratio(static_cast<double>(after.bytes_in - before.bytes_in),
            static_cast<double>(events)),
      "B");

  const uint64_t chunks = after.results.chunks_sent - before.results.chunks_sent;
  const uint64_t records =
      after.results.records_streamed - before.results.records_streamed;
  add("results.chunks", static_cast<double>(chunks), "count");
  add("results.records_per_chunk",
      Ratio(static_cast<double>(records), static_cast<double>(chunks)), "records");
  add("results.bytes_out_per_record",
      Ratio(static_cast<double>(subscriber_bytes), static_cast<double>(records)),
      "B");
  add("results.records_dropped",
      static_cast<double>(after.results.records_dropped -
                          before.results.records_dropped),
      "count");
  add("results.subscribers_shed",
      static_cast<double>(after.results.subscribers_shed -
                          before.results.subscribers_shed),
      "count");

}

// The storage layer's counters over one spill pass of `events` events.
void AddStorageCounters(const server::ServerMetrics& m, uint64_t events,
                        std::vector<Metric>* out) {
  impatience::ImpatienceCounters sorter;
  for (const server::ShardMetrics& s : m.shards) sorter += s.sorter;
  const double mevents = static_cast<double>(events) / 1e6;
  out->push_back({"storage.write_mb_per_mevent",
                  Ratio(static_cast<double>(sorter.spill_bytes_written) / 1e6,
                        mevents),
                  "MB/Me"});
  out->push_back({"storage.read_mb_per_mevent",
                  Ratio(static_cast<double>(sorter.spill_read_bytes) / 1e6,
                        mevents),
                  "MB/Me"});
  out->push_back(
      {"storage.readahead_hit_ratio",
       Ratio(static_cast<double>(sorter.readahead_hits),
             static_cast<double>(sorter.readahead_hits +
                                 sorter.readahead_misses)),
       "fraction"});
  out->push_back({"storage.runs_spilled",
                  static_cast<double>(sorter.runs_spilled), "count"});
  out->push_back({"storage.spill_merge_fanin_p50",
                  static_cast<double>(sorter.spill_merge_fanin.P50()), "runs"});
}

// ---------------------------------------------------------------------------
// Stage ladder: the first kLadderFrames frames of the stream through
// cumulative stages of the stack, each calling one more layer's public
// entry points. A stage's marginal cost is its ns/event minus the previous
// stage's; stages from +shard on run the shards on their own threads, so a
// marginal cost can be negative.

constexpr size_t kLadderFrames = 1024;  // 524 288 events per pass.
constexpr int kLadderReps = 3;          // Each stage reports its median.

// The framework DAG (partition, band sorters, union chain) driven directly
// through its ingress.
class FrameworkPass {
 public:
  explicit FrameworkPass(const std::vector<Timestamp>& latencies)
      : pipeline_({.punctuation_period = static_cast<size_t>(-1),
                   .reorder_latency = 0}) {
    impatience::FrameworkOptions fw;
    fw.reorder_latencies = latencies;
    fw.punctuation_period = kPunctuationPeriod;
    streams_.emplace(impatience::ToStreamables(pipeline_.disordered(), fw));
    streams_->stream(streams_->size() - 1).Subscribe([this](const Event&) {
      ++out_;
    });
  }

  void Push(const std::vector<Event>& events) {
    for (const Event& e : events) pipeline_.ingress().Push(e);
  }
  uint64_t Finish() {
    pipeline_.ingress().Finish();
    return out_;
  }
  double round_p50_ns() const {
    return InterpolatedQuantile(streams_->partition().round_latency(), 0.50);
  }

 private:
  impatience::QueryPipeline<4> pipeline_;
  std::optional<impatience::Streamables<4>> streams_;
  uint64_t out_ = 0;
};

double Meps(size_t events, int64_t ns) {
  return static_cast<double>(events) / (static_cast<double>(ns) / 1e9) / 1e6;
}

bool RunLadder(const BaseStream& base, std::vector<Metric>* out,
               std::string* error) {
  const std::vector<Timestamp>& lat = FindSpec("shard_ram")->latencies;
  std::vector<std::vector<Event>> frames(kLadderFrames);
  for (size_t i = 0; i < kLadderFrames; ++i) base.Frame(i, &frames[i]);
  const size_t events = kLadderFrames * kEventsPerFrame;
  const uint64_t session = SessionsByShard()[0][0];

  // Each pass returns its wall time in ns, or -1 on failure.
  auto sort_pass = [&]() -> int64_t {
    const int64_t start = NowNs();
    impatience::ImpatienceSorter<Event> sorter;
    std::vector<Event> emitted;
    Timestamp hw = kMinTimestamp;
    Timestamp last = kMinTimestamp;
    size_t n = 0;
    for (const auto& frame : frames) {
      for (const Event& e : frame) {
        sorter.Push(e);
        hw = std::max(hw, e.sync_time);
        if (++n % kPunctuationPeriod == 0 && hw - lat[0] > last) {
          last = hw - lat[0];
          sorter.OnPunctuation(last, &emitted);
          emitted.clear();
        }
      }
    }
    sorter.Flush(&emitted);
    return NowNs() - start;
  };
  double round_p50_ns = 0;
  auto framework_pass = [&]() -> int64_t {
    const int64_t start = NowNs();
    FrameworkPass fw(lat);
    for (const auto& frame : frames) fw.Push(frame);
    fw.Finish();
    const int64_t ns = NowNs() - start;
    round_p50_ns = fw.round_p50_ns();
    return ns;
  };
  auto wire_pass = [&]() -> int64_t {
    const int64_t start = NowNs();
    FrameworkPass fw(lat);
    server::Frame frame;
    frame.session_id = session;
    server::Frame decoded;
    server::FrameDecoder decoder;
    std::vector<uint8_t> bytes;
    for (const auto& events_in : frames) {
      frame.events = events_in;
      bytes.clear();
      server::AppendFrame(frame, &bytes);
      decoder.Feed(bytes.data(), bytes.size());
      if (decoder.Next(&decoded) != server::DecodeStatus::kOk) return -1;
      fw.Push(decoded.events);
    }
    fw.Finish();
    return NowNs() - start;
  };
  server::ServerMetrics spill_pass;  // Counters of the last spill pass.
  auto target_pass = [&](const WorkloadSpec& spec) -> int64_t {
    Runner runner(spec, base);
    Instance inst;
    if (!runner.Open(&inst, error)) return -1;
    const int64_t start = NowNs();
    if (!runner.Generate(&inst, kLadderFrames, INT64_MAX, 0, nullptr, 0)) {
      return -1;
    }
    inst.target->Drain();
    inst.target->Close(inst.tap->records());
    const int64_t ns = NowNs() - start;
    if (spec.memory_budget > 0) spill_pass = inst.target->Snapshot(false);
    return ns;
  };

  struct Stage {
    const char* layer;
    std::function<int64_t()> pass;
  };
  const WorkloadSpec shard = {"ladder_shard", Path::kLoopback, true, 0, 0,
                              lat, 0};
  const WorkloadSpec tcp = {"ladder_tcp", Path::kTcp, true, 0, 0, lat, 0};
  // A closed-loop pass emits results faster than subscribers read them;
  // the result stages queue the whole pass instead of dropping chunks, so
  // their time includes delivering every record.
  constexpr size_t kPassResultBytes = size_t{128} << 20;
  const WorkloadSpec results = {"ladder_results", Path::kTcp, true, 0, 2,
                                lat, 0, kPassResultBytes};
  // The spill stage runs under a 1 MiB total budget (far below the ~30 MB
  // the pass holds in RAM) on throwaway non-fsync stores.
  const WorkloadSpec storage = {"ladder_spill", Path::kTcp, true, 0, 2,
                                lat, size_t{1} << 20, kPassResultBytes};
  const std::vector<Stage> stages = {
      {"sort", sort_pass},
      {"framework", framework_pass},
      {"wire", wire_pass},
      {"shard", [&] { return target_pass(shard); }},
      {"io", [&] { return target_pass(tcp); }},
      {"results", [&] { return target_pass(results); }},
      {"storage", [&] { return target_pass(storage); }},
  };
  double prev_ns_per_event = 0;
  for (const Stage& stage : stages) {
    std::vector<double> ns;
    for (int r = 0; r < kLadderReps; ++r) {
      const int64_t t = stage.pass();
      if (t < 0) {
        if (error->empty()) *error = std::string("ladder stage failed: ") + stage.layer;
        return false;
      }
      ns.push_back(static_cast<double>(t));
    }
    const double ns_per_event = Median(ns) / static_cast<double>(events);
    const std::string layer = stage.layer;
    out->push_back({layer == "sort" ? "sort.meps" : layer + ".stage_meps",
                    1e3 / ns_per_event, "Me/s"});
    out->push_back({layer + ".marginal_ns_per_event",
                    ns_per_event - prev_ns_per_event, "ns"});
    prev_ns_per_event = ns_per_event;
  }
  out->push_back({"framework.round_p50_us", round_p50_ns / 1e3, "us"});
  AddStorageCounters(spill_pass, events, out);

  // Wire layer alone: encode, decode and CRC over the same frames.
  server::Frame frame;
  frame.session_id = session;
  std::vector<uint8_t> all;
  std::vector<uint8_t> bytes;
  int64_t start = NowNs();
  for (const auto& events_in : frames) {
    frame.events = events_in;
    bytes.clear();
    server::AppendFrame(frame, &bytes);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  const int64_t encode_ns = NowNs() - start;
  server::FrameDecoder decoder;
  server::Frame decoded;
  start = NowNs();
  decoder.Feed(all.data(), all.size());
  size_t decoded_frames = 0;
  while (decoder.Next(&decoded) == server::DecodeStatus::kOk) ++decoded_frames;
  const int64_t decode_ns = NowNs() - start;
  if (decoded_frames != frames.size()) {
    *error = "wire decode lost frames";
    return false;
  }
  start = NowNs();
  impatience::Crc32(all.data(), all.size());
  const int64_t crc_ns = NowNs() - start;
  out->push_back({"wire.encode_meps", Meps(events, encode_ns), "Me/s"});
  out->push_back({"wire.decode_meps", Meps(events, decode_ns), "Me/s"});
  out->push_back({"wire.bytes_per_event",
                  static_cast<double>(all.size()) / static_cast<double>(events),
                  "B"});
  out->push_back({"wire.crc_mb_s",
                  static_cast<double>(all.size()) / 1e6 /
                      (static_cast<double>(crc_ns) / 1e9),
                  "MB/s"});
  return true;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadSpec& s : Specs()) v.push_back(s.name);
    return v;
  }();
  return names;
}

bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error) {
  const WorkloadSpec* spec = FindSpec(options.workload);
  if (spec == nullptr) {
    *error = "unknown workload " + options.workload;
    return false;
  }
  if (options.seconds <= 0) {
    *error = "--seconds must be positive";
    return false;
  }

  const int64_t gen_start = NowNs();
  const BaseStream base(options.seed, kBaseEvents);
  const double gen_s = static_cast<double>(NowNs() - gen_start) / 1e9;
  Runner runner(*spec, base);
  // Everything resident before the first server exists is the generated
  // input; peak_rss_mb counts only what the system under test adds.
  const uint64_t input_rss = CurrentRssBytes();

  // setup_s: repeated full set-ups; the last one is kept for the run.
  std::vector<double> setup_s;
  Instance inst;
  for (double spent = 0;;) {
    Instance candidate;
    double secs = 0;
    if (!runner.SetUp(&candidate, &secs, error)) return false;
    setup_s.push_back(secs);
    spent += secs;
    const bool last = setup_s.size() >= kMaxSetups ||
                      (setup_s.size() >= kMinSetups && spent >= kSetupBudgetS);
    if (last) {
      inst = std::move(candidate);
      break;
    }
    candidate.target->Drain();
    candidate.target->Close(candidate.tap->records());
  }

  // Timed phases: `plain` gives throughput, CPU and memory, the paced phase
  // gives delivery (one phase for an open-loop workload). A traced run
  // measures half its time untraced, then repeats the main phase traced for
  // the other half, so the difference is the tracing overhead.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const double main_rate = spec->closed_loop ? 0 : spec->paced_meps;
  const PhaseResult plain = runner.RunPhase(
      &inst, spec->closed_loop ? untraced_s / 2 : untraced_s, main_rate);
  PhaseResult paced_phase;
  if (spec->closed_loop) {
    paced_phase = runner.RunPhase(&inst, untraced_s / 2, spec->paced_meps);
  }
  const PhaseResult& paced = spec->closed_loop ? paced_phase : plain;
  PhaseResult traced;
  server::ServerMetrics before;
  server::ServerMetrics after;
  uint64_t subscriber_bytes = 0;  // Read by subscribers in the traced phase.
  std::vector<SpanLog*> logs = {&runner.gen_log()};
  for (auto& s : inst.target->subscribers()) logs.push_back(&s->log());
  if (options.trace) {
    before = inst.target->Snapshot(/*reset=*/true);
    for (auto& s : inst.target->subscribers()) subscriber_bytes -= s->bytes_in();
    for (SpanLog* log : logs) log->set_enabled(true);
    impatience::trace::SetEnabled(true);
    traced = runner.RunPhase(&inst, options.seconds - untraced_s, main_rate);
    impatience::trace::SetEnabled(false);
    for (SpanLog* log : logs) log->set_enabled(false);
    after = inst.target->Snapshot(/*reset=*/false);
    for (auto& s : inst.target->subscribers()) subscriber_bytes += s->bytes_in();
  }

  // Drain, then check the complete output against the server-side tap.
  inst.target->Drain();
  inst.target->Close(inst.tap->records());
  const server::ServerMetrics final_metrics = inst.target->Snapshot(false);

  const FailureCounts failures = CheckOutput(inst, *spec, final_metrics);
  report->attempted = failures.events_offered;
  report->failed = Failed(failures);
  report->correct = report->failed == 0 && plain.ok && paced.ok &&
                    (!options.trace || traced.ok);

  const DeliveryStats delivery = MeasureDelivery(inst, *spec, paced);
  if (delivery.p90s.size() * 2 < paced.windows()) {
    *error = "too few delivery samples for a p90 in most windows (" +
             std::to_string(delivery.all_ms.size()) + " in all)";
    return false;
  }
  const std::vector<double>& all_ms = delivery.all_ms;
  const double delivery_p99 = PercentileSupported(all_ms.size(), 0.99)
                                  ? QuantileSorted(all_ms, 0.99)
                                  : 0;

  // Per window: peak RSS over the input's; the run reports the median.
  std::vector<double> window_peak_mb;
  for (double bytes : plain.window_peak_rss) {
    window_peak_mb.push_back((bytes - static_cast<double>(input_rss)) /
                             (1 << 20));
  }
  const double peak_mb = Median(window_peak_mb);
  std::vector<Metric>& m = report->metrics;
  if (!options.trace) {
    m.push_back({"throughput_meps",
                 spec->closed_loop ? plain.MedianMeps() : plain.AchievedMeps(),
                 "Me/s"});
    m.push_back({"cpu_s_per_mevent", plain.MedianCpuSPerMevent(), "s/Me"});
    m.push_back({"peak_rss_mb", peak_mb, "MB"});
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"delivery_p50_ms", Median(delivery.p50s), "ms"});
  } else {
    std::vector<double> send_us = runner.gen_log().DurationsUs(
        spec->path == Path::kSubmit ? "Submit" : "SendEvents");
    AddLayerCounters(before, after, traced.events(), subscriber_bytes, send_us,
                     &m);
    m.push_back({"gen.late_p99_ms", PercentileOr0(paced.late_ms, 0.99), "ms"});
    // The tail figures are health, not end-to-end metrics: under other
    // guests' load on a shared host they move several-fold between runs.
    m.push_back({"delivery_p90_ms", Median(delivery.p90s), "ms"});
    m.push_back({"delivery_p99_ms", delivery_p99, "ms"});
    m.push_back({"delivery.samples", static_cast<double>(all_ms.size()),
                 "count"});
    m.push_back({"trace.overhead_pct",
                 (traced.MedianCpuSPerMevent() / plain.MedianCpuSPerMevent() - 1) *
                     100,
                 "%"});

    if (!options.out_dir.empty()) {
      const std::string stem = options.out_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed);
      std::vector<const SpanLog*> const_logs(logs.begin(), logs.end());
      if (!WriteSpans(stem + "-bench-spans.json", const_logs)) {
        *error = "cannot write " + stem + "-bench-spans.json";
        return false;
      }
      const std::string program = impatience::trace::DrainChromeJson();
      if (std::FILE* f = std::fopen((stem + "-program-spans.json").c_str(), "w")) {
        std::fwrite(program.data(), 1, program.size(), f);
        std::fclose(f);
      }
      report->notes.push_back("spans written to " + stem + "-*-spans.json");
    }

    if (!RunLadder(base, &m, error)) return false;
  }

  // Stamps and notes.
  std::string lat;
  for (Timestamp l : spec->latencies) lat += (lat.empty() ? "" : ",") + std::to_string(l) + "ms";
  auto& st = report->stamps;
  st.push_back({"workload", spec->name});
  st.push_back({"seed", std::to_string(options.seed)});
  st.push_back({"git_sha", EnvOr("E2EBENCH_GIT_SHA", "unknown")});
  st.push_back({"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))});
  st.push_back({"kernel_level", impatience::KernelLevelName(
                                    impatience::ActiveKernelLevel())});
  st.push_back({"impatience_threads",
                std::to_string(impatience::ThreadPool::Global().thread_count())});
  st.push_back({"io_threads", spec->path == Path::kTcp ? "1" : "0"});
  st.push_back({"shards", std::to_string(kShards)});
  st.push_back({"reorder_latencies", lat});
  st.push_back({"memory_budget_bytes", std::to_string(spec->memory_budget)});
  st.push_back({"loop", spec->closed_loop ? "closed" : "open"});
  st.push_back({"paced_meps", Fmt(spec->paced_meps)});
  st.push_back({"subscribers", std::to_string(spec->subscribers)});
  st.push_back({"events_offered", std::to_string(inst.offered)});
  st.push_back({"timed_events",
                std::to_string(plain.events() +
                               (spec->closed_loop ? paced.events() : 0) +
                               (options.trace ? traced.events() : 0))});

  auto& notes = report->notes;
  notes.push_back("generation_s " + Fmt(gen_s) + " (base stream of " +
                  std::to_string(base.events()) + " events; not in setup_s)");
  notes.push_back("delivery samples " + std::to_string(all_ms.size()) +
                  ", unmatched " + std::to_string(delivery.unmatched));
  notes.push_back("failed_share " + Fmt(FailedShare(failures)) + " (refused " +
                  std::to_string(failures.events_refused) + ", unacknowledged " +
                  std::to_string(failures.events_unacknowledged) + ", dropped " +
                  std::to_string(failures.records_dropped) + ", mismatched " +
                  std::to_string(failures.records_mismatched) + ")");
  notes.push_back("paced generator late p99 " +
                  Fmt(PercentileOr0(paced.late_ms, 0.99)) + " ms");
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += " " + Fmt(x);
    return out;
  };
  notes.push_back("setups_s" + list(setup_s));
  notes.push_back("host_steal_share " + Fmt(plain.steal_share) + " " +
                  Fmt(paced.steal_share));
  std::vector<double> window_meps;
  for (size_t k = 0; k < plain.windows(); ++k) {
    window_meps.push_back(
        static_cast<double>(plain.edge_offered[k + 1] - plain.edge_offered[k]) /
        static_cast<double>(plain.edge_ns[k + 1] - plain.edge_ns[k]) * 1e3);
  }
  notes.push_back("window_meps" + list(window_meps));
  notes.push_back("window_peak_rss_mb" + list(window_peak_mb));
  notes.push_back("window_delivery_p50_ms" + list(delivery.p50s));
  notes.push_back("window_delivery_p90_ms" + list(delivery.p90s));
  return true;
}

}  // namespace e2ebench
