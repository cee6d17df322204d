#include "common/bounded_queue.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace impatience {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(3), QueuePush::kOk);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(q.TryPop(&v));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
}

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  BoundedMpscQueue<int> q(2);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(3), QueuePush::kRejected);
  EXPECT_EQ(q.size(), 2u);  // The rejected item was not enqueued.
}

TEST(BoundedQueueTest, ShedEvictsOldest) {
  BoundedMpscQueue<int> q(2);
  std::vector<int> shed;
  EXPECT_EQ(q.PushShedOldest(1, &shed), QueuePush::kOk);
  EXPECT_EQ(q.PushShedOldest(2, &shed), QueuePush::kOk);
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(q.PushShedOldest(3, &shed), QueuePush::kShed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 1);  // Oldest out; freshest data wins.
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 3);
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.TryPush(3), QueuePush::kClosed);
  EXPECT_EQ(q.PushBlock(3), QueuePush::kClosed);
  std::vector<int> shed;
  EXPECT_EQ(q.PushShedOldest(3, &shed), QueuePush::kClosed);
  // Close never discards: both queued items drain before Pop fails.
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));
}

TEST(BoundedQueueTest, BlockedProducerResumesWhenConsumerDrains) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.PushBlock(1), QueuePush::kOk);
  QueuePush second = QueuePush::kOk;
  std::thread producer([&q, &second] { second = q.PushBlock(2); });
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // Frees the slot the producer is waiting on.
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));  // Blocks until the producer lands item 2.
  EXPECT_EQ(v, 2);
  producer.join();
  // kBlocked if the producer hit the full queue before our first Pop,
  // kOk if it was scheduled after; either way the item was delivered.
  EXPECT_TRUE(second == QueuePush::kBlocked || second == QueuePush::kOk);
}

TEST(BoundedQueueTest, BlockedProducerReleasedByClose) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.PushBlock(1), QueuePush::kOk);
  QueuePush second = QueuePush::kOk;
  std::thread producer([&q, &second] { second = q.PushBlock(2); });
  q.Close();
  producer.join();
  EXPECT_EQ(second, QueuePush::kClosed);
}

// Weighted queue of ints: each item weighs its own value.
struct IntWeight {
  size_t operator()(int v) const { return static_cast<size_t>(v); }
};
using WeightedQueue = BoundedMpscQueue<int, IntWeight>;

TEST(BoundedQueueTest, WeightTracksQueuedItems) {
  WeightedQueue q(8, /*weight_capacity=*/100);
  EXPECT_EQ(q.weight_capacity(), 100u);
  EXPECT_EQ(q.TryPush(30), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(20), QueuePush::kOk);
  EXPECT_EQ(q.weight(), 50u);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(q.weight(), 20u);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(q.weight(), 0u);
}

TEST(BoundedQueueTest, TryPushRejectsOnWeight) {
  WeightedQueue q(8, /*weight_capacity=*/100);
  EXPECT_EQ(q.TryPush(60), QueuePush::kOk);
  // Under the bound, an item is admitted whatever its own weight.
  EXPECT_EQ(q.TryPush(50), QueuePush::kOk);
  EXPECT_EQ(q.weight(), 110u);
  // At or over the bound, even a weightless item is refused.
  EXPECT_EQ(q.TryPush(0), QueuePush::kRejected);
  EXPECT_EQ(q.size(), 2u);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // 50 left: under the bound again.
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
}

TEST(BoundedQueueTest, EmptyQueueAdmitsOversizedItem) {
  WeightedQueue q(8, /*weight_capacity=*/100);
  EXPECT_EQ(q.TryPush(1000), QueuePush::kOk);
  EXPECT_EQ(q.weight(), 1000u);
  EXPECT_EQ(q.TryPush(1), QueuePush::kRejected);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1000);
  std::vector<int> shed;
  EXPECT_EQ(q.PushShedOldest(5000, &shed), QueuePush::kOk);
  EXPECT_TRUE(shed.empty());
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(q.PushBlock(5000), QueuePush::kOk);  // Never waits when empty.
}

TEST(BoundedQueueTest, ShedEvictsUntilWeightIsUnderBound) {
  WeightedQueue q(8, /*weight_capacity=*/100);
  std::vector<int> shed;
  EXPECT_EQ(q.PushShedOldest(10, &shed), QueuePush::kOk);
  EXPECT_EQ(q.PushShedOldest(20, &shed), QueuePush::kOk);
  EXPECT_EQ(q.PushShedOldest(90, &shed), QueuePush::kOk);  // Weight 120.
  EXPECT_TRUE(shed.empty());
  // 120 -> evict 10 (110) -> evict 20 (90 < 100): two evictions, then in.
  EXPECT_EQ(q.PushShedOldest(5, &shed), QueuePush::kShed);
  EXPECT_EQ(shed, (std::vector<int>{10, 20}));
  EXPECT_EQ(q.weight(), 95u);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 90);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 5);
}

TEST(BoundedQueueTest, PushBlockWaitsOnWeight) {
  // Room for eight items by count; the weight alone blocks the producer.
  WeightedQueue q(8, /*weight_capacity=*/100);
  ASSERT_EQ(q.PushBlock(100), QueuePush::kOk);
  std::atomic<bool> pushed{false};
  QueuePush second = QueuePush::kOk;
  std::thread producer([&] {
    second = q.PushBlock(7);
    pushed.store(true);
  });
  // The producer cannot land while the weight sits at the bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.size(), 1u);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // Frees the weight the producer is waiting on.
  EXPECT_EQ(v, 100);
  EXPECT_TRUE(q.Pop(&v));  // Blocks until the producer lands item 7.
  EXPECT_EQ(v, 7);
  producer.join();
  // kOk only if the producer was scheduled after the first Pop.
  EXPECT_TRUE(second == QueuePush::kBlocked || second == QueuePush::kOk);
}

TEST(BoundedQueueTest, CloseWakesProducerBlockedOnWeight) {
  WeightedQueue q(8, /*weight_capacity=*/100);
  ASSERT_EQ(q.PushBlock(150), QueuePush::kOk);
  QueuePush second = QueuePush::kOk;
  std::thread producer([&q, &second] { second = q.PushBlock(1); });
  q.Close();
  producer.join();
  EXPECT_EQ(second, QueuePush::kClosed);
  EXPECT_EQ(q.size(), 1u);  // The queued item survives for the drain.
}

TEST(BoundedQueueTest, ManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  BoundedMpscQueue<int> q(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_NE(q.PushBlock(p * kPerProducer + i), QueuePush::kClosed);
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&q, &seen] {
    int v = 0;
    while (q.Pop(&v)) seen.push_back(v);
  });
  for (std::thread& t : producers) t.join();
  q.Close();
  consumer.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  // Every item arrives exactly once; per-producer order is preserved.
  std::vector<int> last(kProducers, -1);
  for (const int v : seen) {
    const int p = v / kPerProducer;
    EXPECT_GT(v % kPerProducer, last[p]);
    last[p] = v % kPerProducer;
  }
}

}  // namespace
}  // namespace impatience
