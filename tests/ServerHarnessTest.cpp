//===- tests/ServerHarnessTest.cpp - serving workload tests -----------------===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// End-to-end coverage of the serving workload (workloads/server/):
// the bounded MPMC request queue's FIFO/backpressure contract, the
// store's op classes and conservation audit, and a miniature open-loop
// run through runServer over every runtime mode.
//
//===----------------------------------------------------------------------===//

#include "tests/TestHarness.h"
#include "workloads/server/ServerHarness.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace workloads::server;

namespace {

using repro_test::RtMode;

TEST(RequestQueueTest, FifoAndBackpressure) {
  RequestQueue<int> Q(8);
  EXPECT_EQ(Q.capacity(), 8u);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Q.tryPush(I));
  int Overflow = 99;
  EXPECT_FALSE(Q.tryPush(Overflow)) << "full queue must shed, not block";
  for (int I = 0; I < 8; ++I) {
    int Out = -1;
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, I) << "single-consumer pops must be FIFO";
  }
  int Out = -1;
  EXPECT_FALSE(Q.tryPop(Out));
  // Emptied: capacity is available again (ring wraps).
  EXPECT_TRUE(Q.tryPush(42));
  ASSERT_TRUE(Q.tryPop(Out));
  EXPECT_EQ(Out, 42);
}

TEST(RequestQueueTest, PopBatch) {
  RequestQueue<int> Q(16);
  for (int I = 0; I < 10; ++I)
    Q.tryPush(I);
  int Buf[16];
  EXPECT_EQ(Q.tryPopBatch(Buf, 4), 4u);
  EXPECT_EQ(Buf[0], 0);
  EXPECT_EQ(Buf[3], 3);
  EXPECT_EQ(Q.tryPopBatch(Buf, 16), 6u) << "batch stops at empty";
  EXPECT_EQ(Q.tryPopBatch(Buf, 16), 0u);
}

TEST(RequestQueueTest, ConcurrentProducersNothingLostOrDuplicated) {
  constexpr unsigned Producers = 4;
  constexpr int PerProducer = 20000;
  RequestQueue<uint64_t> Q(1024);
  std::atomic<bool> Stop{false};
  std::vector<uint64_t> Seen;
  std::thread Consumer([&] {
    uint64_t V;
    for (;;) {
      if (Q.tryPop(V))
        Seen.push_back(V);
      else if (Stop.load(std::memory_order_acquire))
        break;
    }
    while (Q.tryPop(V))
      Seen.push_back(V);
  });
  std::vector<std::thread> Threads;
  std::vector<uint64_t> Pushed(Producers, 0);
  for (unsigned P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      for (int I = 0; I < PerProducer; ++I)
        if (Q.tryPush((uint64_t(P) << 32) | uint64_t(I)))
          ++Pushed[P];
    });
  for (auto &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Consumer.join();
  uint64_t TotalPushed = 0;
  for (uint64_t N : Pushed)
    TotalPushed += N;
  ASSERT_EQ(Seen.size(), TotalPushed);
  // Per-producer subsequences stay FIFO and complete. Sequences are
  // not contiguous — a push against a full queue fails and that
  // sequence number is never enqueued — so the contract is strictly
  // increasing order (a duplicate or reorder would break it) plus a
  // per-producer count matching what tryPush accepted (a lost item
  // would break that).
  std::vector<uint64_t> PerProducerSeen(Producers, 0);
  std::vector<uint64_t> PrevSeq(Producers, 0);
  for (uint64_t V : Seen) {
    unsigned P = static_cast<unsigned>(V >> 32);
    ASSERT_LT(P, Producers);
    uint64_t S = V & 0xffffffffu;
    if (PerProducerSeen[P] > 0) {
      ASSERT_GT(S, PrevSeq[P]) << "producer " << P << " reordered";
    }
    PrevSeq[P] = S;
    ++PerProducerSeen[P];
  }
  for (unsigned P = 0; P < Producers; ++P)
    EXPECT_EQ(PerProducerSeen[P], Pushed[P]) << "producer " << P;
}

class ServerHarnessTest : public ::testing::TestWithParam<RtMode> {
protected:
  stm::StmConfig config() const {
    stm::StmConfig Config;
    Config.LockTableSizeLog2 = 16;
    Config.Backend = GetParam().Kind;
    Config.Adaptive = GetParam().Adaptive;
    Config.Clock = repro_test::envClockKind();
    return Config;
  }
};

TEST_P(ServerHarnessTest, StoreOpsAndConservation) {
  stm::Runtime Runtime(config());
  ShardedStore Store(4, 1 << 10, 4);
  Store.populate(Runtime);

  stm::atomically(Runtime, [&](ShardedStore::Tx &T) {
    EXPECT_EQ(Store.pointRead(T, 0), ShardedStore::InitialBalance);
    // A scan crossing shard boundaries sums Len keys' balances.
    uint64_t Lo = (1 << 10) / 4 - 8; // straddles shard 0 -> 1
    EXPECT_EQ(Store.rangeScan(T, Lo, 16), 16 * ShardedStore::InitialBalance);
    EXPECT_TRUE(Store.transfer(T, 3, 900, 250)); // cross-shard
    EXPECT_EQ(Store.pointRead(T, 3), ShardedStore::InitialBalance - 250);
    EXPECT_EQ(Store.pointRead(T, 900), ShardedStore::InitialBalance + 250);
    EXPECT_FALSE(Store.transfer(T, 3, 900, 100000)) << "insufficient funds";
    EXPECT_TRUE(Store.auctionBid(T, 1, 500));
    EXPECT_FALSE(Store.auctionBid(T, 1, 400)) << "lower bid must lose";
    EXPECT_TRUE(Store.auctionBid(T, 1, 600));
  });
  EXPECT_TRUE(Store.checkConservation(Runtime));
}

TEST_P(ServerHarnessTest, OpenLoopRunIsSane) {
  stm::Runtime Runtime(config());
  ServerConfig SC;
  SC.Workers = 2;
  SC.Clients = 2;
  SC.Shards = 2;
  SC.KeySpace = 1 << 10;
  SC.OfferedOpsPerSec = 20000.0;
  SC.DurationMs = 50;
  SC.QueueCapacity = 256;
  SC.BatchSize = 8;

  ServerResult R = runServer(Runtime, SC);

  EXPECT_GT(R.totalCompleted(), 0u);
  EXPECT_EQ(R.totalCompleted() + R.Shed, R.Offered)
      << "every offered request must complete or shed";
  EXPECT_GT(R.GoodputOpsPerSec, 0.0);
  EXPECT_EQ(R.HistogramViolations, 0u);
  EXPECT_TRUE(R.ConservationOk);
  uint64_t HistTotal = 0;
  for (unsigned C = 0; C < NumOpClasses; ++C) {
    HistTotal += R.Hist[C].count();
    EXPECT_EQ(R.Hist[C].count(), R.Completed[C]);
  }
  EXPECT_EQ(HistTotal, R.totalCompleted());
  EXPECT_GE(R.Stats.Commits, R.totalCompleted())
      << "each request runs at least one committed transaction";
  if (GetParam().Adaptive)
    EXPECT_EQ(R.Stats.Batches, 0u) << "dynamic mode declines batch pins";
  else
    EXPECT_GT(R.Stats.Batches, 0u);
  EXPECT_EQ(R.Stats.Sheds, R.Shed);
}

TEST_P(ServerHarnessTest, ShedsUnderOverload) {
  // Tiny queues + offered load far beyond what 1 worker serves while
  // the producer never blocks: the shed path must engage and the
  // accounting must still balance.
  stm::Runtime Runtime(config());
  ServerConfig SC;
  SC.Workers = 1;
  SC.Clients = 2;
  SC.Shards = 1;
  SC.KeySpace = 1 << 10;
  SC.OfferedOpsPerSec = 2e6; // far above serviceable
  SC.DurationMs = 40;
  SC.QueueCapacity = 16;
  SC.BatchSize = 4;
  SC.MixPercent[0] = 30; // extra scans make the worker slow
  SC.MixPercent[1] = 40;
  SC.MixPercent[2] = 25;
  SC.MixPercent[3] = 5;

  ServerResult R = runServer(Runtime, SC);
  EXPECT_GT(R.Shed, 0u) << "overload must shed, not grow an unbounded queue";
  EXPECT_EQ(R.totalCompleted() + R.Shed, R.Offered);
  EXPECT_EQ(R.HistogramViolations, 0u);
  EXPECT_TRUE(R.ConservationOk);
}

STM_INSTANTIATE_RUNTIME_SUITE(ServerHarnessTest);

} // namespace
