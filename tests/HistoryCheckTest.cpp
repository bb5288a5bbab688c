//===- tests/HistoryCheckTest.cpp - randomized opacity checking ------------===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// The paper's safety property is opacity (Section 3.1): every
// transaction — committed or aborted — observes a state produced by some
// prefix of a serialization of the committed transactions. The
// structure-invariant tests elsewhere check consequences of opacity;
// this suite checks the property itself, offline, against recorded
// histories:
//
//  * every transaction reads a designated sequencer word first and every
//    update transaction also writes it a unique value, so the read-from
//    chain on the sequencer totally orders all committed updates;
//  * every transaction then snapshots a small shared word array, and
//    updaters write unique values into it and read some back — all ops
//    recorded in program order, so the checker can model encounter-time
//    (in-place, undo-log) writes: an attempt's own pending writes are
//    visible to its own later reads and to nobody else, and die with
//    the attempt on abort;
//  * the offline checker replays the sequencer chain, verifying that it
//    is a permutation of the committed updates and that each one's
//    snapshot equals the replayed state it serialized after. Read-only
//    and aborted attempts are then checked against the replay state
//    keyed by the sequencer value they observed — for aborted attempts
//    the recorded read prefix must be consistent too, which is exactly
//    the part of opacity serializability checks miss.
//
// Any torn snapshot, dirty read, lost update or write-skew the STM lets
// through surfaces as a checker failure naming the attempt. Runs are
// seeded via repro::testSeed (replay with STM_TEST_SEED=<seed>) and the
// whole suite runs under TSan in CI; STM_STRESS=<n> scales it up for
// the nightly stress label.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include "stm/diag/Hooks.h"

#include <gtest/gtest-spi.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

using namespace stm;
using repro_test::runThreads;
using repro_test::stressScale;

namespace {

constexpr unsigned NumWords = 6;

/// The shared transactional state: one sequencer word plus a small
/// array, on separate stripes.
struct SharedState {
  alignas(64) Word Seq;
  alignas(64) Word Words[NumWords];
};

/// One recorded transactional operation, in program order. Order
/// matters: with reads-after-writes in the workload (and undo-log
/// backends writing in place at encounter time), a read's expected
/// value depends on the attempt's own writes issued before it.
struct TxOp {
  bool IsWrite = false;
  unsigned W = 0;
  uint64_t V = 0;
};

/// One recorded transaction attempt (committed or aborted).
struct Attempt {
  uint64_t SeqSeen = 0;
  bool SeqValid = false; ///< the sequencer read completed
  bool Committed = false;
  uint64_t SeqWritten = 0; ///< nonzero iff this attempt wrote (updater)
  std::vector<TxOp> Ops;   ///< word reads and writes, in program order

  void read(unsigned W, uint64_t V) { Ops.push_back({false, W, V}); }
  void write(unsigned W, uint64_t V) { Ops.push_back({true, W, V}); }
};

/// Unique value for thread \p Tid, attempt \p AttemptIdx, op \p Op.
/// Never zero, never collides across threads/attempts/ops.
uint64_t uniqueValue(unsigned Tid, uint64_t AttemptIdx, unsigned Op) {
  return (uint64_t(Tid + 1) << 48) | (AttemptIdx << 8) | (Op + 1);
}

/// Replays one attempt's op sequence against the committed state it
/// serialized after, modelling undo-log (encounter-time, in-place)
/// write semantics: the attempt's own pending writes are visible to
/// its *own* later reads, and to nobody else. Rollback is modelled by
/// construction — an aborted attempt's pending map dies with this
/// call, and every other attempt's reads are checked against committed
/// states only, so an aborted writer's in-place intermediate value
/// surviving into shared memory (a skipped undo) shows up as some
/// later attempt's read matching no committed state. Redo-log
/// backends satisfy the same model: their read-after-write hits serve
/// the buffered value the model predicts.
void checkAttemptOps(const Attempt &A, const std::vector<uint64_t> &State,
                     const char *StmName, const char *What) {
  std::map<unsigned, uint64_t> Pending;
  for (const TxOp &Op : A.Ops) {
    if (Op.IsWrite) {
      Pending[Op.W] = Op.V;
      continue;
    }
    auto P = Pending.find(Op.W);
    if (P != Pending.end()) {
      EXPECT_EQ(Op.V, P->second)
          << StmName << ": " << What << " at sequencer " << A.SeqSeen
          << " read word " << Op.W
          << " inconsistently — lost own in-place write";
    } else {
      EXPECT_EQ(Op.V, State[Op.W])
          << StmName << ": " << What << " at sequencer " << A.SeqSeen
          << " read word " << Op.W
          << " inconsistently — non-opaque snapshot";
    }
  }
}

/// Offline opacity check of the merged history (see file comment).
void checkHistory(const std::vector<Attempt> &History, const char *StmName) {
  // Index committed updates by the sequencer value they read and wrote.
  std::map<uint64_t, const Attempt *> BySeqSeen;
  uint64_t CommittedUpdates = 0;
  for (const Attempt &A : History) {
    if (!A.Committed || A.SeqWritten == 0)
      continue;
    ++CommittedUpdates;
    ASSERT_TRUE(A.SeqValid) << StmName << ": update committed without "
                            << "completing its sequencer read";
    ASSERT_TRUE(BySeqSeen.emplace(A.SeqSeen, &A).second)
        << StmName << ": two committed updates both read sequencer value "
        << A.SeqSeen << " — lost update";
  }

  // Replay the sequencer chain from the initial state, checking each
  // update's snapshot against the state it serialized after, and
  // remember every state the chain passes through, keyed by the
  // sequencer value that identifies it.
  std::vector<uint64_t> State(NumWords, 0);
  std::map<uint64_t, std::vector<uint64_t>> StateAtSeq;
  uint64_t CurSeq = 0;
  uint64_t Replayed = 0;
  StateAtSeq.emplace(CurSeq, State);
  for (auto It = BySeqSeen.find(CurSeq); It != BySeqSeen.end();
       It = BySeqSeen.find(CurSeq)) {
    const Attempt &A = *It->second;
    checkAttemptOps(A, State, StmName, "committed update");
    for (const TxOp &Op : A.Ops)
      if (Op.IsWrite)
        State[Op.W] = Op.V;
    CurSeq = A.SeqWritten;
    StateAtSeq.emplace(CurSeq, State);
    ++Replayed;
  }
  EXPECT_EQ(Replayed, CommittedUpdates)
      << StmName << ": sequencer chain does not serialize all committed "
      << "updates — broken read-from chain";

  // Read-only and aborted attempts: the sequencer value read places the
  // attempt in the serial order; all its reads must match that state.
  for (const Attempt &A : History) {
    if (!A.SeqValid || (A.Committed && A.SeqWritten != 0))
      continue;
    auto It = StateAtSeq.find(A.SeqSeen);
    if (It == StateAtSeq.end()) {
      ADD_FAILURE() << StmName << ": attempt observed sequencer value "
                    << A.SeqSeen
                    << " that no committed update wrote — dirty read";
      continue;
    }
    checkAttemptOps(A, It->second, StmName,
                    A.Committed ? "read-only transaction"
                                : "aborted attempt");
  }
}

/// Runs the recorded-history workload on \p STM and feeds the merged
/// history to the offline checker. \p Concurrent, when set, runs in its
/// own non-transactional thread alongside the workers (it drives
/// backend switches in the runtime tests) until the flag it receives
/// goes true.
template <typename STM>
void runHistoryCheck(
    const StmConfig &Config, unsigned Threads, unsigned TxPerThread,
    unsigned UpdatePercent, uint64_t SeedSalt, bool RequireAborts = false,
    const std::function<void(std::atomic<bool> &)> &Concurrent = nullptr) {
  static SharedState S;
  S.Seq = 0;
  for (Word &W : S.Words)
    W = 0;

  STM::globalInit(Config);
  {
    std::atomic<bool> WorkersDone{false};
    std::thread Controller;
    if (Concurrent)
      Controller = std::thread([&] { Concurrent(WorkersDone); });

    std::vector<std::vector<Attempt>> PerThread(Threads);
    runThreads<STM>(Threads, [&](unsigned Tid, auto &Tx) {
      repro::Xorshift Rng(repro::testSeed(SeedSalt * 100 + Tid));
      std::vector<Attempt> &Hist = PerThread[Tid];
      unsigned Order[NumWords];
      for (unsigned I = 0; I < NumWords; ++I)
        Order[I] = I;
      for (unsigned TxI = 0; TxI < TxPerThread; ++TxI) {
        bool Update = Rng.nextPercent(UpdatePercent);
        atomically(Tx, [&](auto &T) {
          // One record per attempt: commit()-time aborts rerun the body,
          // so earlier records stay behind as aborted prefixes.
          Hist.emplace_back();
          Attempt &A = Hist.back();
          uint64_t AttemptIdx = Hist.size() - 1;

          A.SeqSeen = T.load(&S.Seq);
          A.SeqValid = true;

          // Full snapshot in random order. Randomized yields force
          // interleavings mid-transaction even on few-core machines —
          // without them the attempts mostly serialize and the checker
          // has nothing interesting to check.
          for (unsigned I = NumWords - 1; I > 0; --I)
            std::swap(Order[I], Order[Rng.nextBounded(I + 1)]);
          for (unsigned I = 0; I < NumWords; ++I) {
            unsigned W = Order[I];
            if (Rng.nextPercent(8))
              std::this_thread::yield();
            A.read(W, T.load(&S.Words[W]));
          }

          if (Update) {
            unsigned Writes = 1 + unsigned(Rng.nextBounded(3));
            for (unsigned Op = 0; Op < Writes; ++Op) {
              unsigned W = unsigned(Rng.nextBounded(NumWords));
              uint64_t V = uniqueValue(Tid, AttemptIdx, Op);
              if (Rng.nextPercent(8))
                std::this_thread::yield();
              T.store(&S.Words[W], V);
              A.write(W, V);
              // Read-after-write some of the time: redo backends must
              // serve the buffered value, undo backends the in-place
              // one — the checker's pending-map model covers both.
              if (Rng.nextPercent(40))
                A.read(W, T.load(&S.Words[W]));
            }
            A.SeqWritten = uniqueValue(Tid, AttemptIdx, 0xFE);
            T.store(&S.Seq, A.SeqWritten);
          }
        });
        Hist.back().Committed = true;
      }
    });

    WorkersDone.store(true, std::memory_order_release);
    if (Controller.joinable())
      Controller.join();

    std::vector<Attempt> History;
    for (auto &H : PerThread)
      for (Attempt &A : H)
        History.push_back(std::move(A));
    if (RequireAborts) {
      EXPECT_GT(History.size(), uint64_t(Threads) * TxPerThread)
          << STM::name() << ": run produced no aborted attempts — the "
          << "checker exercised no contention";
    }
    checkHistory(History, STM::name());
  }
  STM::globalShutdown();
}

StmConfig smallTable() {
  StmConfig Config;
  Config.LockTableSizeLog2 = 16;
  return Config;
}

/// Histories recorded *through* the runtime dispatch layer, on every
/// backend (and the adaptive switcher under the STM_ADAPTIVE CI pass).
class HistoryCheckTest : public repro_test::RuntimeSuiteNoInit {};

/// Default configuration of each backend, mixed readers and updaters.
TEST_P(HistoryCheckTest, RandomizedHistoryIsOpaque) {
  runHistoryCheck<repro_test::Rt>(applyMode(smallTable()), 4,
                                  1500 * stressScale(),
                                  /*UpdatePercent=*/50, /*SeedSalt=*/1,
                                  /*RequireAborts=*/true);
}

/// Read-dominated: long stretches between sequencer bumps exercise the
/// extension/revalidation paths instead of the conflict paths.
TEST_P(HistoryCheckTest, ReadMostlyHistoryIsOpaque) {
  runHistoryCheck<repro_test::Rt>(applyMode(smallTable()), 4,
                                  1200 * stressScale(),
                                  /*UpdatePercent=*/10, /*SeedSalt=*/2);
}

/// A tiny lock table forces false conflicts between unrelated stripes;
/// opacity must survive aliasing.
TEST_P(HistoryCheckTest, FalseConflictsStayOpaque) {
  StmConfig Config;
  Config.LockTableSizeLog2 = 4;
  runHistoryCheck<repro_test::Rt>(applyMode(Config), 4, 800 * stressScale(),
                                  /*UpdatePercent=*/50, /*SeedSalt=*/3);
}

/// Every commit-clock policy must replay as an opaque history. GV5 is
/// the aliasing case the checker exists for: two concurrent updaters
/// with disjoint write sets legally commit with the *same* timestamp
/// (the counter only moves when a reader misses), so any unsound
/// validation shortcut or per-stripe version reuse surfaces here as a
/// torn snapshot or lost update. GV4 exercises timestamp adoption: a
/// committer that loses the clock CAS shares the winner's stamp and
/// must still validate. GVSHARD combines both hazards: stamps are
/// derived from a scan over per-shard counters (two committers on
/// different shards may mint the same value) and begins run on a cached
/// view that lags some shards — forced to 4 shards here because the
/// topology auto-derivation collapses to 1 on small hosts.
TEST_P(HistoryCheckTest, EveryClockPolicyStaysOpaque) {
  unsigned Salt = 20;
  for (ClockKind Kind : allClockKinds()) {
    SCOPED_TRACE(clockKindName(Kind));
    StmConfig Config = applyMode(smallTable());
    Config.Clock = Kind;
    if (Kind == ClockKind::GvShard)
      Config.ClockShards = 4;
    runHistoryCheck<repro_test::Rt>(Config, 4, 800 * stressScale(),
                                    /*UpdatePercent=*/50,
                                    /*SeedSalt=*/Salt++);
  }
}

/// Read-mostly sweep per clock: long stretches between sequencer bumps
/// drive the extension/revalidation paths, which under GV5 include the
/// reader-side counter advance (observe) — the mechanism that replaces
/// the committer's increment.
TEST_P(HistoryCheckTest, ReadMostlyEveryClockPolicyStaysOpaque) {
  unsigned Salt = 30;
  for (ClockKind Kind :
       {ClockKind::Gv4, ClockKind::Gv5, ClockKind::GvShard}) {
    SCOPED_TRACE(clockKindName(Kind));
    StmConfig Config = applyMode(smallTable());
    Config.Clock = Kind;
    if (Kind == ClockKind::GvShard)
      Config.ClockShards = 4;
    runHistoryCheck<repro_test::Rt>(Config, 4, 700 * stressScale(),
                                    /*UpdatePercent=*/10,
                                    /*SeedSalt=*/Salt++);
  }
}

STM_INSTANTIATE_RUNTIME_SUITE(HistoryCheckTest);

//===----------------------------------------------------------------------===//
// Runtime switch barrier: opacity must hold across backend switches.
//===----------------------------------------------------------------------===//

/// A controller thread cycles the active backend through all four kinds
/// while the workers record their history through the dispatch layer.
/// Every attempt therefore runs on whichever backend its generation
/// selected, and the merged history — which spans many switch barriers
/// — must still replay as one opaque serialization.
TEST(HistoryCheckRuntimeTest, HistorySpanningBackendSwitchesIsOpaque) {
  StmConfig Config = smallTable();
  Config.Backend = stm::rt::BackendKind::Tl2;
  Config.Adaptive = true;       // arms the switch machinery...
  Config.AdaptiveWindow = ~0u;  // ...with the policy effectively off
  std::atomic<unsigned> Switches{0};
  runHistoryCheck<StmRuntime>(
      Config, 4, 1200 * stressScale(), /*UpdatePercent=*/50,
      /*SeedSalt=*/7, /*RequireAborts=*/false,
      [&Switches](std::atomic<bool> &Done) {
        std::size_t Next = 0;
        const auto &Kinds = stm::rt::allBackendKinds();
        while (!Done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          if (StmRuntime::requestSwitch(Kinds[Next++ % Kinds.size()]))
            Switches.fetch_add(1, std::memory_order_relaxed);
        }
      });
  EXPECT_GT(Switches.load(), 0u)
      << "no backend switch crossed the recorded history";
}

/// The adaptive policy itself driving the switches: contended mixed
/// updates with a tiny evaluation window force escalation decisions
/// mid-history.
TEST(HistoryCheckRuntimeTest, AdaptivePolicyHistoryIsOpaque) {
  StmConfig Config = smallTable();
  Config.Backend = stm::rt::BackendKind::Tl2;
  Config.AdaptiveWindow = 256;
  runHistoryCheck<AdaptiveRuntime>(Config, 4, 1500 * stressScale(),
                                   /*UpdatePercent=*/50, /*SeedSalt=*/8);
}

/// Switch-crossing histories under every clock policy: the controller
/// cycles the active backend through all four kinds while workers
/// record, so every barrier crosses timestamps minted by one clock
/// instance into a generation validated against another. Each backend's
/// clock is independent state — the merged history must still replay as
/// one opaque serialization under gv1's unique stamps, gv4's adopted
/// ones, and gv5's deferred, reader-advanced ones.
TEST(HistoryCheckRuntimeTest, SwitchCrossingHistoryOpaqueUnderEveryClock) {
  unsigned Salt = 40;
  for (ClockKind Kind : allClockKinds()) {
    SCOPED_TRACE(clockKindName(Kind));
    StmConfig Config = smallTable();
    Config.Backend = stm::rt::BackendKind::Tl2;
    Config.Clock = Kind;
    if (Kind == ClockKind::GvShard)
      Config.ClockShards = 4;
    Config.Adaptive = true;      // arms the switch machinery...
    Config.AdaptiveWindow = ~0u; // ...with the policy effectively off
    std::atomic<unsigned> Switches{0};
    runHistoryCheck<StmRuntime>(
        Config, 4, 800 * stressScale(), /*UpdatePercent=*/50,
        /*SeedSalt=*/Salt++, /*RequireAborts=*/false,
        [&Switches](std::atomic<bool> &Done) {
          std::size_t Next = 0;
          const auto &Kinds = stm::rt::allBackendKinds();
          while (!Done.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (StmRuntime::requestSwitch(Kinds[Next++ % Kinds.size()]))
              Switches.fetch_add(1, std::memory_order_relaxed);
          }
        });
    EXPECT_GT(Switches.load(), 0u)
        << clockKindName(Kind)
        << ": no backend switch crossed the recorded history";
  }
}

/// The adaptive policy driving switches while commits share (gv4),
/// defer (gv5), or shard (gvshard) their timestamps — escalation
/// decisions ride on the windowed stats the clock policies must not
/// skew.
TEST(HistoryCheckRuntimeTest, AdaptivePolicyHistoryOpaqueUnderSharedStampClocks) {
  unsigned Salt = 50;
  for (ClockKind Kind :
       {ClockKind::Gv4, ClockKind::Gv5, ClockKind::GvShard}) {
    SCOPED_TRACE(clockKindName(Kind));
    StmConfig Config = smallTable();
    Config.Backend = stm::rt::BackendKind::Tl2;
    Config.Clock = Kind;
    if (Kind == ClockKind::GvShard)
      Config.ClockShards = 4;
    Config.AdaptiveWindow = 256;
    runHistoryCheck<AdaptiveRuntime>(Config, 4, 800 * stressScale(),
                                     /*UpdatePercent=*/50,
                                     /*SeedSalt=*/Salt++);
  }
}

/// SwissTM with timestamp extension disabled behaves like TL2 on reads;
/// the history must stay opaque, just with more aborts.
TEST(HistoryCheckConfigTest, SwissTmWithoutExtension) {
  StmConfig Config = smallTable();
  Config.EnableExtension = false;
  runHistoryCheck<SwissTm>(Config, 4, 1200 * stressScale(), 50, 4);
}

/// RSTM's other design-matrix cells: lazy acquire and visible reads.
TEST(HistoryCheckConfigTest, RstmLazyAcquire) {
  StmConfig Config = smallTable();
  Config.RstmEagerAcquire = false;
  runHistoryCheck<Rstm>(Config, 4, 1200 * stressScale(), 50, 5);
}

/// TL2 and TinySTM single-fence commit (STM_SINGLE_FENCE): the stamp is
/// taken *after* write-back while the write locks are still held, and
/// the read path's post-check lock load drops its acquire fence. The
/// two soundness obligations — commit-time validation can never be
/// skipped on the shared stamp, and no reader can straddle the
/// stamp/write-back inversion (its stripes stay locked throughout) —
/// must both hold or this history tears. Gv1 is the base case; gvshard
/// stacks the sharded stamp on top of the elided fence.
TEST(HistoryCheckConfigTest, SingleFenceCommitStaysOpaque) {
  unsigned Salt = 60;
  for (ClockKind Kind : {ClockKind::Gv1, ClockKind::GvShard}) {
    SCOPED_TRACE(clockKindName(Kind));
    StmConfig Config = smallTable();
    Config.SingleFence = true;
    Config.Clock = Kind;
    if (Kind == ClockKind::GvShard)
      Config.ClockShards = 4;
    runHistoryCheck<Tl2>(Config, 4, 1000 * stressScale(), 50, Salt++);
    runHistoryCheck<TinyStm>(Config, 4, 1000 * stressScale(), 50, Salt++);
  }
}

TEST(HistoryCheckConfigTest, RstmVisibleReads) {
  StmConfig Config = smallTable();
  Config.RstmVisibleReads = true;
  // Smaller than the invisible-read cases: every updater must clear
  // every reader's bit through the CM, which on few-core machines makes
  // each conflict orders of magnitude more expensive.
  runHistoryCheck<Rstm>(Config, 2, 400 * stressScale(), 50, 6);
}

//===----------------------------------------------------------------------===//
// Clock-policy write skew: the sequencer histories above order all
// updates through one word, so every updater conflicts on its stripe
// and two committers never run with *disjoint* write sets — yet
// disjoint committers are exactly who may share a timestamp under
// gv4 adoption and gv5 deferral. This test manufactures the classic
// write-skew pair (T0 reads Y writes X, T1 reads X writes Y, yields
// widening the overlap) and asserts the non-serializable outcome never
// commits: any unsound "nothing committed in between" shortcut on a
// shared timestamp lets both transactions miss each other and produce
// X == 1 && Y == 1 from X == Y == 0.
//===----------------------------------------------------------------------===//

class ClockPolicyWriteSkewTest
    : public ::testing::TestWithParam<ClockKind> {};

TEST_P(ClockPolicyWriteSkewTest, DisjointCommittersNeverWriteSkew) {
  struct alignas(64) Cell {
    Word W;
  };
  static Cell X, Y;
  constexpr unsigned Threads = 2;

  for (stm::rt::BackendKind Backend : stm::rt::allBackendKinds()) {
    SCOPED_TRACE(stm::rt::backendName(Backend));
    StmConfig Config = smallTable();
    Config.Backend = Backend;
    Config.Clock = GetParam();
    // Under gvshard the two threads sit on different shards (slot 0 and
    // slot 1), so a skew pair can mint the same stamp from counters on
    // different cache lines — the cross-shard variant of gv5 aliasing.
    if (Config.Clock == ClockKind::GvShard)
      Config.ClockShards = 4;
    StmRuntime::globalInit(Config);
    {
      const unsigned Rounds = 400 * stressScale();
      std::atomic<unsigned> Arrivals{0};
      std::atomic<unsigned> SkewRounds{0};
      auto Barrier = [&Arrivals](unsigned Target) {
        Arrivals.fetch_add(1, std::memory_order_acq_rel);
        while (Arrivals.load(std::memory_order_acquire) < Target)
          std::this_thread::yield();
      };
      runThreads<StmRuntime>(Threads, [&](unsigned Tid, auto &Tx) {
        for (unsigned R = 0; R < Rounds; ++R) {
          // Phase 1: quiescent reset (every transaction of the previous
          // round has committed or aborted at the barrier).
          Barrier(R * 3 * Threads + Threads);
          if (Tid == 0)
            X.W = Y.W = 0;
          Barrier(R * 3 * Threads + 2 * Threads);
          // Phase 2: the skew pair, overlap widened by a yield between
          // the read and the (disjoint) write.
          atomically(Tx, [&](auto &T) {
            if (Tid == 0) {
              Word SeenY = T.load(&Y.W);
              std::this_thread::yield();
              T.store(&X.W, SeenY + 1);
            } else {
              Word SeenX = T.load(&X.W);
              std::this_thread::yield();
              T.store(&Y.W, SeenX + 1);
            }
          });
          Barrier(R * 3 * Threads + 3 * Threads);
          // Phase 3: check. Serializable outcomes are (1,2) and (2,1);
          // (1,1) means both committers missed each other's write.
          if (Tid == 0 && X.W == 1 && Y.W == 1)
            SkewRounds.fetch_add(1, std::memory_order_relaxed);
        }
      });
      EXPECT_EQ(SkewRounds.load(), 0u)
          << stm::rt::backendName(Backend) << "/"
          << clockKindName(GetParam())
          << ": write skew committed — a shared commit timestamp "
          << "skipped validation";
    }
    StmRuntime::globalShutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(AllClocks, ClockPolicyWriteSkewTest,
                         ::testing::ValuesIn(allClockKinds()),
                         [](const ::testing::TestParamInfo<ClockKind> &I) {
                           return clockKindName(I.param);
                         });

/// The checker itself must reject a non-opaque history: synthesize a
/// torn snapshot and make sure it trips.
TEST(HistoryCheckerSelfTest, DetectsTornSnapshot) {
  std::vector<Attempt> History;

  Attempt Update;
  Update.SeqSeen = 0;
  Update.SeqValid = true;
  Update.Committed = true;
  Update.SeqWritten = uniqueValue(0, 0, 0xFE);
  for (unsigned W = 0; W < NumWords; ++W)
    Update.read(W, 0);
  Update.write(0, uniqueValue(0, 0, 0));
  Update.write(1, uniqueValue(0, 0, 1));
  History.push_back(Update);

  // A reader that saw word 0 after the update but word 1 before it:
  // consistent with no serialization point.
  Attempt Torn;
  Torn.SeqSeen = Update.SeqWritten;
  Torn.SeqValid = true;
  Torn.Committed = true;
  Torn.read(0, uniqueValue(0, 0, 0));
  Torn.read(1, 0);
  History.push_back(Torn);

  EXPECT_NONFATAL_FAILURE(checkHistory(History, "synthetic"),
                          "non-opaque snapshot");
}

TEST(HistoryCheckerSelfTest, DetectsDirtyRead) {
  std::vector<Attempt> History;
  Attempt Dirty;
  Dirty.SeqSeen = uniqueValue(7, 3, 0xFE); // nobody committed this
  Dirty.SeqValid = true;
  Dirty.Committed = true;
  History.push_back(Dirty);
  EXPECT_NONFATAL_FAILURE(checkHistory(History, "synthetic"),
                          "dirty read");
}

TEST(HistoryCheckerSelfTest, DetectsLostUpdate) {
  std::vector<Attempt> History;
  for (int I = 0; I < 2; ++I) {
    Attempt A;
    A.SeqSeen = 0; // both serialized after the initial state
    A.SeqValid = true;
    A.Committed = true;
    A.SeqWritten = uniqueValue(I, 0, 0xFE);
    History.push_back(A);
  }
  bool Caught = false;
  // The duplicate-SeqSeen assertion is fatal; run in a scoped trap.
  {
    ::testing::TestPartResultArray Failures;
    ::testing::ScopedFakeTestPartResultReporter Reporter(
        ::testing::ScopedFakeTestPartResultReporter::
            INTERCEPT_ONLY_CURRENT_THREAD,
        &Failures);
    checkHistory(History, "synthetic");
    for (int I = 0; I < Failures.size(); ++I)
      if (std::string(Failures.GetTestPartResult(I).message())
              .find("lost update") != std::string::npos)
        Caught = true;
  }
  EXPECT_TRUE(Caught);
}

/// Undo-log model: a write followed by a readback of the same word must
/// observe the pending in-place value, not the committed state.
TEST(HistoryCheckerSelfTest, DetectsLostOwnWrite) {
  std::vector<Attempt> History;
  Attempt Update;
  Update.SeqSeen = 0;
  Update.SeqValid = true;
  Update.Committed = true;
  Update.SeqWritten = uniqueValue(0, 0, 0xFE);
  Update.write(0, uniqueValue(0, 0, 0));
  Update.read(0, 0); // readback missed the attempt's own pending write
  History.push_back(Update);
  EXPECT_NONFATAL_FAILURE(checkHistory(History, "synthetic"),
                          "lost own in-place write");
}

#ifdef STM_DIAG
/// Toggles a fault-injection knob for the enclosing scope.
struct InjectGuard {
  stm::diag::Inject Knob;
  explicit InjectGuard(stm::diag::Inject K) : Knob(K) {
    stm::diag::setInjected(K, true);
  }
  ~InjectGuard() { stm::diag::setInjected(Knob, false); }
};

/// End to end: resurrect the "rollback releases the orecs without
/// unwinding the undo log" bug and prove the offline checker catches
/// it. An aborted writer's in-place speculative values survive into
/// shared memory, so later attempts read values no committed state
/// contains — surfacing as a dirty read (a sequencer value nobody
/// committed) or an inconsistent snapshot.
TEST(HistoryCheckerSelfTest, CatchesInjectedOrecSkipUndo) {
  InjectGuard Guard(stm::diag::Inject::OrecSkipUndo);
  bool Caught = false;
  {
    ::testing::TestPartResultArray Failures;
    ::testing::ScopedFakeTestPartResultReporter Reporter(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ALL_THREADS,
        &Failures);
    StmConfig Config = smallTable();
    // Keep every abort a plain rollback: irrevocable escalation would
    // serialize the pathological writers and mask the poison.
    Config.OrecIrrevocableAborts = 0;
    runHistoryCheck<OrecStm>(Config, 4, 1500, /*UpdatePercent=*/50,
                             /*SeedSalt=*/9, /*RequireAborts=*/true);
    for (int I = 0; I < Failures.size(); ++I) {
      std::string Msg = Failures.GetTestPartResult(I).message();
      if (Msg.find("inconsistently") != std::string::npos ||
          Msg.find("dirty read") != std::string::npos ||
          Msg.find("lost update") != std::string::npos)
        Caught = true;
    }
  }
  EXPECT_TRUE(Caught)
      << "undo-log-aware checker missed the injected skip-undo bug";
}

/// End to end for the fence-elision work: resurrect the *unsound*
/// version of the optimization — the one where the data load is allowed
/// to sink below the relaxed post-check — and prove the checker catches
/// it. The injection re-loads the data word after TL2's V1/V2 lock
/// checks with a yield in between, so a concurrent committer's
/// write-back lands between check and load: the read returns a value
/// from a later state than the rest of the snapshot. This is exactly
/// the reorder the seq_cst commit fence plus the always-revalidate rule
/// make impossible in the real single-fence path; the checker flags it
/// as a non-opaque snapshot (or a dirty sequencer read).
TEST(HistoryCheckerSelfTest, CatchesInjectedUnsoundFenceElision) {
  InjectGuard Guard(stm::diag::Inject::Tl2UnsoundFenceElision);
  bool Caught = false;
  {
    ::testing::TestPartResultArray Failures;
    ::testing::ScopedFakeTestPartResultReporter Reporter(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ALL_THREADS,
        &Failures);
    StmConfig Config = smallTable();
    Config.SingleFence = true;
    runHistoryCheck<Tl2>(Config, 4, 1500, /*UpdatePercent=*/50,
                         /*SeedSalt=*/10);
    for (int I = 0; I < Failures.size(); ++I) {
      std::string Msg = Failures.GetTestPartResult(I).message();
      if (Msg.find("inconsistently") != std::string::npos ||
          Msg.find("dirty read") != std::string::npos ||
          Msg.find("lost update") != std::string::npos)
        Caught = true;
    }
  }
  EXPECT_TRUE(Caught)
      << "opacity checker missed the injected unsound fence elision";
}
#endif // STM_DIAG

} // namespace
