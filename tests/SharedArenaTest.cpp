//===- tests/SharedArenaTest.cpp - shared-state placement layer ------------===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Tests of the SharedArena placement layer itself: the lock-word handle
// codec, private-backing fallbacks, the shared segment's heap and user
// roots, a real fork()ed attacher sharing the clock/table/heap with the
// creator, the loud layout-mismatch abort, and the RSS regression test
// asserting the lock table stays lazily committed in *both* placements
// (the historical calloc property the refactor must not lose).
//
// Every test that creates a segment derives a unique name from the test
// pid so parallel ctest invocations of this binary can never collide,
// and unlinks the name before and after use.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include "stm/core/SharedArena.h"

#include <cstdio>
#include <cstring>

#include <sys/wait.h>
#include <unistd.h>

using namespace stm;
using repro_test::Rt;

namespace {

/// A per-test-unique shm name: two tests of this binary never share a
/// segment, and two concurrently running ctest shards never collide.
void segName(const char *Tag, char *Out, std::size_t Len) {
  std::snprintf(Out, Len, "swisstm-test-%s-%d", Tag, int(getpid()));
}

/// Fixed-backend shared-mode config. Multi-process mode requires a
/// fixed non-RSTM backend, so the tests pin SwissTM explicitly rather
/// than inheriting STM_BACKEND from a CI matrix leg.
StmConfig sharedConfig(const char *Name) {
  StmConfig Config;
  Config.Backend = rt::BackendKind::SwissTm;
  Config.Adaptive = false;
  Config.LockTableSizeLog2 = 16;
  std::snprintf(Config.SharedSegment, sizeof(Config.SharedSegment), "%s",
                Name);
  return Config;
}

/// Resident-set size of this process in bytes, from /proc/self/statm.
uint64_t residentBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (F == nullptr)
    return 0;
  unsigned long Size = 0, Resident = 0;
  int Got = std::fscanf(F, "%lu %lu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  return uint64_t(Resident) * uint64_t(sysconf(_SC_PAGESIZE));
}

//===----------------------------------------------------------------------===//
// Handle codec
//===----------------------------------------------------------------------===//

TEST(SharedArenaHandleTest, CodecRoundTripsAndStaysOdd) {
  for (unsigned Slot : {0u, 1u, 7u, repro::MaxThreads - 1}) {
    for (uint64_t Index : {uint64_t(0), uint64_t(1), uint64_t(4095),
                           uint64_t(1) << 40}) {
      Word H = SharedArena::makeHandle(Index, Slot);
      EXPECT_EQ(H & 1, Word(1)) << "handles must be odd (locked encoding)";
      EXPECT_EQ(SharedArena::handleSlot(H), Slot);
      EXPECT_EQ(SharedArena::handleIndex(H), Index);
    }
  }
}

TEST(SharedArenaHandleTest, DistinctOwnersProduceDistinctHandles) {
  // Two transactions holding the same write-log index must still be
  // distinguishable — the slot bits carry the owner.
  Word A = SharedArena::makeHandle(12, 3);
  Word B = SharedArena::makeHandle(12, 4);
  EXPECT_NE(A, B);
  EXPECT_EQ(SharedArena::handleIndex(A), SharedArena::handleIndex(B));
}

//===----------------------------------------------------------------------===//
// Private backing (the default: zero behavioural change)
//===----------------------------------------------------------------------===//

TEST(SharedArenaPrivateTest, DefaultConfigStaysPrivate) {
  StmConfig Config;
  Config.Backend = rt::BackendKind::SwissTm;
  Config.Adaptive = false;
  Config.LockTableSizeLog2 = 16;
  StmRuntime::globalInit(Config);
  EXPECT_FALSE(SharedArena::sharedActive());
  EXPECT_EQ(SharedArena::instance().backing(), SharedArena::Backing::Private);
  // sharedAlloc degrades to the process heap and the dispatching free
  // routes back to it.
  void *P = sharedAlloc(64);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(SharedArena::instance().contains(P));
  sharedDispatchFree(P);
  // User roots work in every mode (fallback statics in private mode).
  SharedArena::instance().userRoot(0).store(42, std::memory_order_relaxed);
  EXPECT_EQ(SharedArena::instance().userRoot(0).load(std::memory_order_relaxed),
            Word(42));
  SharedArena::instance().userRoot(0).store(0, std::memory_order_relaxed);
  StmRuntime::globalShutdown();
}

//===----------------------------------------------------------------------===//
// Shared segment: heap, roots, transactions on segment memory
//===----------------------------------------------------------------------===//

TEST(SharedArenaSegmentTest, HeapAllocatesRecyclesAndContains) {
  char Name[64];
  segName("heap", Name, sizeof(Name));
  SharedArena::unlinkSegment(Name);
  StmRuntime::globalInit(sharedConfig(Name));
  SharedArena &A = SharedArena::instance();
  ASSERT_TRUE(SharedArena::sharedActive());
  EXPECT_TRUE(A.isShared());
  EXPECT_TRUE(A.isCreator());

  void *P = A.heapAlloc(64);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(A.contains(P));
  std::memset(P, 0xAB, 64);
  A.heapFree(P);
  // Same size class goes back through the free list: the block is
  // recycled rather than burning bump space forever.
  void *Q = A.heapAlloc(64);
  EXPECT_EQ(Q, P);
  A.heapFree(Q);

  // Distinct size classes get distinct lists.
  void *Small = A.heapAlloc(16);
  void *Big = A.heapAlloc(1024);
  ASSERT_NE(Small, nullptr);
  ASSERT_NE(Big, nullptr);
  EXPECT_NE(Small, Big);
  A.heapFree(Small);
  A.heapFree(Big);

  // Oversized blocks (beyond the largest size class) are bump-only:
  // valid, contained, and freeing them must not corrupt anything.
  void *Huge = A.heapAlloc(64 * 1024);
  ASSERT_NE(Huge, nullptr);
  EXPECT_TRUE(A.contains(Huge));
  std::memset(Huge, 0, 64 * 1024);
  A.heapFree(Huge);

  EXPECT_FALSE(A.contains(Name));
  StmRuntime::globalShutdown();
  SharedArena::unlinkSegment(Name);
}

TEST(SharedArenaSegmentTest, TransactionsRunOverSegmentMemory) {
  char Name[64];
  segName("tx", Name, sizeof(Name));
  SharedArena::unlinkSegment(Name);
  StmRuntime::globalInit(sharedConfig(Name));
  auto *Cells = static_cast<Word *>(sharedAlloc(8 * sizeof(Word)));
  ASSERT_NE(Cells, nullptr);
  for (unsigned I = 0; I < 8; ++I)
    Cells[I] = 0;
  repro_test::runThreads<Rt>(4, [&](unsigned, auto &Tx) {
    for (unsigned Iter = 0; Iter < 200; ++Iter)
      atomically(Tx, [&](auto &T) {
        for (unsigned I = 0; I < 8; ++I)
          T.store(&Cells[I], T.load(&Cells[I]) + 1);
      });
  });
  for (unsigned I = 0; I < 8; ++I)
    EXPECT_EQ(Cells[I], Word(4 * 200)) << "cell " << I;
  sharedDispatchFree(Cells);
  StmRuntime::globalShutdown();
  SharedArena::unlinkSegment(Name);
}

//===----------------------------------------------------------------------===//
// Cross-process: a forked attacher shares the segment with the creator
//===----------------------------------------------------------------------===//

TEST(SharedArenaSegmentTest, ForkedProcessAttachesAndSharesData) {
  char Name[64];
  segName("attach", Name, sizeof(Name));
  SharedArena::unlinkSegment(Name);

  int Pipe[2];
  ASSERT_EQ(pipe(Pipe), 0);

  // Fork BEFORE any STM state exists: the child is a genuinely separate
  // process that must reach the data through shm_open + the layout
  // handshake, not through inherited mappings.
  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    close(Pipe[1]);
    char Go = 0;
    // Wait until the parent has created the segment, so the child
    // deterministically takes the attach path.
    if (read(Pipe[0], &Go, 1) != 1)
      _exit(10);
    close(Pipe[0]);
    StmRuntime::globalInit(sharedConfig(Name));
    SharedArena &A = SharedArena::instance();
    if (!A.isShared() || A.isCreator())
      _exit(11);
    auto *Counter = reinterpret_cast<Word *>(
        A.userRoot(0).load(std::memory_order_acquire));
    if (Counter == nullptr || !A.contains(Counter))
      _exit(12);
    {
      ThreadScope<Rt> Scope;
      for (unsigned I = 0; I < 100; ++I)
        atomically(Scope.tx(),
                   [&](auto &T) { T.store(Counter, T.load(Counter) + 1); });
    }
    StmRuntime::globalShutdown();
    _exit(0);
  }

  close(Pipe[0]);
  StmRuntime::globalInit(sharedConfig(Name));
  SharedArena &A = SharedArena::instance();
  ASSERT_TRUE(A.isCreator());
  auto *Counter = static_cast<Word *>(sharedAlloc(sizeof(Word)));
  ASSERT_NE(Counter, nullptr);
  *Counter = 0;
  A.userRoot(0).store(reinterpret_cast<Word>(Counter),
                      std::memory_order_release);
  ASSERT_EQ(write(Pipe[1], "g", 1), 1);
  close(Pipe[1]);

  // Work concurrently with the child so the clock/table really get
  // exercised from two processes at once.
  {
    ThreadScope<Rt> Scope;
    for (unsigned I = 0; I < 100; ++I)
      atomically(Scope.tx(),
                 [&](auto &T) { T.store(Counter, T.load(Counter) + 1); });
  }

  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status)) << "child died abnormally";
  EXPECT_EQ(WEXITSTATUS(Status), 0);

  Word Final = 0;
  {
    ThreadScope<Rt> Scope;
    atomically(Scope.tx(), [&](auto &T) { Final = T.load(Counter); });
  }
  EXPECT_EQ(Final, Word(200))
      << "parent and child commits must both land in the shared counter";
  A.userRoot(0).store(0, std::memory_order_release);
  sharedDispatchFree(Counter);
  StmRuntime::globalShutdown();
  SharedArena::unlinkSegment(Name);
}

TEST(SharedArenaSegmentTest, LayoutMismatchAbortsTheAttacher) {
  char Name[64];
  segName("mismatch", Name, sizeof(Name));
  SharedArena::unlinkSegment(Name);

  int Pipe[2];
  ASSERT_EQ(pipe(Pipe), 0);
  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    close(Pipe[1]);
    char Go = 0;
    if (read(Pipe[0], &Go, 1) != 1)
      _exit(10);
    close(Pipe[0]);
    // Same segment name, different protocol geometry: the layout hash
    // in the header must not match and the attach must abort loudly —
    // reaching the _exit(13) below is the failure mode.
    StmConfig Bad = sharedConfig(Name);
    Bad.GranularityLog2 = 6;
    StmRuntime::globalInit(Bad);
    _exit(13);
  }

  close(Pipe[0]);
  StmRuntime::globalInit(sharedConfig(Name));
  ASSERT_EQ(write(Pipe[1], "g", 1), 1);
  close(Pipe[1]);
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  EXPECT_TRUE(WIFSIGNALED(Status))
      << "mismatched attacher must abort, not run (exit "
      << (WIFEXITED(Status) ? WEXITSTATUS(Status) : -1) << ")";
  if (WIFSIGNALED(Status)) {
    EXPECT_EQ(WTERMSIG(Status), SIGABRT);
  }
  StmRuntime::globalShutdown();
  SharedArena::unlinkSegment(Name);
}

//===----------------------------------------------------------------------===//
// RSS regression: the lock table must stay lazily committed
//===----------------------------------------------------------------------===//

/// The historical calloc property: a big lock table costs address
/// space, not resident memory, until stripes are actually touched. The
/// placement refactor must preserve this in the private mapping AND in
/// the shm segment (tmpfs pages also materialize on first touch).
/// 2^23 padded entries = 512 MiB of table; an eager-commit regression
/// would blow the 96 MiB delta bound by 5x.
constexpr unsigned BigTableLog2 = 23;
constexpr uint64_t RssDeltaBound = 96ull << 20;

TEST(SharedArenaRssTest, BigTableStaysLazyInPrivateMode) {
  StmConfig Config;
  Config.Backend = rt::BackendKind::SwissTm;
  Config.Adaptive = false;
  Config.LockTableSizeLog2 = BigTableLog2;
  uint64_t Before = residentBytes();
  ASSERT_GT(Before, 0u) << "statm unreadable";
  StmRuntime::globalInit(Config);
  uint64_t After = residentBytes();
  StmRuntime::globalShutdown();
  EXPECT_LT(After - Before, RssDeltaBound)
      << "private lock table no longer lazily committed";
}

TEST(SharedArenaRssTest, BigTableStaysLazyInSharedMode) {
  char Name[64];
  segName("rss", Name, sizeof(Name));
  SharedArena::unlinkSegment(Name);
  StmConfig Config = sharedConfig(Name);
  Config.LockTableSizeLog2 = BigTableLog2;
  uint64_t Before = residentBytes();
  ASSERT_GT(Before, 0u) << "statm unreadable";
  StmRuntime::globalInit(Config);
  uint64_t After = residentBytes();
  StmRuntime::globalShutdown();
  SharedArena::unlinkSegment(Name);
  EXPECT_LT(After - Before, RssDeltaBound)
      << "shm lock table no longer lazily committed";
}

} // namespace
