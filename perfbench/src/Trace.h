//===- perfbench/src/Trace.h - tracing transaction descriptor ---*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Per-layer timing from outside the library. TracingTx wraps the
// runtime's public descriptor (stm::rt::TxHandle) and forwards onStart,
// load, store, commit, txMalloc and txFree to it, timing each call with
// the TSC. Every call is aggregated per thread into counts and tick
// sums (LayerTotals); one transaction in SampleEvery also keeps its
// full span list (SpanRecord), written out when the run ends.
//
// TracedRuntime is the facade the templated workloads are instantiated
// over in a traced run: it is StmRuntime with TracingTx as descriptor,
// so RbTree<TracedRuntime> and Bench7<TracedRuntime> run the same code
// as the untraced RbTree<StmRuntime> and Bench7<StmRuntime>.
//
// An attempt that aborts leaves by longjmp from inside a call, so its
// open span never closes; the next onStart() charges the whole attempt
// (calls, body and the backend's rollback back-off) to AbortedTicks.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "stm/Stm.h"
#include "support/Stats.h"

#include <x86intrin.h>

#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline uint64_t ticks() { return __rdtsc(); }

/// One thread's sums over every call it made through a TracingTx.
struct LayerTotals {
  uint64_t Attempts = 0;
  uint64_t Commits = 0; ///< commit() calls that returned
  uint64_t BeginTicks = 0;
  uint64_t Loads = 0;
  uint64_t LoadTicks = 0;
  uint64_t Stores = 0;
  uint64_t StoreTicks = 0;
  uint64_t CommitTicks = 0; ///< of the commits that returned
  uint64_t Allocs = 0;      ///< txMalloc + txFree calls
  uint64_t AllocTicks = 0;
  uint64_t AbortedTicks = 0; ///< whole attempts that did not commit
  uint64_t BodyTicks = 0;    ///< committed attempts, outside STM calls
  uint64_t CommittedLoads = 0;
  uint64_t CommittedStores = 0;

  LayerTotals &operator+=(const LayerTotals &O) {
    Attempts += O.Attempts;
    Commits += O.Commits;
    BeginTicks += O.BeginTicks;
    Loads += O.Loads;
    LoadTicks += O.LoadTicks;
    Stores += O.Stores;
    StoreTicks += O.StoreTicks;
    CommitTicks += O.CommitTicks;
    Allocs += O.Allocs;
    AllocTicks += O.AllocTicks;
    AbortedTicks += O.AbortedTicks;
    BodyTicks += O.BodyTicks;
    CommittedLoads += O.CommittedLoads;
    CommittedStores += O.CommittedStores;
    return *this;
  }
};

enum class SpanKind : uint8_t { Attempt, Begin, Load, Store, Commit, Alloc };

inline const char *spanName(SpanKind K) {
  switch (K) {
  case SpanKind::Attempt:
    return "attempt";
  case SpanKind::Begin:
    return "begin";
  case SpanKind::Load:
    return "load";
  case SpanKind::Store:
    return "store";
  case SpanKind::Commit:
    return "commit";
  case SpanKind::Alloc:
    return "alloc";
  }
  return "?";
}

/// One span of a sampled transaction. Tx numbers the thread's
/// transactions; Attempt (1-based) is the parent of every call span,
/// and the Attempt span's parent is the transaction itself.
struct SpanRecord {
  uint64_t Tx;
  uint64_t Start;
  uint64_t End;
  uint32_t Attempt;
  SpanKind Kind;
};

/// Transaction descriptor that times every public call it forwards.
class TracingTx {
public:
  /// One transaction in SampleEvery keeps its spans, up to MaxSpans
  /// per thread; everything else is only summed.
  static constexpr uint64_t SampleEvery = 4096;
  static constexpr std::size_t MaxSpans = 1 << 10;

  explicit TracingTx(unsigned Slot) : Inner(Slot) {}

  TracingTx(const TracingTx &) = delete;
  TracingTx &operator=(const TracingTx &) = delete;

  std::jmp_buf &jumpEnv() { return Inner.jumpEnv(); }
  bool inTransaction() const { return Inner.inTransaction(); }

  void onStart() {
    uint64_t T0 = ticks();
    if (InAttempt) {
      Totals.AbortedTicks += T0 - AttemptStart;
      span(SpanKind::Attempt, AttemptStart, T0);
    } else {
      ++TxSeq;
      Attempt = 0;
      Sampled = TxSeq % SampleEvery == 0 && Spans.size() < MaxSpans;
    }
    ++Attempt;
    ++Totals.Attempts;
    InAttempt = true;
    AttemptStart = T0;
    AttemptCallTicks = 0;
    AttemptLoads = 0;
    AttemptStores = 0;
    Inner.onStart();
    uint64_t T1 = ticks();
    Totals.BeginTicks += T1 - T0;
    AttemptCallTicks += T1 - T0;
    span(SpanKind::Begin, T0, T1);
  }

  stm::Word load(const stm::Word *Addr) {
    uint64_t T0 = ticks();
    stm::Word V = Inner.load(Addr);
    uint64_t T1 = ticks();
    ++Totals.Loads;
    ++AttemptLoads;
    Totals.LoadTicks += T1 - T0;
    AttemptCallTicks += T1 - T0;
    span(SpanKind::Load, T0, T1);
    return V;
  }

  void store(stm::Word *Addr, stm::Word Value) {
    uint64_t T0 = ticks();
    Inner.store(Addr, Value);
    uint64_t T1 = ticks();
    ++Totals.Stores;
    ++AttemptStores;
    Totals.StoreTicks += T1 - T0;
    AttemptCallTicks += T1 - T0;
    span(SpanKind::Store, T0, T1);
  }

  void commit() {
    uint64_t T0 = ticks();
    Inner.commit();
    uint64_t T1 = ticks();
    ++Totals.Commits;
    Totals.CommitTicks += T1 - T0;
    Totals.BodyTicks += (T1 - AttemptStart) - AttemptCallTicks - (T1 - T0);
    Totals.CommittedLoads += AttemptLoads;
    Totals.CommittedStores += AttemptStores;
    InAttempt = false;
    span(SpanKind::Commit, T0, T1);
    span(SpanKind::Attempt, AttemptStart, T1);
  }

  [[noreturn]] void restart() { Inner.restart(); }

  void *txMalloc(std::size_t Size) {
    uint64_t T0 = ticks();
    void *P = Inner.txMalloc(Size);
    timeAlloc(T0);
    return P;
  }

  void txFree(void *Ptr) {
    uint64_t T0 = ticks();
    Inner.txFree(Ptr);
    timeAlloc(T0);
  }

  repro::TxStats stats() const { return Inner.stats(); }
  unsigned threadSlot() const { return Inner.threadSlot(); }
  void threadShutdown() { Inner.threadShutdown(); }

  const LayerTotals &totals() const { return Totals; }
  const std::vector<SpanRecord> &spans() const { return Spans; }

private:
  void timeAlloc(uint64_t T0) {
    uint64_t T1 = ticks();
    ++Totals.Allocs;
    Totals.AllocTicks += T1 - T0;
    AttemptCallTicks += T1 - T0;
    span(SpanKind::Alloc, T0, T1);
  }

  void span(SpanKind Kind, uint64_t Start, uint64_t End) {
    if (Sampled)
      Spans.push_back({TxSeq, Start, End, Attempt, Kind});
  }

  stm::rt::TxHandle Inner;
  LayerTotals Totals;
  std::vector<SpanRecord> Spans;
  uint64_t TxSeq = 0;
  uint64_t AttemptStart = 0;
  uint64_t AttemptCallTicks = 0;
  uint64_t AttemptLoads = 0;
  uint64_t AttemptStores = 0;
  uint32_t Attempt = 0;
  bool InAttempt = false;
  bool Sampled = false;
};

/// StmRuntime with TracingTx as its descriptor.
struct TracedRuntime {
  using Tx = TracingTx;
  static const char *name() { return stm::StmRuntime::name(); }
  static void globalInit(const stm::StmConfig &Config) {
    stm::StmRuntime::globalInit(Config);
  }
  static void globalShutdown() { stm::StmRuntime::globalShutdown(); }
};

/// Layer sums of a descriptor: empty for the untraced one.
inline LayerTotals layerTotals(const stm::rt::TxHandle &) { return {}; }
inline LayerTotals layerTotals(const TracingTx &T) { return T.totals(); }

inline std::vector<SpanRecord> sampledSpans(const stm::rt::TxHandle &) {
  return {};
}
inline std::vector<SpanRecord> sampledSpans(const TracingTx &T) {
  return T.spans();
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
