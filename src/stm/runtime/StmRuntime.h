//===- stm/runtime/StmRuntime.h - type-erased STM runtime -------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// One runtime, many workloads: the paper's data (Figures 2-13) show no
// single conflict-detection/CM configuration winning everywhere, and
// SwissTM itself escalates its contention manager in two phases. This
// layer generalizes that idea to whole-backend selection. StmRuntime is
// a drop-in model of the templated facade concept (Tx, globalInit,
// globalShutdown, name) whose descriptor — TxHandle — dispatches
// load/store/commit through a per-backend function-pointer table
// (stm/runtime/BackendOps.h), so the backend is chosen by
// StmConfig::Backend / STM_BACKEND at init instead of by a template
// parameter at compile time.
//
// AdaptiveRuntime (StmConfig::Adaptive / STM_ADAPTIVE=1) adds the mode
// switcher: committing threads feed windowed TxStats (abort rate,
// read/write mix) into a global window; when a window's abort rate
// crosses the escalation threshold the leading thread switches every
// thread to SwissTM (eager w/w + two-phase CM), and when contention
// subsides it de-escalates to a cheaper fixed-policy backend. Switches
// happen at full quiescence points reusing the EpochManager's grace
// periods:
//
//   1. the switcher closes the start gate (TargetGen != CurrentGen);
//      new attempts spin in TxHandle::onStart before pinning an epoch;
//   2. it waits until every slot is epoch-quiescent
//      (EpochManager::minPinnedEpoch() == ~0), i.e. all in-flight
//      transactions have committed or rolled back — all transactional
//      memory now holds committed values only;
//   3. it installs the new backend and reopens the gate
//      (CurrentGen = TargetGen); each thread rebinds its TxHandle to
//      the new backend's descriptor on its next attempt.
//
// An attempt that pins concurrently with the switcher's quiescence scan
// rechecks the gate *after* the pin (the pin's seq_cst fence pairs with
// the scan's, see EpochManager.h) and restarts through the ordinary
// abort path before its first transactional access, so no transaction
// ever runs on the outgoing backend concurrently with one on the
// incoming backend.
//
//===----------------------------------------------------------------------===//

#ifndef STM_RUNTIME_STMRUNTIME_H
#define STM_RUNTIME_STMRUNTIME_H

#include "stm/Config.h"
#include "stm/runtime/Backend.h"
#include "stm/runtime/BackendOps.h"
#include "stm/Word.h"
#include "support/Stats.h"

#include <atomic>
#include <csetjmp>
#include <cstddef>
#include <cstdint>

namespace stm::rt {

/// Global state of the runtime layer. The per-backend algorithm state
/// stays in each backend's own globals; this only holds the selection
/// and switch machinery.
struct RuntimeGlobals {
  StmConfig Config;

  /// Which backends globalInit has initialized (all of them in adaptive
  /// mode, just the selected one otherwise).
  bool BackendLive[NumBackends] = {};

  /// Backend of the current generation; reads are ordered by CurrentGen.
  std::atomic<unsigned> ActiveKind{0};

  /// Switch protocol: the gate is open while TargetGen == CurrentGen.
  /// The switcher bumps TargetGen first (closing the gate), drains, and
  /// publishes CurrentGen last (reopening it on the new backend).
  std::atomic<uint32_t> CurrentGen{0};
  std::atomic<uint32_t> TargetGen{0};

  /// True when the switching machinery (gate checks, commit-side window
  /// accounting) is active; false pins the fixed-backend fast path.
  std::atomic<bool> Dynamic{false};

  /// Windowed commit-side statistics feeding the adaptive policy.
  std::atomic<uint64_t> WindowCommits{0};
  std::atomic<uint64_t> WindowAborts{0};
  std::atomic<uint64_t> WindowReads{0};
  std::atomic<uint64_t> WindowWrites{0};

  /// Total backend switches since globalInit (monotone).
  std::atomic<uint64_t> SwitchCount{0};
};

RuntimeGlobals &runtimeGlobals();

/// The registered dispatch table of \p Kind.
const BackendOps &backendOps(BackendKind Kind);

/// Type-erased transaction descriptor: one per thread (created by
/// ThreadScope<StmRuntime>), wrapping one lazily created backend
/// descriptor per backend. The wrapped descriptors longjmp to this
/// handle's jmp_buf (TxBase::redirectJumpEnv), so the boundary stays
/// armed across a backend switch between retries.
class TxHandle {
public:
  explicit TxHandle(unsigned Slot);
  ~TxHandle() = default;

  TxHandle(const TxHandle &) = delete;
  TxHandle &operator=(const TxHandle &) = delete;

  std::jmp_buf &jumpEnv() { return Env; }

  bool inTransaction() const { return CurOps->InTransaction(Cur); }

  /// Begins (or restarts) an attempt. Fixed mode is one indirect call;
  /// dynamic mode adds the switch-gate protocol (see file comment).
  void onStart() {
    if (!runtimeGlobals().Dynamic.load(std::memory_order_relaxed)) {
      CurOps->OnStart(Cur);
      return;
    }
    startDynamic();
  }

  Word load(const Word *Addr) { return CurOps->Load(Cur, Addr); }
  void store(Word *Addr, Word Value) { CurOps->Store(Cur, Addr, Value); }

  void commit() {
    CurOps->Commit(Cur);
    if (runtimeGlobals().Dynamic.load(std::memory_order_relaxed))
      afterCommitDynamic();
  }

  [[noreturn]] void restart() {
    CurOps->Restart(Cur); // every backend's Restart longjmps
    __builtin_unreachable();
  }

  /// Batch admission (see workloads/server): pins this slot's
  /// reclamation epoch once for a run of back-to-back transactions, so
  /// each transaction inside the batch skips the per-attempt pin (one
  /// seq_cst fence) and the per-commit unpin/publishIdle stores. Must be
  /// called outside any transaction; batches should stay short (tens of
  /// transactions) because the pinned epoch blocks limbo reclamation for
  /// the batch's whole duration. In dynamic (adaptive) mode this is a
  /// no-op — a batch-held pin would deadlock against the switch drain,
  /// which waits for every slot to go epoch-quiescent while the batch
  /// owner waits for the gate to reopen. Returns true when the batch
  /// pin was actually taken. Prefer the TxBatch RAII guard.
  bool batchBegin();

  /// Ends a batch begun by batchBegin: clears the descriptor flag,
  /// publishes idle and unpins the epoch. No-op if batchBegin declined.
  void batchEnd();

  void *txMalloc(std::size_t Size) { return CurOps->TxMalloc(Cur, Size); }
  void txFree(void *Ptr) { CurOps->TxFree(Cur, Ptr); }

  /// Counters aggregated over every backend descriptor this handle has
  /// used, plus the handle's own ModeSwitches. By value: the aggregate
  /// has no single owning backend.
  repro::TxStats stats() const;

  unsigned threadSlot() const { return Slot; }

  /// Backend this handle is currently bound to.
  BackendKind boundBackend() const { return Kind; }

  /// Thread-exit hook (see ThreadScope): flushes window deltas pending
  /// since the last FlushInterval boundary (so the adaptive stats stay
  /// exact under thread churn), then retires every wrapped backend
  /// descriptor to the EpochManager; the handle itself is retired by
  /// the caller.
  void threadShutdown();

private:
  void startDynamic();
  void afterCommitDynamic();
  void flushWindow();
  void evaluatePolicy();
  void rebind(BackendKind NewKind);

  std::jmp_buf Env;
  void *Cur = nullptr;             ///< bound backend descriptor
  const BackendOps *CurOps = nullptr;
  BackendKind Kind = BackendKind::SwissTm;
  uint32_t BoundGen = 0;           ///< generation Kind was read at
  unsigned Slot;

  void *Inner[NumBackends] = {};   ///< lazily created, retired at exit

  /// Window accounting (dynamic mode): deltas since the last flush,
  /// batched to keep atomics off the per-commit path. The flush fires
  /// on whichever cadence fills first — commits, or attempts for the
  /// abort-storm regime where commits stall.
  repro::TxStats Flushed;          ///< aggregate stats at last flush
  unsigned CommitsSinceFlush = 0;
  unsigned AttemptsSinceFlush = 0;
  uint64_t HandleModeSwitches = 0;
  uint64_t HandleBatches = 0;      ///< batches entered (TxStats::Batches)
  bool BatchActive = false;        ///< batchBegin took the epoch pin

  /// Events between window flushes; a divisor of typical windows.
  static constexpr unsigned FlushInterval = 32;
};

/// RAII batch-admission guard over TxHandle::batchBegin/batchEnd. The
/// serving workloads open one TxBatch per dequeued request batch:
///
///   {
///     stm::rt::TxBatch Batch(Tx);
///     for (const Request &R : Requests)
///       stm::atomically(Tx, [&](auto &T) { serve(T, R); });
///   } // epoch unpinned here
class TxBatch {
public:
  explicit TxBatch(TxHandle &Handle) : Handle(Handle) {
    Handle.batchBegin();
  }
  ~TxBatch() { Handle.batchEnd(); }

  TxBatch(const TxBatch &) = delete;
  TxBatch &operator=(const TxBatch &) = delete;

private:
  TxHandle &Handle;
};

/// The runtime STM facade: models the same concept as the templated
/// backends, so every workload, bench driver and test harness written
/// against that concept runs unchanged with the backend picked at
/// globalInit time (StmConfig::Backend, or STM_BACKEND via
/// configFromEnv).
class StmRuntime {
public:
  using Tx = TxHandle;

  /// Name of the *configured* backend (stable across globalShutdown, so
  /// reports emitted after teardown still label rows correctly).
  static const char *name();

  static void globalInit(const StmConfig &Config);
  static void globalShutdown();

  /// Backend currently executing transactions.
  static BackendKind activeBackend();

  /// Total adaptive/manual switches since globalInit.
  static uint64_t switchCount();

  /// Drains all in-flight transactions at a quiescence point and
  /// switches every thread to \p Target. Only legal in dynamic mode
  /// (StmConfig::Adaptive); returns false if the runtime is fixed, the
  /// target equals the active backend, or a concurrent switch won the
  /// gate. Must be called outside any transaction.
  static bool requestSwitch(BackendKind Target);
};

/// The mode-switching facade: StmRuntime with the adaptive policy
/// forced on. Exists so type lists and bench grids can name adaptivity
/// as one more contender next to the fixed backends.
class AdaptiveRuntime {
public:
  using Tx = TxHandle;

  static const char *name() { return "adaptive"; }

  static void globalInit(StmConfig Config) {
    Config.Adaptive = true;
    StmRuntime::globalInit(Config);
  }
  static void globalShutdown() { StmRuntime::globalShutdown(); }
};

} // namespace stm::rt

namespace stm {
using rt::AdaptiveRuntime;
using rt::StmRuntime;
} // namespace stm

#endif // STM_RUNTIME_STMRUNTIME_H
