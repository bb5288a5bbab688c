//===- perfbench/src/ClosedLoop.h - per-backend closed loops ----*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// The two closed-loop workloads run every backend in turn, one segment
// per backend, in several rounds. A segment initializes the runtime on
// that backend, builds the workload's data, starts the worker threads
// together, lets them warm up, and then samples the workers'
// completed-operation counters every SliceNanos. The workers then stop,
// the data is checked, and the runtime is shut down. A backend's
// commits_per_s is the median slice rate over all its rounds: the rounds
// spread every backend's slices over the whole run, so a slow phase of
// the host lands on all backends alike, and a stall that hits one slice
// does not set the median.
//
// A Work type supplies the data and one operation:
//   build()                       on the main thread, under a ThreadScope
//   op(Tx&, Xorshift&, Local&)    one operation (one or more atomically())
//   check(const Local&, stats)    the segment's failures
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLOSEDLOOP_H
#define PERFBENCH_CLOSEDLOOP_H

#include "Checks.h"
#include "Trace.h"

#include "stm/Stm.h"
#include "support/Padded.h"
#include "support/Platform.h"
#include "support/Random.h"
#include "support/Timing.h"
#include "workloads/rbtree/RbTree.h"
#include "workloads/stmbench7/Bench7.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Timing of one backend segment.
struct SegmentPlan {
  unsigned Threads = 4;
  uint64_t WarmupNanos = 300000000;
  uint64_t MeasureNanos = 900000000;
  uint64_t SliceNanos = 100000000;
  uint64_t Seed = 1;
  unsigned Round = 0;
};

/// What one backend segment measured.
struct Segment {
  stm::rt::BackendKind Backend = stm::rt::BackendKind::SwissTm;
  double SetupSeconds = 0.0; ///< runtime init + data build
  std::vector<double> Rates; ///< completed operations per second, per slice
  uint64_t Ops = 0;           ///< atomically() calls that returned
  repro::TxStats Stats;       ///< over the workers
  LayerTotals Layers;         ///< over the workers (traced runs)
  std::vector<SpanRecord> Spans;
  double TicksPerNano = 1.0;
  Failures Failed;
};

/// Seed of one worker's operation stream in one segment.
inline uint64_t streamSeed(uint64_t Seed, unsigned Backend, unsigned Round,
                           unsigned Thread) {
  return Seed * 0x9e3779b97f4a7c15ull ^
         (uint64_t{Backend} << 48 | uint64_t{Round} << 24 | Thread);
}

inline stm::StmConfig backendConfig(stm::rt::BackendKind Kind) {
  stm::StmConfig Config;
  Config.Backend = Kind;
  Config.Adaptive = false;
  return Config;
}

/// Runs one segment of \p Work on backend \p Kind. \p SetupStart is
/// when the segment's set-up began (the process start for the first).
template <typename STM, typename Work>
Segment runSegment(stm::rt::BackendKind Kind, const SegmentPlan &Plan,
                   uint64_t SetupStart) {
  using Tx = typename STM::Tx;
  using Local = typename Work::Local;

  Segment S;
  S.Backend = Kind;
  STM::globalInit(backendConfig(Kind));
  auto W = std::make_unique<Work>();
  W->build();
  S.SetupSeconds = (repro::nowNanos() - SetupStart) * 1e-9;

  const unsigned N = Plan.Threads;
  std::vector<repro::Padded<std::atomic<uint64_t>>> Done(N);
  std::vector<Local> Locals(N);
  std::vector<repro::TxStats> Stats(N);
  std::vector<LayerTotals> Layers(N);
  std::vector<std::vector<SpanRecord>> Spans(N);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<bool> Stop{false};

  auto worker = [&](unsigned Id) {
    stm::ThreadScope<STM> Scope;
    Tx &T = Scope.tx();
    repro::Xorshift Rng(
        streamSeed(Plan.Seed, static_cast<unsigned>(Kind), Plan.Round, Id));
    Local &L = Locals[Id];
    Ready.fetch_add(1);
    while (!Go.load(std::memory_order_acquire))
      repro::cpuRelax();
    uint64_t Count = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      W->op(T, Rng, L);
      Done[Id].value().store(++Count, std::memory_order_relaxed);
    }
    Stats[Id] = T.stats();
    Layers[Id] = layerTotals(T);
    Spans[Id] = sampledSpans(T);
  };

  auto completed = [&] {
    uint64_t Sum = 0;
    for (auto &D : Done)
      Sum += D.value().load(std::memory_order_relaxed);
    return Sum;
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back(worker, I);
  while (Ready.load() != N)
    std::this_thread::yield();

  const uint64_t Tsc0 = ticks();
  const uint64_t Start = repro::nowNanos();
  Go.store(true, std::memory_order_release);
  auto Clock0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_until(Clock0 +
                                std::chrono::nanoseconds(Plan.WarmupNanos));
  uint64_t PrevCount = completed();
  uint64_t PrevNanos = repro::nowNanos();
  const uint64_t Slices = std::max<uint64_t>(1, Plan.MeasureNanos / Plan.SliceNanos);
  for (uint64_t I = 1; I <= Slices; ++I) {
    std::this_thread::sleep_until(
        Clock0 + std::chrono::nanoseconds(Plan.WarmupNanos +
                                          I * Plan.SliceNanos));
    uint64_t Count = completed();
    uint64_t Now = repro::nowNanos();
    S.Rates.push_back(static_cast<double>(Count - PrevCount) * 1e9 /
                    static_cast<double>(Now - PrevNanos));
    PrevCount = Count;
    PrevNanos = Now;
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();
  const uint64_t Elapsed = repro::nowNanos() - Start;
  S.TicksPerNano =
      static_cast<double>(ticks() - Tsc0) / static_cast<double>(Elapsed);

  Local All;
  for (unsigned I = 0; I < N; ++I) {
    All += Locals[I];
    S.Stats += Stats[I];
    S.Layers += Layers[I];
    for (SpanRecord R : Spans[I]) {
      R.Tx |= uint64_t{I} << 48; // transaction ids are per thread
      S.Spans.push_back(R);
    }
  }
  S.Ops = All.Returned;
  S.Failed = W->check(All, S.Stats);
  W.reset();
  STM::globalShutdown();
  return S;
}

/// Operation tallies every worker keeps; each Work's Local extends it.
struct OpTally {
  uint64_t Returned = 0; ///< atomically() calls that returned
};

/// rbtree: the Figure 5 input. Range 16384, 20 % updates split evenly
/// between insert and remove, tree pre-filled with the even keys.
template <typename STM> struct RbTreeWork {
  using Tree = workloads::RbTree<STM>;
  using Tx = typename STM::Tx;
  static constexpr uint64_t Range = 16384;
  static constexpr unsigned UpdatePercent = 20;

  struct Local : OpTally {
    uint64_t Inserts = 0;
    uint64_t Removes = 0;
    uint64_t LookupMismatches = 0;
    Local &operator+=(const Local &O) {
      Returned += O.Returned;
      Inserts += O.Inserts;
      Removes += O.Removes;
      LookupMismatches += O.LookupMismatches;
      return *this;
    }
  };

  void build() {
    Data = std::make_unique<Tree>();
    stm::ThreadScope<STM> Scope;
    for (uint64_t K = 0; K < Range; K += 2)
      stm::atomically(Scope.tx(), [&](Tx &T) { Data->insert(T, K, K); });
    Prefill = Range / 2;
  }

  void op(Tx &T, repro::Xorshift &Rng, Local &L) {
    uint64_t Key = Rng.nextBounded(Range);
    unsigned P = static_cast<unsigned>(Rng.nextBounded(100));
    bool Hit = false;
    if (P < UpdatePercent / 2) {
      stm::atomically(T, [&](Tx &X) { Hit = Data->insert(X, Key, Key); });
      L.Inserts += Hit;
    } else if (P < UpdatePercent) {
      stm::atomically(T, [&](Tx &X) { Hit = Data->remove(X, Key); });
      L.Removes += Hit;
    } else {
      uint64_t Value = Key;
      stm::atomically(T, [&](Tx &X) {
        Value = Key;
        Hit = Data->lookup(X, Key, &Value);
      });
      L.LookupMismatches += Value != Key;
    }
    ++L.Returned;
  }

  /// Tree invariants; the final size against the pre-fill plus the
  /// inserts minus the removes that the workers saw succeed; lookups
  /// return their key; the commit-count identities.
  Failures check(const Local &L, const repro::TxStats &Stats) const {
    Failures Out;
    if (!Data->verify())
      Out.push_back("red-black tree invariants do not hold");
    uint64_t Size = Data->size();
    uint64_t Expected = Prefill + L.Inserts - L.Removes;
    if (Size != Expected)
      Out.push_back("tree holds " + std::to_string(Size) +
                    " keys, workers counted " + std::to_string(Expected));
    if (L.LookupMismatches != 0)
      Out.push_back(std::to_string(L.LookupMismatches) +
                    " lookups returned a value other than their key");
    checkCommitIdentities(Stats, L.Returned, Out);
    return Out;
  }

  std::unique_ptr<Tree> Data;
  uint64_t Prefill = 0;
};

/// stmbench7-write: STMBench7-lite at its default scale, 10 % read-only.
template <typename STM> struct GraphWork {
  using B7 = workloads::sb7::Bench7<STM>;
  using Tx = typename STM::Tx;

  struct Local : OpTally {
    Local &operator+=(const Local &O) {
      Returned += O.Returned;
      return *this;
    }
  };

  void build() { Data = std::make_unique<B7>(); }

  void op(Tx &T, repro::Xorshift &Rng, Local &L) {
    Data->runOperation(T, Rng, workloads::sb7::Workload7::WriteDominated);
    ++L.Returned;
  }

  /// Ring walks against the atomic-part index (Bench7::verify); the
  /// commit-count identities.
  Failures check(const Local &L, const repro::TxStats &Stats) const {
    Failures Out;
    if (!Data->verify())
      Out.push_back("STMBench7 rings disagree with the atomic-part index");
    checkCommitIdentities(Stats, L.Returned, Out);
    return Out;
  }

  std::unique_ptr<B7> Data;
};

} // namespace perfbench

#endif // PERFBENCH_CLOSEDLOOP_H
