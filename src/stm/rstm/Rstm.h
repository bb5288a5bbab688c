//===- stm/rstm/Rstm.h - RSTM-like baseline ---------------------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// RSTM (Marathe et al., TRANSACT 2006; version 3) is the paper's
// obstruction-free, object-based baseline. This reimplementation keeps
// the properties the paper's comparisons rest on while using the shared
// stripe-based word API (the paper itself notes RSTM's object API kept
// it out of STAMP; our port removes that gate and we note it in
// EXPERIMENTS.md):
//
//  * four algorithm variants: eager/lazy acquire x visible/invisible
//    reads (StmConfig::RstmEagerAcquire / RstmVisibleReads);
//  * invisible reads validated with the *global commit counter
//    heuristic*: whenever the counter moved since the last check the
//    whole read set is re-validated, so long transactions pay O(read
//    set) repeatedly -- the overhead visible throughout Section 4.
//    The heuristic requires every committer to uniquely advance the
//    counter, so it only applies under the gv1 clock policy; gv4/gv5
//    (StmConfig::Clock) fall back to unconditional revalidation;
//  * visible reads registered in a per-stripe reader bitmap that
//    writers must clear through the contention manager;
//  * pluggable contention managers from core::ContentionManager in
//    AsPolka mode (Polka — RSTM's usual default — Greedy, Serializer
//    and Timid, selected by StmConfig::Cm);
//  * per-stripe ownership records; owners can be aborted (killed) by
//    higher-priority attackers, emulating RSTM's status-word stealing.
//
// Ownership record encoding (Owner word, two tag bits):
//   version << 2             free
//   descriptor | 1           owned (memory still holds the old values)
//   descriptor | 3           owner committing (write-back in progress)
//
// An owned word names the owner, not one acquisition: a descriptor
// that commits (or rolls back) and takes the stripe again writes the
// very same descriptor|1. An invisible reader that takes an owned
// stripe's old value therefore also records the owner's *episode*, a
// per-descriptor counter the owner bumps on every release (after
// write-back in commit, and in rollback) before its release stores.
// The reader samples it before and after the value load, seqlock
// style, and validation accepts the entry only while the owner is
// still in that episode — a later acquisition by the same owner,
// whether after its own commit or after a third transaction committed
// the stripe in between, fails validation.
//
// Commit flags every owned stripe as committing *before* it mints its
// stamp, so a transaction whose begin sample already covers the stamp
// can never take one of the committer's old values; the gv1
// "counter unmoved, still valid" heuristic relies on that.
//
//
// INTERNAL HEADER — deprecated as an application include. The public
// surface is stm/Stm.h (stm::Runtime + stm::atomically); select this
// backend at runtime via StmConfig::Backend / STM_BACKEND instead of
// including it directly. Direct includes outside src/stm/ and tests
// of backend internals are scheduled for removal.
//===----------------------------------------------------------------------===//

#ifndef STM_RSTM_RSTM_H
#define STM_RSTM_RSTM_H

#include "stm/Config.h"
#include "stm/RacyAccess.h"
#include "stm/TxBase.h"
#include "stm/WriteMap.h"
#include "stm/core/Clock.h"
#include "stm/core/ContentionManager.h"
#include "stm/core/LockTable.h"
#include "stm/core/Validation.h"
#include "stm/core/VersionedLock.h"
#include "support/Platform.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace stm::rstm {

class RstmTx;

/// Per-stripe ownership record plus visible-reader bitmap.
struct Orec {
  std::atomic<Word> Owner{0};
  std::atomic<uint64_t> Readers{0};
};

/// Orec encoding: two tag bits (see core/VersionedLock.h).
using OrecOps = core::VersionedLockOps<2>;
inline bool orecIsOwned(Word V) { return OrecOps::isLocked(V); }
inline bool orecIsCommitting(Word V) { return (V & 2) != 0; }
inline uint64_t orecVersion(Word V) { return OrecOps::version(V); }
inline Word orecMake(uint64_t Version) { return OrecOps::make(Version); }
inline RstmTx *orecOwner(Word V) { return OrecOps::pointer<RstmTx>(V); }

struct RstmGlobals {
  core::LockTable<Orec> Table;
  GlobalClock CommitCounter; ///< bumped by every update commit
  GlobalClock GreedyTs;
  StmConfig Config;
  /// Registry slot -> descriptor, for reader-bit resolution.
  std::atomic<RstmTx *> Descriptors[repro::MaxThreads] = {};
};

RstmGlobals &rstmGlobals();

/// RSTM-like transaction descriptor.
class RstmTx : public TxBase, public core::TimeValidation<RstmTx> {
public:
  explicit RstmTx(unsigned Slot);
  ~RstmTx();

  void onStart();
  Word load(const Word *Addr);
  void store(Word *Addr, Word Value);
  void commit();
  [[noreturn]] void restart() { rollback(); }

  /// Shadows TxBase::threadShutdown: unpublishes this descriptor from
  /// the slot table before it is retired, so no new reader can pick the
  /// pointer up while it waits out its grace period in limbo. CAS
  /// because a recycled slot may already publish a successor descriptor.
  void threadShutdown() {
    RstmTx *Self = this;
    rstmGlobals().Descriptors[Slot].compare_exchange_strong(
        Self, nullptr, std::memory_order_acq_rel);
    baseShutdown();
  }

  /// Contention-manager state, readable by concurrent attackers.
  const core::ContentionManager<core::TwoPhaseMode::AsPolka> &cm() const {
    return Cm;
  }

  /// Polka priority: number of accesses in the current attempt.
  uint64_t polkaPriority() const { return Cm.priority(); }
  uint64_t cmTimestamp() const { return Cm.timestamp(); }

private:
  friend class core::TimeValidation<RstmTx>;

  struct WriteEntry {
    Word *Addr;
    Word Value;
  };
  struct AcquiredOrec {
    Orec *Rec;
    Word OldValue; ///< orec word before acquisition (free, version<<2)
  };
  struct ReadEntry {
    Orec *Rec;
    Word Seen;
    /// The owner's episode when Seen is another descriptor's owned
    /// word (the read took the old value); 0 otherwise.
    uint64_t Episode;
  };

  [[noreturn]] void rollback();
  void checkKill() {
    if (killRequested())
      rollback();
  }

  /// Re-validates the read set iff the global commit counter moved
  /// since the last check (RSTM's heuristic). Aborts on failure.
  void maybeValidate();
  bool validateReadSet();

  /// Acquires \p Rec for writing, resolving owner and visible-reader
  /// conflicts through the contention manager. Aborts (longjmps) if the
  /// manager rules against us.
  void acquireOrec(Orec &Rec);

  /// Waits until all visible readers other than us have left \p Rec,
  /// killing them per the contention manager.
  void resolveVisibleReaders(Orec &Rec);

  /// Flags every acquired stripe as committing (write-back begins) and
  /// waits out the visible readers that still depend on the old values.
  void enterWriteBack();

  /// Ends the current acquisition episode: called once write-back is
  /// done (or on rollback), before the orecs are released. Only the
  /// owner writes Episode, so a plain store suffices.
  void endEpisode() {
    Episode.store(Episode.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
  }

  core::ContentionManager<core::TwoPhaseMode::AsPolka> Cm;

  /// Acquisition episode, read by invisible readers of our owned
  /// stripes (see the orec encoding above).
  std::atomic<uint64_t> Episode{0};

  std::vector<ReadEntry> ReadLog;
  std::vector<Orec *> VisibleReads;
  std::vector<WriteEntry> WriteLog;
  std::vector<AcquiredOrec> Acquired;
  WriteMap WSetMap;
};

/// STM facade.
class Rstm {
public:
  using Tx = RstmTx;

  static constexpr const char *name() { return "rstm"; }

  static void globalInit(const StmConfig &Config);
  static void globalShutdown();
  static RstmGlobals &globals() { return rstmGlobals(); }
};

} // namespace stm::rstm

namespace stm {
using Rstm = rstm::Rstm;
} // namespace stm

#endif // STM_RSTM_RSTM_H
