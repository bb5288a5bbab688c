//===- stm/diag/Hooks.h - schedule-control hook points ----------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Named hook points in every backend's hot path (read / validate /
// acquire-lock / write-back / commit-stamp / retire, plus the
// transaction-lifecycle and backend-switch events), compiled to
// nothing unless the build defines STM_DIAG. The hooks feed two
// consumers, both in this directory:
//
//   * diag::Schedule — records a live run's interleaving to a
//     replayable trace, replays a recorded or hand-written schedule
//     deterministically, or exhaustively enumerates small schedules
//     (Schedule.h);
//   * diag::Profiler — a shadow-map conflict profiler attributing
//     every abort to the address/stripe/lock-word that caused it
//     (Profiler.h).
//
// Hook placement contract (what the replay engine relies on):
//
//   * every unbounded spin loop in a backend fires a hook each
//     iteration, so a thread parked by the scheduler inside a spin
//     cannot wedge a serialized replay — the spinning thread yields at
//     the hook and the lock holder gets scheduled;
//   * hooks fire while holding no diag-internal locks across any STM
//     operation, and only ever return normally (rollback's longjmp
//     happens after the Abort hook returns).
//
// The macros, not the functions, are the hot-path interface: with
// STM_DIAG undefined they expand to ((void)0) and their arguments are
// never evaluated, so an instrumented backend compiles to exactly the
// code it had before instrumentation. The functions themselves are
// always declared (and defined in Diag.cpp) so tests can drive the
// machinery directly in any build.
//
//===----------------------------------------------------------------------===//

#ifndef STM_DIAG_HOOKS_H
#define STM_DIAG_HOOKS_H

#include <cstdint>

namespace repro {
struct TxStats;
}

namespace stm::diag {

/// The named hook points. Read/Validate/Acquire/WriteBack/CommitStamp/
/// Retire are the per-backend hot-path points; Begin/Commit/Abort are
/// the lifecycle events fired from the shared TxBase/TimeValidation
/// code; Switch marks an adaptive-runtime backend switch.
enum class HookKind : uint8_t {
  Begin,       ///< beginEpoch: Aux = the attempt's start timestamp
  Read,        ///< before each lock/value snapshot attempt; Aux = lock word
  Validate,    ///< before a whole-read-set validation pass
  Acquire,     ///< each write-lock acquisition attempt; Aux = lock word
  WriteBack,   ///< before a stripe's write-back/release; Aux = commit ts
  CommitStamp, ///< after minting the commit timestamp; Aux = the stamp
  Retire,      ///< commit with deferred frees; Aux = the retire tag
  Commit,      ///< baseCommit; Aux = commit timestamp
  Abort,       ///< baseAbort (fires before the longjmp)
  Switch,      ///< adaptive backend switch; Aux = target backend kind
};

inline constexpr unsigned NumHookKinds = 10;

/// Stable lower-case name ("begin", "read", ...); used by the trace
/// format and the bench/profiler reports.
const char *hookKindName(HookKind Kind);

/// Parses a hookKindName back; returns false on unknown names.
bool parseHookKind(const char *Name, HookKind &Out);

/// "No stripe" sentinel for hooks not scoped to a lock-table entry.
inline constexpr uint64_t NoStripe = ~0ull;

/// Slot sentinel for events fired outside any descriptor (the switch
/// gate owner when requestSwitch is called from a non-worker thread).
inline constexpr unsigned NoSlot = 0xFFFFu;

/// Fault-injection knobs for the regression-schedule tests: each
/// resurrects a previously-fixed bug's code path so a replayed or
/// enumerated schedule can demonstrate it still catches the race.
/// All default off; only ever toggled by tests.
enum class Inject : unsigned {
  /// Commit/extension validation blindly passes (the injected bug the
  /// enumeration-mode test must catch as a lost update).
  ValidationSkip,
  /// PR 1 TinySTM/TL2 bug: a self-locked stripe skips the
  /// pre-acquisition version check during validation, letting a stale
  /// read survive an interleaved commit.
  SelfLockedSkip,
  /// PR 5 RSTM bug: the retire tag is the commit stamp instead of a
  /// post-release counter sample, re-opening the reclamation UAF
  /// window against invisible readers of an owned stripe's old value.
  RstmStampRetireTag,
  /// RSTM bug: commit mints its stamp before it flags its stripes as
  /// committing, so a reader that begins after the stamp can take an
  /// owned stripe's old value and a written-back value of another, and
  /// the gv1 "counter unmoved" heuristic never re-checks the pair.
  RstmStampBeforeFlag,
  /// RSTM bug: validation accepts a foreign owned word without checking
  /// the owner's episode, so a read of one acquisition's old value
  /// survives the owner's commit and its next acquisition of the stripe.
  RstmEpisodeSkip,
  /// orec bug class: rollback releases the orecs without unwinding the
  /// undo log, leaving an aborted writer's in-place speculative values
  /// in memory — the dirty-read exposure the undo-log-aware opacity
  /// checker must catch.
  OrecSkipUndo,
  /// Unsound fence elision (the single-fence commit's guard rail): the
  /// TL2 read path re-loads the data word *after* the post-read lock
  /// recheck, modelling the weak-memory reorder a relaxed recheck
  /// would permit without the commit-after-write-back protocol — the
  /// returned value can be torn against the validated version, the
  /// non-opaque snapshot the history checker must flag.
  Tl2UnsoundFenceElision,
  /// Multi-process kill-point: a committing SwissTM transaction parks
  /// in an endless spin right after taking its commit stamp — r-locks
  /// and w-locks held, write-back not yet begun — so the
  /// process-recovery test can SIGKILL it at the worst lazy-commit
  /// moment and assert the survivors break the locks cleanly.
  ParkAtCommitStamp,
  Count_,
};

bool injected(Inject Knob);
void setInjected(Inject Knob, bool On);

/// The hot-path entry: forwards to the active Schedule mode (record /
/// replay / enumerate); near-free when no mode is active.
void hookPoint(unsigned Slot, HookKind Kind, uint64_t Stripe, uint64_t Aux);

/// Lifecycle events: hookPoint plus the profiler's per-attempt
/// bookkeeping (Begin clears the slot's pending conflict note; Abort
/// consumes it to attribute the abort and bumps Stats.AbortsAttributed
/// when a note was armed).
void txBegin(unsigned Slot, uint64_t StartTs);
void txCommit(unsigned Slot, uint64_t CommitTs);
void txAbort(unsigned Slot, repro::TxStats &Stats);

/// Conflict attribution: called at every conflict-detection site with
/// the faulting address (null when only the stripe is known, e.g. a
/// failed read-set entry), the lock-table stripe index and the lock
/// word observed. Arms the slot's last-conflict note and feeds the
/// shadow-map profiler. \p Slot may be another transaction's slot: an
/// attacker about to kill a victim notes the contended stripe into the
/// victim's slot so the victim's kill-triggered abort stays attributed.
void noteConflict(unsigned Slot, const void *Addr, uint64_t Stripe,
                  uint64_t LockWord);

/// Bench wiring (called from bench::parseStmFlags): STM_DIAG_RECORD=1
/// starts a ring-buffer recording (STM_DIAG_RING events, default 2^16)
/// and installs SIGABRT/SIGSEGV handlers that dump the ring's tail to
/// STM_DIAG_TRACE (default "stm-diag-crash.trace") — so a heap-
/// corruption abort mid-grid always leaves the interleaving behind.
/// STM_DIAG_PROFILE=1 enables the conflict profiler.
void initFromEnv();

/// Prints the profiler's per-stripe report to stderr if the profiler
/// is enabled and saw any conflicts, then resets the profiler so each
/// measured run reports its own hot set; no-op otherwise. Benches call
/// this after each measured run.
void maybePrintProfile(const char *Label);

} // namespace stm::diag

//===----------------------------------------------------------------------===//
// Hot-path macros: the only spelling backend code uses. Arguments are
// not evaluated when STM_DIAG is off.
//===----------------------------------------------------------------------===//

#ifdef STM_DIAG

#define STM_DIAG_HOOK(Slot, Kind, Stripe, Aux)                                 \
  ::stm::diag::hookPoint((Slot), ::stm::diag::HookKind::Kind, (Stripe), (Aux))
#define STM_DIAG_TX_BEGIN(Slot, StartTs)                                       \
  ::stm::diag::txBegin((Slot), (StartTs))
#define STM_DIAG_TX_COMMIT(Slot, CommitTs)                                     \
  ::stm::diag::txCommit((Slot), (CommitTs))
#define STM_DIAG_TX_ABORT(Slot, Stats) ::stm::diag::txAbort((Slot), (Stats))
#define STM_DIAG_RETIRE(Slot, Ts, PendingFrees)                                \
  do {                                                                         \
    if ((PendingFrees) != 0)                                                   \
      ::stm::diag::hookPoint((Slot), ::stm::diag::HookKind::Retire,            \
                             ::stm::diag::NoStripe, (Ts));                     \
  } while (0)
#define STM_DIAG_NOTE_CONFLICT(Slot, Addr, Stripe, LockWord)                   \
  ::stm::diag::noteConflict((Slot), (Addr), (Stripe), (LockWord))
#define STM_DIAG_INJECTED(Knob)                                                \
  (::stm::diag::injected(::stm::diag::Inject::Knob))

#else

#define STM_DIAG_HOOK(Slot, Kind, Stripe, Aux) ((void)0)
#define STM_DIAG_TX_BEGIN(Slot, StartTs) ((void)0)
#define STM_DIAG_TX_COMMIT(Slot, CommitTs) ((void)0)
#define STM_DIAG_TX_ABORT(Slot, Stats) ((void)0)
#define STM_DIAG_RETIRE(Slot, Ts, PendingFrees) ((void)0)
#define STM_DIAG_NOTE_CONFLICT(Slot, Addr, Stripe, LockWord) ((void)0)
#define STM_DIAG_INJECTED(Knob) (false)

#endif // STM_DIAG

#endif // STM_DIAG_HOOKS_H
