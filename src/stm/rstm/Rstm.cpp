//===- stm/rstm/Rstm.cpp - RSTM-like baseline ------------------------------===//
//
// Part of the SwissTM reproduction (PLDI 2009). The contention managers
// live in stm/core/ContentionManager.h, instantiated in AsPolka mode.
//
//===----------------------------------------------------------------------===//

#include "stm/rstm/Rstm.h"

#include "support/Backoff.h"

using namespace stm;
using namespace stm::rstm;

static RstmGlobals GlobalState;

RstmGlobals &stm::rstm::rstmGlobals() { return GlobalState; }

void Rstm::globalInit(const StmConfig &Config) {
  GlobalState.Config = Config;
  GlobalState.Table.init(Config.LockTableSizeLog2, Config.GranularityLog2,
                         resolvedLockShards(Config));
  // The commit counter advances under the configured clock policy; the
  // greedy-ts always increments (the CM needs unique timestamps).
  GlobalState.CommitCounter.reset(Config.Clock, resolvedClockShards(Config));
  GlobalState.GreedyTs.reset();
}

void Rstm::globalShutdown() { globalTeardown(GlobalState.Table); }

RstmTx::RstmTx(unsigned Slot) : TxBase(Slot) {
  GlobalState.Descriptors[Slot].store(this, std::memory_order_release);
}

RstmTx::~RstmTx() {
  // Normally a no-op: ThreadScope runs threadShutdown() (which
  // unpublishes) before retiring, and the slot may meanwhile carry a
  // successor. The CAS keeps constructor/destructor symmetry for
  // descriptors constructed without a ThreadScope.
  RstmTx *Self = this;
  GlobalState.Descriptors[Slot].compare_exchange_strong(
      Self, nullptr, std::memory_order_acq_rel);
}

void RstmTx::onStart() {
  baseStart();
  ReadLog.clear();
  VisibleReads.clear();
  WriteLog.clear();
  Acquired.clear();
  WSetMap.clear();
  beginEpoch(GlobalState.CommitCounter);
  Cm.onStart(GlobalState.Config, GlobalState.GreedyTs, FreshStart);
}

void RstmTx::maybeValidate() {
  if (GlobalState.Config.RstmVisibleReads)
    return; // visible readers are protected by their reader bits
  uint64_t Counter = GlobalState.CommitCounter.load();
  // The commit-counter heuristic requires every committer to uniquely
  // advance the counter: only then does "counter unmoved" imply
  // "nothing committed since the last check". Under gv4 a committer can
  // adopt an already-published value and under gv5 commits never move
  // the counter at all, so both degrade to unconditional revalidation —
  // RSTM's pre-heuristic behaviour, correct but O(read set) per read.
  if (GlobalState.CommitCounter.kind() == ClockKind::Gv1 &&
      Counter == ValidTs)
    return; // commit-counter heuristic: nothing committed, still valid
  if (!revalidate())
    rollback();
  ValidTs = Counter;
  repro::ThreadRegistry::publishStart(Slot, ValidTs);
}

bool RstmTx::validateReadSet() {
  const Word Mine = reinterpret_cast<Word>(this) | 1;
  for (const ReadEntry &R : ReadLog) {
    Word Cur = R.Rec->Owner.load(std::memory_order_acquire);
    if (Cur == R.Seen) {
      // A foreign owned word names the owner, not the acquisition: the
      // old value we read is still current only while the owner is in
      // the episode we read it in.
      if (!orecIsOwned(Cur) || orecOwner(Cur) == this ||
          STM_DIAG_INJECTED(RstmEpisodeSkip) ||
          orecOwner(Cur)->Episode.load(std::memory_order_acquire) ==
              R.Episode)
        continue;
    } else if (orecIsOwned(Cur) && orecOwner(Cur) == this) {
      // Read after our own acquisition, now possibly flagged committing
      // by our own commit: our writes sit in the redo log, so memory
      // still holds the value we read.
      if (R.Seen == Mine)
        continue;
      // We acquired this stripe after reading it: valid iff nothing
      // committed in between, i.e. the pre-acquisition version matches
      // what we read.
      bool Ok = false;
      for (const AcquiredOrec &A : Acquired) {
        if (A.Rec == R.Rec) {
          Ok = A.OldValue == R.Seen;
          break;
        }
      }
      if (Ok)
        continue;
    }
    STM_DIAG_NOTE_CONFLICT(Slot, nullptr,
                           GlobalState.Table.indexOfEntry(R.Rec), Cur);
    return false;
  }
  return true;
}

Word RstmTx::load(const Word *Addr) {
  checkKill();
  ++Stats.Reads;
  Cm.noteAccess();

  // Read-after-write from the redo log.
  if (!WriteLog.empty()) {
    uint32_t Idx = WSetMap.lookup(Addr);
    if (Idx != ~0u)
      return WriteLog[Idx].Value;
  }

  Orec &Rec = GlobalState.Table.entryFor(Addr);

  if (GlobalState.Config.RstmVisibleReads) {
    uint64_t MyBit = uint64_t(1) << Slot;
    bool Held =
        (Rec.Readers.load(std::memory_order_relaxed) & MyBit) != 0;
    if (!Held) {
      while (true) {
        STM_DIAG_HOOK(Slot, Read, GlobalState.Table.indexOfEntry(&Rec),
                      MyBit);
        Rec.Readers.fetch_or(MyBit, std::memory_order_acq_rel);
        Word V = Rec.Owner.load(std::memory_order_acquire);
        if (!orecIsCommitting(V) || orecOwner(V) == this)
          break;
        // A writer is in write-back: retreat and wait for it to finish.
        Rec.Readers.fetch_and(~MyBit, std::memory_order_acq_rel);
        unsigned SpinStep = 0;
        while (orecIsCommitting(
            Rec.Owner.load(std::memory_order_acquire))) {
          STM_DIAG_HOOK(Slot, Read, GlobalState.Table.indexOfEntry(&Rec), V);
          checkKill();
          repro::spinWait(SpinStep);
        }
      }
      VisibleReads.push_back(&Rec);
    }
    // With the reader bit held, no writer can reach write-back, so the
    // memory word is stable and consistent.
    return racyLoad(Addr);
  }

  // Invisible read: consistent (orec, value, orec) snapshot; an owned
  // but not-yet-committing stripe still holds the old (committed)
  // values in memory, so it may be read -- this mirrors RSTM's reads
  // of an object's old clone. Such a read is tied to the owner's
  // current episode, sampled around the value load like a seqlock.
  Word V1 = Rec.Owner.load(std::memory_order_acquire);
  Word Value;
  uint64_t Episode;
  unsigned SpinStep = 0;
  while (true) {
    STM_DIAG_HOOK(Slot, Read, GlobalState.Table.indexOfEntry(&Rec), V1);
    RstmTx *Other =
        orecIsOwned(V1) && orecOwner(V1) != this ? orecOwner(V1) : nullptr;
    if (Other != nullptr && orecIsCommitting(V1)) {
      checkKill();
      repro::spinWait(SpinStep);
      V1 = Rec.Owner.load(std::memory_order_acquire);
      continue;
    }
    Episode =
        Other != nullptr ? Other->Episode.load(std::memory_order_acquire) : 0;
    Value = racyLoad(Addr);
    Word V2 = Rec.Owner.load(std::memory_order_acquire);
    if (V1 == V2 && (Other == nullptr ||
                     Other->Episode.load(std::memory_order_acquire) ==
                         Episode))
      break;
    V1 = V2;
  }

  ReadLog.push_back(ReadEntry{&Rec, V1, Episode});
  maybeValidate();
  return Value;
}

void RstmTx::store(Word *Addr, Word Value) {
  checkKill();
  ++Stats.Writes;
  Cm.noteAccess();

  uint32_t Idx = WSetMap.lookup(Addr);
  if (Idx != ~0u) {
    WriteLog[Idx].Value = Value;
    return;
  }
  WSetMap.insert(Addr, static_cast<uint32_t>(WriteLog.size()));
  WriteLog.push_back(WriteEntry{Addr, Value});

  if (GlobalState.Config.RstmEagerAcquire)
    acquireOrec(GlobalState.Table.entryFor(Addr));
}

void RstmTx::acquireOrec(Orec &Rec) {
  Word Mine = reinterpret_cast<Word>(this) | 1;
  unsigned Attempts = 0;
  while (true) {
    Word V = Rec.Owner.load(std::memory_order_acquire);
    STM_DIAG_HOOK(Slot, Acquire, GlobalState.Table.indexOfEntry(&Rec), V);
    if (orecIsOwned(V)) {
      if (orecOwner(V) == this)
        return; // stripe already ours (another word, or re-acquire)
      // Note the contended stripe for both parties before the CM can
      // kill either; the victim's abort stays attributed.
      RstmTx *Owner = orecOwner(V);
      STM_DIAG_NOTE_CONFLICT(Slot, nullptr,
                             GlobalState.Table.indexOfEntry(&Rec), V);
      if (Owner != nullptr)
        STM_DIAG_NOTE_CONFLICT(Owner->threadSlot(), nullptr,
                               GlobalState.Table.indexOfEntry(&Rec), V);
      if (Cm.shouldAbort(GlobalState.Config, Owner, this, Attempts, Rng))
        rollback();
      checkKill();
      repro::spinWait(Attempts);
      continue;
    }
    if (Rec.Owner.compare_exchange_weak(V, Mine, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      Acquired.push_back(AcquiredOrec{&Rec, V});
      break;
    }
  }
  resolveVisibleReaders(Rec);
  maybeValidate();
}

void RstmTx::resolveVisibleReaders(Orec &Rec) {
  if (!GlobalState.Config.RstmVisibleReads)
    return;
  uint64_t MyBit = uint64_t(1) << Slot;
  unsigned Attempts = 0;
  while (true) {
    uint64_t Bits = Rec.Readers.load(std::memory_order_acquire) & ~MyBit;
    STM_DIAG_HOOK(Slot, Acquire, GlobalState.Table.indexOfEntry(&Rec), Bits);
    if (Bits == 0)
      return;
    unsigned VictimSlot = static_cast<unsigned>(__builtin_ctzll(Bits));
    RstmTx *Victim =
        GlobalState.Descriptors[VictimSlot].load(std::memory_order_acquire);
    STM_DIAG_NOTE_CONFLICT(Slot, nullptr,
                           GlobalState.Table.indexOfEntry(&Rec), Bits);
    STM_DIAG_NOTE_CONFLICT(VictimSlot, nullptr,
                           GlobalState.Table.indexOfEntry(&Rec), Bits);
    if (Cm.shouldAbort(GlobalState.Config, Victim, this, Attempts, Rng))
      rollback();
    checkKill();
    repro::spinWait(Attempts);
  }
}

void RstmTx::commit() {
  assert(Depth > 0 && "commit outside a transaction");
  checkKill();

  uint64_t MyBit = uint64_t(1) << Slot;
  auto ClearReaderBits = [&] {
    for (Orec *Rec : VisibleReads)
      Rec->Readers.fetch_and(~MyBit, std::memory_order_acq_rel);
  };

  if (WriteLog.empty()) {
    ClearReaderBits();
    ++Stats.ReadOnlyCommits;
    baseCommit(GlobalState.CommitCounter.load());
    return;
  }

  // Lazy acquire: take every stripe now (duplicates collapse inside
  // acquireOrec via the owner==this check).
  if (!GlobalState.Config.RstmEagerAcquire)
    for (const WriteEntry &W : WriteLog)
      acquireOrec(GlobalState.Table.entryFor(W.Addr));

  // Enter write-back before minting the stamp: a reader whose begin
  // sample covers the stamp must find every stripe of ours committing,
  // or it could take an old value that the gv1 "counter unmoved"
  // heuristic would then never re-check. The regression knob restores
  // the old stamp-first order.
  const bool StampFirst = STM_DIAG_INJECTED(RstmStampBeforeFlag);
  if (!StampFirst)
    enterWriteBack();

  // Commit timestamp under the configured clock policy.
  CommitStamp Stamp = takeCommitStamp(GlobalState.CommitCounter, [this] {
    uint64_t MaxOverwritten = 0;
    for (const AcquiredOrec &A : Acquired)
      if (orecVersion(A.OldValue) > MaxOverwritten)
        MaxOverwritten = orecVersion(A.OldValue);
    return MaxOverwritten;
  });
  uint64_t Ts = Stamp.Ts;
  STM_DIAG_HOOK(Slot, CommitStamp, ::stm::diag::NoStripe, Ts);
  // The "counter still follows my valid-ts" shortcut is gv1-only here —
  // stronger than core::TimeValidation::mustValidateCommit. RSTM readers
  // may take an owned-but-not-yet-committing stripe's *old* value, so a
  // gv4 adopter sharing my valid-ts can write back a stripe I read
  // without my adoption-time validation ever seeing a lock transition;
  // only unique counter increments order such commits observably.
  if (!GlobalState.Config.RstmVisibleReads &&
      (GlobalState.CommitCounter.kind() != ClockKind::Gv1 ||
       Ts != ValidTs + 1) &&
      !revalidate())
    rollback();

  if (StampFirst)
    enterWriteBack();

  for (const WriteEntry &W : WriteLog) {
    STM_DIAG_HOOK(Slot, WriteBack, GlobalState.Table.indexFor(W.Addr), Ts);
    racyStore(W.Addr, W.Value);
  }

  endEpisode();
  Word Release = orecMake(Ts);
  for (const AcquiredOrec &A : Acquired)
    A.Rec->Owner.store(Release, std::memory_order_release);

  // Under gv5 RSTM must publish its stamp itself: the other backends'
  // readers drag a deferred counter forward on version-comparison
  // misses, but RSTM validates by equality and never calls observe —
  // with a forever-zero counter every transaction would publish
  // start-ts 0 and the timestamp-quiescence reclaimers (TxMemory /
  // RetiredPool) could never free a retired block while the thread
  // lives. One CAS-max per update commit keeps the deferred policy's
  // sharing semantics (same-ts commits still occur) and bounds memory.
  if (GlobalState.CommitCounter.kind() == ClockKind::Gv5)
    GlobalState.CommitCounter.advanceTo(Ts);

  ClearReaderBits();

  // Retire tag: a counter sample from *after* the release, not the
  // stamp. Unlike the other backends, an RSTM invisible reader may take
  // an owned-but-not-yet-committing stripe's old value — including a
  // pointer this commit is about to unlink and txFree. Under gv1 such a
  // reader began before our stamp (the stripes were flagged committing
  // first), but under gv5 the counter can outrun a writer that has not
  // yet flagged its stripes, so a reader whose published start exceeds
  // Ts can still hold the old pointer. Any transaction whose published
  // start exceeds this post-release sample either began after the
  // unlink was visible or revalidated past it (equality check fails on
  // the released orec), so the quiescence horizon is sound.
  uint64_t RetireTag = GlobalState.CommitCounter.load();
  // The PR 5 regression knob resurrects the original bug: tagging
  // retired blocks with the commit stamp instead of the post-release
  // counter sample, re-opening the reclamation window above.
  if (STM_DIAG_INJECTED(RstmStampRetireTag))
    RetireTag = Ts;
  baseCommit(RetireTag);
}

void RstmTx::enterWriteBack() {
  Word Committing = reinterpret_cast<Word>(this) | 3;
  for (const AcquiredOrec &A : Acquired)
    A.Rec->Owner.store(Committing, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const AcquiredOrec &A : Acquired)
    resolveVisibleReaders(*A.Rec);
}

void RstmTx::rollback() {
  // A new episode before the orecs go back: a reader of our old owned
  // word must not accept our next acquisition of the stripe, which may
  // follow another transaction's commit of it.
  endEpisode();
  for (const AcquiredOrec &A : Acquired)
    A.Rec->Owner.store(A.OldValue, std::memory_order_release);
  uint64_t MyBit = uint64_t(1) << Slot;
  for (Orec *Rec : VisibleReads)
    Rec->Readers.fetch_and(~MyBit, std::memory_order_acq_rel);
  baseAbort();
  Cm.onRollback(GlobalState.Config, Rng, SuccessiveAborts);
  std::longjmp(*EnvTarget, 1);
}
