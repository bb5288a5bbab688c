//===- perfbench/tests/checks_test.cpp - the checks catch faults ------------===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Shows that each output check of the benchmark passes an honest run and
// reports a corrupted one as incorrect:
//   rbtree          a tree with one insert the workers did not count, a
//                   lookup that returned a foreign value, a commit count
//                   that disagrees with atomically();
//   stmbench7-write a ring broken by a lost transactional store (LossyTx
//                   drops one store of a StructuralAdd).
//
// Run: build/perfbench/perfbench_checks_test (exit 0 = every case held).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "ClosedLoop.h"

#include "stm/Stm.h"

#include <cstdio>
#include <string>

using namespace perfbench;

namespace {

int Failed = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s: %s\n", Cond ? "ok  " : "FAIL", What);
  Failed += !Cond;
}

/// Descriptor that forwards to TxHandle but, while armed, silently drops
/// the DropStore-th store (0-based) of each attempt: a lost write.
class LossyTx {
public:
  static inline int DropStore = -1;

  explicit LossyTx(unsigned Slot) : Inner(Slot) {}
  LossyTx(const LossyTx &) = delete;
  LossyTx &operator=(const LossyTx &) = delete;

  std::jmp_buf &jumpEnv() { return Inner.jumpEnv(); }
  bool inTransaction() const { return Inner.inTransaction(); }
  void onStart() {
    Stores = 0;
    Inner.onStart();
  }
  stm::Word load(const stm::Word *Addr) { return Inner.load(Addr); }
  void store(stm::Word *Addr, stm::Word Value) {
    if (Stores++ != DropStore)
      Inner.store(Addr, Value);
  }
  void commit() { Inner.commit(); }
  [[noreturn]] void restart() { Inner.restart(); }
  void *txMalloc(std::size_t Size) { return Inner.txMalloc(Size); }
  void txFree(void *Ptr) { Inner.txFree(Ptr); }
  repro::TxStats stats() const { return Inner.stats(); }
  void threadShutdown() { Inner.threadShutdown(); }

private:
  stm::rt::TxHandle Inner;
  int Stores = 0;
};

struct LossyRuntime {
  using Tx = LossyTx;
};

void treeChecks() {
  stm::StmRuntime::globalInit(backendConfig(stm::rt::BackendKind::SwissTm));
  {
    RbTreeWork<stm::StmRuntime> W;
    W.build();
    stm::ThreadScope<stm::StmRuntime> Scope;
    auto &T = Scope.tx();
    repro::Xorshift Rng(7);
    RbTreeWork<stm::StmRuntime>::Local L;
    for (int I = 0; I < 5000; ++I)
      W.op(T, Rng, L);
    expect(W.check(L, T.stats()).empty(), "rbtree: honest run passes");

    auto Bad = L;
    Bad.LookupMismatches = 1;
    expect(!W.check(Bad, T.stats()).empty(),
           "rbtree: a lookup returning a foreign value fails");
    Bad = L;
    ++Bad.Returned;
    expect(!W.check(Bad, T.stats()).empty(),
           "rbtree: atomically() count != TxStats::Commits fails");

    // One more key, inserted behind the workers' counters.
    uint64_t Key = 1;
    bool Inserted = false;
    while (!Inserted) {
      stm::atomically(T, [&](auto &X) { Inserted = W.Data->insert(X, Key, Key); });
      Key += 2;
    }
    ++L.Returned;
    expect(!W.check(L, T.stats()).empty(), "rbtree: a miscounted tree fails");
  }
  stm::StmRuntime::globalShutdown();
}

void graphChecks() {
  stm::StmRuntime::globalInit(backendConfig(stm::rt::BackendKind::SwissTm));
  {
    GraphWork<LossyRuntime> W;
    W.build();
    stm::ThreadScope<LossyRuntime> Scope;
    LossyTx &T = Scope.tx();
    repro::Xorshift Rng(11);
    GraphWork<LossyRuntime>::Local L;
    for (int I = 0; I < 300; ++I)
      W.op(T, Rng, L);
    expect(W.check(L, T.stats()).empty(), "stmbench7: honest run passes");

    // StructuralAdd's tenth store links NextP->Prev back to the new part.
    LossyTx::DropStore = 9;
    W.Data->runOp(T, Rng, workloads::sb7::Op7::StructuralAdd);
    LossyTx::DropStore = -1;
    ++L.Returned;
    expect(!W.check(L, T.stats()).empty(),
           "stmbench7: a ring broken by a lost store fails");
  }
  stm::StmRuntime::globalShutdown();
}

} // namespace

int main() {
  treeChecks();
  graphChecks();
  std::printf("%d failed\n", Failed);
  return Failed == 0 ? 0 : 1;
}
