//===- perfbench/src/Checks.h - output checks of every run ------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// The check shared by the workloads. It compares a total that the
// program computes with one that the benchmark counts itself, rather
// than trusting one answer: atomically() returns == TxStats::Commits,
// and Starts == Commits + Aborts. The tree and graph checks are
// RbTreeWork::check and GraphWork::check.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "support/Stats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Failures = std::vector<std::string>;

/// The commit-count identities every closed-loop segment must satisfy.
inline void checkCommitIdentities(const repro::TxStats &Stats,
                                  uint64_t Returned, Failures &Out) {
  if (Returned != Stats.Commits)
    Out.push_back("atomically() returned " + std::to_string(Returned) +
                  " times but TxStats counts " + std::to_string(Stats.Commits) +
                  " commits");
  if (Stats.Starts != Stats.Commits + Stats.Aborts)
    Out.push_back("TxStats Starts " + std::to_string(Stats.Starts) +
                  " != Commits + Aborts " +
                  std::to_string(Stats.Commits + Stats.Aborts));
}

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
