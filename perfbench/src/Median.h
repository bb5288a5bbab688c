//===- perfbench/src/Median.h - median of a sample --------------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEDIAN_H
#define PERFBENCH_MEDIAN_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

} // namespace perfbench

#endif // PERFBENCH_MEDIAN_H
