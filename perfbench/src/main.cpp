//===- perfbench/src/main.cpp - the repository benchmark --------*- C++ -*-===//
//
// Part of the SwissTM reproduction (PLDI 2009).
//
// Usage:
//   perfbench --workload rbtree|stmbench7-write --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Runs one workload for about S seconds and prints, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Both
// workloads print the same metrics: with --trace 0 the end-to-end ones;
// with --trace 1 the run goes through the tracing descriptor, the
// metrics are the per-layer ones, and the sampled spans go to
// --trace-out. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "ClosedLoop.h"
#include "Median.h"
#include "Trace.h"

#include "stm/Stm.h"
#include "support/Timing.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

/// Taken during static initialization, before main: set-up time runs
/// from here.
static const uint64_t ProcessStartNanos = repro::nowNanos();

namespace {

struct Metric {
  double Value;
  const char *Unit;
};

using MetricMap = std::map<std::string, Metric>;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rbtree|stmbench7-write --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               Why);
  std::exit(2);
}

Options parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(V, nullptr, 0);
    else if (Flag == "--seconds")
      O.Seconds = static_cast<unsigned>(std::strtoul(V, nullptr, 0));
    else if (Flag == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--trace-out")
      O.TraceOut = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (O.Seconds == 0 || O.Seconds > 120)
    usage("--seconds must be in [1, 120]");
  return O;
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: ru_maxrss survives execve, so under a launcher it would
/// report the launcher's footprint at fork when that is larger.
double peakRssMiB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (F == nullptr)
    return 0.0;
  char Line[256];
  double KiB = 0.0;
  while (std::fgets(Line, sizeof(Line), F) != nullptr)
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

unsigned closedLoopThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 || N > 4 ? 4 : N;
}

double perCommit(double Sum, uint64_t Commits) {
  return Commits == 0 ? 0.0 : Sum / static_cast<double>(Commits);
}

/// Per-layer metrics of one traced backend segment.
void addLayerMetrics(const Segment &S, MetricMap &M) {
  const std::string B = stm::rt::backendName(S.Backend);
  const LayerTotals &L = S.Layers;
  auto ns = [&](uint64_t Ticks, uint64_t Count) {
    return perCommit(static_cast<double>(Ticks) / S.TicksPerNano, Count);
  };
  M["begin_ns." + B] = {ns(L.BeginTicks, L.Attempts), "ns"};
  M["load_ns." + B] = {ns(L.LoadTicks, L.Loads), "ns"};
  M["store_ns." + B] = {ns(L.StoreTicks, L.Stores), "ns"};
  M["commit_ns." + B] = {ns(L.CommitTicks, L.Commits), "ns"};
  M["aborted_ns_per_commit." + B] = {ns(L.AbortedTicks, L.Commits), "ns"};
  M["attempts_per_commit." + B] = {perCommit(L.Attempts, L.Commits), "count"};
  M["validations_per_commit." + B] = {
      perCommit(S.Stats.Validations, S.Stats.Commits), "count"};
  // TL2 never extends its snapshot and RSTM revalidates instead, so only
  // the other backends have an extension count to report.
  if (S.Backend != stm::rt::BackendKind::Tl2 &&
      S.Backend != stm::rt::BackendKind::Rstm)
    M["extensions_per_commit." + B] = {
        perCommit(S.Stats.Extensions, S.Stats.Commits), "count"};
  M["alloc_ns." + B] = {ns(L.AllocTicks, L.Allocs), "ns"};
  M["body_ns_per_commit." + B] = {ns(L.BodyTicks, L.Commits), "ns"};
  M["loads_per_commit." + B] = {perCommit(L.CommittedLoads, L.Commits),
                                "count"};
  M["stores_per_commit." + B] = {perCommit(L.CommittedStores, L.Commits),
                                 "count"};
}

/// Writes one JSON line per sampled transaction: its spans, in ns from
/// the transaction's first span.
void writeSegmentSpans(std::FILE *F, const char *Workload, const Segment &S) {
  const std::vector<SpanRecord> &V = S.Spans;
  for (std::size_t I = 0; I < V.size();) {
    std::size_t J = I;
    while (J < V.size() && V[J].Tx == V[I].Tx)
      ++J;
    uint64_t Origin = V[I].Start;
    for (std::size_t K = I; K < J; ++K)
      Origin = V[K].Start < Origin ? V[K].Start : Origin;
    std::fprintf(F,
                 "{\"workload\":\"%s\",\"backend\":\"%s\",\"tx\":%llu,"
                 "\"spans\":[",
                 Workload, stm::rt::backendName(S.Backend),
                 static_cast<unsigned long long>(V[I].Tx));
    for (std::size_t K = I; K < J; ++K)
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"parent\":\"%s\",\"attempt\":%u,"
                   "\"start_ns\":%.1f,\"end_ns\":%.1f}",
                   K == I ? "" : ",", spanName(V[K].Kind),
                   V[K].Kind == SpanKind::Attempt ? "tx" : "attempt",
                   V[K].Attempt, (V[K].Start - Origin) / S.TicksPerNano,
                   (V[K].End - Origin) / S.TicksPerNano);
    std::fprintf(F, "]}\n");
    I = J;
  }
}

struct RunOutcome {
  uint64_t Attempted = 0;
  Failures Problems;
  MetricMap Metrics;
};

/// Adds segment \p S (one round of one backend) into \p Total.
void accumulate(Segment &Total, Segment &&S) {
  Total.Backend = S.Backend;
  Total.Rates.insert(Total.Rates.end(), S.Rates.begin(), S.Rates.end());
  Total.Ops += S.Ops;
  Total.Stats += S.Stats;
  Total.Layers += S.Layers;
  Total.Spans.insert(Total.Spans.end(), S.Spans.begin(), S.Spans.end());
  Total.TicksPerNano = S.TicksPerNano;
  Total.Failed.insert(Total.Failed.end(), S.Failed.begin(), S.Failed.end());
}

template <template <typename> class Work, typename STM>
RunOutcome runClosedLoop(const Options &O, std::FILE *TraceFile) {
  RunOutcome Out;
  const auto &Kinds = stm::rt::allBackendKinds();
  const unsigned Rounds = O.Seconds >= 12 ? O.Seconds / 6 : 1;
  const uint64_t PerSegment = static_cast<uint64_t>(O.Seconds) *
                              1000000000ull / (Kinds.size() * Rounds);
  SegmentPlan Plan;
  Plan.Threads = closedLoopThreads();
  Plan.Seed = O.Seed;
  Plan.WarmupNanos = std::min<uint64_t>(300000000ull, PerSegment / 4);
  Plan.MeasureNanos = PerSegment - Plan.WarmupNanos;
  std::vector<Segment> Totals(Kinds.size());
  double Setup = 0.0;
  uint64_t SetupStart = ProcessStartNanos;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    Plan.Round = Round;
    for (std::size_t K = 0; K < Kinds.size(); ++K) {
      Segment S = runSegment<STM, Work<STM>>(Kinds[K], Plan, SetupStart);
      if (Round == 0)
        Setup += S.SetupSeconds; // each backend's first, cold set-up
      accumulate(Totals[K], std::move(S));
      SetupStart = repro::nowNanos();
    }
  }
  for (const Segment &S : Totals) {
    const std::string B = stm::rt::backendName(S.Backend);
    const double Rate = median(S.Rates);
    Out.Attempted += S.Ops;
    for (const std::string &F : S.Failed)
      Out.Problems.push_back(B + ": " + F);
    if (O.Trace) {
      addLayerMetrics(S, Out.Metrics);
      if (TraceFile != nullptr)
        writeSegmentSpans(TraceFile, O.Workload.c_str(), S);
    } else {
      Out.Metrics["commits_per_s." + B] = {Rate, "1/s"};
    }
    std::fprintf(stderr,
                 "perfbench: %s %s: %.0f commits/s (median of %zu slices), "
                 "%llu ops, abort ratio %.3f\n",
                 O.Workload.c_str(), B.c_str(), Rate, S.Rates.size(),
                 static_cast<unsigned long long>(S.Ops), S.Stats.abortRatio());
  }
  std::fprintf(stderr, "perfbench: %s: set-up %.4f s\n", O.Workload.c_str(),
               Setup);
  if (!O.Trace) {
    Out.Metrics["setup_s"] = {Setup, "s"};
    Out.Metrics["peak_rss_mib"] = {peakRssMiB(), "MiB"};
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parse(Argc, Argv);
  std::FILE *TraceFile = nullptr;
  if (O.Trace && !O.TraceOut.empty()) {
    TraceFile = std::fopen(O.TraceOut.c_str(), "w");
    if (TraceFile == nullptr)
      usage(("cannot write " + O.TraceOut).c_str());
  }

  RunOutcome Out;
  if (O.Workload == "rbtree")
    Out = O.Trace ? runClosedLoop<RbTreeWork, TracedRuntime>(O, TraceFile)
                  : runClosedLoop<RbTreeWork, stm::StmRuntime>(O, TraceFile);
  else if (O.Workload == "stmbench7-write")
    Out = O.Trace ? runClosedLoop<GraphWork, TracedRuntime>(O, TraceFile)
                  : runClosedLoop<GraphWork, stm::StmRuntime>(O, TraceFile);
  else
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (TraceFile != nullptr)
    std::fclose(TraceFile);

  for (const std::string &F : Out.Problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", F.c_str());
  // No closed-loop operation can fail: atomically() retries until commit.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {",
              Out.Problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted));
  bool First = true;
  for (const auto &[Name, M] : Out.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), M.Value, M.Unit);
    First = false;
  }
  std::printf("}}\n");
  return 0;
}
