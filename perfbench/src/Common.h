//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// What every workload shares: the run context parsed from the command
/// line, the result a workload hands back (metrics by name with units,
/// op counts), statistics helpers, the seeded RNG, independent
/// reference values for checking program results, and the in-memory
/// span log of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "core/Compiler.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// Command-line context every workload receives.
struct RunContext {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root;    ///< repository checkout (examples/ live here)
  std::string WorkDir; ///< working files, inside the checkout's build dir
  std::string Virgild; ///< the shipped daemon binary
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run produced.
struct WorkloadResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Counts that must repeat exactly for one seed (drift detector).
  std::map<std::string, uint64_t> ExactCounts;
  /// Set when the run cannot be scored (its numbers are not reported).
  std::string Invalid;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void exact(const std::string &Name, uint64_t Value) {
    ExactCounts[Name] = Value;
  }
  /// Records one failed op with a reason on stderr.
  void fail(const std::string &What);
  /// Merges \p O's metrics (existing names win) and op counts.
  void absorb(const WorkloadResult &O);
};

//===-- Statistics ------------------------------------------------------===//

/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double geomean(const std::vector<double> &V);
/// Share of each op's timed samples that is scored.
constexpr double kScoredShare = 0.05;
/// Indices of the fastest kScoredShare (at least one) of \p Ms, in
/// order. Every op is timed many times and only its fastest 5% is
/// scored: the development host has stretches of seconds to minutes in
/// which every CPU runs up to 2x slower, and that noise only ever adds
/// time, so a low quantile is the steadier estimate of the op's cost.
std::vector<size_t> fastestShare(const std::vector<double> &Ms);
/// The values at fastestShare(\p Ms).
std::vector<double> fastestOf(const std::vector<double> &Ms);
/// Median over consecutive \p WindowNs windows (from the first sample)
/// of each window's quantile \p Q; samples are (time ns, value).
double windowedQuantile(std::vector<std::pair<int64_t, double>> Samples,
                        int64_t WindowNs, double Q);
double sum(const std::vector<double> &V);
/// Untimed warm-up before each timed window, in seconds.
constexpr double kWarmupSeconds = 1;

//===-- Seeded input generation -----------------------------------------===//

/// Deterministic per-seed randomness; \p Stream separates independent
/// draws (workload inputs vs request order) under one seed.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream) : E(Seed * 0x9E3779B97F4A7C15ull ^ Stream) {}
  /// Uniform integer in [Lo, Hi].
  int range(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(E);
  }
  uint32_t u32() { return (uint32_t)E(); }
  std::mt19937_64 &engine() { return E; }

private:
  std::mt19937_64 E;
};

/// One generated or hand-written input program.
struct Source {
  std::string Name;
  std::string Text;
};

/// Reads a file under the checkout; empty optional when missing.
std::optional<std::string> readFile(const std::string &Path);

/// Size-parameterized sources for examples/v3/nqueens.v3: the board
/// size is rewritten to \p N and the hand-known solution count is the
/// reference. Empty when the file or its `var n = 6;` line is missing.
std::optional<Source> nqueensSource(const std::string &Root, int N);
/// The number of N-queens solutions (hand-known table, N in 4..10).
int nqueensSolutions(int N);

//===-- Reference values ------------------------------------------------===//

/// What a correct run produces, from an independent source: the
/// corpus' stated results, the hand-known nqueens count, or the
/// paper's polymorphic interpreter. Never the compiled path itself.
struct Expectation {
  bool HasResult = false;
  int64_t Result = 0;
  std::string Output;
};

/// Interprets \p Src on the polymorphic IR (Program::interpret). Null
/// when the program does not compile or traps.
std::optional<Expectation> interpretReference(const Source &Src,
                                              std::string *Err);

/// Compares a VM run to its reference; empty string when it matches.
std::string checkRun(const virgil::VmResult &R, const Expectation &E);

//===-- Process and host ------------------------------------------------===//

/// Peak resident set (VmHWM) of \p Pid (0 = this process), in MiB.
double peakRssMb(int Pid = 0);

/// One JSON object describing the host and build (nproc, CPU model,
/// compiler and flags, build type, JIT availability, VM dispatch,
/// commit when known, and the digest of the sources).
std::string hostRecordJson(const std::string &Commit,
                           const std::string &Digest);

//===-- Tracing ---------------------------------------------------------===//

/// In-memory span log of the traced run. Each span has a name, start,
/// end and parent; spans of one program, kernel run or request share
/// an id. Written out once, when the run ends.
class SpanLog {
public:
  /// A fresh id for one program, kernel run or request. Ids are unique
  /// across every workload that writes into this log.
  uint64_t nextId() { return ++LastId; }
  /// Opens a span under \p Parent (-1 for a root); returns its index.
  int begin(uint64_t Id, const char *Name, int Parent = -1);
  void end(int Span);
  /// Adds a closed span with explicit bounds (durations reported by
  /// the server, placed inside their request's round trip).
  int add(uint64_t Id, const char *Name, int Parent, int64_t StartNs,
          int64_t EndNs);
  double durationMs(int Span) const {
    return (double)(Spans[Span].EndNs - Spans[Span].StartNs) / 1e6;
  }
  bool writeJsonl(const std::string &Path) const;
  size_t size() const { return Spans.size(); }

  static int64_t nowNs();

private:
  struct Span {
    uint64_t Id;
    const char *Name;
    int Parent;
    int64_t StartNs;
    int64_t EndNs;
  };
  /// A deque, so appending never relocates earlier spans (a vector's
  /// regrowth would land as untraced time inside a parent span).
  std::deque<Span> Spans;
  uint64_t LastId = 0;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &L, uint64_t Id, const char *Name, int Parent = -1)
      : L(L), Index(L.begin(Id, Name, Parent)) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int index() const { return Index; }
  /// Closes the span (once); returns its duration in ms.
  double finish() {
    if (!Done)
      L.end(Index);
    Done = true;
    return L.durationMs(Index);
  }

private:
  SpanLog &L;
  int Index;
  bool Done = false;
};

//===-- Workloads -------------------------------------------------------===//

WorkloadResult runCompileCold(const RunContext &Ctx, SpanLog *Trace);
WorkloadResult runRunHot(const RunContext &Ctx, SpanLog *Trace);
WorkloadResult runServeMixed(const RunContext &Ctx, SpanLog *Trace);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
