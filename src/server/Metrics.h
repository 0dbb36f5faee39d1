//===- server/Metrics.h - Live server observability -------------*- C++ -*-===//
///
/// \file
/// The daemon's STATS surface: monotonic counters for every request
/// route, queue and connection gauges, per-worker utilization, and
/// streaming latency histograms with O(1) record and O(buckets)
/// percentile estimation.
///
/// The histogram uses power-of-two microsecond buckets (64 of them
/// cover < 1 µs to ~2.5 hours), so p50/p95/p99 come from a fixed
/// 512-byte footprint regardless of request volume — no reservoir, no
/// sorting, stable memory under sustained traffic. Percentiles are
/// interpolated linearly within the winning bucket, giving ≤ ~50%
/// relative error (one bucket) worst case, far inside what a latency
/// gate needs.
///
/// Thread model: sharded. Each event-loop thread and each worker
/// thread records into its own MetricsShard behind that shard's
/// mutex — with one thread per shard the lock is always uncontended,
/// so the hot path costs an uncontended lock/unlock instead of a
/// global serialization point (the pre-sharding design measurably
/// stalled workers whenever STATS was being hammered). A STATS
/// request merges every shard under its own lock in turn; the result
/// is a consistent-enough snapshot (counts may straddle a request
/// that finishes mid-merge, which monotonic counters tolerate).
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SERVER_METRICS_H
#define VIRGIL_SERVER_METRICS_H

#include "server/Protocol.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace virgil {
namespace server {

/// Log2-bucketed latency histogram over microseconds.
class LatencyHistogram {
public:
  static constexpr int kBuckets = 64;

  void record(double Ms) {
    double Us = Ms * 1000.0;
    uint64_t U = Us <= 0 ? 0 : (uint64_t)Us;
    int B = 0;
    while (B < kBuckets - 1 && U >= ((uint64_t)1 << (B + 1)))
      ++B;
    ++Counts[B];
    ++N;
    SumMs += Ms;
  }

  /// Accumulates another histogram (the STATS-time shard merge).
  void merge(const LatencyHistogram &O) {
    for (int B = 0; B != kBuckets; ++B)
      Counts[B] += O.Counts[B];
    N += O.N;
    SumMs += O.SumMs;
  }

  uint64_t count() const { return N; }
  double meanMs() const { return N ? SumMs / (double)N : 0; }

  /// Estimated latency (ms) at quantile \p Q in [0,1].
  double percentileMs(double Q) const;

  /// {"count":..,"mean_ms":..,"p50_ms":..,"p95_ms":..,"p99_ms":..}
  std::string toJson() const;

private:
  uint64_t Counts[kBuckets] = {};
  uint64_t N = 0;
  double SumMs = 0;
};

struct WorkerStats {
  uint64_t Requests = 0;
  double BusyMs = 0;
};

/// One thread's slice of the metrics; every field is guarded by Mu.
/// Event-loop shards use the connection/route counters, worker shards
/// the request/latency ones — unused fields just stay zero and merge
/// as zero.
struct MetricsShard {
  std::mutex Mu;

  uint64_t ConnAccepted = 0, ConnClosed = 0;
  uint64_t ProtocolErrors = 0, Busy = 0, StatsReqs = 0, Pings = 0;
  uint64_t Enqueued = 0;
  size_t MaxQueueDepth = 0;

  uint64_t Executes = 0, Compiles = 0;
  uint64_t ByOutcome[6] = {};
  uint64_t CacheHitsServed = 0;
  uint64_t VmInstrs = 0;
  uint64_t GcMinorTotal = 0, GcMajorTotal = 0, GcPauseNsTotal = 0;

  LatencyHistogram CompileLat, ExecuteLat, TotalLat, QueueLat;
  WorkerStats Worker; ///< Meaningful on worker shards only.
};

/// One snapshot-able bundle of everything STATS reports (the cache and
/// exec-pool sections are merged in by the server, which owns those).
class ServerMetrics {
public:
  /// \p Workers worker shards and \p IoShards event-loop shards; every
  /// recording call below names its shard, so no two threads ever
  /// touch the same shard concurrently.
  explicit ServerMetrics(int Workers, int IoShards = 1);

  // -- event-loop side (Shard = event-loop index) -----------------------
  void onConnection(int Shard) { bump(Shard, &MetricsShard::ConnAccepted); }
  void onDisconnect(int Shard) { bump(Shard, &MetricsShard::ConnClosed); }
  void onProtocolError(int Shard) {
    bump(Shard, &MetricsShard::ProtocolErrors);
  }
  void onBusy(int Shard) { bump(Shard, &MetricsShard::Busy); }
  void onStatsReq(int Shard) { bump(Shard, &MetricsShard::StatsReqs); }
  void onPing(int Shard) { bump(Shard, &MetricsShard::Pings); }
  void onEnqueue(int Shard, size_t Depth) {
    MetricsShard &S = loopShard(Shard);
    std::lock_guard<std::mutex> Lock(S.Mu);
    ++S.Enqueued;
    if (Depth > S.MaxQueueDepth)
      S.MaxQueueDepth = Depth;
  }

  // -- worker side ------------------------------------------------------
  /// Records one finished compile/execute request into the worker's
  /// own shard. The GC arguments are the request VM's per-heap
  /// collection counts and total pause time (0 for compiles).
  void onRequestDone(int Worker, bool IsExecute, Outcome O, bool CacheHit,
                     double CompileMs, double ExecuteMs, double TotalMs,
                     double QueueMs, uint64_t Instrs, uint64_t GcMinor = 0,
                     uint64_t GcMajor = 0, uint64_t GcPauseNs = 0);

  /// Renders the full STATS JSON document by merging every shard.
  /// \p QueueDepth/\p QueueCap/\p ActiveConns are sampled by the
  /// caller at snapshot time, as are \p Sections: the sections the
  /// server owns ("exec", "mono", "opt", "jit", "cache"), appended as
  /// `,"name":{...}` members.
  std::string toJson(double UptimeMs, size_t QueueDepth, size_t QueueCap,
                     size_t ActiveConns, const std::string &Sections) const;

private:
  MetricsShard &loopShard(int Shard) const {
    return *LoopShards[(size_t)Shard < LoopShards.size() ? (size_t)Shard
                                                         : 0];
  }
  void bump(int Shard, uint64_t MetricsShard::*Counter) {
    MetricsShard &S = loopShard(Shard);
    std::lock_guard<std::mutex> Lock(S.Mu);
    ++(S.*Counter);
  }

  /// unique_ptr: MetricsShard holds a mutex, so the vectors must never
  /// relocate their elements (and never do — sized at construction).
  std::vector<std::unique_ptr<MetricsShard>> LoopShards;
  std::vector<std::unique_ptr<MetricsShard>> WorkerShards;
};

} // namespace server
} // namespace virgil

#endif // VIRGIL_SERVER_METRICS_H
