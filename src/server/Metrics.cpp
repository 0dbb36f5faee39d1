//===- server/Metrics.cpp -------------------------------------------------===//

#include "server/Metrics.h"

#include <cstdio>

using namespace virgil::server;

double LatencyHistogram::percentileMs(double Q) const {
  if (N == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  // Rank of the target sample (1-based), then walk buckets until the
  // cumulative count covers it.
  uint64_t Rank = (uint64_t)(Q * (double)N);
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (int B = 0; B != kBuckets; ++B) {
    if (Counts[B] == 0)
      continue;
    if (Seen + Counts[B] >= Rank) {
      // Interpolate within [2^B, 2^(B+1)) µs by the rank's position
      // inside this bucket.
      double Lo = B == 0 ? 0.0 : (double)((uint64_t)1 << B);
      double Hi = (double)((uint64_t)1 << (B + 1));
      double Frac = (double)(Rank - Seen) / (double)Counts[B];
      return (Lo + Frac * (Hi - Lo)) / 1000.0;
    }
    Seen += Counts[B];
  }
  return (double)((uint64_t)1 << (kBuckets - 1)) / 1000.0;
}

std::string LatencyHistogram::toJson() const {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "{\"count\":%llu,\"mean_ms\":%.3f,\"p50_ms\":%.3f,"
                "\"p95_ms\":%.3f,\"p99_ms\":%.3f}",
                (unsigned long long)N, meanMs(), percentileMs(0.50),
                percentileMs(0.95), percentileMs(0.99));
  return Buf;
}

ServerMetrics::ServerMetrics(int Workers, int IoShards) {
  if (IoShards < 1)
    IoShards = 1;
  if (Workers < 1)
    Workers = 1;
  LoopShards.reserve((size_t)IoShards);
  for (int I = 0; I != IoShards; ++I)
    LoopShards.push_back(std::make_unique<MetricsShard>());
  WorkerShards.reserve((size_t)Workers);
  for (int I = 0; I != Workers; ++I)
    WorkerShards.push_back(std::make_unique<MetricsShard>());
}

void ServerMetrics::onRequestDone(int Worker, bool IsExecute, Outcome O,
                                  bool CacheHit, double CompileMs,
                                  double ExecuteMs, double TotalMs,
                                  double QueueMs, uint64_t Instrs,
                                  uint64_t GcMinor, uint64_t GcMajor,
                                  uint64_t GcPauseNs) {
  size_t W = Worker >= 0 && (size_t)Worker < WorkerShards.size()
                 ? (size_t)Worker
                 : 0;
  MetricsShard &S = *WorkerShards[W];
  std::lock_guard<std::mutex> Lock(S.Mu);
  (IsExecute ? S.Executes : S.Compiles)++;
  if ((size_t)O < sizeof(S.ByOutcome) / sizeof(S.ByOutcome[0]))
    ++S.ByOutcome[(size_t)O];
  if (CacheHit)
    ++S.CacheHitsServed;
  S.VmInstrs += Instrs;
  S.GcMinorTotal += GcMinor;
  S.GcMajorTotal += GcMajor;
  S.GcPauseNsTotal += GcPauseNs;
  S.CompileLat.record(CompileMs);
  if (IsExecute)
    S.ExecuteLat.record(ExecuteMs);
  S.TotalLat.record(TotalMs);
  S.QueueLat.record(QueueMs);
  ++S.Worker.Requests;
  S.Worker.BusyMs += TotalMs;
}

std::string ServerMetrics::toJson(double UptimeMs, size_t QueueDepth,
                                  size_t QueueCap, size_t ActiveConns,
                                  const std::string &Sections) const {
  // Merge every shard into one flat aggregate, locking each shard only
  // for its own copy-out. Per-worker stats are captured alongside.
  MetricsShard Agg;
  std::vector<WorkerStats> PerWorker;
  PerWorker.reserve(WorkerShards.size());
  auto Merge = [&Agg](MetricsShard &S) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Agg.ConnAccepted += S.ConnAccepted;
    Agg.ConnClosed += S.ConnClosed;
    Agg.ProtocolErrors += S.ProtocolErrors;
    Agg.Busy += S.Busy;
    Agg.StatsReqs += S.StatsReqs;
    Agg.Pings += S.Pings;
    Agg.Enqueued += S.Enqueued;
    if (S.MaxQueueDepth > Agg.MaxQueueDepth)
      Agg.MaxQueueDepth = S.MaxQueueDepth;
    Agg.Executes += S.Executes;
    Agg.Compiles += S.Compiles;
    for (size_t I = 0; I != 6; ++I)
      Agg.ByOutcome[I] += S.ByOutcome[I];
    Agg.CacheHitsServed += S.CacheHitsServed;
    Agg.VmInstrs += S.VmInstrs;
    Agg.GcMinorTotal += S.GcMinorTotal;
    Agg.GcMajorTotal += S.GcMajorTotal;
    Agg.GcPauseNsTotal += S.GcPauseNsTotal;
    Agg.CompileLat.merge(S.CompileLat);
    Agg.ExecuteLat.merge(S.ExecuteLat);
    Agg.TotalLat.merge(S.TotalLat);
    Agg.QueueLat.merge(S.QueueLat);
  };
  for (const auto &S : LoopShards)
    Merge(*S);
  for (const auto &S : WorkerShards) {
    Merge(*S);
    std::lock_guard<std::mutex> Lock(S->Mu);
    PerWorker.push_back(S->Worker);
  }

  char Buf[512];
  std::string J = "{";

  std::snprintf(Buf, sizeof(Buf), "\"uptime_ms\":%.0f,", UptimeMs);
  J += Buf;

  std::snprintf(Buf, sizeof(Buf),
                "\"connections\":{\"accepted\":%llu,\"closed\":%llu,"
                "\"active\":%zu},",
                (unsigned long long)Agg.ConnAccepted,
                (unsigned long long)Agg.ConnClosed, ActiveConns);
  J += Buf;

  std::snprintf(
      Buf, sizeof(Buf),
      "\"requests\":{\"execute\":%llu,\"compile\":%llu,\"stats\":%llu,"
      "\"ping\":%llu,\"busy\":%llu,\"protocol_errors\":%llu,",
      (unsigned long long)Agg.Executes, (unsigned long long)Agg.Compiles,
      (unsigned long long)Agg.StatsReqs, (unsigned long long)Agg.Pings,
      (unsigned long long)Agg.Busy,
      (unsigned long long)Agg.ProtocolErrors);
  J += Buf;
  J += "\"by_outcome\":{";
  for (size_t I = 0; I != 6; ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%llu", I ? "," : "",
                  outcomeName((Outcome)I),
                  (unsigned long long)Agg.ByOutcome[I]);
    J += Buf;
  }
  J += "}},";

  std::snprintf(Buf, sizeof(Buf),
                "\"queue\":{\"depth\":%zu,\"cap\":%zu,\"max_depth\":%zu,"
                "\"enqueued\":%llu,\"rejected_busy\":%llu},",
                QueueDepth, QueueCap, Agg.MaxQueueDepth,
                (unsigned long long)Agg.Enqueued,
                (unsigned long long)Agg.Busy);
  J += Buf;

  J += "\"latency_ms\":{\"compile\":" + Agg.CompileLat.toJson() +
       ",\"execute\":" + Agg.ExecuteLat.toJson() +
       ",\"queue_wait\":" + Agg.QueueLat.toJson() +
       ",\"total\":" + Agg.TotalLat.toJson() + "},";

  J += "\"workers\":[";
  for (size_t W = 0; W != PerWorker.size(); ++W) {
    const WorkerStats &S = PerWorker[W];
    double Util = UptimeMs > 0 ? 100.0 * S.BusyMs / UptimeMs : 0;
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"id\":%zu,\"requests\":%llu,\"busy_ms\":%.2f,"
                  "\"utilization_pct\":%.1f}",
                  W ? "," : "", W, (unsigned long long)S.Requests,
                  S.BusyMs, Util);
    J += Buf;
  }
  J += "],";

  std::snprintf(Buf, sizeof(Buf),
                "\"vm\":{\"instrs_total\":%llu,\"cache_hits_served\":%llu,"
                "\"gc\":{\"minor_total\":%llu,\"major_total\":%llu,"
                "\"pause_ns_total\":%llu}}",
                (unsigned long long)Agg.VmInstrs,
                (unsigned long long)Agg.CacheHitsServed,
                (unsigned long long)Agg.GcMinorTotal,
                (unsigned long long)Agg.GcMajorTotal,
                (unsigned long long)Agg.GcPauseNsTotal);
  J += Buf;

  return J + Sections + "}";
}
