//===- tests/ServerTest.cpp - virgild protocol + daemon tests -------------===//
///
/// \file
/// Three layers of the server's contract:
///
///   * Framing/wire robustness — the FrameDecoder and message decoders
///     survive truncated, oversized, split, and pseudo-random garbage
///     input with a sticky diagnostic, never a crash or over-read.
///   * Quota isolation — runaway fuel, heap bombs, and wall-clock
///     overruns come back as structured Outcomes while concurrent
///     well-behaved requests complete normally.
///   * Service behavior — warm cache hits, BUSY backpressure at queue
///     capacity, STATS JSON shape, LRU cache eviction under a byte
///     cap, and graceful drain of in-flight work.
///
/// End-to-end cases run a real Server on a Unix-domain socket in a
/// temp directory and speak to it through the Client library.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "jit/Jit.h"
#include "net/Frame.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "server/Client.h"
#include "server/Metrics.h"
#include "server/Server.h"
#include "service/BytecodeCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>
#include <vector>

namespace fs = std::filesystem;
using namespace virgil;
using namespace virgil::net;
using namespace virgil::server;

namespace {

//===----------------------------------------------------------------------===//
// Framing layer
//===----------------------------------------------------------------------===//

TEST(FrameTest, RoundTripSingleFrame) {
  std::string Bytes = encodeFrame(0x42, "hello");
  FrameDecoder D;
  D.feed(Bytes);
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Ready);
  EXPECT_EQ(F.Type, 0x42);
  EXPECT_EQ(F.Payload, "hello");
  EXPECT_EQ(D.next(F), FrameDecoder::Status::NeedMore);
  EXPECT_EQ(D.buffered(), 0u);
}

TEST(FrameTest, EmptyPayloadIsValid) {
  std::string Bytes = encodeFrame(0x03, "");
  FrameDecoder D;
  D.feed(Bytes);
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Ready);
  EXPECT_EQ(F.Type, 0x03);
  EXPECT_TRUE(F.Payload.empty());
}

TEST(FrameTest, ByteAtATimeDelivery) {
  // Any split of the stream, including mid-header, must reassemble.
  std::string Bytes = encodeFrame(0x01, "payload bytes");
  FrameDecoder D;
  Frame F;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    if (I + 1 < Bytes.size()) {
      EXPECT_EQ(D.next(F), FrameDecoder::Status::NeedMore) << "at byte " << I;
    }
    D.feed(Bytes.data() + I, 1);
  }
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Ready);
  EXPECT_EQ(F.Payload, "payload bytes");
}

TEST(FrameTest, MultipleFramesPerFeed) {
  std::string Bytes = encodeFrame(1, "a") + encodeFrame(2, "bb") +
                      encodeFrame(3, std::string(1000, 'c'));
  FrameDecoder D;
  D.feed(Bytes);
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Ready);
  EXPECT_EQ(F.Type, 1);
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Ready);
  EXPECT_EQ(F.Type, 2);
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Ready);
  EXPECT_EQ(F.Payload.size(), 1000u);
  EXPECT_EQ(D.next(F), FrameDecoder::Status::NeedMore);
}

TEST(FrameTest, ZeroLengthFrameIsError) {
  // Length 0 leaves no room for the type byte.
  std::string Bytes(4, '\0');
  FrameDecoder D;
  D.feed(Bytes);
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Error);
  EXPECT_FALSE(D.error().empty());
}

TEST(FrameTest, OversizedLengthIsError) {
  WireWriter W;
  W.u32(kMaxFramePayload + 2);
  FrameDecoder D;
  D.feed(W.take());
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Error);
  EXPECT_NE(D.error().find("oversized"), std::string::npos);
}

TEST(FrameTest, ErrorIsSticky) {
  std::string Bad(4, '\0');
  FrameDecoder D;
  D.feed(Bad);
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Error);
  // A valid frame after the error must not resurrect the stream.
  D.feed(encodeFrame(1, "ok"));
  EXPECT_EQ(D.next(F), FrameDecoder::Status::Error);
}

TEST(FrameTest, GarbageFuzzNeverCrashes) {
  // Deterministic xorshift garbage in random-sized chunks: the decoder
  // must always land in NeedMore / Ready / sticky Error, and every
  // Ready frame must respect the length bound.
  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  auto Next = [&Rng]() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (int Trial = 0; Trial != 50; ++Trial) {
    FrameDecoder D;
    Frame F;
    bool Dead = false;
    for (int Chunk = 0; Chunk != 20 && !Dead; ++Chunk) {
      std::string Bytes;
      size_t Len = Next() % 64;
      for (size_t I = 0; I != Len; ++I)
        Bytes.push_back((char)(Next() & 0xFF));
      D.feed(Bytes);
      for (;;) {
        FrameDecoder::Status S = D.next(F);
        if (S == FrameDecoder::Status::Ready) {
          EXPECT_LE(F.Payload.size() + 1, kMaxFramePayload);
          continue;
        }
        if (S == FrameDecoder::Status::Error)
          Dead = true;
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Wire + message layer
//===----------------------------------------------------------------------===//

TEST(WireTest, ReaderStopsAtBounds) {
  WireWriter W;
  W.u32(7);
  std::string Bytes = W.take();
  WireReader R(Bytes);
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_TRUE(R.done());
  EXPECT_EQ(R.u64(), 0u); // past the end: sticky failure, zero value
  EXPECT_FALSE(R.ok());
}

TEST(WireTest, StringLengthBeyondBufferFails) {
  WireWriter W;
  W.u32(1000); // claims 1000 bytes, provides 3
  std::string Bytes = W.take() + "abc";
  WireReader R(Bytes);
  EXPECT_TRUE(R.str().empty());
  EXPECT_FALSE(R.ok());
}

TEST(WireTest, TrailingBytesFailDone) {
  WireWriter W;
  W.u8(1);
  std::string Bytes = W.take() + "x";
  WireReader R(Bytes);
  R.u8();
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.done());
}

TEST(ProtocolTest, ExecuteRequestRoundTrip) {
  ExecuteRequest Req;
  Req.Name = "prog";
  Req.Source = "def main() -> int { return 7; }";
  Req.Fuel = 12345;
  Req.HeapBytes = 1u << 20;
  Req.DeadlineMs = 250;
  ExecuteRequest Back;
  ASSERT_TRUE(decodeExecuteRequest(encodeExecuteRequest(Req), &Back));
  EXPECT_EQ(Back.Name, Req.Name);
  EXPECT_EQ(Back.Source, Req.Source);
  EXPECT_EQ(Back.Fuel, Req.Fuel);
  EXPECT_EQ(Back.HeapBytes, Req.HeapBytes);
  EXPECT_EQ(Back.DeadlineMs, Req.DeadlineMs);
}

TEST(ProtocolTest, TruncatedRequestRejected) {
  std::string Bytes = encodeExecuteRequest(ExecuteRequest{});
  ExecuteRequest Back;
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut)
    EXPECT_FALSE(decodeExecuteRequest(Bytes.substr(0, Cut), &Back))
        << "accepted truncation at " << Cut;
  // Trailing garbage is equally a protocol error.
  EXPECT_FALSE(decodeExecuteRequest(Bytes + "zz", &Back));
}

TEST(ProtocolTest, ExecuteResponseRoundTrip) {
  ExecuteResponse Resp;
  Resp.O = Outcome::Fuel;
  Resp.Message = "fuel exhausted";
  Resp.CacheHit = true;
  Resp.HasResult = false;
  Resp.Output = "partial";
  Resp.CompileMs = 1.5;
  Resp.ExecuteMs = 99.25;
  Resp.Instrs = 1u << 20;
  Resp.TimingsJson = "{}";
  Resp.GcMinor = 17;
  Resp.GcMajor = 3;
  Resp.GcPauseNs = 123456789;
  ExecuteResponse Back;
  ASSERT_TRUE(decodeExecuteResponse(encodeExecuteResponse(Resp), &Back));
  EXPECT_EQ(Back.O, Outcome::Fuel);
  EXPECT_EQ(Back.Message, "fuel exhausted");
  EXPECT_TRUE(Back.CacheHit);
  EXPECT_EQ(Back.Output, "partial");
  EXPECT_DOUBLE_EQ(Back.ExecuteMs, 99.25);
  EXPECT_EQ(Back.Instrs, 1u << 20);
  EXPECT_EQ(Back.GcMinor, 17u);
  EXPECT_EQ(Back.GcMajor, 3u);
  EXPECT_EQ(Back.GcPauseNs, 123456789u);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, HistogramPercentilesAreOrdered) {
  LatencyHistogram H;
  for (int I = 1; I <= 1000; ++I)
    H.record((double)I * 0.1); // 0.1ms .. 100ms
  double P50 = H.percentileMs(0.50);
  double P95 = H.percentileMs(0.95);
  double P99 = H.percentileMs(0.99);
  EXPECT_GT(P50, 0.0);
  EXPECT_LE(P50, P95);
  EXPECT_LE(P95, P99);
  // Log2-bucketed interpolation: p50 of a uniform 0.1..100ms ramp
  // lands within a factor of two of 50ms.
  EXPECT_GT(P50, 25.0);
  EXPECT_LT(P50, 100.0);
  EXPECT_NE(H.toJson().find("\"count\":1000"), std::string::npos);
}

TEST(MetricsTest, EmptyHistogramIsZero) {
  LatencyHistogram H;
  EXPECT_EQ(H.percentileMs(0.99), 0.0);
}

//===----------------------------------------------------------------------===//
// Cache LRU eviction (satellite: --cache-max-bytes)
//===----------------------------------------------------------------------===//

class TempDir {
public:
  explicit TempDir(const std::string &Tag) {
    static std::atomic<int> Counter{0};
    Path = (fs::temp_directory_path() /
            ("virgil-server-test-" + std::to_string(::getpid()) + "-" + Tag +
             "-" + std::to_string(Counter.fetch_add(1))))
               .string();
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  const std::string &str() const { return Path; }

private:
  std::string Path;
};

TEST(CacheLruTest, EvictsOldestWhenOverCap) {
  TempDir Dir("lru");
  CompilerOptions CO;
  Compiler C(CO);
  std::vector<uint64_t> Keys;

  BytecodeCache Cache(Dir.str());
  uint64_t EntryBytes = 0;
  for (int I = 0; I != 6; ++I) {
    std::string Src = "def f" + std::to_string(I) +
                      "() -> int { return " + std::to_string(I) +
                      "; }\ndef main() -> int { return f" +
                      std::to_string(I) + "(); }";
    std::string CompErr;
    auto P = C.compile("lru" + std::to_string(I), Src, &CompErr);
    ASSERT_TRUE(P) << CompErr;
    uint64_t Key = Cache.keyFor(Src, CO);
    ASSERT_TRUE(Cache.store(Key, P->bytecode()));
    Keys.push_back(Key);
    if (!EntryBytes)
      EntryBytes = Cache.diskBytes();
    // Distinct mtimes order the LRU scan even on coarse filesystems.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(EntryBytes, 0u);
  EXPECT_EQ(Cache.stats().CapacityEvictions, 0u); // unbounded so far

  // Refresh entry 0 (a hit bumps its mtime), then cap to ~3 entries:
  // the oldest *unused* entries (1, 2) must go first.
  Cache.setMaxBytes(EntryBytes * 7 / 2);
  ASSERT_NE(Cache.load(Keys[0]), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::string Extra = "def main() -> int { return 100; }";
  std::string CompErr;
  auto P = C.compile("lru-extra", Extra, &CompErr);
  ASSERT_TRUE(P) << CompErr;
  ASSERT_TRUE(Cache.store(Cache.keyFor(Extra, CO), P->bytecode()));

  EXPECT_LE(Cache.diskBytes(), Cache.maxBytes());
  EXPECT_GT(Cache.stats().CapacityEvictions, 0u);
  // The recently-hit entry survived; the stale ones were evicted.
  EXPECT_TRUE(fs::exists(Cache.entryPath(Keys[0])));
  EXPECT_FALSE(fs::exists(Cache.entryPath(Keys[1])));
}

//===----------------------------------------------------------------------===//
// End-to-end daemon tests (Unix socket)
//===----------------------------------------------------------------------===//

/// Starts a Server on a Unix socket in a temp dir and tears it down on
/// scope exit.
class TestServer {
public:
  explicit TestServer(ServerConfig Config = {}) : Dir("srv") {
    Config.UnixPath = Dir.str() + "/sock";
    Config.TcpPort = -1;
    if (Config.CacheDir == "default")
      Config.CacheDir = Dir.str() + "/cache";
    Cfg = Config;
    S = std::make_unique<Server>(Cfg);
    std::string Err;
    Ok = S->start(&Err);
    EXPECT_TRUE(Ok) << Err;
  }
  ~TestServer() { S->stop(); }

  Client client() {
    Client C;
    std::string Err;
    EXPECT_TRUE(C.connectUnix(Cfg.UnixPath, &Err)) << Err;
    return C;
  }
  Server &server() { return *S; }
  const ServerConfig &config() const { return Cfg; }

private:
  TempDir Dir;
  ServerConfig Cfg;
  std::unique_ptr<Server> S;
  bool Ok = false;
};

const char *kOkProgram = "def main() -> int { return 41 + 1; }";

/// Spins forever; only a fuel or deadline quota stops it.
const char *kSpinProgram =
    "def main() -> int {\n"
    "  var i = 0;\n"
    "  while (i >= 0) { i = i + 1; if (i > 1000000000) i = 0; }\n"
    "  return i;\n"
    "}\n";

/// Allocates an unbounded live list; only the heap quota stops it.
/// Both fields are read so the optimizer cannot strip `next` (which
/// would let the GC reclaim the chain and fuel win the race).
// The periodic chain walk reads `next` through a loop-carried value,
// which no store-to-load forwarding can satisfy — otherwise the SSA
// pipeline proves `next` dead, dead-field elimination severs the
// chain, and the GC collects it before the quota ever trips.
const char *kHeapBomb =
    "class Node { var v: int; var next: Node; new(v, next) { } }\n"
    "def main() -> int {\n"
    "  var head: Node = null;\n"
    "  var i = 0;\n"
    "  var sum = 0;\n"
    "  while (i >= 0) {\n"
    "    head = Node.new(i, head);\n"
    "    if (i % 1024 == 0) {\n"
    "      for (p = head; p != null; p = p.next) sum = sum + p.v;\n"
    "    }\n"
    "    i = i + 1;\n"
    "  }\n"
    "  return sum;\n"
    "}\n";

ExecuteRequest makeReq(const std::string &Src, const char *Name = "t") {
  ExecuteRequest Req;
  Req.Name = Name;
  Req.Source = Src;
  return Req;
}

TEST(ServerTest, ExecuteOkAndPing) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  EXPECT_TRUE(C.ping(&Err)) << Err;

  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;
  EXPECT_EQ(Resp.O, Outcome::Ok);
  EXPECT_TRUE(Resp.HasResult);
  EXPECT_EQ(Resp.ResultBits, 42);
  EXPECT_GT(Resp.Instrs, 0u);
  EXPECT_FALSE(Resp.CacheHit);
}

TEST(ServerTest, ExecuteReportsGcActivity) {
  // Allocation-heavy but terminating: enough short-lived garbage to
  // force several minor collections under the default 64 KiB
  // nursery, so the response's GC counters must be non-zero.
  // Each node escapes through the global (so escape analysis cannot
  // elide the allocations) but dies on the next overwrite — exactly
  // the short-lived garbage the nursery is for.
  const char *Churn =
      "class Node { var v: int; var next: Node; new(v, next) { } }\n"
      "var keep: Node;\n"
      "def main() -> int {\n"
      "  var sum = 0;\n"
      "  var i = 0;\n"
      "  while (i < 200000) {\n"
      "    var n = Node.new(i, null);\n"
      "    keep = n;\n"
      "    sum = sum + n.v;\n"
      "    i = i + 1;\n"
      "  }\n"
      "  return sum;\n"
      "}\n";
  ServerConfig Config;
  Config.Exec.Vm.Generational = true; // virgild follows VIRGIL_VM_GC.
  TestServer TS(Config);
  Client C = TS.client();
  std::string Err;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(makeReq(Churn, "churn"), &Resp, nullptr, &Err)) << Err;
  EXPECT_EQ(Resp.O, Outcome::Ok);
  EXPECT_GT(Resp.GcMinor, 0u);
  EXPECT_GT(Resp.GcPauseNs, 0u);

  // A trivial non-allocating request reports a quiet heap.
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;
  EXPECT_EQ(Resp.O, Outcome::Ok);
  EXPECT_EQ(Resp.GcMinor, 0u);
  EXPECT_EQ(Resp.GcMajor, 0u);
}

TEST(ServerTest, CompileErrorIsStructured) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(makeReq("def main() -> int { return x; }"), &Resp,
                        nullptr, &Err))
      << Err;
  EXPECT_EQ(Resp.O, Outcome::CompileError);
  EXPECT_FALSE(Resp.Message.empty());
  // The connection survives a compile error.
  EXPECT_TRUE(C.ping(&Err)) << Err;
}

TEST(ServerTest, WarmRequestHitsCache) {
  ServerConfig Config;
  Config.CacheDir = "default";
  TestServer TS(Config);
  Client C = TS.client();
  std::string Err;
  ExecuteResponse Cold, Warm;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Cold, nullptr, &Err)) << Err;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Warm, nullptr, &Err)) << Err;
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.ResultBits, Cold.ResultBits);
  EXPECT_EQ(Warm.TimingsJson, "{}");
  EXPECT_NE(Cold.TimingsJson.find("parse_ms"), std::string::npos);
}

TEST(ServerTest, RunawayFuelReturnsFuelOutcome) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  ExecuteRequest Req = makeReq(kSpinProgram, "spin");
  Req.Fuel = 200000; // tiny budget; spins way past it
  Req.DeadlineMs = 30000;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(Req, &Resp, nullptr, &Err)) << Err;
  EXPECT_EQ(Resp.O, Outcome::Fuel);
  EXPECT_FALSE(Resp.Message.empty());
}

TEST(ServerTest, DeadlineReturnsDeadlineOutcome) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  ExecuteRequest Req = makeReq(kSpinProgram, "spin");
  Req.Fuel = ~0ull; // clamped to server max, far beyond the deadline
  Req.DeadlineMs = 100;
  ExecuteResponse Resp;
  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(C.execute(Req, &Resp, nullptr, &Err)) << Err;
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  EXPECT_EQ(Resp.O, Outcome::Deadline);
  // Enforced promptly: well under the 30s server max.
  EXPECT_LT(Ms, 5000.0);
}

TEST(ServerTest, HeapBombReturnsHeapOutcome) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  ExecuteRequest Req = makeReq(kHeapBomb, "bomb");
  Req.HeapBytes = 1u << 20; // 1 MiB quota
  Req.DeadlineMs = 20000;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(Req, &Resp, nullptr, &Err)) << Err;
  EXPECT_EQ(Resp.O, Outcome::Heap);
}

TEST(ServerTest, QuotaRequestsDoNotStarveNeighbors) {
  // Two hostile requests and a well-behaved one, all in flight on a
  // 2-worker server: the good request completes with Ok regardless.
  ServerConfig Config;
  Config.Workers = 2;
  // The spin loop tiers into the JIT and can burn the default MaxFuel
  // cap (2^30) inside the 500ms deadline; raise the cap so the
  // deadline stays the binding quota regardless of execution tier.
  Config.Exec.MaxFuel = ~0ull;
  TestServer TS(Config);
  std::string Err1, Err2, Err3;
  ExecuteResponse R1, R2, R3;
  std::thread T1([&] {
    Client C = TS.client();
    ExecuteRequest Req = makeReq(kSpinProgram, "spin");
    Req.Fuel = ~0ull; // ample fuel: the deadline is the binding quota
    Req.DeadlineMs = 500;
    C.execute(Req, &R1, nullptr, &Err1);
  });
  std::thread T2([&] {
    Client C = TS.client();
    ExecuteRequest Req = makeReq(kHeapBomb, "bomb");
    Req.HeapBytes = 1u << 20;
    Req.DeadlineMs = 20000;
    C.execute(Req, &R2, nullptr, &Err2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client C = TS.client();
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &R3, nullptr, &Err3)) << Err3;
  T1.join();
  T2.join();
  EXPECT_EQ(R1.O, Outcome::Deadline) << Err1;
  EXPECT_EQ(R2.O, Outcome::Heap) << Err2;
  EXPECT_EQ(R3.O, Outcome::Ok);
  EXPECT_EQ(R3.ResultBits, 42);
}

TEST(ServerTest, GarbageBytesCloseConnectionWithDiagnostic) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  // An impossible frame length: decoder errors, server answers with a
  // diagnostic ERROR frame and closes.
  WireWriter W;
  W.u32(0xFFFFFFFFu);
  W.u64(0xDEADBEEFDEADBEEFull);
  std::string Bad = W.take();
  ASSERT_TRUE(net::sendAll(C.fd(), Bad.data(), Bad.size(), &Err)) << Err;
  Frame F;
  ASSERT_TRUE(C.recvFrame(&F, &Err)) << Err;
  ASSERT_EQ((MsgType)F.Type, MsgType::ErrorResp);
  ErrorResponse E;
  ASSERT_TRUE(decodeErrorResponse(F.Payload, &E));
  EXPECT_NE(E.Message.find("malformed"), std::string::npos);
  // ... and the connection is gone.
  EXPECT_FALSE(C.recvFrame(&F, &Err));

  // The server is still fine for everyone else.
  Client C2 = TS.client();
  EXPECT_TRUE(C2.ping(&Err)) << Err;
}

TEST(ServerTest, MalformedPayloadRejected) {
  TestServer TS;
  Client C = TS.client();
  std::string Err;
  // Valid frame, garbage EXECUTE payload.
  ASSERT_TRUE(C.sendFrame((uint8_t)MsgType::ExecuteReq, "not a request",
                          &Err))
      << Err;
  Frame F;
  ASSERT_TRUE(C.recvFrame(&F, &Err)) << Err;
  EXPECT_EQ((MsgType)F.Type, MsgType::ErrorResp);
}

TEST(ServerTest, BusyBackpressureAtQueueCapacity) {
  ServerConfig Config;
  Config.Workers = 1;
  Config.QueueCap = 1;
  TestServer TS(Config);

  // Saturate the single worker + single queue slot with slow requests,
  // then pile on more: some must bounce with BUSY, none may hang, and
  // every request gets exactly one answer.
  const int N = 6;
  std::atomic<int> BusyCount{0}, DoneCount{0}, FailCount{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I != N; ++I)
    Threads.emplace_back([&TS, &BusyCount, &DoneCount, &FailCount] {
      Client C = TS.client();
      ExecuteRequest Req = makeReq(kSpinProgram, "slow");
      Req.DeadlineMs = 300;
      ExecuteResponse Resp;
      bool Busy = false;
      std::string Err;
      if (!C.execute(Req, &Resp, &Busy, &Err))
        ++FailCount;
      else if (Busy)
        ++BusyCount;
      else
        ++DoneCount;
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(FailCount.load(), 0);
  EXPECT_EQ(BusyCount.load() + DoneCount.load(), N);
  EXPECT_GT(BusyCount.load(), 0) << "queue cap never produced BUSY";
  EXPECT_GT(DoneCount.load(), 0);
}

TEST(ServerTest, StatsJsonShape) {
  ServerConfig Config;
  Config.CacheDir = "default";
  TestServer TS(Config);
  Client C = TS.client();
  std::string Err;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;

  std::string Json;
  ASSERT_TRUE(C.stats(&Json, &Err)) << Err;
  for (const char *Key :
       {"\"uptime_ms\"", "\"connections\"", "\"by_outcome\"", "\"queue\"",
        "\"latency_ms\"", "\"workers\"", "\"utilization_pct\"",
        "\"instrs_total\"", "\"cache\"", "\"hit_rate_pct\"",
        "\"capacity_evictions\"", "\"p95_ms\"", "\"p99_ms\"", "\"gc\"",
        "\"minor_total\"", "\"major_total\"", "\"pause_ns_total\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << " missing:\n"
                                                 << Json;
  EXPECT_NE(Json.find("\"execute\":2"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"hits\":1"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// The counter table (core/Counters.h) on every stats surface
//===----------------------------------------------------------------------===//

namespace {

/// A JSON document flattened to "a.b.c" -> scalar text (strings without
/// quotes). ok() is false on a syntax error or a repeated key.
class FlatJson {
public:
  explicit FlatJson(const std::string &Text) : S(Text) {
    Ok = value("");
    ws();
    Ok = Ok && P == S.size();
  }
  bool ok() const { return Ok; }
  bool has(const std::string &Path) const { return Vals.count(Path) != 0; }
  std::string at(const std::string &Path) const {
    auto It = Vals.find(Path);
    return It == Vals.end() ? "<missing " + Path + ">" : It->second;
  }

private:
  void ws() {
    while (P < S.size() && std::isspace((unsigned char)S[P]))
      ++P;
  }
  bool eat(char C) {
    ws();
    if (P >= S.size() || S[P] != C)
      return false;
    ++P;
    return true;
  }
  bool str(std::string &Out) {
    if (!eat('"'))
      return false;
    while (P < S.size() && S[P] != '"') {
      if (S[P] == '\\')
        ++P;
      if (P < S.size())
        Out += S[P++];
    }
    return eat('"');
  }
  bool put(const std::string &Path, std::string V) {
    return Vals.emplace(Path, std::move(V)).second;
  }
  bool value(const std::string &Path) {
    ws();
    if (P >= S.size())
      return false;
    auto Join = [&](const std::string &K) {
      return Path.empty() ? K : Path + "." + K;
    };
    if (S[P] == '{' || S[P] == '[') {
      bool Obj = S[P++] == '{';
      if (eat(Obj ? '}' : ']'))
        return true;
      for (size_t I = 0;; ++I) {
        std::string K;
        if (!Obj)
          K = std::to_string(I);
        else if (!str(K) || !eat(':'))
          return false;
        if (!value(Join(K)))
          return false;
        if (eat(','))
          continue;
        return eat(Obj ? '}' : ']');
      }
    }
    if (S[P] == '"') {
      std::string V;
      return str(V) && put(Path, V);
    }
    size_t B = P;
    while (P < S.size() && (std::isalnum((unsigned char)S[P]) ||
                            S[P] == '-' || S[P] == '+' || S[P] == '.'))
      ++P;
    std::string V = S.substr(B, P - B);
    if (V != "true" && V != "false" && V != "null") {
      char *End = nullptr;
      std::strtod(V.c_str(), &End);
      if (V.empty() || *End != '\0')
        return false;
    }
    return put(Path, V);
  }

  std::string S;
  size_t P = 0;
  bool Ok = false;
  std::map<std::string, std::string> Vals;
};

/// Checks that every row of \p Stats appears in \p J under \p Prefix
/// with the struct's value. Timed rows (ms, ns) of a surface that
/// timed another run than \p Stats (\p SameRun false) need only be
/// present.
template <class S>
void expectRows(const FlatJson &J, const std::string &Prefix,
                const S &Stats, bool SameRun, const char *Surface) {
  Stats.forEachCounter([&](const CounterRow &Row, auto V) {
    std::string Path = Prefix + Row.Key;
    ASSERT_TRUE(J.has(Path)) << Surface << " lacks " << Path;
    bool Timed = Row.Unit == CounterUnit::Ms || Row.Unit == CounterUnit::Ns;
    if (Timed && !SameRun)
      return;
    std::string Got = J.at(Path);
    if (Row.Unit == CounterUnit::Flag)
      EXPECT_EQ(Got, V ? "true" : "false") << Surface << " " << Path;
    else
      EXPECT_NEAR(std::strtod(Got.c_str(), nullptr), (double)V,
                  Row.Unit == CounterUnit::Ms ? 5e-4 : 0)
          << Surface << " " << Path;
  });
}

/// Exercises devirtualization, inlining, SCCP, escape analysis and
/// sharing, so most rows are non-zero.
const corpus::CorpusProgram &richProgram() {
  for (const corpus::CorpusProgram &P : corpus::allPrograms())
    if (std::string(P.Name) == "classes_basics")
      return P;
  ADD_FAILURE() << "classes_basics missing from the corpus";
  return corpus::allPrograms().front();
}

} // namespace

TEST(CounterTableTest, EveryRowReachesEverySurface) {
  const corpus::CorpusProgram &Prog = richProgram();
  ServiceOptions SO;
  CompileService Service(SO);
  std::vector<JobResult> Jobs =
      Service.compileBatch({{Prog.Name, Prog.Source}});
  ASSERT_EQ(Jobs.size(), 1u);
  const JobResult &JR = Jobs[0];
  ASSERT_TRUE(JR.Ok) << JR.Error;
  // Non-zero rows make the value checks below mean something.
  EXPECT_GT(JR.Opt.CallsInlined, 0u);
  if (SO.Compile.Opt.Ssa) {
    EXPECT_GT(JR.Opt.SccpFolded, 0u);
    EXPECT_GT(JR.Opt.CallsDevirtualized, 0u);
  }

  // The batch JSON line, as virgilc batch prints it.
  const BatchStats &B = Service.lastBatchStats();
  FlatJson Batch(B.toJson(SO));
  ASSERT_TRUE(Batch.ok()) << B.toJson(SO);
  expectRows(Batch, "", B.Share, true, "batch JSON");
  expectRows(Batch, "", B.Opt, true, "batch JSON");
  expectRows(Batch, "", B.Phases, true, "batch JSON");

  // The execute response's TimingsJson.
  FlatJson Timings(JR.timingsJson());
  ASSERT_TRUE(Timings.ok()) << JR.timingsJson();
  expectRows(Timings, "", JR.Timings, true, "TimingsJson");
  expectRows(Timings, "", JR.Opt, true, "TimingsJson");

  // --vm-stats, with every function compiled by the JIT where it runs.
  exec::ExecutorConfig EC;
  EC.UsePool = false;
  EC.Vm.JitThreshold = 0;
  VmOptions VO = EC.Vm;
  VO.MaxInstrs = EC.DefaultFuel;
  VO.MaxHeapBytes = EC.DefaultHeapBytes;
  VO.DeadlineMs = EC.DefaultDeadlineMs;
  VmResult R = Vm(JR.Unit->bytecode(), VO).run();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  FlatJson VmStats(vmStatsJson(R));
  ASSERT_TRUE(VmStats.ok()) << vmStatsJson(R);
  expectRows(VmStats, "", R.Counters, true, "--vm-stats");
  expectRows(VmStats, "jit_", R.Jit, true, "--vm-stats");

  // STATS after one daemon request of the same program under the same
  // engine settings.
  ServerConfig Config;
  Config.Workers = 1;
  Config.Exec = EC;
  TestServer TS(Config);
  Client C = TS.client();
  ExecuteResponse Resp;
  std::string Err, Json;
  ASSERT_TRUE(C.execute(makeReq(Prog.Source, Prog.Name), &Resp, nullptr,
                        &Err))
      << Err;
  ASSERT_EQ(Resp.O, Outcome::Ok) << Resp.Message;
  FlatJson Wire(Resp.TimingsJson);
  ASSERT_TRUE(Wire.ok()) << Resp.TimingsJson;
  expectRows(Wire, "", JR.Timings, false, "TimingsJson on the wire");
  expectRows(Wire, "", JR.Opt, false, "TimingsJson on the wire");
  ASSERT_TRUE(C.stats(&Json, &Err)) << Err;
  FlatJson Stats(Json);
  ASSERT_TRUE(Stats.ok()) << Json;
  EXPECT_EQ(Stats.at("mono.compiles"), "1");
  expectRows(Stats, "mono.", JR.Share, false, "STATS");
  expectRows(Stats, "opt.", JR.Opt, false, "STATS");
  // STATS reads jit.available from the host probe, whatever the mode.
  VmJitStats Jit = R.Jit;
  Jit.Available = jit::JitTier::hostSupported();
  expectRows(Stats, "jit.", Jit, false, "STATS");
}

TEST(ServerTest, StatsReportsConfiguredAxesBeforeAnyRequest) {
  // The *_enabled flags and jit.available describe the configuration
  // and the host, so they read the same before any compile has run
  // (and when every request is a cache hit).
  for (bool Escape : {true, false}) {
    ServerConfig Config;
    Config.Compile.Opt.Escape = Escape;
    TestServer TS(Config);
    std::string Json, Err;
    ASSERT_TRUE(TS.client().stats(&Json, &Err)) << Err;
    FlatJson Stats(Json);
    ASSERT_TRUE(Stats.ok()) << Json;
    auto Flag = [](bool B) { return std::string(B ? "true" : "false"); };
    EXPECT_EQ(Stats.at("mono.share_enabled"),
              Flag(Config.Compile.ShareSpecializations));
    EXPECT_EQ(Stats.at("opt.escape_enabled"), Flag(Escape));
    EXPECT_EQ(Stats.at("opt.ssa_enabled"), Flag(Config.Compile.Opt.Ssa));
    EXPECT_EQ(Stats.at("jit.available"),
              Flag(jit::JitTier::hostSupported()));
    EXPECT_EQ(Stats.at("mono.compiles"), "0");
  }
}

TEST(ServerTest, GracefulDrainCompletesInFlightWork) {
  TestServer TS;
  std::string Err;
  ExecuteResponse Resp;
  bool GotResponse = false;
  std::thread T([&] {
    Client C = TS.client();
    ExecuteRequest Req = makeReq(kSpinProgram, "inflight");
    Req.Fuel = ~0ull; // ample fuel: the deadline is the binding quota
    Req.DeadlineMs = 400;
    GotResponse = C.execute(Req, &Resp, nullptr, &Err);
  });
  // Let the request reach a worker, then initiate shutdown mid-run.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  TS.server().requestStop();
  TS.server().stop();
  T.join();
  ASSERT_TRUE(GotResponse) << Err;
  EXPECT_EQ(Resp.O, Outcome::Deadline);
}

TEST(ServerTest, ManyConcurrentConnections) {
  ServerConfig Config;
  Config.Workers = 4;
  Config.QueueCap = 256;
  Config.CacheDir = "default";
  TestServer TS(Config);

  const int Conns = 16, PerConn = 8;
  std::atomic<int> OkCount{0}, Failures{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W != Conns; ++W)
    Threads.emplace_back([&TS, &OkCount, &Failures] {
      Client C = TS.client();
      for (int I = 0; I != PerConn; ++I) {
        ExecuteResponse Resp;
        bool Busy = false;
        std::string Err;
        if (!C.execute(makeReq(kOkProgram), &Resp, &Busy, &Err)) {
          ++Failures;
          return;
        }
        if (Busy) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --I;
          continue;
        }
        if (Resp.O == Outcome::Ok && Resp.ResultBits == 42)
          ++OkCount;
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(OkCount.load(), Conns * PerConn);
}

//===----------------------------------------------------------------------===//
// Sharded front end (--io-threads) + warm-VM pool
//===----------------------------------------------------------------------===//

TEST(ShardedServerTest, StatsReportsExecSection) {
  ServerConfig Config;
  Config.IoThreads = 4;
  Config.Workers = 4;
  TestServer TS(Config);
  Client C = TS.client();
  std::string Err;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;
  EXPECT_TRUE(Resp.CacheHit) << "second request should hit the pool";

  std::string Json;
  ASSERT_TRUE(C.stats(&Json, &Err)) << Err;
  for (const char *Key :
       {"\"exec\"", "\"io_threads\":4", "\"poller\"", "\"vm_pool\"",
        "\"enabled\":true", "\"resident\":1", "\"hits\":1", "\"opt\"",
        "\"escape_enabled\"", "\"allocs_elided\"", "\"pass_ms\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << " missing:\n"
                                                 << Json;
}

TEST(ShardedServerTest, StatsHammeredDuringExecuteTraffic) {
  // STATS merges every metrics shard while workers and event loops
  // are writing them: hammer it concurrently with execute traffic
  // from many connections. Every STATS must parse as a complete JSON
  // document and every execute must succeed. (Pre-sharding, this
  // pattern serialized all workers on the metrics mutex; now it is
  // also the TSan probe for the shard merge.)
  ServerConfig Config;
  Config.IoThreads = 4;
  Config.Workers = 4;
  Config.QueueCap = 256;
  TestServer TS(Config);

  std::atomic<bool> StopStats{false};
  std::atomic<int> StatsOk{0}, StatsFail{0};
  std::thread StatsHammer([&] {
    Client C = TS.client();
    std::string Json, Err;
    while (!StopStats.load()) {
      if (C.stats(&Json, &Err) && !Json.empty() &&
          Json.front() == '{' && Json.back() == '}')
        ++StatsOk;
      else
        ++StatsFail;
    }
  });

  const int Conns = 8, PerConn = 10;
  std::atomic<int> OkCount{0}, Failures{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W != Conns; ++W)
    Threads.emplace_back([&TS, &OkCount, &Failures] {
      Client C = TS.client();
      for (int I = 0; I != PerConn; ++I) {
        ExecuteResponse Resp;
        bool Busy = false;
        std::string Err;
        if (!C.execute(makeReq(kOkProgram), &Resp, &Busy, &Err)) {
          ++Failures;
          return;
        }
        if (Busy) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --I;
          continue;
        }
        if (Resp.O == Outcome::Ok)
          ++OkCount;
      }
    });
  for (auto &T : Threads)
    T.join();
  StopStats.store(true);
  StatsHammer.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(OkCount.load(), Conns * PerConn);
  EXPECT_GT(StatsOk.load(), 0);
  EXPECT_EQ(StatsFail.load(), 0);
}

TEST(ShardedServerTest, QuotaBombsAcrossShardsDoNotStarveNeighbors) {
  // Fuel, heap, and deadline bombs land on different shards while
  // well-behaved requests flow; every request resolves to its own
  // structured outcome at --io-threads 4 with the pool on.
  ServerConfig Config;
  Config.IoThreads = 4;
  Config.Workers = 4;
  Config.QueueCap = 64;
  TestServer TS(Config);

  std::atomic<int> GoodOk{0}, BombStructured{0}, Failures{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I != 3; ++I)
    Threads.emplace_back([&TS, &BombStructured, &Failures, I] {
      Client C = TS.client();
      ExecuteRequest Req;
      if (I == 0) {
        Req = makeReq(kSpinProgram, "fuel-bomb");
        Req.Fuel = 200000;
        Req.DeadlineMs = 30000;
      } else if (I == 1) {
        Req = makeReq(kHeapBomb, "heap-bomb");
        Req.HeapBytes = 1u << 20;
        Req.DeadlineMs = 20000;
      } else {
        Req = makeReq(kSpinProgram, "deadline-bomb");
        Req.Fuel = ~0ull;
        Req.DeadlineMs = 300;
      }
      ExecuteResponse Resp;
      std::string Err;
      if (!C.execute(Req, &Resp, nullptr, &Err))
        ++Failures;
      else if (Resp.O == Outcome::Fuel || Resp.O == Outcome::Heap ||
               Resp.O == Outcome::Deadline)
        ++BombStructured;
    });
  for (int I = 0; I != 6; ++I)
    Threads.emplace_back([&TS, &GoodOk, &Failures] {
      Client C = TS.client();
      for (int J = 0; J != 4; ++J) {
        ExecuteResponse Resp;
        bool Busy = false;
        std::string Err;
        if (!C.execute(makeReq(kOkProgram), &Resp, &Busy, &Err)) {
          ++Failures;
          return;
        }
        if (Busy) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --J;
          continue;
        }
        if (Resp.O == Outcome::Ok && Resp.ResultBits == 42)
          ++GoodOk;
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(BombStructured.load(), 3);
  EXPECT_EQ(GoodOk.load(), 6 * 4);
}

TEST(ShardedServerTest, GracefulDrainAcrossShardsUnderLoad) {
  // In-flight requests spread over 4 shards when SIGTERM-style stop
  // arrives: every accepted request still gets its response, on every
  // shard, and stop() joins cleanly.
  ServerConfig Config;
  Config.IoThreads = 4;
  Config.Workers = 4;
  TestServer TS(Config);

  const int N = 8;
  std::atomic<int> Answered{0}, Failures{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I != N; ++I)
    Threads.emplace_back([&TS, &Answered, &Failures] {
      Client C = TS.client();
      ExecuteRequest Req = makeReq(kSpinProgram, "inflight");
      Req.Fuel = ~0ull; // ample fuel: the deadline is the binding quota
      Req.DeadlineMs = 400;
      ExecuteResponse Resp;
      std::string Err;
      if (C.execute(Req, &Resp, nullptr, &Err) &&
          Resp.O == Outcome::Deadline)
        ++Answered;
      else
        ++Failures;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  TS.server().requestStop();
  TS.server().stop();
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Answered.load(), N);
  EXPECT_EQ(Failures.load(), 0);
}

TEST(ShardedServerTest, PooledAndUnpooledServersAgreeOnTheWire) {
  // The end-to-end invisibility check: the same request stream against
  // a pooled server and a pool-off server produces identical wire
  // responses (everything except CacheHit, which is the point).
  ServerConfig Pooled;
  Pooled.IoThreads = 2;
  ServerConfig Unpooled;
  Unpooled.Exec.UsePool = false;
  TestServer TP(Pooled), TU(Unpooled);
  Client CP = TP.client(), CU = TU.client();
  std::string Err;

  const char *Sources[] = {kOkProgram, kSpinProgram, kHeapBomb};
  for (const char *Src : Sources) {
    for (int Round = 0; Round != 3; ++Round) {
      ExecuteRequest Req = makeReq(Src, "diff");
      Req.Fuel = 300000;
      Req.HeapBytes = 1u << 20;
      Req.DeadlineMs = 10000;
      ExecuteResponse RP, RU;
      ASSERT_TRUE(CP.execute(Req, &RP, nullptr, &Err)) << Err;
      ASSERT_TRUE(CU.execute(Req, &RU, nullptr, &Err)) << Err;
      EXPECT_EQ((int)RP.O, (int)RU.O) << Src;
      EXPECT_EQ(RP.Message, RU.Message) << Src;
      EXPECT_EQ(RP.HasResult, RU.HasResult) << Src;
      EXPECT_EQ(RP.ResultBits, RU.ResultBits) << Src;
      EXPECT_EQ(RP.Output, RU.Output) << Src;
      EXPECT_EQ(RP.Instrs, RU.Instrs) << Src;
      EXPECT_EQ(RP.GcMinor, RU.GcMinor) << Src;
      EXPECT_EQ(RP.GcMajor, RU.GcMajor) << Src;
    }
  }
  // The pooled server actually pooled: rounds 2-3 of each source hit.
  std::string Json;
  ASSERT_TRUE(CP.stats(&Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"hits\":6"), std::string::npos) << Json;
}

TEST(ShardedServerTest, SingleLoopConfigStillWorks) {
  // IoThreads=1 must reproduce the classic daemon exactly (it is the
  // bench baseline), including BUSY backpressure and stats.
  ServerConfig Config;
  Config.IoThreads = 1;
  Config.Workers = 2;
  TestServer TS(Config);
  Client C = TS.client();
  std::string Err;
  ExecuteResponse Resp;
  ASSERT_TRUE(C.execute(makeReq(kOkProgram), &Resp, nullptr, &Err)) << Err;
  EXPECT_EQ(Resp.O, Outcome::Ok);
  std::string Json;
  ASSERT_TRUE(C.stats(&Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"io_threads\":1"), std::string::npos) << Json;
}

} // namespace
