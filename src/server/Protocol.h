//===- server/Protocol.h - virgild request/response messages ----*- C++ -*-===//
///
/// \file
/// The message layer of the virgild wire protocol (DESIGN.md §10).
/// Each message travels as one net::Frame whose type byte is a MsgType
/// and whose payload is the Wire-encoded struct below. Requests flow
/// client→server, responses (0x80 bit set) server→client; every
/// request gets exactly one response on the same connection. Workers
/// push each response when its request finishes, so pipelined
/// requests are answered in completion order, not request order, and
/// responses carry no request id.
///
///   EXECUTE — compile (through the bytecode cache) and run on an
///             isolated VM under fuel/heap/deadline quotas.
///   COMPILE — compile and cache only; returns phase timings.
///   STATS   — live server metrics as one JSON document.
///   PING    — liveness probe.
///
/// Program-level failures (compile errors, traps, exhausted quotas)
/// are *successful* protocol exchanges: they come back as an
/// ExecuteResponse with the corresponding Outcome. ERROR is reserved
/// for malformed requests, and BUSY for queue-full backpressure — the
/// one response a client should retry.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SERVER_PROTOCOL_H
#define VIRGIL_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>

namespace virgil {
namespace server {

enum class MsgType : uint8_t {
  ExecuteReq = 0x01,
  CompileReq = 0x02,
  StatsReq = 0x03,
  PingReq = 0x04,

  ExecuteResp = 0x81,
  CompileResp = 0x82,
  StatsResp = 0x83,
  PingResp = 0x84,
  ErrorResp = 0xE0,
  BusyResp = 0xE1,
};

/// How a compile/execute request ended. Everything except Ok carries a
/// human-readable Message alongside.
enum class Outcome : uint8_t {
  Ok = 0,
  CompileError = 1, ///< Front-end diagnostics.
  Trap = 2,         ///< Program fault (null deref, bounds, ...).
  Fuel = 3,         ///< Instruction budget exhausted.
  Heap = 4,         ///< Heap byte quota exhausted.
  Deadline = 5,     ///< Wall-clock deadline exceeded.
};

const char *outcomeName(Outcome O);

struct ExecuteRequest {
  std::string Name;   ///< Program name for diagnostics.
  std::string Source; ///< Virgil-core source text.
  /// Per-request quota overrides; 0 = use the server's defaults. The
  /// server clamps each to its own configured maximum — a client can
  /// tighten its sandbox but never escape it.
  uint64_t Fuel = 0;
  uint64_t HeapBytes = 0;
  uint32_t DeadlineMs = 0;
  uint32_t Flags = 0; ///< Reserved (must be 0).
};

struct ExecuteResponse {
  Outcome O = Outcome::Ok;
  std::string Message;  ///< Diagnostics / trap text when O != Ok.
  bool CacheHit = false;
  bool HasResult = false;
  int64_t ResultBits = 0;
  std::string Output;      ///< Program stdout.
  double CompileMs = 0;    ///< Cache probe + compile (or deserialize).
  double ExecuteMs = 0;    ///< VM wall time.
  uint64_t Instrs = 0;     ///< VM instructions executed.
  std::string TimingsJson; ///< JobResult::timingsJson(); "{}" on a hit.
  /// Per-request GC activity on the request's isolated VM heap.
  uint64_t GcMinor = 0;     ///< Minor (nursery) collections.
  uint64_t GcMajor = 0;     ///< Major (full) collections.
  uint64_t GcPauseNs = 0;   ///< Total GC pause time, nanoseconds.
};

struct CompileResponse {
  Outcome O = Outcome::Ok;
  std::string Message;
  bool CacheHit = false;
  double CompileMs = 0;
  std::string TimingsJson;
};

/// Protocol-level failure (ErrorResp) or backpressure (BusyResp).
struct ErrorResponse {
  std::string Message;
};

std::string encodeExecuteRequest(const ExecuteRequest &R);
bool decodeExecuteRequest(const std::string &Payload, ExecuteRequest *R);

std::string encodeExecuteResponse(const ExecuteResponse &R);
bool decodeExecuteResponse(const std::string &Payload, ExecuteResponse *R);

std::string encodeCompileResponse(const CompileResponse &R);
bool decodeCompileResponse(const std::string &Payload, CompileResponse *R);

std::string encodeErrorResponse(const ErrorResponse &R);
bool decodeErrorResponse(const std::string &Payload, ErrorResponse *R);

} // namespace server
} // namespace virgil

#endif // VIRGIL_SERVER_PROTOCOL_H
