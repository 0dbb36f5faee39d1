//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "jit/Jit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void WorkloadResult::fail(const std::string &What) {
  ++Failed;
  // Cap the noise: a systematic failure would otherwise print per op.
  if (Failed <= 8)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
}

void WorkloadResult::absorb(const WorkloadResult &O) {
  if (Invalid.empty())
    Invalid = O.Invalid;
  Attempted += O.Attempted;
  Failed += O.Failed;
  for (const auto &[Name, M] : O.Metrics)
    Metrics.emplace(Name, M);
  for (const auto &[Name, V] : O.ExactCounts)
    ExactCounts.emplace(Name, V);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (double)(V.size() - 1);
  size_t Lo = (size_t)Pos;
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - (double)Lo);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / (double)V.size());
}

std::vector<size_t> fastestShare(const std::vector<double> &Ms) {
  std::vector<size_t> Order(Ms.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Ms[A] < Ms[B]; });
  Order.resize(std::min(Order.size(),
                        (size_t)std::ceil(kScoredShare * (double)Order.size())));
  std::sort(Order.begin(), Order.end());
  return Order;
}

std::vector<double> fastestOf(const std::vector<double> &Ms) {
  std::vector<double> Kept;
  for (size_t I : fastestShare(Ms))
    Kept.push_back(Ms[I]);
  return Kept;
}

double windowedQuantile(std::vector<std::pair<int64_t, double>> Samples,
                        int64_t WindowNs, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  std::vector<double> PerWindow, Window;
  int64_t End = Samples.front().first + WindowNs;
  for (const auto &[T, V] : Samples) {
    if (T >= End) {
      PerWindow.push_back(quantile(Window, Q));
      Window.clear();
      while (T >= End)
        End += WindowNs;
    }
    Window.push_back(V);
  }
  PerWindow.push_back(quantile(Window, Q));
  return median(PerWindow);
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

int nqueensSolutions(int N) {
  static const int Known[] = {1, 0, 0, 2, 10, 4, 40, 92, 352, 724};
  return N >= 1 && N <= 10 ? Known[N - 1] : -1;
}

std::optional<Source> nqueensSource(const std::string &Root, int N) {
  auto Text = readFile(Root + "/examples/v3/nqueens.v3");
  if (!Text)
    return std::nullopt;
  auto replaceOnce = [&](const std::string &From, const std::string &To) {
    size_t At = Text->find(From);
    if (At == std::string::npos)
      return false;
    Text->replace(At, From.size(), To);
    return true;
  };
  std::string NS = std::to_string(N);
  if (!replaceOnce("var n = 6;", "var n = " + NS + ";") ||
      !replaceOnce("\"6-queens", "\"" + NS + "-queens"))
    return std::nullopt;
  return Source{"nqueens" + NS, *Text};
}

std::optional<Expectation> interpretReference(const Source &Src,
                                              std::string *Err) {
  virgil::CompilerOptions Opts;
  Opts.StopAfterLower = true;
  virgil::Compiler C(Opts);
  auto P = C.compile(Src.Name, Src.Text, Err);
  if (!P)
    return std::nullopt;
  virgil::InterpResult R = P->interpret();
  if (R.Trapped) {
    if (Err)
      *Err = "reference interpreter trapped: " + R.TrapMessage;
    return std::nullopt;
  }
  Expectation E;
  E.Output = R.Output;
  if (R.Result.kind() == virgil::Value::Kind::Int) {
    E.HasResult = true;
    E.Result = R.Result.asInt();
  }
  return E;
}

std::string checkRun(const virgil::VmResult &R, const Expectation &E) {
  if (R.Trapped)
    return "trap: " + R.TrapMessage;
  if (R.Output != E.Output)
    return "output differs from reference";
  if (E.HasResult &&
      (!R.HasResult || (int64_t)(int32_t)R.ResultBits != E.Result))
    return "result " + std::to_string((int32_t)R.ResultBits) +
           " != reference " + std::to_string(E.Result);
  return "";
}

double peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : "/proc/self/status";
  auto Status = readFile(Path);
  if (!Status)
    return 0;
  size_t At = Status->find("VmHWM:");
  if (At == std::string::npos)
    return 0;
  return std::strtod(Status->c_str() + At + 6, nullptr) / 1024.0;
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if ((unsigned char)C >= 0x20)
      O += C;
  }
  return O;
}

std::string cpuModel() {
  auto Info = readFile("/proc/cpuinfo");
  if (!Info)
    return "unknown";
  size_t At = Info->find("model name");
  if (At == std::string::npos)
    return "unknown";
  size_t Colon = Info->find(':', At);
  size_t Eol = Info->find('\n', At);
  if (Colon == std::string::npos || Eol == std::string::npos || Colon > Eol)
    return "unknown";
  std::string M = Info->substr(Colon + 1, Eol - Colon - 1);
  size_t First = M.find_first_not_of(' ');
  return First == std::string::npos ? "unknown" : M.substr(First);
}

} // namespace

std::string hostRecordJson(const std::string &Commit,
                           const std::string &Digest) {
  virgil::VmOptions Defaults;
  const char *Jit = Defaults.Jit == virgil::VmOptions::JitMode::Off
                        ? "off"
                        : (virgil::jit::JitTier::hostSupported()
                               ? "available"
                               : "unavailable (interpreter only)");
  std::ostringstream S;
  S << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu\":\"" << jsonEscape(cpuModel()) << "\""
    << ",\"compiler\":\"" << jsonEscape(PERFBENCH_CXX_ID) << "\""
    << ",\"flags\":\"" << jsonEscape(PERFBENCH_CXX_FLAGS) << "\""
    << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
    << ",\"jit\":\"" << Jit << "\""
    << ",\"vm_dispatch\":\""
    << (virgil::Vm::threadedAvailable() ? "threaded" : "switch") << "\""
    << ",\"commit\":\"" << jsonEscape(Commit) << "\""
    << ",\"source_digest\":\"" << jsonEscape(Digest) << "\"}";
  return S.str();
}

int64_t SpanLog::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int SpanLog::begin(uint64_t Id, const char *Name, int Parent) {
  int64_t Now = nowNs();
  Spans.push_back(Span{Id, Name, Parent, Now, Now});
  return (int)Spans.size() - 1;
}

void SpanLog::end(int Index) { Spans[Index].EndNs = nowNs(); }

int SpanLog::add(uint64_t Id, const char *Name, int Parent, int64_t StartNs,
                 int64_t EndNs) {
  Spans.push_back(Span{Id, Name, Parent, StartNs, EndNs});
  return (int)Spans.size() - 1;
}

bool SpanLog::writeJsonl(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"span\":%zu,\"id\":%llu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 I, (unsigned long long)S.Id, S.Name, S.Parent,
                 (long long)S.StartNs, (long long)S.EndNs);
  }
  return std::fclose(F) == 0;
}

} // namespace perfbench
