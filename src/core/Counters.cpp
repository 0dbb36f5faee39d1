//===- core/Counters.cpp --------------------------------------------------===//

#include "core/Counters.h"

#include <cstdio>
#include <cstring>

using namespace virgil;

void CounterWriter::key(const CounterRow &Row) {
  if (!Json) {
    if (!Out.empty())
      Out += ", ";
    Out += Row.Key;
    Out += ' ';
    return;
  }
  auto Sep = [this] {
    if (!Out.empty() && Out.back() != '{')
      Out += ',';
  };
  const char *Dot = std::strchr(Row.Key, '.');
  std::string G = Dot ? std::string(Row.Key, Dot) : std::string();
  if (G != Group) {
    if (!Group.empty())
      Out += '}';
    Group = G;
    if (!G.empty()) {
      Sep();
      Out += '"';
      Out += Prefix;
      Out += G + "\":{";
    }
  }
  Sep();
  Out += '"';
  if (G.empty())
    Out += Prefix;
  Out += Dot ? Dot + 1 : Row.Key;
  Out += "\":";
}

void CounterWriter::add(const CounterRow &Row, uint64_t V) {
  key(Row);
  if (Row.Unit == CounterUnit::Flag)
    Out += V ? "true" : "false";
  else
    Out += std::to_string(V);
}

void CounterWriter::add(const CounterRow &Row, double V) {
  key(Row);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  Out += Buf;
}

std::string CounterWriter::finish() {
  if (!Group.empty())
    Out += '}';
  return std::move(Out);
}
