//===- core/FeatureAxis.cpp -----------------------------------------------===//

#include "core/FeatureAxis.h"

#include "core/Compiler.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>

using namespace virgil;

static_assert(unsigned(VmOptions::JitMode::Auto) == 0 &&
                  unsigned(VmOptions::JitMode::On) == 1 &&
                  unsigned(VmOptions::JitMode::Off) == 2,
              "AxisGrammar::OnOffAuto stores JitMode values");

namespace {

struct Word {
  const char *Text;
  uint32_t Value;
};

constexpr Word OnOffWords[] = {{"on", 1}, {"off", 0}};
constexpr Word OnOffAutoWords[] = {{"on", 1}, {"off", 2}, {"auto", 0}};
constexpr Word GenSemiWords[] = {{"gen", 1},
                                 {"generational", 1},
                                 {"semi", 0},
                                 {"semispace", 0}};

const char *grammarText(const FeatureAxis &A) {
  switch (A.Grammar) {
  case AxisGrammar::OnOff:
    return "on|off";
  case AxisGrammar::OnOffAuto:
    return "on|off|auto";
  case AxisGrammar::GenSemi:
    return "gen|semi";
  case AxisGrammar::Number:
    return "N";
  }
  return "?";
}

template <size_t N>
bool lookUp(const Word (&Words)[N], std::string_view Text, uint32_t &Out) {
  for (const Word &W : Words)
    if (Text == W.Text) {
      Out = W.Value;
      return true;
    }
  return false;
}

/// Calls \p F with the field of Cache-keyed axis \p A in \p O.
template <class Opts, class Fn> void onCompileField(Axis A, Opts &O, Fn F) {
  switch (A) {
  case Axis::Share:
    return F(O.ShareSpecializations);
  case Axis::Escape:
    return F(O.Opt.Escape);
  case Axis::Ssa:
    return F(O.Opt.Ssa);
  default:
    return;
  }
}

/// Calls \p F with the field of Pool-keyed axis \p A in \p O.
template <class Opts, class Fn> void onVmField(Axis A, Opts &O, Fn F) {
  switch (A) {
  case Axis::Gc:
    return F(O.Generational);
  case Axis::NurseryBytes:
    return F(O.NurseryBytes);
  case Axis::Jit:
    return F(O.Jit);
  case Axis::JitThreshold:
    return F(O.JitThreshold);
  default:
    return;
  }
}

/// Parses \p Text under \p A's grammar; \p FromEnv also admits the
/// environment's 1|true|0|false. False on an illegal value.
bool parseAxisValue(const FeatureAxis &A, std::string_view Text,
                    bool FromEnv, uint32_t &Out) {
  if (FromEnv && A.Grammar != AxisGrammar::GenSemi) {
    if (Text == "1" || Text == "true")
      Text = "on";
    else if (Text == "0" || Text == "false")
      Text = "off";
  }
  switch (A.Grammar) {
  case AxisGrammar::OnOff:
    return lookUp(OnOffWords, Text, Out);
  case AxisGrammar::OnOffAuto:
    return lookUp(OnOffAutoWords, Text, Out);
  case AxisGrammar::GenSemi:
    return lookUp(GenSemiWords, Text, Out);
  case AxisGrammar::Number: {
    if (Text.empty())
      return false;
    uint64_t V = 0;
    for (char C : Text) {
      if (C < '0' || C > '9')
        return false;
      V = V * 10 + uint64_t(C - '0');
      if (V > A.Max)
        return false;
    }
    if (V < A.Min)
      return false;
    Out = uint32_t(V);
    return true;
  }
  }
  return false;
}

std::array<uint32_t, AxisCount> readDefaults() {
  std::array<uint32_t, AxisCount> D;
  for (const FeatureAxis &A : FeatureAxes) {
    D[unsigned(A.Id)] = A.Default;
    const char *E = A.Env ? std::getenv(A.Env) : nullptr;
    if (!E || !*E)
      continue;
    uint32_t V = 0;
    if (parseAxisValue(A, E, /*FromEnv=*/true, V))
      D[unsigned(A.Id)] = V;
    else
      std::fprintf(stderr,
                   "virgil: ignoring %s='%s' (expected %s); using the "
                   "default\n",
                   A.Env, E, grammarText(A));
  }
  return D;
}

} // namespace

uint32_t virgil::axisDefault(Axis A) {
  static const std::array<uint32_t, AxisCount> Defaults = readDefaults();
  return Defaults[unsigned(A)];
}

uint32_t virgil::axisValue(Axis A, const CompilerOptions &O) {
  uint32_t V = 0;
  onCompileField(A, O, [&](auto Field) { V = uint32_t(Field); });
  return V;
}

uint32_t virgil::axisValue(Axis A, const VmOptions &O) {
  uint32_t V = 0;
  onVmField(A, O, [&](auto Field) { V = uint32_t(Field); });
  return V;
}

namespace {
/// Stores \p V in an axis field of any type (bool, integer, JitMode).
auto storeValue(uint32_t V) {
  return [V](auto &Field) {
    Field = std::remove_reference_t<decltype(Field)>(V);
  };
}
} // namespace

void virgil::setAxisValue(Axis A, CompilerOptions &O, uint32_t V) {
  onCompileField(A, O, storeValue(V));
}

void virgil::setAxisValue(Axis A, VmOptions &O, uint32_t V) {
  onVmField(A, O, storeValue(V));
}

int virgil::parseAxisFlag(AxisMode Mode, const char *Tool, int &I, int Argc,
                          char **Argv, const AxisTargets &T) {
  for (const FeatureAxis &A : FeatureAxes) {
    if (!(A.Modes & Mode) || std::strcmp(Argv[I], A.Flag) != 0)
      continue;
    if (Mode == ModeFuzz && A.Leg != AxisLeg::None) {
      *T.Legs |= axisBit(A.Id);
      return 1;
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "%s: %s needs %s\n", Tool, A.Flag,
                   grammarText(A));
      return -1;
    }
    uint32_t V = 0;
    if (!parseAxisValue(A, Argv[++I], /*FromEnv=*/false, V)) {
      if (A.Grammar == AxisGrammar::Number)
        std::fprintf(stderr, "%s: %s must be an integer in [%u, %u], got "
                             "'%s'\n",
                     Tool, A.Flag, A.Min, A.Max, Argv[I]);
      else
        std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", Tool, A.Flag,
                     grammarText(A), Argv[I]);
      return -1;
    }
    switch (A.Key) {
    case AxisKey::Cache:
      setAxisValue(A.Id, *T.Compile, V);
      break;
    case AxisKey::Pool:
      setAxisValue(A.Id, *T.Vm, V);
      break;
    case AxisKey::None:
      *T.Pool = V != 0;
      break;
    }
    return 1;
  }
  return 0;
}

std::string virgil::axisUsage(AxisMode Mode) {
  std::string Out;
  for (const FeatureAxis &A : FeatureAxes) {
    if (!(A.Modes & Mode))
      continue;
    if (!Out.empty())
      Out += ' ';
    Out += '[';
    Out += A.Flag;
    if (Mode != ModeFuzz || A.Leg == AxisLeg::None) {
      Out += ' ';
      Out += grammarText(A);
    }
    Out += ']';
  }
  return Out;
}

std::string virgil::axisFlags(const CompilerOptions &O, AxisSet Axes,
                              bool Json) {
  std::string Out;
  for (const FeatureAxis &A : FeatureAxes) {
    if (A.Key != AxisKey::Cache || !(Axes & axisBit(A.Id)))
      continue;
    // Escape and SSA are optimizer passes: --no-opt runs neither.
    bool On = axisValue(A.Id, O) != 0 && (A.Id == Axis::Share || O.Optimize);
    if (!Out.empty())
      Out += Json ? "," : ", ";
    Out += Json ? "\"" : "";
    Out += A.Name;
    Out += Json ? (On ? "_enabled\":true" : "_enabled\":false")
                : (On ? " on" : " off");
  }
  return Out;
}
