#!/usr/bin/env bash
#===- tools/check_cli_exit_codes.sh - CLI exit-code contract -------------===#
#
# `virgilc batch` promises distinct exit codes so scripts and CI can
# tell failure modes apart without scraping output:
#   0  all inputs compiled (and ran, with --run) cleanly
#   1  at least one input failed to compile
#   2  usage error (no inputs, unknown option, bad --jobs)
#   3  an input file could not be opened
#   4  compiles succeeded but at least one --run trapped
# Errors must go to stderr; stdout stays machine-friendly, and its JSON
# line (like --vm-stats' line on stderr) must parse.
#
# The engine feature flags (the FeatureAxes table, core/FeatureAxis.h)
# are checked per tool mode: every legal value is accepted, a bad one
# exits 2 with a diagnostic, the flag appears in that mode's usage
# text, and a bad environment value is reported instead of being
# silently read as the default.
#
# usage: check_cli_exit_codes.sh [path-to-virgilc] [path-to-virgild]
#
#===----------------------------------------------------------------------===#
set -uo pipefail

VIRGILC=${1:-build/tools/virgilc}
VIRGILD=${2:-build/tools/virgild}

for TOOL in "$VIRGILC" "$VIRGILD"; do
  if [ ! -x "$TOOL" ]; then
    echo "FAIL: $TOOL not found (build first)" >&2
    exit 1
  fi
done

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# expect <code> <label> -- <args...>: run virgilc (or $BIN when set),
# check the exit code, and require any diagnostics to land on stderr
# (stdout may hold batch status lines but no error text).
expect() {
  local Want=$1 Label=$2; shift 2
  local Out Err Code
  Out=$("${BIN:-$VIRGILC}" "$@" 2>"$DIR/stderr")
  Code=$?
  Err=$(cat "$DIR/stderr")
  [ "$Code" -eq "$Want" ] \
    || fail "$Label: expected exit $Want, got $Code (stderr: $Err)"
  if [ "$Want" -ne 0 ]; then
    [ -n "$Err" ] || fail "$Label: exit $Want but stderr is empty"
  fi
  echo "ok: $Label -> exit $Code"
}

cat > "$DIR/good.v" <<'EOF'
def main() -> int { return 7; }
EOF
cat > "$DIR/bad_compile.v" <<'EOF'
def main() -> int { return undefined_name; }
EOF
cat > "$DIR/traps.v" <<'EOF'
def main() -> int { var z = 0; return 1 / z; }
EOF

expect 2 "no input files"      batch
expect 2 "unknown option"      batch --frobnicate "$DIR/good.v"
expect 2 "bad --jobs"          batch --jobs potato "$DIR/good.v"
expect 3 "missing input file"  batch "$DIR/does_not_exist.v"
expect 1 "compile error"       batch "$DIR/bad_compile.v"
expect 4 "trap under --run"    batch --run "$DIR/traps.v"
expect 0 "clean compile"       batch "$DIR/good.v"
expect 0 "clean run"           batch --run "$DIR/good.v"

expect 2 "unknown --dump-ir pass" --dump-ir=fold "$DIR/good.v"
"$VIRGILC" --dump-ir=sccp "$DIR/good.v" > /dev/null 2>&1
[ $? -eq 7 ] || fail "--dump-ir=sccp: a known pass must run the program"

# Compile failure beats trap when both occur in one batch.
expect 1 "compile error + trap" batch --run "$DIR/bad_compile.v" "$DIR/traps.v"

echo "PASS: batch exit codes 0/1/2/3/4 all verified"

# The machine-readable outputs parse: the batch JSON line (the last
# stdout line) and the --vm-stats line (stderr).
PARSE='import json,sys; json.load(sys.stdin)'
"$VIRGILC" batch --stats "$DIR/good.v" > "$DIR/batch_out"
tail -n 1 "$DIR/batch_out" | python3 -c "$PARSE" \
  || fail "batch JSON line does not parse: $(tail -n 1 "$DIR/batch_out")"
"$VIRGILC" --vm-stats "$DIR/good.v" > /dev/null 2> "$DIR/vm_stats"
python3 -c "$PARSE" < "$DIR/vm_stats" \
  || fail "--vm-stats line does not parse: $(cat "$DIR/vm_stats")"
echo "ok: batch JSON line and --vm-stats parse"

# The axis contract, one line per flag a mode takes: mode, flag, then
# its legal values ("-" for a fuzz-mode switch that selects oracle
# legs) and, after "|", values it must reject.
AXES='
single --mono-share on off | of ""
single --opt-escape on off | of 1
single --opt-ssa on off | of true
single --vm-gc gen generational semi semispace | of
single --vm-nursery-bytes 128 65536 1073741824 | 127 1073741825 4k
single --vm-jit on off auto | of
single --jit-threshold 0 64 4294967294 | 4294967295 -1 x
batch --mono-share on off | of
batch --opt-escape on off | of
batch --opt-ssa on off | of
fuzz --mono-share -
fuzz --opt-escape -
fuzz --opt-ssa -
fuzz --vm-gc gen generational semi semispace | of
fuzz --vm-nursery-bytes 128 4096 | 127
fuzz --vm-jit -
fuzz --vm-pool -
daemon --mono-share on off | of
daemon --opt-escape on off | of
daemon --opt-ssa on off | of
daemon --vm-gc gen generational semi semispace | of
daemon --vm-nursery-bytes 128 65536 1073741824 | 127 1073741825
daemon --vm-jit on off auto | of
daemon --jit-threshold 0 64 4294967294 | 4294967295
daemon --vm-pool on off | of
'

# Each mode's usage section: virgilc prints all three modes, virgild
# its own.
"$VIRGILC" 2> "$DIR/usage_c"
"$VIRGILD" 2> "$DIR/usage_d"
usage_of() {
  case $1 in
    single) sed -n '/^usage: virgilc/,/virgilc batch/p' "$DIR/usage_c" \
              | sed '$d' ;;
    batch) sed -n '/virgilc batch/,/virgilc fuzz/p' "$DIR/usage_c" \
              | sed '$d' ;;
    fuzz) sed -n '/virgilc fuzz/,$p' "$DIR/usage_c" ;;
    daemon) cat "$DIR/usage_d" ;;
  esac
}

# run_mode <mode> <flag> [value]: the mode's invocation with one flag.
# A legal value exits 0 (batch, fuzz), 7 (the single-mode program's
# result) or 2 with virgild's missing-listener error.
run_mode() {
  local Mode=$1; shift
  case $Mode in
    single) BIN=$VIRGILC expect_any "$@" "$DIR/good.v" ;;
    batch) BIN=$VIRGILC expect_any batch "$@" "$DIR/good.v" ;;
    fuzz) BIN=$VIRGILC expect_any fuzz --seeds 1 --no-reduce "$@" ;;
    daemon) BIN=$VIRGILD expect_any "$@" ;;
  esac
}
expect_any() {
  "$BIN" "$@" > /dev/null 2> "$DIR/stderr"
  echo $?
}
legal_code() {
  case $1 in
    single) echo 7 ;;
    batch|fuzz) echo 0 ;;
    daemon) echo 2 ;;
  esac
}

while read -r MODE FLAG REST; do
  [ -n "$MODE" ] || continue
  usage_of "$MODE" | grep -q -- "\[$FLAG[] ]" \
    || fail "$MODE usage omits $FLAG"
  GOOD=${REST%%|*}
  BAD=""
  [ "$GOOD" = "$REST" ] || BAD=${REST#*|}
  for V in $GOOD; do
    if [ "$V" = "-" ]; then
      CODE=$(run_mode "$MODE" "$FLAG")
    else
      CODE=$(run_mode "$MODE" "$FLAG" "$V")
    fi
    [ "$CODE" -eq "$(legal_code "$MODE")" ] \
      || fail "$MODE $FLAG $V: exit $CODE ($(cat "$DIR/stderr"))"
    if [ "$MODE" = daemon ]; then
      grep -q 'need at least one of --unix or --tcp' "$DIR/stderr" \
        || fail "daemon $FLAG $V: did not reach the listener check"
    fi
  done
  for V in $BAD; do
    [ "$V" = '""' ] && V=""
    CODE=$(run_mode "$MODE" "$FLAG" "$V")
    [ "$CODE" -eq 2 ] || fail "$MODE $FLAG '$V': expected exit 2, got $CODE"
    grep -q -- "$FLAG" "$DIR/stderr" \
      || fail "$MODE $FLAG '$V': no diagnostic naming the flag"
  done
  echo "ok: $MODE $FLAG"
done <<< "$AXES"

# A bad environment value is diagnosed, and the default still applies.
for VAR in VIRGIL_MONO_SHARE VIRGIL_OPT_ESCAPE VIRGIL_OPT_SSA VIRGIL_VM_GC \
           VIRGIL_VM_NURSERY_BYTES VIRGIL_VM_JIT VIRGIL_VM_JIT_THRESHOLD; do
  CODE=$(env "$VAR=of" "$VIRGILC" "$DIR/good.v" 2> "$DIR/stderr" \
           > /dev/null; echo $?)
  [ "$CODE" -eq 7 ] || fail "$VAR=of: exit $CODE"
  grep -q "$VAR" "$DIR/stderr" || fail "$VAR=of: no diagnostic"
  echo "ok: $VAR=of diagnosed"
done

echo "PASS: feature-axis flags, usage text and environment verified"
