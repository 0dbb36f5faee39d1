#!/usr/bin/env bash
#===- tools/bench_all.sh - run every bench, aggregate BENCH_vm.json ------===#
#
# Runs every bench/bench_* binary with --json and merges the per-bench
# reports into one machine-readable file (default BENCH_vm.json in the
# repo root). Used locally to refresh the checked-in numbers and by the
# CI perf-smoke job.
#
# Server-side benches (bench_e13_server) aggregate separately into
# BENCH_server.json: request latency percentiles move with machine
# load in ways VM throughput does not, so they get their own file and
# their own gate.
#
# usage: bench_all.sh [--quick] [--out FILE] [--server-out FILE]
#                     [--bench-dir DIR] [--check BASELINE]
#                     [--check-server BASELINE]
#
#   --quick          pass --quick to each bench (reduced repetitions,
#                    no google-benchmark timing loops) — the CI mode
#   --out FILE       VM aggregate output path (default BENCH_vm.json)
#   --server-out FILE  server aggregate path (default BENCH_server.json)
#   --bench-dir DIR  where the bench binaries live (default build/bench)
#   --check BASELINE compare e1_callconv vm_minstr_per_sec against the
#                    baseline file and fail if it regressed > 30%
#   --check-server BASELINE  compare e13_server warm_p95_ms against the
#                    baseline file (fail above 3x), require the
#                    warm-over-cold speedup to stay >= 2x, require the
#                    pooled+threaded config to sustain >= 3x the
#                    single-loop/no-pool req/s, and require warm p50 not
#                    to regress past 3x the baseline p50
#
#===----------------------------------------------------------------------===#
set -euo pipefail

QUICK=""
OUT="BENCH_vm.json"
SERVER_OUT="BENCH_server.json"
BENCH_DIR="build/bench"
BASELINE=""
SERVER_BASELINE=""

while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK="--quick" ;;
    --out) OUT="$2"; shift ;;
    --server-out) SERVER_OUT="$2"; shift ;;
    --bench-dir) BENCH_DIR="$2"; shift ;;
    --check) BASELINE="$2"; shift ;;
    --check-server) SERVER_BASELINE="$2"; shift ;;
    *) echo "bench_all.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
  shift
done

if [ ! -d "$BENCH_DIR" ]; then
  echo "FAIL: bench dir '$BENCH_DIR' not found (build first)" >&2
  exit 1
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

FAILED=0
for BIN in "$BENCH_DIR"/bench_*; do
  [ -x "$BIN" ] || continue
  NAME=$(basename "$BIN")
  echo "== $NAME =="
  # Each bench writes its own JSON fragment; stdout is the human report.
  if ! "$BIN" $QUICK --json "$TMP/$NAME.json"; then
    echo "FAIL: $NAME exited non-zero" >&2
    FAILED=1
  fi
done

python3 - "$TMP" "$OUT" "$SERVER_OUT" <<'EOF'
import json, os, sys, subprocess

tmp, out, server_out = sys.argv[1], sys.argv[2], sys.argv[3]
SERVER_BENCHES = {"e13_server"}
benches, server_benches = {}, {}
for name in sorted(os.listdir(tmp)):
    with open(os.path.join(tmp, name)) as f:
        rec = json.load(f)
    dest = server_benches if rec["bench"] in SERVER_BENCHES else benches
    dest[rec["bench"]] = rec["metrics"]

commit = "unknown"
try:
    commit = subprocess.check_output(
        ["git", "rev-parse", "--short", "HEAD"],
        stderr=subprocess.DEVNULL).decode().strip()
except Exception:
    pass

with open(out, "w") as f:
    json.dump({"schema": "virgil-bench-v1", "commit": commit,
               "benches": benches}, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(benches)} benches)")
if server_benches:
    with open(server_out, "w") as f:
        json.dump({"schema": "virgil-bench-v1", "commit": commit,
                   "benches": server_benches}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {server_out} ({len(server_benches)} benches)")
EOF

if [ -n "$BASELINE" ]; then
  python3 - "$OUT" "$BASELINE" <<'EOF'
import json, sys

cur = json.load(open(sys.argv[1]))["benches"]
base = json.load(open(sys.argv[2]))["benches"]
key = "vm_minstr_per_sec"
have = cur.get("e1_callconv", {}).get(key)
want = base.get("e1_callconv", {}).get(key)
if have is None or want is None:
    print("FAIL: e1_callconv %s missing from results or baseline" % key)
    sys.exit(1)
# The gate is deliberately loose (30%): shared CI runners are noisy,
# and the point is to catch engine regressions, not scheduler jitter.
floor = want * 0.70
print(f"perf gate: e1_callconv {key} = {have:.1f}, "
      f"baseline {want:.1f}, floor {floor:.1f}")
if have < floor:
    print("FAIL: VM throughput regressed more than 30% vs baseline")
    sys.exit(1)
# Generational GC gate: the nursery must beat the single-space
# collector on the allocation-dominated churn (E8 part 3). This is a
# same-process ratio of two runs, so it is load-independent and can
# gate much tighter than absolute throughput; the baseline floor is
# still conservative next to locally measured speedups.
gc_key = "alloc_speedup_gen"
gc_have = cur.get("e8_alloc_gc", {}).get(gc_key)
gc_want = base.get("e8_alloc_gc", {}).get(gc_key)
if gc_have is None or gc_want is None:
    print("FAIL: e8_alloc_gc %s missing from results or baseline" % gc_key)
    sys.exit(1)
print(f"perf gate: e8_alloc_gc {gc_key} = {gc_have:.2f}x, "
      f"floor {gc_want:.2f}x")
if gc_have < gc_want:
    print("FAIL: generational allocation speedup below baseline floor")
    sys.exit(1)
# Specialization-sharing gate: normalized-instruction expansion
# reclaimed by the sharing pass on the ref-heavy E16 workload. A
# same-process ratio of two static instruction counts — fully
# deterministic, so it gates at the baseline floor exactly. Guards
# both the pass (stops merging -> ratio drops to 1.0) and the
# workload (stops exercising ref instantiations -> ratio collapses).
share_key = "code_expansion_ratio"
share_have = cur.get("e5_expansion", {}).get(share_key)
share_want = base.get("e5_expansion", {}).get(share_key)
if share_have is None or share_want is None:
    print("FAIL: e5_expansion %s missing from results or baseline"
          % share_key)
    sys.exit(1)
print(f"perf gate: e5_expansion {share_key} = {share_have:.2f}x, "
      f"floor {share_want:.2f}x")
if share_have < share_want:
    print("FAIL: specialization sharing reclaims less code expansion "
          "than baseline")
    sys.exit(1)
# Sharing must be performance-neutral at run time: the merged bodies
# are the same instruction stream, so share-on throughput staying
# within noise of share-off is part of the invisibility contract.
# 30% slack, same as the absolute-throughput gate above.
sh_on = cur.get("e5_expansion", {}).get("vm_minstr_per_sec_share_on")
sh_off = cur.get("e5_expansion", {}).get("vm_minstr_per_sec_share_off")
if sh_on is None or sh_off is None:
    print("FAIL: e5_expansion share on/off throughput missing")
    sys.exit(1)
print(f"perf gate: e5_expansion share on/off Minstr/s = "
      f"{sh_on:.1f}/{sh_off:.1f}")
if sh_on < sh_off * 0.70:
    print("FAIL: sharing-on VM throughput regressed more than 30% vs "
          "sharing-off in the same run")
    sys.exit(1)
# Escape-analysis gate: nursery bytes reclaimed by scalar replacement
# on the E17 churn workload (E8's escape section). A same-process
# ratio of two allocation counts — fully deterministic, so it gates
# at the baseline floor exactly (and never below the 1.3x acceptance
# bar). Guards both the pass (stops eliding -> ratio drops to 1.0)
# and the workload (stops allocating scalar-replaceable objects).
esc_key = "escape_nursery_reduction"
esc_have = cur.get("e8_alloc_gc", {}).get(esc_key)
esc_want = base.get("e8_alloc_gc", {}).get(esc_key)
if esc_have is None or esc_want is None:
    print("FAIL: e8_alloc_gc %s missing from results or baseline"
          % esc_key)
    sys.exit(1)
esc_floor = max(esc_want, 1.3)
print(f"perf gate: e8_alloc_gc {esc_key} = {esc_have:.2f}x, "
      f"floor {esc_floor:.2f}x")
if esc_have < esc_floor:
    print("FAIL: escape analysis reclaims fewer nursery bytes than "
          "baseline")
    sys.exit(1)
# JIT tier gate (E18): hot-loop throughput with the baseline JIT on
# must stay >= 2x the interpreter on the call-dense E1 workload — the
# tier's acceptance bar. A same-process ratio of two runs, so it is
# load-independent. Skipped (with a notice) when the host cannot run
# the JIT at all (non-x86-64, W^X mmap unavailable): the tier is
# designed to fall back to the interpreter there, and the sweep tests
# cover that path.
jit_avail = cur.get("e1_callconv", {}).get("jit_available")
jit_have = cur.get("e1_callconv", {}).get("jit_speedup")
if jit_avail is None:
    print("FAIL: e1_callconv jit_available missing from results")
    sys.exit(1)
if jit_avail == 0:
    print("perf gate: e1_callconv jit_speedup skipped "
          "(JIT unavailable on this host)")
else:
    if jit_have is None:
        print("FAIL: e1_callconv jit_speedup missing from results")
        sys.exit(1)
    print(f"perf gate: e1_callconv jit_speedup = {jit_have:.2f}x, "
          f"floor 2.00x")
    if jit_have < 2.0:
        print("FAIL: JIT tier is not 2x the interpreter on the E1 "
              "hot loop")
        sys.exit(1)
# Folding gate (E10): with the SSA mid-tier off nothing folds, so the
# '- folding' row must keep dynamic type tests. Zero would mean the row
# no longer ablates folding (some other pass decides the queries), and
# E10 would stop measuring what its label says.
nf = cur.get("e10_ablation", {}).get("no_folding_residual_casts")
if nf is None:
    print("FAIL: e10_ablation no_folding_residual_casts missing")
    sys.exit(1)
print(f"perf gate: e10_ablation no_folding_residual_casts = {nf:.0f}, "
      f"must be > 0")
if nf <= 0:
    print("FAIL: E10's '- folding' row decides every type test statically")
    sys.exit(1)
# SSA mid-tier gate (E19): retired VM instructions on the
# field/classify workload, ssa-off / ssa-on. A same-process ratio of
# two deterministic instruction counts, so it gates at the baseline
# floor exactly (and never below the 1.15x acceptance bar). Guards
# both the sparse passes (SCCP stops folding / load elim stops
# forwarding -> ratio drops toward 1.0) and the workload (stops
# exercising join re-reads and query ladders).
ssa_key = "ssa_instr_reduction"
ssa_have = cur.get("e5_expansion", {}).get(ssa_key)
ssa_want = base.get("e5_expansion", {}).get(ssa_key)
if ssa_have is None or ssa_want is None:
    print("FAIL: e5_expansion %s missing from results or baseline"
          % ssa_key)
    sys.exit(1)
ssa_floor = max(ssa_want, 1.15)
print(f"perf gate: e5_expansion {ssa_key} = {ssa_have:.2f}x, "
      f"floor {ssa_floor:.2f}x")
if ssa_have < ssa_floor:
    print("FAIL: SSA mid-tier retires fewer instructions than the "
          "baseline floor")
    sys.exit(1)
# The sparse rewrite must not trade instruction count for wall time:
# ssa-on wall-time per run (interpreter and, when available, JIT)
# must stay within a 30% envelope of ssa-off in the same run. The
# comparison is run time, not Minstr/s — the two legs execute
# different instruction streams by design, and the instructions SSA
# removes are the cheap ones, so rate alone would under-credit the
# win.
ssa_rt = cur.get("e5_expansion", {}).get("ssa_run_time_ratio")
if ssa_rt is None:
    print("FAIL: e5_expansion ssa_run_time_ratio missing")
    sys.exit(1)
print(f"perf gate: e5_expansion ssa on/off VM run-time ratio = "
      f"{ssa_rt:.2f}")
if ssa_rt > 1.30:
    print("FAIL: ssa-on VM run time regressed more than 30% vs "
          "ssa-off in the same run")
    sys.exit(1)
if jit_avail != 0:
    sj_rt = cur.get("e5_expansion", {}).get("ssa_jit_run_time_ratio")
    if sj_rt is None:
        print("FAIL: e5_expansion ssa_jit_run_time_ratio missing")
        sys.exit(1)
    print(f"perf gate: e5_expansion ssa on/off JIT run-time ratio = "
          f"{sj_rt:.2f}")
    if sj_rt > 1.30:
        print("FAIL: ssa-on JIT run time regressed more than 30% vs "
              "ssa-off in the same run")
        sys.exit(1)
# Opt wall-time: the whole-optimizer cost with the sandwich on must
# stay in an envelope of the optimizer without it. Wall-clock ms on a
# shared runner is the noisiest thing this gate touches, so the slack
# is 2x, not 30%; catching "SSA made the optimizer quadratic" is the
# point, not ms-level jitter.
om_on = cur.get("e5_expansion", {}).get("opt_ms_ssa_on")
om_off = cur.get("e5_expansion", {}).get("opt_ms_ssa_off")
if om_on is None or om_off is None:
    print("FAIL: e5_expansion ssa on/off opt wall-time missing")
    sys.exit(1)
print(f"perf gate: e5_expansion ssa on/off opt ms = "
      f"{om_on:.2f}/{om_off:.2f}")
if om_on > om_off * 2.0 and om_on - om_off > 20.0:
    print("FAIL: optimizer wall-time with the SSA mid-tier more than "
          "doubled vs the optimizer without it")
    sys.exit(1)
print("perf gate: ok")
EOF
fi

if [ -n "$SERVER_BASELINE" ]; then
  python3 - "$SERVER_OUT" "$SERVER_BASELINE" <<'EOF'
import json, sys

cur = json.load(open(sys.argv[1]))["benches"].get("e13_server", {})
base = json.load(open(sys.argv[2]))["benches"].get("e13_server", {})
p95, base_p95 = cur.get("warm_p95_ms"), base.get("warm_p95_ms")
speedup = cur.get("warm_speedup")
if p95 is None or base_p95 is None or speedup is None:
    print("FAIL: e13_server metrics missing from results or baseline")
    sys.exit(1)
# Latency gates are looser than throughput gates (3x): a shared
# runner's scheduler can triple a sub-millisecond p95 on its own. The
# warm-over-cold speedup is load-independent, so it gates tight.
ceil = base_p95 * 3.0
print(f"server gate: warm_p95_ms = {p95:.3f}, baseline {base_p95:.3f}, "
      f"ceiling {ceil:.3f}; warm_speedup = {speedup:.1f}x")
if p95 > ceil:
    print("FAIL: server warm p95 regressed more than 3x vs baseline")
    sys.exit(1)
if speedup < 2.0:
    print("FAIL: warm requests are not 2x faster than cold at p95")
    sys.exit(1)
# Warm p50 non-regression: same 3x latency slack as p95 — the pool
# must not make the common case slower while winning on throughput.
p50, base_p50 = cur.get("warm_p50_ms"), base.get("warm_p50_ms")
if p50 is None or base_p50 is None:
    print("FAIL: e13_server warm_p50_ms missing from results or baseline")
    sys.exit(1)
p50_ceil = base_p50 * 3.0
print(f"server gate: warm_p50_ms = {p50:.3f}, baseline {base_p50:.3f}, "
      f"ceiling {p50_ceil:.3f}")
if p50 > p50_ceil:
    print("FAIL: server warm p50 regressed more than 3x vs baseline")
    sys.exit(1)
# Sustained-throughput gate (E15): the production config (sharded
# event loops + warm-VM pool) versus the pre-pool architecture, as a
# same-process ratio — load-independent, so it gates at the absolute
# floor the baseline records (>= 3x per the pool's acceptance bar).
sust = cur.get("sustained_speedup")
sust_floor = base.get("sustained_speedup")
if sust is None or sust_floor is None:
    print("FAIL: e13_server sustained_speedup missing from results "
          "or baseline")
    sys.exit(1)
print(f"server gate: sustained_speedup = {sust:.2f}x, "
      f"floor {sust_floor:.2f}x")
if sust < sust_floor:
    print("FAIL: pooled+threaded server does not sustain the required "
          "multiple of single-loop req/s")
    sys.exit(1)
print("server gate: ok")
EOF
fi

exit $FAILED
