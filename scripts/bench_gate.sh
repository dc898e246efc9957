#!/usr/bin/env bash
# Bench regression gate: compare fresh measurements from the offline
# Criterion shim against the committed BENCH_*.json baselines.
#
# Absolute ns/iter numbers are machine-dependent, so the gate compares
# RATIOS, which are stable across hosts:
#
#   * trace:  the record-plus-replay speedup over full re-simulation
#             (BENCH_trace.json "record-plus-replay-vs-full-resim") must
#             not drop below TOLERANCE (80%) of the committed value;
#   * inject: the amortized per-trial cost of a 16-trial campaign over a
#             plain instrumented run (BENCH_inject.json
#             "per-trial-in-16-trial-campaign-vs-plain-run") must not
#             rise above 1/TOLERANCE (120%) of the committed value;
#   * shadow: disabled-mode overhead (a no-hook launch through the
#             instrumentation framework vs a plain launch,
#             BENCH_shadow.json "shadow-disabled-vs-plain") must stay
#             within noise of the baseline, and the full-FP64-shadow
#             slowdown ("full-shadow-slowdown") must not rise above
#             1/TOLERANCE (125%) of the committed ratio;
#   * hotpath: the wall-clock slowdown of each instrumented tool over a
#             plain launch (BENCH_hotpath.json "*-hotpath-slowdown") must
#             not rise above 1/TOLERANCE (125%) of the committed value —
#             this is the ratchet for the coalesced-channel / SoA /
#             decode-cache hot path;
#   * coach:  the coach-vs-plain slowdown on a lineage-dense kernel
#             (BENCH_coach.json "coach-timeline-slowdown") must not rise
#             above 1/TOLERANCE (125%) of the committed ratio — the
#             ratchet for the per-write lineage bookkeeping behind
#             birth→kill timelines;
#   * scope:  telemetry-observation overhead (BENCH_scope.json). The
#             disabled-handle row is gated at an ABSOLUTE 1.02x ceiling
#             over the plain fold — a disabled observation is one
#             inlined branch and must stay free regardless of what the
#             committed baseline says; the enabled row
#             ("scope-enabled-vs-plain") must not rise above
#             1/TOLERANCE (125%) of the committed ratio;
#   * serve:  cache-hit throughput over cache-miss throughput must stay
#             at or above the 10x acceptance floor. Unlike the other two
#             checks this is an absolute floor, not a band around the
#             committed BENCH_serve.json ratio: the measured ratio is
#             ~1e5 with a microsecond-scale hit-path denominator, so the
#             committed value is machine-dependent in a way the paper's
#             replay/inject ratios are not.
#
# Every ratio line also prints the absolute ns/iter of its numerator and
# denominator, so a moved denominator (a faster plain launch raising
# every slowdown ratio) shows in the log.
#
# Usage: scripts/bench_gate.sh
# Env:   CRITERION_BUDGET_MS  per-benchmark measurement budget
#                             (default 2000 here; the shim's own default
#                             of 200 is too noisy for gating)
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET_MS="${CRITERION_BUDGET_MS:-2000}"
TOLERANCE=0.8
OUT_DIR="${TMPDIR:-/tmp}/fpx-bench-gate.$$"
mkdir -p "$OUT_DIR"
trap 'rm -rf "$OUT_DIR"' EXIT

# The shim prints one line per benchmark, the name prefixed with its
# group:
#   {group}/{name:<40} {ns:>12.1} ns/iter ({n} samples)
fresh_ns() { # fresh_ns <output-file> <bench-name>
    awk -v name="$2" '$3 == "ns/iter" { n = $1; sub(/^.*\//, "", n);
        if (n == name) { print $2; exit } }' "$1"
}

committed() { # committed <json-file> <key>
    sed -n "s/.*\"$2\": *\([0-9][0-9.]*\).*/\1/p" "$1" | head -1
}

ratio() { # ratio <numerator> <denominator>
    awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'
}

fail=0
flag_regression() { # flag_regression <what> <fresh> <committed> <baseline-file> <bench>
    echo "FAIL: $1: fresh $2 vs committed $3 (beyond the ${TOLERANCE} tolerance band)"
    echo "      If this slowdown is intentional, regenerate the baseline:"
    echo "        cargo bench -p fpx-bench --bench $5"
    echo "      and update the ratios and ns/iter numbers in $4."
    fail=1
}

echo "== bench gate: trace_replay (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench trace_replay \
    | tee "$OUT_DIR/trace.out"
full=$(fresh_ns "$OUT_DIR/trace.out" full-resim-4-configs)
rr=$(fresh_ns "$OUT_DIR/trace.out" record-plus-replay-4-configs)
[ -n "$full" ] && [ -n "$rr" ] || { echo "FAIL: could not parse trace_replay output"; exit 1; }
fresh_speedup=$(ratio "$full" "$rr")
want_speedup=$(committed BENCH_trace.json record-plus-replay-vs-full-resim)
echo "record-plus-replay speedup: fresh ${fresh_speedup}x (${full} / ${rr} ns/iter), committed ${want_speedup}x"
if ! awk -v f="$fresh_speedup" -v c="$want_speedup" -v t="$TOLERANCE" \
        'BEGIN { exit !(f >= c * t) }'; then
    flag_regression "trace replay speedup regressed" "${fresh_speedup}x" "${want_speedup}x" \
        BENCH_trace.json trace_replay
fi

echo
echo "== bench gate: inject_campaign (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench inject_campaign \
    | tee "$OUT_DIR/inject.out"
plain=$(fresh_ns "$OUT_DIR/inject.out" plain-detector-run)
campaign=$(fresh_ns "$OUT_DIR/inject.out" campaign-16-trials-detector)
[ -n "$plain" ] && [ -n "$campaign" ] || { echo "FAIL: could not parse inject_campaign output"; exit 1; }
per_trial=$(awk -v c="$campaign" 'BEGIN { printf "%.1f", c / 16 }')
fresh_ratio=$(ratio "$per_trial" "$plain")
want_ratio=$(committed BENCH_inject.json per-trial-in-16-trial-campaign-vs-plain-run)
echo "amortized per-trial ratio: fresh ${fresh_ratio}x (${per_trial} / ${plain} ns/iter), committed ${want_ratio}x"
if ! awk -v f="$fresh_ratio" -v c="$want_ratio" -v t="$TOLERANCE" \
        'BEGIN { exit !(f <= c / t) }'; then
    flag_regression "inject per-trial overhead regressed" "${fresh_ratio}x" "${want_ratio}x" \
        BENCH_inject.json inject_campaign
fi

echo
echo "== bench gate: shadow_overhead (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench shadow_overhead \
    | tee "$OUT_DIR/shadow.out"
plain32=$(fresh_ns "$OUT_DIR/shadow.out" plain-fp32)
disabled=$(fresh_ns "$OUT_DIR/shadow.out" shadow-disabled-fp32)
sfull=$(fresh_ns "$OUT_DIR/shadow.out" shadow-full-fp32)
[ -n "$plain32" ] && [ -n "$disabled" ] && [ -n "$sfull" ] \
    || { echo "FAIL: could not parse shadow_overhead output"; exit 1; }
fresh_disabled=$(ratio "$disabled" "$plain32")
want_disabled=$(committed BENCH_shadow.json shadow-disabled-vs-plain)
echo "shadow disabled-mode ratio: fresh ${fresh_disabled}x (${disabled} / ${plain32} ns/iter), committed ${want_disabled}x"
if ! awk -v f="$fresh_disabled" -v c="$want_disabled" -v t="$TOLERANCE" \
        'BEGIN { exit !(f <= c / t) }'; then
    flag_regression "shadow disabled-mode overhead regressed (must stay within noise of plain)" \
        "${fresh_disabled}x" "${want_disabled}x" BENCH_shadow.json shadow_overhead
fi
fresh_full=$(ratio "$sfull" "$plain32")
want_full=$(committed BENCH_shadow.json full-shadow-slowdown)
echo "full-shadow slowdown: fresh ${fresh_full}x (${sfull} / ${plain32} ns/iter), committed ${want_full}x"
if ! awk -v f="$fresh_full" -v c="$want_full" -v t="$TOLERANCE" \
        'BEGIN { exit !(f <= c / t) }'; then
    flag_regression "full-shadow slowdown regressed" "${fresh_full}x" "${want_full}x" \
        BENCH_shadow.json shadow_overhead
fi

echo
echo "== bench gate: hotpath (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench hotpath \
    | tee "$OUT_DIR/hotpath.out"
hp_plain=$(fresh_ns "$OUT_DIR/hotpath.out" plain-launch)
[ -n "$hp_plain" ] || { echo "FAIL: could not parse hotpath output"; exit 1; }
for tool in detector analyzer binfpe; do
    inst=$(fresh_ns "$OUT_DIR/hotpath.out" "${tool}-coalesced")
    [ -n "$inst" ] || { echo "FAIL: could not parse hotpath output"; exit 1; }
    fresh_slow=$(ratio "$inst" "$hp_plain")
    want_slow=$(committed BENCH_hotpath.json "${tool}-hotpath-slowdown")
    echo "${tool} hot-path slowdown: fresh ${fresh_slow}x (${inst} / ${hp_plain} ns/iter), committed ${want_slow}x"
    if ! awk -v f="$fresh_slow" -v c="$want_slow" -v t="$TOLERANCE" \
            'BEGIN { exit !(f <= c / t) }'; then
        flag_regression "${tool} hot-path slowdown regressed" "${fresh_slow}x" "${want_slow}x" \
            BENCH_hotpath.json hotpath
    fi
done

echo
echo "== bench gate: coach_timeline (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench coach_timeline \
    | tee "$OUT_DIR/coach.out"
co_plain=$(fresh_ns "$OUT_DIR/coach.out" plain-launch)
co_coach=$(fresh_ns "$OUT_DIR/coach.out" coach-observe)
[ -n "$co_plain" ] && [ -n "$co_coach" ] || { echo "FAIL: could not parse coach_timeline output"; exit 1; }
fresh_coach=$(ratio "$co_coach" "$co_plain")
want_coach=$(committed BENCH_coach.json coach-timeline-slowdown)
echo "coach timeline slowdown: fresh ${fresh_coach}x (${co_coach} / ${co_plain} ns/iter), committed ${want_coach}x"
if ! awk -v f="$fresh_coach" -v c="$want_coach" -v t="$TOLERANCE" \
        'BEGIN { exit !(f <= c / t) }'; then
    flag_regression "coach timeline slowdown regressed" "${fresh_coach}x" "${want_coach}x" \
        BENCH_coach.json coach_timeline
fi

echo
echo "== bench gate: scope_overhead (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench scope_overhead \
    | tee "$OUT_DIR/scope.out"
sc_plain=$(fresh_ns "$OUT_DIR/scope.out" plain-fold-4096)
sc_disabled=$(fresh_ns "$OUT_DIR/scope.out" observe-disabled-4096)
sc_enabled=$(fresh_ns "$OUT_DIR/scope.out" observe-enabled-4096)
[ -n "$sc_plain" ] && [ -n "$sc_disabled" ] && [ -n "$sc_enabled" ] \
    || { echo "FAIL: could not parse scope_overhead output"; exit 1; }
fresh_sc_disabled=$(ratio "$sc_disabled" "$sc_plain")
want_sc_disabled_ceiling=1.02
echo "scope disabled-handle ratio: fresh ${fresh_sc_disabled}x (${sc_disabled} / ${sc_plain} ns/iter) (absolute ceiling ${want_sc_disabled_ceiling}x," \
     "committed $(committed BENCH_scope.json scope-disabled-vs-plain)x)"
if ! awk -v f="$fresh_sc_disabled" -v c="$want_sc_disabled_ceiling" 'BEGIN { exit !(f <= c) }'; then
    flag_regression "scope disabled-handle observation is no longer free" \
        "${fresh_sc_disabled}x" "${want_sc_disabled_ceiling}x (ceiling)" BENCH_scope.json scope_overhead
fi
fresh_sc_enabled=$(ratio "$sc_enabled" "$sc_plain")
want_sc_enabled=$(committed BENCH_scope.json scope-enabled-vs-plain)
echo "scope enabled-registry ratio: fresh ${fresh_sc_enabled}x (${sc_enabled} / ${sc_plain} ns/iter), committed ${want_sc_enabled}x"
if ! awk -v f="$fresh_sc_enabled" -v c="$want_sc_enabled" -v t="$TOLERANCE" \
        'BEGIN { exit !(f <= c / t) }'; then
    flag_regression "scope enabled-registry overhead regressed" "${fresh_sc_enabled}x" "${want_sc_enabled}x" \
        BENCH_scope.json scope_overhead
fi

echo
echo "== bench gate: serve_load (budget ${BUDGET_MS}ms/bench) =="
CRITERION_BUDGET_MS="$BUDGET_MS" cargo bench -q -p fpx-bench --bench serve_load \
    | tee "$OUT_DIR/serve.out"
miss=$(fresh_ns "$OUT_DIR/serve.out" miss-4-jobs-4-workers)
hit=$(fresh_ns "$OUT_DIR/serve.out" hit-4-jobs-4-workers)
[ -n "$miss" ] && [ -n "$hit" ] || { echo "FAIL: could not parse serve_load output"; exit 1; }
fresh_hit_speedup=$(ratio "$miss" "$hit")
want_hit_floor=10
echo "cache-hit vs cache-miss throughput: fresh ${fresh_hit_speedup}x (${miss} / ${hit} ns/iter) (acceptance floor ${want_hit_floor}x," \
     "committed $(committed BENCH_serve.json cache-hit-vs-miss-throughput)x)"
if ! awk -v f="$fresh_hit_speedup" -v c="$want_hit_floor" 'BEGIN { exit !(f >= c) }'; then
    flag_regression "serve cache-hit speedup fell below the acceptance floor" \
        "${fresh_hit_speedup}x" "${want_hit_floor}x (floor)" BENCH_serve.json serve_load
fi

echo
if [ "$fail" -ne 0 ]; then
    echo "bench gate: FAILED"
    exit 1
fi
echo "bench gate: OK"
