#!/usr/bin/env bash
# bench_check.sh — compare a fresh bench.sh snapshot against the latest
# committed BENCH_PR*.json and fail on per-benchmark ns/op regressions
# beyond a generous threshold.
#
# Usage: scripts/bench_check.sh <fresh.json> [threshold]
#   fresh.json   snapshot produced by scripts/bench.sh on this machine
#   threshold    allowed relative slowdown (default 1.25 = +25%)
#
# CI machines differ in speed from the machine that produced the
# committed snapshot, so raw ns/op is not comparable. The check
# normalizes by machine speed, anchored on CalibrationSpin — a pure-CPU
# integer spin with no memory traffic, so its fresh/committed ratio is
# the machine factor and nothing else. Unlike the old median-of-ratios
# anchor, a *uniform* regression of the whole simulator suite cannot
# hide inside the calibration ratio: the spin does not run simulator
# code. When either snapshot predates the calibration benchmark the
# check falls back to the median ratio across shared benchmarks (which
# deliberately passes uniform slowdowns). After normalization, any
# benchmark whose ratio exceeds the threshold fails.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH="${1:?usage: bench_check.sh <fresh.json> [threshold]}"
THRESH="${2:-1.25}"
LATEST="$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1 || true)"
if [ -z "$LATEST" ]; then
    echo "bench_check.sh: no committed BENCH_PR*.json to compare against; skipping"
    exit 0
fi

python3 - "$FRESH" "$LATEST" "$THRESH" <<'EOF'
import json, statistics, sys

fresh, committed, thresh = sys.argv[1], sys.argv[2], float(sys.argv[3])
f = json.load(open(fresh))["benchmarks"]
c = json.load(open(committed))["benchmarks"]

CALIB = "CalibrationSpin"
shared = sorted(set(f) & set(c))
ratios = {}
for name in shared:
    fn, cn = f[name].get("ns_per_op"), c[name].get("ns_per_op")
    if fn and cn:
        ratios[name] = fn / cn
if not ratios:
    print(f"bench_check.sh: no shared benchmarks between {fresh} and {committed}; skipping")
    sys.exit(0)

if CALIB in ratios:
    factor = ratios[CALIB]
    anchor = "calibration"
else:
    factor = statistics.median(ratios.values())
    anchor = "median"
print(f"bench_check.sh: comparing {fresh} vs {committed} "
      f"(machine factor {factor:.2f} [{anchor}], threshold +{(thresh - 1) * 100:.0f}%)")
bad = False
for name, r in sorted(ratios.items()):
    norm = r / factor
    flag = "FAIL" if norm > thresh else "ok"
    print(f"  {name}: raw x{r:.2f}, normalized x{norm:.2f} [{flag}]")
    if norm > thresh:
        bad = True

# The allocation gate is absolute: every host-path benchmark's
# steady-state loop must stay allocation-free on any machine.
for name in sorted(f):
    allocs = f[name].get("allocs_per_op")
    if allocs not in (None, 0):
        print(f"  {name}: {allocs} allocs/op, want 0 [FAIL]")
        bad = True

# So is the cached-regeneration gate: replaying a figure from the
# result cache is a JSON read and must beat simulating it by >=10x.
cache = json.load(open(fresh)).get("cache")
if cache:
    speedup = cache.get("speedup", 0)
    flag = "FAIL" if speedup < 10 else "ok"
    print(f"  cached regeneration: x{speedup} vs simulated, want >=10 [{flag}]")
    if speedup < 10:
        bad = True

sys.exit(1 if bad else 0)
EOF
