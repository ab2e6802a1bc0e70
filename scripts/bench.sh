#!/usr/bin/env bash
# bench.sh — run the host-path benchmarks and emit a machine-readable
# snapshot of the perf trajectory (BENCH_PR<N>.json).
#
# Usage: scripts/bench.sh [benchtime] [pr-number|output.json]
#   benchtime       go test -benchtime value (default 5x; CI smoke uses 1x)
#   pr-number       PR the snapshot belongs to; the output name is derived
#                   as BENCH_PR<N>.json (default: 4). An argument ending
#                   in .json is used as the output path verbatim (its PR
#                   number is parsed from the name when possible).
#
# Each benchmark runs -count ${BENCH_COUNT:-3} times and the snapshot
# records the per-benchmark MINIMUM ns/op — the noise-robust statistic
# on the shared containers these snapshots come from, where load spikes
# inflate individual samples by 20%+ and a single unlucky pair would
# randomly trip the ratio gates below.
#
# The snapshot records three blocks:
#   benchmarks  the suite at 1 worker (the serial trajectory numbers),
#               including CalibrationSpin, a pure-CPU spin that anchors
#               cross-machine normalization in bench_check.sh;
#   workers     Fig11BankPartitioning (point-level runner sharding)
#               re-run at one worker per CPU (nproc) via
#               CHOPIM_BENCH_WORKERS, with its speedup over 1 worker.
#               Parallel speedup requires free CPUs: the block records
#               workers_sweep_valid (cpus > 1); when false the speedup
#               measures runner overhead, not scaling.
#
# The baseline block comes from the newest committed BENCH_PR*.json
# older than the target PR (so each PR's snapshot carries its
# predecessor's numbers), except PR 3, whose baseline is the
# interleaved same-machine PR2-vs-PR3 measurement recorded below.
#
# The script fails if BenchmarkMixedHostNDA, BenchmarkHostStallHeavy,
# or BenchmarkHostComputeHeavy report any steady-state allocations in
# the tick loop (the allocation-free contract also pinned by
# TestTickLoopAllocFree, TestStallHeavyAllocFree, and
# TestComputeHeavyAllocFree).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-5x}"
TARGET="${2:-4}"
case "$TARGET" in
*.json) OUT="$TARGET"; PR="$(echo "$TARGET" | sed -n 's/.*BENCH_PR\([0-9][0-9]*\).*/\1/p')" ;;
*) PR="$TARGET"; OUT="BENCH_PR${PR}.json" ;;
esac
RAW="$(mktemp)"
RAWN="$(mktemp)"
trap 'rm -f "$RAW" "$RAWN"' EXIT
NPROC="$(nproc 2>/dev/null || echo 1)"

COUNT="${BENCH_COUNT:-3}"

go test -run '^$' \
    -bench 'BenchmarkMixedHostNDA$|BenchmarkHostStallHeavy$|BenchmarkHostComputeHeavy$|BenchmarkFig14Wide8Ranks$|BenchmarkFig11BankPartitioning$|BenchmarkFig12WriteThrottling$|BenchmarkFig12CachedRegen$|BenchmarkCalibrationSpin$' \
    -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"

CHOPIM_BENCH_WORKERS="$NPROC" go test -run '^$' \
    -bench 'BenchmarkFig11BankPartitioning$' \
    -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAWN"

BENCH_RAW="$RAW" BENCH_RAWN="$RAWN" BENCH_OUT="$OUT" BENCH_PR="$PR" BENCH_TIME="$BENCHTIME" \
    BENCH_GIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    BENCH_CPUS="$NPROC" \
    python3 - <<'EOF'
import glob, json, os, re, sys

out = os.environ["BENCH_OUT"]
pr = os.environ["BENCH_PR"]
pr = int(pr) if pr else None

def parse(path):
    # Multiple -count repetitions of each benchmark: keep the minimum
    # ns/op (see the header) and the worst allocs/op (allocations are
    # deterministic, so any disagreement is itself a bug worth failing).
    cpu = ""
    benches = {}
    order = []
    for line in open(path).read().splitlines():
        if line.startswith("cpu:"):
            cpu = line[len("cpu:"):].strip()
        m = re.match(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op(.*)$", line)
        if m:
            name = m.group(1)[len("Benchmark"):]
            ns = int(float(m.group(2)))
            allocs = None
            am = re.search(r"(\d+) allocs/op", m.group(3))
            if am:
                allocs = int(am.group(1))
            if name not in benches:
                benches[name] = {"ns_per_op": ns, "allocs_per_op": allocs}
                order.append(name)
            else:
                e = benches[name]
                e["ns_per_op"] = min(e["ns_per_op"], ns)
                if allocs is not None:
                    e["allocs_per_op"] = max(e["allocs_per_op"] or 0, allocs)
    return cpu, benches, order

cpu, benches, order = parse(os.environ["BENCH_RAW"])
_, benchesN, orderN = parse(os.environ["BENCH_RAWN"])
if not benches:
    sys.exit("bench.sh: no benchmark results parsed")

# PR 3's baseline is the interleaved same-machine PR2-vs-PR3 run (PR2
# code c3a05e4; HostStallHeavy did not exist at PR2 — its number is the
# same workload on the pre-refactor PR3 tree). Later PRs inherit the
# newest committed snapshot older than them.
PR3_BASELINE = {
    "note": "PR2 code (c3a05e4) interleaved with PR3 on the same machine/flags, "
            "benchtime 5x; MixedHostNDA is directly comparable (same workload and "
            "cycle count). HostStallHeavy did not exist at PR2 — its baseline is "
            "the same workload measured on the pre-refactor PR3 tree.",
    "MixedHostNDA": {"ns_per_op": 225623026, "allocs_per_op": 0},
    "HostStallHeavy": {"ns_per_op": 222278725, "allocs_per_op": None},
    "Fig11BankPartitioning": {"ns_per_op": 1335775276, "allocs_per_op": None},
}

def committed_before(pr):
    best = None
    for f in glob.glob("BENCH_PR*.json"):
        if os.path.abspath(f) == os.path.abspath(out):
            continue
        m = re.match(r"BENCH_PR(\d+)\.json$", os.path.basename(f))
        if not m:
            continue
        n = int(m.group(1))
        if (pr is None or n < pr) and (best is None or n > best[0]):
            best = (n, f)
    return best

baseline = None
if pr == 3:
    baseline = PR3_BASELINE
else:
    prev = committed_before(pr)
    if prev:
        n, f = prev
        snap = json.load(open(f))
        baseline = {"note": f"benchmarks of the latest committed snapshot, {f} "
                            f"(PR {n}, cpu: {snap.get('cpu', 'unknown')}); raw ns/op "
                            f"is only comparable on the same machine"}
        baseline.update(snap.get("benchmarks", {}))

doc = {
    "pr": pr,
    "description": "host-path perf trajectory snapshot"
                   + (f" at PR {pr}" if pr is not None else "")
                   + " (see CHANGES.md for what each PR changed)",
    "git": os.environ["BENCH_GIT"],
    "benchtime": os.environ["BENCH_TIME"],
    "cpu": cpu,
    "cpus": os.environ["BENCH_CPUS"],
}
if baseline:
    doc["baseline"] = baseline
doc["benchmarks"] = {name: benches[name] for name in order}
if benchesN:
    cpus = os.environ.get("BENCH_CPUS", "unknown")
    sweep_valid = cpus.isdigit() and int(cpus) > 1
    wn = {"note": f"Fig11BankPartitioning at CHOPIM_BENCH_WORKERS={cpus} (one "
                  "point-level runner worker per CPU, Options.Parallel). Speedup "
                  "needs free CPUs: workers_sweep_valid records whether this "
                  "machine has them; when false the numbers measure runner "
                  "overhead, not scaling.",
          "workers": int(cpus) if cpus.isdigit() else cpus,
          "workers_sweep_valid": sweep_valid}
    for name in orderN:
        e = dict(benchesN[name])
        base = benches.get(name, {}).get("ns_per_op")
        if base and e["ns_per_op"]:
            e["speedup_vs_1worker"] = round(base / e["ns_per_op"], 3)
        wn[name] = e
    doc["workers"] = wn

with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")

# Cached-regeneration block: replaying Figure 12 from the
# content-addressed result cache must beat simulating it by >=10x
# (in practice it is thousands of times faster — a JSON read).
uncached = benches.get("Fig12WriteThrottling", {}).get("ns_per_op")
cached = benches.get("Fig12CachedRegen", {}).get("ns_per_op")
if uncached and cached:
    speedup = round(uncached / cached, 1)
    doc["cache"] = {
        "note": "Fig12 regenerated from the -cache-dir result cache versus "
                "simulated; rows are byte-identical (TestFigureCacheRoundTrip)",
        "uncached_ns_per_op": uncached,
        "cached_ns_per_op": cached,
        "speedup": speedup,
    }
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    if speedup < 10:
        sys.exit(f"bench.sh: FAIL: cached regeneration only {speedup}x faster, want >=10x")

# Zero-allocs gate: every host-path benchmark's steady-state loop must
# stay allocation-free.
bad = []
for name in ("MixedHostNDA", "HostStallHeavy", "HostComputeHeavy", "Fig14Wide8Ranks"):
    allocs = benches.get(name, {}).get("allocs_per_op")
    if allocs not in (None, 0):
        bad.append(f"{name}: {allocs} allocs/op, want 0")
if bad:
    sys.exit("bench.sh: FAIL: steady-state loop allocates: " + "; ".join(bad))
EOF

echo "bench.sh: wrote $OUT"
