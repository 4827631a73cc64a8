#!/usr/bin/env python3
"""The lambekd repository benchmark.

    python3 repobench/run.py --workload json_fresh --seed 1 --seconds 20 --trace 0

builds the harness in repobench/harness (cargo, release, offline) and runs
one workload closed-loop from a single client thread through the engine's
public front door (Engine::compile_text, Engine::parse_many_str), checking
every answer against the generator's expected outcome. The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones from a separate traced pass. The lines before
it are the run record: machine, commit, seed, request counts, the tail
percentile used, failed_share, and the reference kernel timed before and
after each process (a diagnostic that labels slow phases of the machine;
it never rescales a metric).

Other modes:

    python3 repobench/run.py --quick       # seconds-long self-check of every workload
    python3 repobench/run.py --record 10   # seeds 1..10 per workload -> repobench/STEADINESS.md
    python3 repobench/run.py --record 10 --first-seed 11   # seeds 11..20, appended
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = ROOT / ".bench_out"

# Requests per second of --seconds in the untraced run. The count depends
# on the arguments only, never on how fast this run goes, so counts and
# peak RSS repeat; the rates are what the reference box (2-vCPU Xeon)
# sustains, so a run measures for about --seconds.
RATE = {"json_fresh": 80, "grammar_churn": 250, "munch_adversarial": 38}
# The untraced requests are split into this many segments, each with its
# own sub-seed, and each segment is served REPEATS times, every time by a
# fresh process, so a process's memory stays that of one segment. The
# repeats of a segment serve the identical request sequence; they run
# interleaved (all segments once, then all again, ...), seconds apart.
SEGMENTS = 5
# The box slows down in phases of a few seconds (the reference kernel
# swings by up to ±30%): a slow phase only ever adds time, so each
# request's latency is the least of its REPEATS servings. That keeps what
# the program costs (a deterministic slow request stays slow in every
# repeat) and drops most of what the neighbours cost.
REPEATS = 5
# Extra fresh processes that only time the set-up, run after each round of
# segments; setup_s is the median of theirs and the segments' own.
SETUPS_PER_ROUND = 1
# Requests in the traced pass (and in the untraced pass it is compared with).
TRACE_REQUESTS = {"json_fresh": 30, "grammar_churn": 200, "munch_adversarial": 40}
# Every run must end within 180 s once the harness is built.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def build():
    """Builds the harness; returns the path of its binary."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "harness" / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=880)
    if done.returncode != 0:
        raise BenchError("building the harness failed")
    return target / "release" / "repobench"


class Harness:
    """Runs harness subcommands, each in a fresh process, before a deadline."""

    def __init__(self, binary, budget_s):
        self.binary = binary
        self.deadline = time.monotonic() + budget_s

    def __call__(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        done = subprocess.run([str(self.binary), *map(str, args)], cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"harness {args[0]} exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def machine():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rustc = subprocess.run(["rustc", "-V"], cwd=ROOT, capture_output=True, text=True)
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"rustc={rustc.stdout.strip()!r} commit={commit()}")


def commit():
    """The git commit of the checkout, or 'unknown' outside a git checkout."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = git.stdout.split()
    if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def tail(ms):
    """The highest of the usual percentiles that has at least ten samples
    beyond it (nearest rank): (percentile, value, samples beyond)."""
    ms = sorted(ms)
    n = len(ms)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = min(max(math.ceil(p / 100 * n), 1), n)
        if n - rank >= 10:
            return p, ms[rank - 1], n - rank
    return 50.0, statistics.median(ms), n // 2


def one_run(h, workload, seed, seconds, trace, count=None, segments=SEGMENTS,
            repeats=REPEATS, setups_per_round=SETUPS_PER_ROUND):
    """One benchmark run: (result line, record lines, extras). `count`
    overrides the requests per process (untraced) or traced requests."""
    extras = {}
    if not trace:
        n = count or max(1, round(RATE[workload] * seconds / (segments * repeats)))
        setup, kernels, rss, resubmits = [], [], [], []
        # best[i][k]: request k of segment i, the least latency so far.
        best = [None] * segments
        busy = [[] for _ in range(segments)]
        attempted = failed = 0
        for _ in range(repeats):
            for i in range(segments):
                raw = h("run", "--workload", workload, "--seed", seed * 1000 + i,
                        "--requests", n)
                ms = raw["latencies_ms"]
                best[i] = ms if best[i] is None else list(map(min, best[i], ms))
                busy[i].append(sum(ms) / 1e3)
                setup.append(raw["setup_s"])
                rss.append(raw["peak_rss_mib"])
                kernels.append((raw["ref_kernel_before_ms"], raw["ref_kernel_after_ms"]))
                attempted += raw["requests"]
                failed += raw["failed"]
                if "resubmit_hits" in raw:
                    resubmits.append((raw["resubmit_hits"], raw["evictions"]))
            setup += [h("setup", "--workload", workload, "--seed", seed * 1000 + j)["setup_s"]
                      for j in range(setups_per_round)]
        ms = [x for seg in best for x in seg]
        percentile, tail_ms, beyond = tail(ms)
        metrics = {
            "requests_per_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": statistics.median(ms),
            "latency_tail_ms": tail_ms,
            "peak_rss_mib": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
        extras["kernels"] = kernels
        record = [
            f"segments: {segments} x {n} requests, each served {repeats} times by a fresh "
            f"process ({segments * repeats} processes); each request counts with the least "
            "of its latencies, pooled over segments",
            "busy seconds per segment, each serving: "
            + "; ".join(", ".join(f"{b:.3f}" for b in bs) for bs in busy),
            f"latency_tail_ms is p{percentile:g} ({beyond} of {len(ms)} samples beyond it)",
            "peak_rss_mib per process: " + ", ".join(f"{r:.1f}" for r in rss),
            f"setup_s: median of {len(setup)}: " + ", ".join(f"{s:.4f}" for s in setup),
            "reference kernel ms (before/after each process): "
            + ", ".join(f"{b:.1f}/{a:.1f}" for b, a in kernels),
        ]
        if resubmits:
            record.append("resubmits resident: "
                          f"{sum(r for r, _ in resubmits)} of {attempted}; "
                          f"evictions: {sum(e for _, e in resubmits)}")
    else:
        n = count or TRACE_REQUESTS[workload]
        OUT.mkdir(exist_ok=True)
        common = ("--workload", workload, "--seed", seed)
        spans = OUT / f"spans-{workload}-{seed}.jsonl"
        raw = h("trace", *common, "--requests", n, "--spans", spans)
        plain = h("run", *common, "--requests", n)
        untraced = statistics.median(plain["latencies_ms"])
        metrics = dict(raw["metrics"])
        metrics["e2e.untraced_p50_ms"] = untraced
        extras["alloc_totals"] = raw["alloc_totals"]
        attempted = raw["attempted"] + plain["requests"]
        failed = raw["failed"] + plain["failed"]
        overhead = metrics["e2e.traced_p50_ms"] / untraced - 1
        record = raw["record"] + [
            f"e2e p50: traced {metrics['e2e.traced_p50_ms']:.3f} ms, untraced "
            f"{untraced:.3f} ms (median of the same {n} requests in a fresh process): "
            f"tracing overhead {overhead:+.1%}; besides the spans this includes the "
            "counting allocator and the stage documents parsed on the same engine "
            "between requests (they grow its heap and verdict cache)",
        ]
    record.insert(0, f"run: workload={workload} seed={seed} trace={trace} "
                     f"attempted={attempted} failed={failed} "
                     f"failed_share={failed / attempted:g} (ratio)")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if metrics.get(m["name"]) is not None},
    }
    return result, record, extras


QUICK_COUNTS = {"json_fresh": (4, 2), "grammar_churn": (12, 6), "munch_adversarial": (4, 2)}


def quick(h):
    """Tiny counts: every metric present with its unit, the oracle passes,
    the stage split prints, and single-threaded stage allocation counts
    repeat exactly for one seed."""
    problems = []
    for w in WORKLOADS:
        n, m = QUICK_COUNTS[w]
        allocs = []
        for trace, count in ((0, n), (1, m), (1, m)):
            result, record, extras = one_run(h, w, 7, 0, trace, count, segments=1,
                                             repeats=2, setups_per_round=1)
            print("\n".join(record))
            wanted = SPEC["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{w}: {metric['name']} missing or without its unit")
            if not result["correct"]:
                problems.append(f"{w}: {result['failed']} of {result['attempted']} failed")
            if trace:
                if not any(line.startswith("stage split") for line in record):
                    problems.append(f"{w}: no stage split")
                allocs.append(extras["alloc_totals"])
        if allocs[0] != allocs[1]:
            diff = [k for k in allocs[0] if allocs[0][k] != allocs[1].get(k)]
            problems.append(f"{w}: allocation counts differ between runs in {diff}")
    for p in problems:
        print("quick: " + p)
    print("quick: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def record_steadiness(h, workloads, runs, first, seconds):
    """`runs` untraced runs per workload, seeds first.., as one set in
    STEADINESS.md: a new file when `first` is 1, else appended."""
    last = first + runs - 1
    lines = []
    if first == 1:
        lines += ["# Steadiness record", "",
                  "Each set is `python3 repobench/run.py --record RUNS --first-seed S`: RUNS "
                  "untraced runs per workload, one after another on one machine. Spread is "
                  "(q3 - q1) / median, with quartiles as Python's "
                  "`statistics.quantiles(values, n=4)` gives them.", ""]
    lines += [f"## Set: seeds {first}..{last}", "",
              f"`--record {runs} --first-seed {first}`, --seconds {seconds}. "
              f"Machine: {machine()}.", ""]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    names = list(bounds)
    worst = []
    for w in workloads:
        rows = []
        for seed in range(first, last + 1):
            result, record, extras = one_run(h, w, seed, seconds, 0)
            print("\n".join(record), file=sys.stderr)
            rows.append((seed, result, extras))
        lines += [f"### {w} (seeds {first}..{last})", "",
                  "| metric | unit | median | q1 | q3 | spread | bound |",
                  "|---|---|---|---|---|---|---|"]
        for name in names:
            values = [r[1]["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst.append((spread / bounds[name], w, name, spread))
            lines.append(f"| {name} | {UNITS[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{spread:.3f} | {bounds[name]} |")
        lines += ["", "| seed | failed | reference kernel ms: median (min-max) | "
                  + " | ".join(names) + " |", "|---" * (3 + len(names)) + "|"]
        for seed, result, extras in rows:
            values = " | ".join(f"{result['metrics'][n]['value']:.4g}" for n in names)
            k = [x for pair in extras["kernels"] for x in pair]
            kernels = f"{statistics.median(k):.0f} ({min(k):.0f}-{max(k):.0f})"
            lines.append(f"| {seed} | {result['failed']} | {kernels} | {values} |")
        lines.append("")
    path = HERE / "STEADINESS.md"
    old = path.read_text() if first != 1 and path.exists() else ""
    path.write_text(old + "\n".join(lines))
    for ratio, w, name, spread in sorted(worst, reverse=True)[:6]:
        print(f"spread {w} {name}: {spread:.3f} ({ratio:.2f} of its bound)")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--record", type=int, metavar="RUNS")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not (args.quick or args.record or args.workload):
        ap.error("one of --workload, --quick, --record is required")
    try:
        binary = build()
        if args.quick:
            return quick(Harness(binary, 600))
        if args.record:
            workloads = [args.workload] if args.workload else WORKLOADS
            record_steadiness(Harness(binary, 7200), workloads, args.record,
                              args.first_seed, args.seconds)
            return 0
        h = Harness(binary, RUN_BUDGET_S)
        result, record, _ = one_run(h, args.workload, args.seed, args.seconds, args.trace)
        print("machine: " + machine())
        print("\n".join(record))
        print(json.dumps(result))
        return 0
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"repobench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
