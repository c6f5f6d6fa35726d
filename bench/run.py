"""prframes benchmark: four desk workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program under test is ``src/prframes`` of the
checkout that holds this file.  Each workload runs in fresh interpreters,
one child process at a time, as a closed loop with a single client:

  --trace 0  set-up time (median of SETUP_SAMPLES fresh interpreters that
             import prframes and build the inputs), then one worker that
             repeats passes over the workload's op list for --seconds and
             at least 100 ops.  Prints the end-to-end metrics.
  --trace 1  two workers each run pass 0 traced and untraced (in opposite
             orders); call counts must agree between them.  Prints the
             per-layer metrics and the tracing overhead.

Every op's output is checked outside the timed region, and pass-0 verdicts
are compared with bench/verdicts.json.  Times are reference seconds (see
bench/speed.py); the raw wall time is printed as a note.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workload choice, the layer-to-metric map and
the first baseline are in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
VERDICTS = os.path.join(BENCH_DIR, "verdicts.json")

sys.path.insert(0, BENCH_DIR)
import speed  # noqa: E402  (none of these imports prframes)
from tracer import TRACED, NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

Metric = Tuple[float, str]


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def _child(cmd: List[str], env=None) -> Tuple[float, str]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {WORKER_TIMEOUT_S} s: {' '.join(cmd[1:4])}") from None
    elapsed = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd[1:])}")
    return elapsed, proc.stdout


def _worker(mode: str, workload: str, seed: int, *extra: str) -> Tuple[float, dict]:
    cmd = [sys.executable, WORKER, mode, "--workload", workload, "--seed", str(seed), *extra]
    elapsed, out = _child(cmd)
    return elapsed, json.loads(out.strip().splitlines()[-1])


def _setup_seconds(workload: str, seed: int) -> float:
    """One fresh interpreter's set-up, scaled by the kernel timings it made itself."""
    elapsed, r = _worker("setup", workload, seed)
    return (elapsed - r["kernel_s"]) * speed.scale(*r["kernel"])


def _python_seconds(code: str) -> float:
    """Median wall time of ``python -c code`` in fresh interpreters, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    before = speed.kernel_seconds()
    for _ in range(STARTUP_SAMPLES):
        elapsed = _child([sys.executable, "-c", code], env)[0]
        after = speed.kernel_seconds()
        times.append(elapsed * speed.scale(before, after))
        before = after
    return statistics.median(times)


def _recorded_verdicts(workload: str, seed: int):
    with open(VERDICTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _verdicts_ok(workload: str, seed: int, got: List[str]) -> bool:
    """Pass-0 verdicts must agree with each other and with any recorded digest."""
    want = _recorded_verdicts(workload, seed)
    ok = len(set(got)) == 1 and (want is None or got[0] == want)
    if not ok:
        print(f"{workload}: verdicts {sorted(set(got))} differ from recorded {want}", file=sys.stderr)
    return ok


def end_to_end(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, Metric], dict]:
    setup = statistics.median(_setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES))
    _, r = _worker("run", workload, seed, "--seconds", str(seconds))
    lat = r["lat"]
    deciles = statistics.quantiles(lat, n=10)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in r["passes"]), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in r["passes"]), "s"),
        "op_p50_ms": (deciles[4] * 1000, "ms"),
        "op_p90_ms": (deciles[8] * 1000, "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    info = {
        "attempted": len(lat),
        "failed": r["failed"],
        "correct": r["failed"] == 0 and _verdicts_ok(workload, seed, [r["verdicts"]]),
        "notes": [
            f"fail_ratio = {r['failed'] / len(lat):.4f} ratio ({r['failed']} of {len(lat)} ops)",
            f"pass-0 verdicts = {r['verdicts']}",
            f"raw wall_s = {statistics.median(p['raw_wall_s'] for p in r['passes']):.4f} s "
            f"(times are scaled to reference speed, see bench/speed.py)",
            f"passes = {len(r['passes'])}, ops per pass = {r['passes'][0]['ops']}, "
            f"throughput = {r['passes'][0]['ops'] / metrics['wall_s'][0]:.2f} ops/s",
        ],
    }
    return metrics, info


def per_layer(workload: str, seed: int) -> Tuple[Dict[str, Metric], dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    _, a = _worker("trace", workload, seed, "--order", "traced-first", "--spans", spans)
    _, b = _worker("trace", workload, seed, "--order", "untraced-first")
    interp = _python_seconds("pass")
    imported = _python_seconds("import prframes.cli") - interp

    notes = [f"spans written to {os.path.relpath(spans, ROOT)}",
             f"pass-0 verdicts = {a['traced']['verdicts']}"]
    notes += [f"absent: {name} (reported as 0)" for name in a["absent"]]
    for name in NAMES:
        if a["totals"][name][0] != b["totals"][name][0]:
            notes.append(f"FLAG nondeterministic count {name}: {a['totals'][name][0]} "
                         f"vs {b['totals'][name][0]}")
    traced = statistics.mean([a["traced"]["wall_s"], b["traced"]["wall_s"]])
    untraced = statistics.mean([a["untraced"]["wall_s"], b["untraced"]["wall_s"]])
    ops = a["traced"]["ops"]
    # A CLI op starts an interpreter and imports prframes; the in-process
    # replay skips that, so it is added back as its own segment.
    startup = ops * (interp + imported) if workload == "cli" else 0.0
    denom = traced + startup

    metrics: Dict[str, Metric] = {}
    for module, quals in TRACED.items():
        calls, self_s = 0, 0.0
        for qual in quals:
            name = f"{module}.{qual}"
            c = a["totals"][name][0]
            s = statistics.mean([a["totals"][name][1], b["totals"][name][1]])
            metrics[f"{name}.calls"] = (c, "count")
            metrics[f"{name}.self_s"] = (s, "s")
            calls += c
            self_s += s
        metrics[f"{module}.calls"] = (calls, "count")
        metrics[f"{module}.self_s"] = (self_s, "s")
        metrics[f"{module}.share"] = (self_s / denom, "ratio")
    retries = a["retries"]
    metrics["construct.retry_ratio"] = (
        (len(retries) + sum(retries)) / len(retries) if retries else 0.0, "ratio")
    metrics["cli.import_s"] = (imported, "s")
    metrics["cli.interp_start_s"] = (interp, "s")
    metrics["startup.share"] = (startup / denom, "ratio")
    metrics["trace.overhead"] = (traced / untraced - 1, "ratio")

    runs = [a["traced"], a["untraced"], b["traced"], b["untraced"]]
    failed = sum(r["failed"] for r in runs)
    info = {
        "attempted": sum(r["ops"] for r in runs),
        "failed": failed,
        "correct": failed == 0 and _verdicts_ok(workload, seed, [r["verdicts"] for r in runs]),
        "notes": notes,
    }
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prframes", "__init__.py")):
        print(f"no prframes sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in names:
            if args.trace:
                metrics, info = per_layer(w, args.seed)
            else:
                metrics, info = end_to_end(w, args.seed, args.seconds)
            for line in info["notes"]:
                print(f"{w}: {line}")
            for name, (value, unit) in metrics.items():
                print(f"{w}: {name} = {value:.6g} {unit}")
                key = name if len(names) == 1 else f"{w}.{name}"
                result["metrics"][key] = {"value": value, "unit": unit}
            result["correct"] = result["correct"] and info["correct"]
            result["attempted"] += info["attempted"]
            result["failed"] += info["failed"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
