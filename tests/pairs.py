"""Alternating benchmark pairs: a parent commit against the working tree.

    python tests/pairs.py --workload W [--workload W ...] --seeds A-B
                          [--parent REV] [--seconds S] [--out BENCH_x.json] [--claim TEXT]

For each workload and seed the script runs ``python3 bench/run.py
--workload W --seed S --seconds S`` once on a checkout of the parent
revision (default HEAD) and once on the working tree, one run at a time;
the parent runs first on even seeds and the working tree on odd ones.  The
parent checkout is ``git archive REV`` unpacked into a temporary
directory, which is removed at the end and leaves nothing in the
repository's git metadata.  Every run must print ``correct: true``.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints the two medians, the change in percent, the quartiles of each side,
the parent's interquartile range and the number of pairs in which the
working tree did better.  ``--out`` writes the runs and that summary as
JSON; an existing file keeps its runs, so several invocations (one per
workload, say) build one record.  pytest does not collect this file (its
name does not start with ``test_``), and it writes nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(spec: str) -> List[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _checkout(rev: str, dest: str) -> str:
    """Unpack ``rev`` into ``dest``; return its abbreviated commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "-o", archive, sha], cwd=ROOT, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return sha


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py failed in {tree} on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(xs: List[float]) -> List[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: List[dict], metrics: Dict[str, str]) -> dict:
    """Per workload and metric: medians, quartiles, parent IQR and pairs won by the change.

    ``metrics`` maps each end-to-end metric to "lower" or "higher", the
    better direction.  A pair is one seed's two runs.
    """
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {s: p for s, p in sorted(pairs.items()) if len(p) == 2}
        both = list(pairs.values())
        entry = {
            "pairs": len(both),
            "seeds": list(pairs),
            "correct": all(p[side]["correct"] for p in both for side in p),
            "failed": {side: sum(p[side]["failed"] for p in both) for side in ("parent", "change")},
        }
        for name, better in metrics.items():
            par = [p["parent"]["metrics"][name]["value"] for p in both if name in p["parent"]["metrics"]]
            chg = [p["change"]["metrics"][name]["value"] for p in both if name in p["change"]["metrics"]]
            if not par or len(par) != len(chg):
                continue
            pm, cm = statistics.median(par), statistics.median(chg)
            pq, cq = _quartiles(par), _quartiles(chg)
            sign = 1 if better == "lower" else -1
            entry[name] = {
                "parent_median": round(pm, 6),
                "change_median": round(cm, 6),
                "change_pct": round(100 * (cm - pm) / pm, 1) if pm else None,
                "parent_quartiles": [round(x, 6) for x in pq],
                "change_quartiles": [round(x, 6) for x in cq],
                "parent_iqr": round(pq[1] - pq[0], 6),
                "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
            }
        out[workload] = entry
    return out


def report(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: {entry['pairs']} pairs, correct {entry['correct']}, failed {entry['failed']}")
        for name, m in entry.items():
            if not isinstance(m, dict) or "parent_median" not in m:
                continue
            gap = abs(m["change_median"] - m["parent_median"])
            print(f"  {name:12} {m['parent_median']:.6g} -> {m['change_median']:.6g} ({m['change_pct']:+}%), "
                  f"{m['change_better_pairs']} of {entry['pairs']} better, median gap {gap:.3g} "
                  f"against a parent IQR of {m['parent_iqr']:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 6001-6010 or 7,9,11")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out")
    ap.add_argument("--claim")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    runs = record.get("runs", [])
    with tempfile.TemporaryDirectory(prefix="prframes-pairs-") as tmp:
        sha = _checkout(args.parent, tmp)
        if record.get("parent", sha) != sha:
            raise SystemExit(f"{args.out} holds runs against {record['parent']}, not {sha}")
        trees = {"parent": os.path.join(tmp, "tree"), "change": ROOT}
        for workload in args.workload:
            for seed in _seeds(args.seeds):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for side in order:
                    result = _run(trees[side], workload, seed, args.seconds)
                    if not result.get("correct"):
                        raise SystemExit(f"{side} run not correct on {workload} seed {seed}")
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "first": order[0], "result": result})
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.6g}", flush=True)
    summary = summarize(runs, metrics)
    report(summary)
    if args.out:
        record.update(
            parent=sha,
            command=f"python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {args.seconds:g}",
            machine=f"{os.cpu_count()} CPUs, Python {platform.python_version()}; "
                    "times are reference seconds (bench/speed.py)",
            order="parent first on even seeds, the working tree first on odd ones; every run made is listed",
            summary=summary,
            runs=runs,
        )
        if args.claim:
            record["claim"] = args.claim
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
