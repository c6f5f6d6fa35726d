"""Runs one workload in this fresh interpreter and prints one JSON line.

Modes (the orchestrator in run.py starts one worker at a time):

  setup  import prframes and build the pass-0 inputs between two timings
         of the calibration kernel, then exit;
  run    untraced passes until --seconds have passed and at least MIN_OPS
         ops ran (at most --passes passes when that is given);
  trace  pass 0 once traced and once untraced, in the order --order gives,
         with the CLI replayed in-process through prframes.cli.main; ops
         are scaled by kernel timings at their ends only, so that no
         sample runs inside a traced span.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

import speed
import workloads
from tracer import Tracer
from workloads import Context, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# at least ten latency samples beyond the 90th percentile
MIN_OPS = 100
CLI_TIMEOUT_S = 120


def import_prframes():
    sys.path.insert(0, SRC)
    import prframes

    if not os.path.abspath(prframes.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"prframes was imported from {prframes.__file__}, not from {SRC}")
    return prframes


def cli_subprocess(argv: List[str]):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "prframes.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["prframes.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cpu_seconds() -> float:
    """Own CPU time plus that of waited-for children (the CLI processes)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def run_pass(workload, ctx: Context, data, sampler: speed.Sampler,
             tracer: Optional[Tracer] = None) -> dict:
    """Time each op of one pass, scaled to reference speed; check outputs between ops."""
    lat, raw, cpu, scales, verdicts, failed = [], [], [], [], [], 0
    ops = workload.ops(ctx, data)
    op = next(ops, None)
    sampler.take()
    while op is not None:
        if tracer is not None:
            tracer.op = len(lat)
        first, spent = len(sampler.samples) - 1, sampler.spent
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            result, error = None, exc
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        inside = sampler.spent - spent
        sampler.take()
        k = sampler.scale_since(first)
        scales.append(k)
        raw.append(t1 - t0 - inside)
        lat.append((t1 - t0 - inside) * k)
        cpu.append((c1 - c0 - inside) * k)
        if error is None:
            try:
                verdicts.append(op.check(result))
            except Exception as exc:
                result, error = None, exc
        if error is not None:
            failed += 1
            verdicts.append(f"error:{type(error).__name__}")
            print(f"op {op.label} failed: {type(error).__name__}: {error}", file=sys.stderr)
        try:
            op = ops.send(result)
        except StopIteration:
            op = None
    return {
        "wall_s": sum(lat),
        "raw_wall_s": sum(raw),
        "cpu_s": sum(cpu),
        "lat": lat,
        "scales": scales,
        "failed": failed,
        "verdicts": workloads.digest(verdicts),
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run", "trace"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--order", choices=["traced-first", "untraced-first"], default="traced-first")
    ap.add_argument("--spans", default=None, help="write the traced pass's spans to this file")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        before = speed.kernel_seconds()
        kernel_s = time.perf_counter() - t0
        pf = import_prframes()
        data = workload.inputs(args.seed, 0, workdir)
        if args.mode == "setup":
            t0 = time.perf_counter()
            after = speed.kernel_seconds()
            kernel_s += time.perf_counter() - t0
            report = {"kernel": [before, after], "kernel_s": kernel_s}
        elif args.mode == "run":
            report = run_mode(workload, pf, data, args, workdir)
        else:
            report = trace_mode(workload, pf, data, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run_mode(workload, pf, data, args, workdir) -> dict:
    ctx = Context(pf, cli_subprocess)
    passes = []
    start = time.perf_counter()
    p = 0
    while True:
        with speed.Sampler() as sampler:
            passes.append(run_pass(workload, ctx, data, sampler))
        p += 1
        if args.passes and p >= args.passes:
            break
        ops = sum(len(r["lat"]) for r in passes)
        if time.perf_counter() - start >= args.seconds and ops >= MIN_OPS:
            break
        data = workload.inputs(args.seed, p, workdir)
    return {
        "passes": [
            {"wall_s": r["wall_s"], "raw_wall_s": r["raw_wall_s"], "cpu_s": r["cpu_s"], "ops": len(r["lat"])}
            for r in passes
        ],
        "lat": [t for r in passes for t in r["lat"]],
        "failed": sum(r["failed"] for r in passes),
        "verdicts": passes[0]["verdicts"],
        "peak_rss_mb": peak_rss_mb(workload.name),
    }


def trace_mode(workload, pf, data, args, workdir) -> dict:
    import prframes.cli  # noqa: F401  (so that cli.main can be wrapped)

    tracer = Tracer()
    order = ["traced", "untraced"] if args.order == "traced-first" else ["untraced", "traced"]
    out = {}
    for kind in order:
        ctx = Context(pf, cli_in_process)
        if kind == "traced":
            tracer.install()
            origin = time.perf_counter()
            try:
                res = run_pass(workload, ctx, data, speed.Sampler(), tracer)
            finally:
                tracer.uninstall()
            out["retries"] = ctx.retries
            out["totals"] = tracer.totals(res["scales"])
        else:
            res = run_pass(workload, ctx, data, speed.Sampler())
        out[kind] = {"wall_s": res["wall_s"], "raw_wall_s": res["raw_wall_s"], "ops": len(res["lat"]),
                     "failed": res["failed"], "verdicts": res["verdicts"]}
        data = workload.inputs(args.seed, 0, workdir)
    if args.spans:
        tracer.write(args.spans, origin)
    out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    sys.exit(main())
