"""Command-line surface: generation, verification, analysis, subspace tools.

Exit codes are a stable contract: 0 success, 1 a requested check failed,
2 usage, parse, or range errors.  Reports go to standard output as JSON;
error messages go to standard error.  Every randomized command takes --seed
and is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import List, Optional

from . import frameio
from .errors import NotPRSubspace, PRFramesError
from .frames import Frame, has_complement_property, is_exact_pr_frame, spark
from .ratlin import DEFAULT_RANGE_MAX, format_rational, parse_rational

# The modules above are the ones reading and writing a frame needs.  The rest
# load inside the subcommand, or the check, that runs them: one process
# answers one question, and importing the whole package takes longer than
# many answers.


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _fail(exc: Exception) -> int:
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _load_frame(path: str) -> Frame:
    return frameio.frame_from_dict(frameio.load_json(path))


def _write_or_emit(obj: dict, out: Optional[str]) -> None:
    if out:
        frameio.save_json(obj, out)
    else:
        _emit(obj)


def cmd_gen(args) -> int:
    from .construct import basis_with_maximal_subspace, generate_exact_pr, generate_with_dmax

    if args.kind != "exact" and args.k is None:
        print(f"--k is required for kind {args.kind}", file=sys.stderr)
        return 2
    if args.kind == "exact":
        cert = generate_exact_pr(args.n, args.len, args.seed, range_max=args.range_max)
        obj = frameio.frame_to_dict(cert.frame, meta={"certificate": cert.certificate})
    elif args.kind == "dmax":
        cert = generate_with_dmax(args.n, args.k, args.len, args.seed)
        obj = frameio.frame_to_dict(cert.frame, meta={"certificate": cert.certificate})
    else:  # basis-subspace
        if args.len != args.n:
            print(f"--len must equal --n ({args.n}) for kind basis-subspace", file=sys.stderr)
            return 2
        basis, sub = basis_with_maximal_subspace(args.n, args.k, args.seed)
        obj = frameio.frame_to_dict(
            basis,
            meta={
                "certificate": {"maximal_pr_subspace_dim": args.k, "seed": args.seed},
                "subspace": frameio.subspace_to_dict(sub),
            },
        )
    _write_or_emit(obj, args.out)
    return 0


def _names(text: str, valid: set, kind: str) -> Optional[List[str]]:
    """The comma list's names, or None after a one-line message when one is unknown or none is given."""
    names = [w.strip() for w in text.split(",") if w.strip()]
    bad = set(names) - valid
    if bad or not names:
        print(f"unknown {kind}: {sorted(bad) or 'none requested'}", file=sys.stderr)
        return None
    return names


def cmd_verify(args) -> int:
    frame = _load_frame(args.frame)
    checks = _names(args.checks, {"pr", "exact", "redundancy", "lifted-independence"}, "checks")
    if checks is None:
        return 2
    t0 = time.monotonic()
    results: dict = {}
    for c in checks:
        if c == "pr":
            cp = has_complement_property(frame)
            results["pr"] = {"passed": cp.holds}
            if not cp.holds:
                results["pr"]["failing_subset"] = sorted(cp.failing)
        elif c == "exact":
            ex = is_exact_pr_frame(frame)
            results["exact"] = {"passed": ex.exact}
            if not ex.exact:
                results["exact"]["removable_indices"] = list(ex.removable)
        elif c == "redundancy":
            from .lifting import has_exact_pr_redundancy

            results["redundancy"] = {"passed": has_exact_pr_redundancy(frame)}
        else:  # lifted-independence
            from .lifting import lifted_independent

            results["lifted-independence"] = {"passed": lifted_independent(frame)}
    all_passed = all(r["passed"] for r in results.values())
    _emit(
        {
            "command": "verify",
            "checks": checks,
            "results": results,
            "all_passed": all_passed,
            "elapsed_seconds": round(time.monotonic() - t0, 3),
        }
    )
    return 0 if all_passed else 1


def cmd_analyze(args) -> int:
    frame = _load_frame(args.frame)
    what = _names(args.what, {"dmax", "spark", "redundancy"}, "analyses")
    if what is None:
        return 2
    t0 = time.monotonic()
    results: dict = {}
    for w in what:
        if w == "dmax":
            from .subspaces import d_max

            results["dmax"] = d_max(frame)
        elif w == "spark":
            results["spark"] = spark(frame)
        else:  # redundancy
            from .lifting import pr_redundancy

            results["redundancy"] = format_rational(pr_redundancy(frame))
    _emit(
        {
            "command": "analyze",
            "results": results,
            "elapsed_seconds": round(time.monotonic() - t0, 3),
        }
    )
    return 0


def cmd_subspace(args) -> int:
    from .subspaces import (
        extend_to_maximal,
        is_maximal_pr_subspace,
        is_pr_subspace,
        random_pr_subspace,
    )

    frame = _load_frame(args.frame)
    if args.action == "random":
        if args.dim is None:
            print("--dim is required for action random", file=sys.stderr)
            return 2
        sub = random_pr_subspace(frame, args.dim, args.seed)
        obj = frameio.subspace_to_dict(sub, meta={"certified_pr": True, "seed": args.seed})
        _write_or_emit(obj, args.out)
        return 0
    if args.action in ("check", "maximal"):
        if args.subspace_file is None:
            print("--subspace-file is required for this action", file=sys.stderr)
            return 2
        sub = frameio.subspace_from_dict(frameio.load_json(args.subspace_file))
        if args.action == "check":
            ok = is_pr_subspace(frame, sub)
            _emit({"command": "subspace-check", "is_pr_subspace": ok})
            return 0 if ok else 1
        try:
            verdict = is_maximal_pr_subspace(frame, sub, seed=args.seed)
        except NotPRSubspace as exc:
            _emit({"command": "subspace-maximal", "error": str(exc)})
            return 1
        _emit({"command": "subspace-maximal", "verdict": frameio.verdict_to_dict(verdict)})
        return 0
    # extend
    if args.vector is None:
        print("--vector is required for action extend", file=sys.stderr)
        return 2
    x = [parse_rational(t) for t in args.vector.split(",")]
    sub = extend_to_maximal(frame, x, seed=args.seed)
    obj = frameio.subspace_to_dict(
        sub,
        meta={
            "certified": {"pr": True, "min_support": sub.dim, "maximal": True},
            "contains": [format_rational(t) for t in x],
        },
    )
    _write_or_emit(obj, args.out)
    return 0


def cmd_paper_suite(args) -> int:
    """Regression over every embedded instance; one result record each."""
    from . import curated
    from .lifting import has_exact_pr_redundancy
    from .subspaces import d_max, is_maximal_pr_subspace, is_pr_subspace, min_support

    t0 = time.monotonic()
    records = []
    for N, frame in curated.curated_exact_frames().items():
        records.append({"instance": f"exact-(5,{N})", "passed": is_exact_pr_frame(frame).exact})
    r3 = curated.r3_example_frame()
    records.append({"instance": "r3-example-dmax-2", "passed": d_max(r3) == 2})
    records.append({"instance": "r3-example-exact-redundancy", "passed": has_exact_pr_redundancy(r3)})
    wit_ok = all(
        w.validate(r3, [j for j in range(r3.N) if j != i])
        for i, w in curated.r3_example_witnesses().items()
    )
    records.append({"instance": "r3-example-removal-witnesses", "passed": wit_ok})
    b4 = curated.r4_standard_basis()
    m4 = curated.r4_example_subspace()
    pr_ok = is_pr_subspace(b4, m4)
    sup_ok = pr_ok and min_support(m4, b4) == 3
    max_ok = pr_ok and is_maximal_pr_subspace(b4, m4).status == "Maximal"
    records.append({"instance": "r4-subspace-pr", "passed": pr_ok})
    records.append({"instance": "r4-subspace-min-support-3", "passed": sup_ok})
    records.append({"instance": "r4-subspace-maximal", "passed": max_ok})
    all_passed = all(r["passed"] for r in records)
    _emit(
        {
            "command": "paper-suite",
            "records": records,
            "all_passed": all_passed,
            "elapsed_seconds": round(time.monotonic() - t0, 3),
        }
    )
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="prframes",
        description="Exact-arithmetic toolkit for phase-retrievable frames and subspaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a certified frame")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--len", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kind", choices=["exact", "dmax", "basis-subspace"], default="exact")
    g.add_argument("--k", type=int, default=None)
    g.add_argument(
        "--range-max",
        type=int,
        default=DEFAULT_RANGE_MAX,
        help="largest integer drawn for a free entry (--kind exact only)",
    )
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="run checks on a frame file")
    v.add_argument("frame")
    v.add_argument("--checks", default="pr,exact")
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("analyze", help="compute exact invariants of a frame file")
    a.add_argument("frame")
    a.add_argument("--what", default="dmax,spark")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("subspace", help="subspace sampling, checking, and extension")
    s.add_argument("frame")
    s.add_argument("--action", choices=["random", "check", "maximal", "extend"], required=True)
    s.add_argument("--dim", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--subspace-file", default=None)
    s.add_argument("--vector", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_subspace)

    ps = sub.add_parser("paper-suite", help="run the embedded regression instances")
    ps.set_defaults(func=cmd_paper_suite)
    return p


def _glue_vector(argv: List[str]) -> List[str]:
    """Join "--vector -2,1,0" into "--vector=-2,1,0", abbreviations too.

    argparse reads a separate value that starts with a minus sign as an
    option, unless it is a single negative number.
    """
    out: List[str] = []
    for a in argv:
        if out and len(out[-1]) > 2 and "--vector".startswith(out[-1]) and re.match(r"-\d", a):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_vector(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`prframes ... | head`); point it at
        # devnull so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (PRFramesError, OSError, ValueError) as exc:
        # every library error that reaches here is one of input or range:
        # the one check that fails on valid input, NotPRSubspace, is
        # reported by cmd_subspace; json.JSONDecodeError is a ValueError,
        # and a missing key is a BadInput from frameio, which checks each
        # key it reads
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
