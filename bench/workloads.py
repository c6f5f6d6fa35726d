"""The benchmark's workloads: inputs from a seed, the op sequence, output checks.

A workload's ops come from a generator.  The runner times ``op.call()``
only, checks the result with ``op.check`` outside the timed region, and
sends it back into the generator (None when the op raised or failed its
check).  Later ops of a chain may use earlier results, so the op order is
fixed by the seed and by the verdicts, never by timing.

Every pass ``p`` of a run draws fresh inputs from ``(seed, p)``; pass 0 is
the one the traced run replays and the one whose verdicts are recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import oracle


class BadOutput(Exception):
    """An op returned an output that fails its check."""


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class Context:
    """What ops need from the runner: the library and a way to run the CLI."""

    pf: Any
    cli: Callable[[List[str]], Tuple[int, str, str]]
    retries: List[int] = field(default_factory=list)


def pass_rng(seed: int, p: int) -> random.Random:
    return random.Random(f"prframes-bench:{seed}:{p}")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _vec_strs(vectors) -> List[List[str]]:
    return [[str(Fraction(x)) for x in v] for v in vectors]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise BadOutput(what)


def _replay_shape(steps: Sequence[str]) -> Tuple[int, int]:
    n, N = 3, 6
    for s in steps[1:]:
        n, N = {"step_I": (n + 1, N + n + 1), "step_II": (n + 1, N + n), "step_III": (n + 1, N + 2)}[s]
    return n, N


def _standard_basis(n: int) -> List[Tuple[int, ...]]:
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


# ---------------------------------------------------------------------------
# gen-exact: the partition search proving that no failing partition exists.
# ---------------------------------------------------------------------------

# All admissible (n, N) for 3 <= n <= 6, then n = 7 up to N = 22; (7, 23..28)
# is left out because one (7, 28) proof alone takes seconds.
GEN_TARGETS = [(n, N) for n in range(3, 7) for N in range(2 * n - 1, n * (n + 1) // 2 + 1)]
GEN_TARGETS_N7 = [(7, N) for N in range(13, 23)]
# Four seeds per small target put the 90th percentile inside the cluster of
# (6,20) and (7,19) proofs rather than in a gap between two cost tiers.
GEN_SEEDS_PER_TARGET = 4


def gen_exact_inputs(seed: int, p: int, workdir: str):
    rng = pass_rng(seed, p)
    jobs = [(n, N) for _ in range(GEN_SEEDS_PER_TARGET) for n, N in GEN_TARGETS] + GEN_TARGETS_N7
    return [(n, N, rng.randrange(1 << 31)) for n, N in jobs]


def _check_exact_certificate(ctx: Context, cert, n: int, N: int, s: int) -> str:
    frame, c = cert.frame, cert.certificate
    _require((frame.dim, frame.N) == (n, N), "frame shape")
    _require(set(c) == {"exact_pr", "d", "plan", "seed", "retries"}, f"certificate fields {sorted(c)}")
    _require(c["exact_pr"] is True and c["d"] == n and c["seed"] == s, "certificate values")
    _require(type(c["retries"]) is int and 0 <= c["retries"] <= 5, "retries")
    if N == 2 * n - 1:
        _require(c["plan"] == ["full_spark"], "plan for N = 2n-1")
    else:
        _require(c["plan"][:1] == ["base36"] and _replay_shape(c["plan"]) == (n, N), "plan shape")
    ctx.retries.append(c["retries"])
    return f"{n},{N}:{c['retries']}:{digest(_vec_strs(frame.vectors))}"


def gen_exact_ops(ctx: Context, jobs) -> Iterator[Op]:
    pf = ctx.pf
    for n, N, s in jobs:
        yield Op(
            f"generate_exact_pr({n},{N})",
            lambda: pf.generate_exact_pr(n, N, s),
            lambda cert: _check_exact_certificate(ctx, cert, n, N, s),
        )


# ---------------------------------------------------------------------------
# lifted: the sign-pattern loop and the exact nullspace kernel.
# ---------------------------------------------------------------------------

LIFTED_SHAPES = (
    [(2, N) for N in range(2, 7)] + [(3, N) for N in range(3, 9)] + [(4, N) for N in range(4, 9)]
)
LIFTED_FRAMES_PER_SHAPE = 4


def lifted_inputs(seed: int, p: int, workdir: str):
    rng = pass_rng(seed, p)
    frames = []
    for _ in range(LIFTED_FRAMES_PER_SHAPE):
        for n, N in LIFTED_SHAPES:
            while True:
                vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(N)]
                if oracle.rank(vecs) == n:
                    break
            frames.append((n, vecs))
    return frames


def _check_s2(w, frame, vecs, n: int) -> str:
    pr = oracle.complement_property(vecs, n)
    if w is None:
        _require(pr, "no S2 element reported for a frame without the complement property")
        return "pr"
    _require(not pr, "S2 element reported for a frame with the complement property")
    _require(w.validate(frame, range(len(vecs))), "S2 witness fails validate")
    return "s2"


def _check_redundancy(r, N: int) -> str:
    _require(isinstance(r, Fraction) and r > 0, "redundancy type")
    k = Fraction(N) / r
    _require(k.denominator == 1 and 1 <= k <= N, f"redundancy {r} is not N/k")
    return f"red={r}"


def lifted_ops(ctx: Context, frames) -> Iterator[Op]:
    pf = ctx.pf
    for n, vecs in frames:
        N = len(vecs)
        held = {}

        def find():
            held["frame"] = pf.Frame.from_vectors(vecs, dim=n)
            return pf.find_s2_element(held["frame"], range(N))

        w = yield Op(f"find_s2_element({n},{N})", find, lambda w: _check_s2(w, held["frame"], vecs, n))
        if w is not None:
            yield Op(
                f"pr_redundancy({n},{N})",
                lambda: pf.pr_redundancy(held["frame"]),
                lambda r: _check_redundancy(r, N),
            )


# ---------------------------------------------------------------------------
# subspace: d(F) threshold search, projected CP scans, extension on bases.
# ---------------------------------------------------------------------------

SUBSPACE_FRAMES = 24
EXTEND_DIMS = range(7, 12)


def _sparse_frame(rng: random.Random, n: int, N: int, nonzeros: int):
    while True:
        vecs = []
        for _ in range(N):
            v = [0] * n
            for r in rng.sample(range(n), nonzeros):
                v[r] = rng.randint(1, 9)
            vecs.append(tuple(v))
        if oracle.rank(vecs) == n:
            return vecs


def subspace_inputs(seed: int, p: int, workdir: str):
    rng = pass_rng(seed, p)
    frames = []
    for i in range(SUBSPACE_FRAMES):
        n = 6 + i % 3
        # three nonzeros per vector at n = 8 split d(F) between 6 and 7 and the
        # d = 7 proofs cost 4x more, which would make the tail depend on the seed
        nonzeros = 2 if n == 8 else 2 + i // 3 % 2
        vecs = _sparse_frame(rng, n, 2 * n + 2 * (i // 6 % 2), nonzeros)
        frames.append((n, vecs, rng.randrange(1 << 31)))
    extends = []
    for n in EXTEND_DIMS:
        for k in ((n + 1) // 2, (n + 1) // 2 - 1):
            x = [0] * n
            for r in rng.sample(range(n), k):
                x[r] = rng.choice((-3, -2, -1, 1, 2, 3))
            extends.append((n, tuple(x), rng.randrange(1 << 31)))
    return frames, extends


def _check_d(d, n: int) -> str:
    _require(type(d) is int and (n + 1) // 2 <= d <= n, f"d_max {d} out of range for n={n}")
    return f"d={d}"


def _check_subspace(sub, n: int, dim: int, contains=None) -> str:
    vecs = sub.vectors()
    _require(sub.ambient_dim == n and sub.dim == dim, "subspace shape")
    _require(oracle.rank(vecs) == dim, "subspace basis rank")
    if contains is not None:
        _require(oracle.rank(vecs + [contains]) == dim, "subspace does not contain x")
    return f"sub{dim}:{digest(_vec_strs(vecs))}"


def _check_maximal(v) -> str:
    _require(v.status == "Maximal" and v.witness is None, f"maximality verdict {v.status}")
    return v.status


def subspace_ops(ctx: Context, data) -> Iterator[Op]:
    pf = ctx.pf
    frames, extends = data
    for n, vecs, s in frames:
        held = {}

        def dmax():
            held["frame"] = pf.Frame.from_vectors(vecs, dim=n)
            return pf.d_max(held["frame"])

        d = yield Op(f"d_max({n},{len(vecs)})", dmax, lambda d: _check_d(d, n))
        if d is None:
            continue
        sub = yield Op(
            f"random_pr_subspace({n},{d})",
            lambda: pf.random_pr_subspace(held["frame"], d, s),
            lambda sub: _check_subspace(sub, n, d),
        )
        if sub is None:
            continue
        yield Op(
            f"is_maximal_pr_subspace({n},{d})",
            lambda: pf.is_maximal_pr_subspace(held["frame"], sub),
            _check_maximal,
        )
    for n, x, s in extends:
        k = sum(1 for t in x if t)
        yield Op(
            f"extend_to_maximal({n},{k})",
            lambda: pf.extend_to_maximal(pf.Frame.from_vectors(_standard_basis(n), dim=n), x, seed=s),
            lambda sub: _check_subspace(sub, n, k, contains=x),
        )


# ---------------------------------------------------------------------------
# cli: a scripted desk session, one `python -m prframes.cli` process per op.
# ---------------------------------------------------------------------------


def _frame_json(vecs, n: int) -> dict:
    return {"n": n, "vectors": [list(v) for v in vecs]}


def cli_inputs(seed: int, p: int, workdir: str):
    """Write the user's own input frames; return file paths and op seeds."""
    rng = pass_rng(seed, p)
    while True:
        small = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(6)]
        if oracle.rank(small) == 3:
            break
    sparse = _sparse_frame(rng, 6, 12, 2)
    files = {name: os.path.join(workdir, f"{name}.json") for name in
             ("small", "sparse", "eye", "exact", "dmax", "basis", "sub")}
    for name, obj in (
        ("small", _frame_json(small, 3)),
        ("sparse", _frame_json(sparse, 6)),
        ("eye", _frame_json(_standard_basis(8), 8)),
    ):
        with open(files[name], "w") as fh:
            json.dump(obj, fh)
    x = [0] * 8
    for r in rng.sample(range(8), rng.randint(2, 4)):
        x[r] = rng.choice((-2, -1, 1, 2, 3))
    seeds = [rng.randrange(1 << 31) for _ in range(5)]
    return {"files": files, "small": small, "x": x, "seeds": seeds}


def _parse_report(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise BadOutput(f"stdout is not JSON: {exc}") from None


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadOutput(f"output file {os.path.basename(path)}: {exc}") from None


def _lifted_rank(vecs, n: int) -> int:
    rows = [[f[a] * f[b] for a in range(n) for b in range(a, n)] for f in vecs]
    return oracle.rank(rows)


def _check_cli(res, code: int, inspect: Optional[Callable[[dict], None]] = None,
               out_file: Optional[str] = None) -> str:
    """Exit code, no traceback, parseable JSON; the verdict masks timings."""
    got, out, err = res
    _require("Traceback" not in err, "traceback on stderr")
    _require(got == code, f"exit code {got}, expected {code}: {err.strip()[:200]}")
    report = _load(out_file) if out_file else _parse_report(out)
    if inspect is not None:
        inspect(report)
    report.pop("elapsed_seconds", None)
    for check in report.get("results", {}).values():
        if isinstance(check, dict):
            # any failing subset is valid; which one is found is not a verdict
            check.pop("failing_subset", None)
    return f"{code}:{digest(report)}"


def _failing_subsets_hold(report: dict, path: str) -> None:
    d = _load(path)
    vecs = [[Fraction(x) for x in v] for v in d["vectors"]]
    for check in report["results"].values():
        if "failing_subset" in check:
            _require(oracle.is_failing_subset(vecs, d["n"], check["failing_subset"]),
                     "failing subset spans on one side")


def cli_ops(ctx: Context, data) -> Iterator[Op]:
    f, x, (s1, s2, s3, s4, s5) = data["files"], data["x"], data["seeds"]
    small_pr = oracle.complement_property(data["small"], 3)
    small_li = _lifted_rank(data["small"], 3) == len(data["small"])

    def op(label, argv, code, inspect=None, out_file=None):
        return Op(label, lambda: ctx.cli(argv), lambda r: _check_cli(r, code, inspect, out_file))

    def cert_check(n, d):
        def inspect(rep):
            c = rep["meta"]["certificate"]
            _require(rep["n"] == n and c["d"] == d and c["retries"] <= 5, "gen certificate")
            ctx.retries.append(c["retries"])
        return inspect

    def expect(key, value):
        def inspect(rep):
            _require(rep.get(key) == value, f"{key} = {rep.get(key)!r}, expected {value!r}")
        return inspect

    def verify_small(rep):
        _require(rep["results"]["pr"]["passed"] == small_pr, "pr verdict disagrees with the oracle")
        _require(rep["results"]["lifted-independence"]["passed"] == small_li, "lifted independence")
        _failing_subsets_hold(rep, f["small"])

    def verify_dmax(rep):
        _require(rep["results"]["pr"]["passed"] is False, "d < n frame reported PR")
        _require(rep["results"]["redundancy"]["passed"] is True, "exact redundancy certificate")
        _failing_subsets_hold(rep, f["dmax"])

    def analyze_range(n, exact_d=None):
        def inspect(rep):
            d = rep["results"]["dmax"]
            _require((n + 1) // 2 <= d <= n and (exact_d is None or d == exact_d), f"dmax {d}")
        return inspect

    def basis_check(rep):
        meta = rep["meta"]
        _require(meta["certificate"]["maximal_pr_subspace_dim"] == 4 and meta["subspace"]["dim"] == 4,
                 "basis-subspace certificate")

    def extend_check(rep):
        k = sum(1 for t in x if t)
        _require(rep["dim"] == k and rep["meta"]["certified"]["maximal"] is True, "extension dim")
        basis = [[Fraction(t) for t in row] for row in rep["basis"]]
        cols = [list(c) for c in zip(*basis)]
        _require(oracle.rank(cols + [x]) == k, "extension does not contain x")

    yield op("gen exact", ["gen", "--kind", "exact", "--n", "5", "--len", "12", "--seed", str(s1),
                           "--out", f["exact"]], 0, cert_check(5, 5), f["exact"])
    yield op("gen dmax", ["gen", "--kind", "dmax", "--n", "5", "--k", "3", "--len", "9", "--seed",
                          str(s2), "--out", f["dmax"]], 0, cert_check(5, 3), f["dmax"])
    yield op("gen basis-subspace", ["gen", "--kind", "basis-subspace", "--n", "7", "--k", "4",
                                    "--len", "7", "--seed", str(s3), "--out", f["basis"]],
             0, basis_check, f["basis"])
    yield op("verify exact", ["verify", f["exact"], "--checks", "pr,exact"], 0,
             expect("all_passed", True))
    yield op("verify dmax", ["verify", f["dmax"], "--checks", "pr,redundancy"], 1, verify_dmax)
    yield op("verify small", ["verify", f["small"], "--checks", "pr,lifted-independence"],
             0 if small_pr and small_li else 1, verify_small)
    yield op("analyze exact", ["analyze", f["exact"], "--what", "dmax,spark"], 0, analyze_range(5, 5))
    yield op("analyze sparse", ["analyze", f["sparse"], "--what", "dmax,spark"], 0, analyze_range(6))
    yield op("subspace random", ["subspace", f["dmax"], "--action", "random", "--dim", "3",
                                 "--seed", str(s4), "--out", f["sub"]], 0, expect("dim", 3), f["sub"])
    yield op("subspace check", ["subspace", f["dmax"], "--action", "check", "--subspace-file",
                                f["sub"]], 0, expect("is_pr_subspace", True))
    yield op("subspace maximal", ["subspace", f["dmax"], "--action", "maximal", "--subspace-file",
                                  f["sub"]], 0,
             lambda rep: _require(rep["verdict"]["status"] == "Maximal", "maximality verdict"))
    yield op("subspace extend", ["subspace", f["eye"], "--action", "extend",
                                 "--vector=" + ",".join(map(str, x)), "--seed", str(s5)], 0, extend_check)
    yield op("paper-suite", ["paper-suite"], 0, expect("all_passed", True))


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, int, str], Any]
    ops: Callable[[Context, Any], Iterator[Op]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gen-exact", gen_exact_inputs, gen_exact_ops),
        Workload("lifted", lifted_inputs, lifted_ops),
        Workload("subspace", subspace_inputs, subspace_ops),
        Workload("cli", cli_inputs, cli_ops),
    )
}
