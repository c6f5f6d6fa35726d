"""The mutation gate: rules that the tests must keep, each broken once on purpose.

    python tests/mutants.py [NAME ...]

Each mutant is one text edit of a source file: a rule whose docstring
argues that it is needed, taken out or bent.  For each one the gate copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the edit there, and runs the mutant's test files with
``--hypothesis-seed=0``.  A mutant is killed when those tests fail.  The
gate exits 1 if any mutant survives, or if a mutant's old text does not
occur exactly once in its file: a change that moves an anchor restates its
mutants.  Names pick mutants; no names run them all.  pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once
    new: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the repository root
    why: str


MUTANTS = (
    Mutant(
        "within-skips-sub-minors",
        "src/prframes/ratlin.py",
        "    return grow(range(w), [1], 0, deepest) and (short == 0 or grow(range(w, m), [1], 0, short))",
        "    return grow(range(w), [1], 0, deepest)",
        ("tests/test_residue.py",),
        "full_spark_residue with within: a column set that avoids within skips only its n x n minor; "
        "its smaller minors are n-subsets that keep a pivot, which lies in within",
    ),
    Mutant(
        "within-pivots-outside",
        "src/prframes/ratlin.py",
        "        vecs = [vecs[i] for i in lead] + [v for i, v in enumerate(vecs) if i not in within]",
        "        vecs = list(vecs)",
        ("tests/test_residue.py",),
        "full_spark_residue with within: the skipped minors avoid within only when the pivots lie in it",
    ),
    Mutant(
        "laplace-sign-parity-flipped",
        "src/prframes/ratlin.py",
        "+ half * (i & 1) for i in range(k)",
        "+ half * (~i & 1) for i in range(k)",
        ("tests/test_residue.py",),
        "the Laplace step negates the minors at odd positions; flipped, every minor changes sign "
        "level by level and no zero test sees it, so the step is checked against sympy's minors",
    ),
    Mutant(
        "full-spark-breadth-first",
        "src/prframes/ratlin.py",
        "    return grow(range(w), [1], 0, deepest) and (short == 0 or grow(range(w, m), [1], 0, short))",
        "    level = [((), [1])]\n"
        "    for k, size in enumerate(terms):\n"
        "        wider = []\n"
        "        for key, minors in level:\n"
        "            signed = minors + [-x for x in minors]\n"
        "            for s in range(key[-1] + 1 if key else 0, m):\n"
        "                if k >= short and (key + (s,))[0] >= w:\n"
        "                    continue\n"
        "                out = [sum(map(mul, at(cols[s]), below(signed))) % p for at, below in size]\n"
        "                if 0 in out:\n"
        "                    return False\n"
        "                wider.append((key + (s,), out))\n"
        "        level = wider\n"
        "    return True",
        ("tests/test_residue.py",),
        "the full-spark certificate walks the column sets depth first and holds one minors vector "
        "per depth; a walk that holds every column set of a size reads the same minors in far more memory",
    ),
    Mutant(
        "full-spark-behind-outgrows-digit",
        "src/prframes/frames.py",
        "    if ncols == 2 * n - 1 and full_spark_residue(cols):",
        "    if ncols == 2 * n - 1 and outgrows_digit(cols) and full_spark_residue(cols):",
        ("tests/test_frames.py",),
        "the partition search reads the full-spark certificate at any entry width, narrow families "
        "of 2n - 1 columns in R^n included",
    ),
    Mutant(
        "failed-certificate-proves-cp",
        "src/prframes/frames.py",
        "    if ncols == 2 * n - 1 and full_spark_residue(cols):",
        "    if ncols == 2 * n - 1:",
        ("tests/test_frames.py",),
        "False from the full-spark certificate proves nothing: a family of 2n - 1 columns in R^n that "
        "is not full spark fails the complement property, and the exact search finds its failing subset",
    ),
    Mutant(
        "spark-certificate-drops-within",
        "src/prframes/frames.py",
        "    if width >= n and full_spark_residue(cols, within):",
        "    if width >= n and full_spark_residue(cols):",
        ("tests/test_subspaces.py",),
        "the spark search's certificate asks only about the dim-subsets that meet within; asked about "
        "all of them, it fails on every U with m rows outside the support, where x is zero, and the "
        "search runs instead",
    ),
    Mutant(
        "extension-skips-certificate",
        "src/prframes/subspaces.py",
        "        if _stage_accepts(us, supp):",
        "        if True:",
        ("tests/test_subspaces.py",),
        "extend_to_maximal returns U only once every k-row subset meeting the support is invertible; "
        "a singular U is turned down and the next attempt draws again",
    ),
    Mutant(
        "d-search-keeps-rank-r",
        "src/prframes/frames.py",
        "            keep = n - r + 1  # go on below larger class rank r",
        "            keep = n - r",
        ("tests/test_subspaces.py",),
        "after a partition of larger class rank r the d(F) search looks only for rank <= r - 1",
    ),
    Mutant(
        "partition-column-0-unpinned",
        "src/prframes/frames.py",
        "    stack = [(1, start_a, empty, 1, live)]",
        "    stack = [(0, empty, empty, 0, live)]",
        ("tests/test_frames.py",),
        "the partition search pins column 0 to A, which cuts the mirror half of the colourings; "
        "unpinned, it walks other nodes and reports other witnesses",
    ),
    Mutant(
        "partition-span-a-branches",
        "src/prframes/frames.py",
        "            else:\n"
        "                amask |= 1 << i\n"
        "                i += 1\n"
        "                continue\n",
        "            else:\n"
        "                for rb in nb:\n"
        "                    if rb[at]:\n"
        "                        break\n"
        "                else:\n"
        "                    amask |= 1 << i\n"
        "                    i += 1\n"
        "                    continue\n"
        "                stack.append((i + 1, na, nb, amask | 1 << i, live))\n"
        "                if len(nb) <= keep:\n"
        "                    break\n"
        "                nb = extend(nb, at, (nb.index(rb), rb[at]))\n"
        "                live = live and _outside(nb, live)\n"
        "                if live == []:\n"
        "                    break\n"
        "                i += 1\n"
        "                continue\n",
        ("tests/test_frames.py",),
        "dominance: a column in the span of A goes to A only; branching it into B as well loses no "
        "answer but walks other nodes, in another order",
    ),
    Mutant(
        "partition-floor-stop-strict",
        "src/prframes/frames.py",
        "            if r <= floor:",
        "            if r < floor:",
        ("tests/test_frames.py",),
        "the search stops at the first partition whose larger class rank is at most floor, "
        "so a search for any partition stops at the first one",
    ),
    Mutant(
        "least-stops-at-first",
        "src/prframes/frames.py",
        "    floor = (n + 1) // 2 if least else n - 1",
        "    floor = n - 1",
        ("tests/test_frames.py",),
        "d(F) is the least larger class rank over all partitions: the least search looks on below "
        "each partition it finds until that rank reaches (n + 1) // 2",
    ),
    Mutant(
        "partition-b-outlives-watched",
        "src/prframes/frames.py",
        "            live = live and _outside(nb, live)\n"
        "            if live == []:\n"
        "                break\n",
        "            live = live and _outside(nb, live)\n",
        ("tests/test_frames.py", "tests/test_lifting.py"),
        "the B child walked on in place dies, as a stacked child does, once no watched column "
        "is left outside both spans",
    ),
    Mutant(
        "support-order-on-the-reported-search",
        "src/prframes/frames.py",
        "    return _partition(cols)\n",
        "    return _partition(_support_order(cols))\n",
        ("tests/test_residue.py",),
        "the exact search of the CP proof keeps the given order: its class A is the failing "
        "subset reported, as indices into the columns as given",
    ),
    Mutant(
        "support-order-dropped",
        "src/prframes/frames.py",
        "residues(_support_order(cols))",
        "residues(cols)",
        ("tests/test_frames.py",),
        "the CP proof's residue search walks the columns in support order, sparse ones first: "
        "the same extensions, fewer row entries rebuilt",
    ),
    Mutant(
        "basis-d-floor",
        "src/prframes/subspaces.py",
        "        d = (n + 1) // 2 if basis else n",
        "        d = n // 2 if basis else n",
        ("tests/test_subspaces.py",),
        "a basis has d(F) = [(n+1)/2]: its two halves are classes of ranks [(n+1)/2] and [n/2], "
        "and no frame has less",
    ),
    Mutant(
        "whole-space-probed",
        "src/prframes/subspaces.py",
        "    if basis or k == n:",
        "    if basis:",
        ("tests/test_subspaces.py",),
        "M = R^n is PR only on a PR frame, whose d(F) is n: Maximal with no d_max search, so no cap, "
        "and no probe, which has no vector to add",
    ),
    Mutant(
        "basis-probe-failure-unknown",
        "src/prframes/subspaces.py",
        "        raise RetriesExhausted(\"extension exists but sampling failed to certify one\")",
        "        return MaximalityVerdict(\"Unknown\", reason=\"no decision procedure applies\")",
        ("tests/test_subspaces.py",),
        "on a basis a minimum support above k proves that M extends, so a probe that finds no "
        "superspace is the sampler's failure, never Unknown",
    ),
    Mutant(
        "step-II-last-nonzero-row",
        "src/prframes/construct.py",
        "    r0, r1 = splice.index(False), splice.index(True)",
        "    r0, r1 = splice.index(False), len(splice) - 1 - splice[::-1].index(True)",
        ("tests/test_construct.py",),
        "step II takes the splice column's first nonzero row as row 1: the masks and the digests follow it",
    ),
    Mutant(
        "tail-chain-greedy",
        "src/prframes/construct.py",
        "            if _matching(later) is not None:",
        "            if True:",
        ("tests/test_construct.py",),
        "step III's chain takes each key's first column after which the later keys can still be "
        "matched; a greedy first free column can leave a later key without one",
    ),
    Mutant(
        "step-input-n-below-1",
        "src/prframes/construct.py",
        "    if a.n < 3:",
        "    if a.n < 1:",
        ("tests/test_construct.py",),
        "the steps' proofs need n >= 3, so smaller masks are refused",
    ),
    Mutant(
        "solve-always-fraction",
        "src/prframes/ratlin.py",
        "    return p // q if p % q == 0 else Fraction(p, q)",
        "    return Fraction(p, q)",
        ("tests/test_int_input.py",),
        "solve returns ints where entries are integral, so subspace operations on int input "
        "make no Fraction: Fractions are made only at the boundary",
    ),
    Mutant(
        "sampler-accepts-range-max",
        "src/prframes/ratlin.py",
        "            while r >= range_max:",
        "            while r > range_max:",
        ("tests/test_ratlin.py",),
        "each sampled entry is randint(1, range_max) step for step: a draw of range_max is rejected",
    ),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', 'ANCHOR' (the old text does not occur exactly once) or 'ERROR'.

    Only failing tests (pytest's exit code 1) kill a mutant; an edit that
    stops the tests from being collected or run is an ERROR.
    """
    with open(os.path.join(ROOT, mutant.file)) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return "ANCHOR"
    with tempfile.TemporaryDirectory(prefix="prframes-mutant-") as tmp:
        _copy_tree(tmp)
        with open(os.path.join(tmp, mutant.file), "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-seed=0", "-p", "no:cacheprovider"]
        proc = subprocess.run(cmd + list(mutant.tests), cwd=tmp, env=env, capture_output=True, text=True)
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        t0 = time.perf_counter()
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:8} {mutant.name:36} {time.perf_counter() - t0:6.1f} s  {mutant.why}", flush=True)
    print("mutation gate:", "ok" if not failed else f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
