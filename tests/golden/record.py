"""The golden CLI transcript: fixed commands, their exit codes and output bytes.

    PYTHONPATH=src python tests/golden/record.py

rewrites ``tests/golden/transcript.json`` from the current code.  Each
entry holds a command's exit code, its stdout (``elapsed_seconds``
masked), its stderr and the ``--out`` file it wrote; a demo's entry holds
its stdout.  ``tests/test_golden.py`` replays the same commands and
compares every byte.  Re-record only for an intended output change, and
say so in the change.

Everything runs in-process, in one scratch directory, with relative file
names, so no entry depends on where the directory is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import runpy
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "transcript.json"
DEMOS = sorted((HERE.parent.parent / "demos").glob("[0-9][0-9]_*.py"))
SEEDS = (0, 1, 2)

_ELAPSED = re.compile(r'"elapsed_seconds": [0-9.e+-]+')


def _small_frame(seed: int) -> dict:
    """A user's own frame: 7 vectors in R^3 with entries in [-3, 3], spanning."""
    rng = random.Random(f"golden:{seed}")
    vecs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(7)]
    vecs[:3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return {"n": 3, "vectors": vecs}


def commands(seed: int):
    """(input files to write, argv list) for one seed; files are named by seed."""
    s = str(seed)
    exact, dmax, basis, small, eye = (f"{k}{s}.json" for k in ("exact", "dmax", "basis", "small", "eye"))
    sub, bsub, ext = f"sub{s}.json", f"bsub{s}.json", f"ext{s}.json"
    checks = "pr,exact,redundancy,lifted-independence"
    argvs = [
        ["gen", "--kind", "exact", "--n", "5", "--len", "12", "--seed", s, "--out", exact],
        ["gen", "--kind", "exact", "--n", "4", "--len", "9", "--seed", s],
        ["gen", "--kind", "dmax", "--n", "5", "--k", "3", "--len", "9", "--seed", s, "--out", dmax],
        ["gen", "--kind", "basis-subspace", "--n", "6", "--k", "3", "--len", "6", "--seed", s,
         "--out", basis],
        ["verify", exact, "--checks", checks],
        ["verify", dmax, "--checks", checks],
        ["verify", small, "--checks", checks],
        ["analyze", exact, "--what", "dmax,spark,redundancy"],
        ["analyze", dmax, "--what", "dmax,spark,redundancy"],
        ["analyze", small, "--what", "dmax,spark,redundancy"],
        ["subspace", dmax, "--action", "random", "--dim", "3", "--seed", s, "--out", sub],
        ["subspace", dmax, "--action", "check", "--subspace-file", sub],
        ["subspace", dmax, "--action", "maximal", "--subspace-file", sub, "--seed", s],
        ["subspace", basis, "--action", "random", "--dim", "2", "--seed", s, "--out", bsub],
        ["subspace", basis, "--action", "maximal", "--subspace-file", bsub, "--seed", s],
        ["subspace", eye, "--action", "extend", "--vector", "2,0,-1,0,0,0", "--seed", s, "--out", ext],
        ["subspace", eye, "--action", "check", "--subspace-file", ext],
        ["subspace", eye, "--action", "maximal", "--subspace-file", ext, "--seed", s],
        ["subspace", eye, "--action", "extend", "--vector", "0,3,0,-2,0,1", "--seed", s],
        ["subspace", small, "--action", "random", "--dim", "2", "--seed", s],
    ]
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    return {small: _small_frame(seed), eye: {"n": 6, "vectors": identity}}, argvs


_CLOSING = [
    ["paper-suite"],
    ["gen", "--kind", "exact", "--n", "5", "--len", "20"],
    ["subspace", "eye0.json", "--action", "extend", "--vector", "1,1,1,1,1,1"],
]


def _run_cli(argv):
    from prframes.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    entry = {"argv": list(argv), "exit": code, "stdout": _ELAPSED.sub('"elapsed_seconds": "*"', out.getvalue()),
             "stderr": err.getvalue()}
    if "--out" in argv:
        out_file = Path(argv[argv.index("--out") + 1])
        entry["out"] = out_file.read_text() if out_file.exists() else None
    return entry


def _run_demo(path: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return {"demo": path.name, "stdout": out.getvalue()}


def transcript():
    """Every entry, in order, run in a fresh scratch directory."""
    entries = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for seed in SEEDS:
                files, argvs = commands(seed)
                for name, obj in files.items():
                    Path(name).write_text(json.dumps(obj))
                entries.extend(_run_cli(argv) for argv in argvs)
            entries.extend(_run_cli(argv) for argv in _CLOSING)
        finally:
            os.chdir(cwd)
    entries.extend(_run_demo(d) for d in DEMOS)
    return entries


def main() -> int:
    GOLDEN.write_text(json.dumps(transcript(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
