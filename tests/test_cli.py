"""Command-line contract: subcommands, JSON reports, exit codes 0/1/2."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import import_module

import pytest
from hypothesis import given, settings, strategies as st

import prframes
import prframes.cli
from prframes import (
    Frame,
    frame_from_dict,
    frame_to_dict,
    generate_exact_pr,
    save_json,
    subspace_to_dict,
)
from prframes.cli import main
from prframes.errors import NotPRSubspace, PRFramesError
from prframes.curated import r4_example_subspace, r4_standard_basis
from prframes.subspaces import Subspace, _projected_int_cols


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_frame(tmp_path, name, vectors, dim):
    p = tmp_path / name
    save_json(frame_to_dict(Frame.from_vectors(vectors, dim=dim)), str(p))
    return str(p)


@pytest.fixture
def pr_frame_file(tmp_path):
    return write_frame(tmp_path, "pr.json", [(1, 0), (0, 1), (1, 1)], 2)


@pytest.fixture
def basis_file(tmp_path):
    return write_frame(tmp_path, "basis.json", [(1, 0), (0, 1)], 2)


def test_gen_exact_roundtrip(capsys, tmp_path):
    out = tmp_path / "f.json"
    code, _, _ = run(capsys, "gen", "--n", "3", "--len", "6", "--seed", "3", "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    f = frame_from_dict(d)
    assert (f.dim, f.N) == (3, 6)
    assert d["meta"]["certificate"]["exact_pr"] is True


def test_gen_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--n", "3", "--len", "5", "--seed", "11")
    code2, out2, _ = run(capsys, "gen", "--n", "3", "--len", "5", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--n", "3", "--len", "7")
    assert code == 2 and "OutOfRange" in err


def test_gen_range_max_below_2_is_a_library_error(capsys):
    code, out, err = run(capsys, "gen", "--n", "3", "--len", "6", "--range-max", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["OutOfRange: range_max must be >= 2, got 1"]


def test_gen_dmax_requires_k(capsys):
    code, _, err = run(capsys, "gen", "--n", "4", "--len", "6", "--kind", "dmax")
    assert code == 2 and "--k" in err
    code, out, _ = run(capsys, "gen", "--n", "4", "--len", "6", "--kind", "dmax", "--k", "2")
    assert code == 0
    assert json.loads(out)["meta"]["certificate"]["d"] == 2


def test_gen_basis_subspace(capsys):
    code, out, _ = run(
        capsys, "gen", "--n", "5", "--len", "5", "--kind", "basis-subspace", "--k", "2"
    )
    assert code == 0
    d = json.loads(out)
    assert d["meta"]["subspace"]["dim"] == 2


def test_gen_basis_subspace_len_must_equal_n(capsys):
    # a basis of R^n has n vectors; another --len is a usage error, not ignored
    code, out, err = run(
        capsys, "gen", "--n", "5", "--len", "99", "--kind", "basis-subspace", "--k", "2"
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == ["--len must equal --n (5) for kind basis-subspace"]


def test_verify_pass(capsys, pr_frame_file):
    code, out, _ = run(capsys, "verify", pr_frame_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert rep["results"]["pr"]["passed"] and rep["results"]["exact"]["passed"]


def test_verify_failure_reports_witness_data(capsys, basis_file):
    code, out, _ = run(capsys, "verify", basis_file, "--checks", "pr")
    assert code == 1
    rep = json.loads(out)
    assert rep["results"]["pr"]["passed"] is False
    assert "failing_subset" in rep["results"]["pr"]


def test_verify_unknown_check_exits_2(capsys, pr_frame_file):
    code, _, err = run(capsys, "verify", pr_frame_file, "--checks", "bogus")
    assert code == 2 and "bogus" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify", "--checks", "bogus"], "unknown checks: ['bogus']"),
        (["verify", "--checks", ","], "unknown checks: none requested"),
        (["analyze", "--what", "bogus"], "unknown analyses: ['bogus']"),
        (["analyze", "--what", ","], "unknown analyses: none requested"),
    ],
)
def test_unknown_names_exit_2_with_one_line(capsys, pr_frame_file, argv, line):
    code, out, err = run(capsys, argv[0], pr_frame_file, *argv[1:])
    assert (code, out, err) == (2, "", line + "\n")


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_file_errors_exit_2_with_one_line(capsys, tmp_path, pr_frame_file):
    # each option that names a file, given a directory or a path through a file
    through_file = os.path.join(pr_frame_file, "frame.json")
    sub = ["subspace", pr_frame_file, "--action", "check", "--subspace-file"]
    for argv, error in [
        (["verify", str(tmp_path)], "IsADirectoryError"),
        (sub + [str(tmp_path)], "IsADirectoryError"),
        (["gen", "--n", "2", "--len", "3", "--out", str(tmp_path)], "IsADirectoryError"),
        (["verify", through_file], "NotADirectoryError"),
        (sub + [through_file], "NotADirectoryError"),
        (["gen", "--n", "2", "--len", "3", "--out", through_file], "NotADirectoryError"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith(f"{error}: "), argv


def test_gen_non_spanning_draws_are_retried_not_reported(capsys):
    # a small --range-max makes some dense draws miss a dimension: the
    # generator retries them, it does not blame the user's input
    code, _, err = run(capsys, "gen", "--n", "5", "--len", "9", "--range-max", "2")
    assert code == 2 and err.startswith("RetriesExhausted: "), err
    code, out, _ = run(capsys, "gen", "--n", "3", "--len", "5", "--range-max", "3", "--seed", "28")
    assert code == 0 and json.loads(out)["meta"]["certificate"]["retries"] == 2


def test_verify_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(p))
    assert code == 2


# deeper than the JSON parser can recurse
DEEPLY_NESTED = '{"n": 2, "vectors": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": "2", "vectors": [[1, 0], [0, 1], [1, 1]]}',
        '{"n": 2, "vectors": 5}',
        '[[1, 0], [0, 1], [1, 1]]',
        '{"n": 2, "vectors": [[1, 0], [0, 1], ["1/0", 1]]}',
        '{"n": 2, "vectors": [[1, 0], [0, true], [1, 1]]}',
        '{"n": 2, "vectors": [[1, 0], [0, 1], [0.5, 1]]}',
        '{"n": 2, "vectors": [["1e3", 0], [0, 1], ["0.5", "1"]]}',
        DEEPLY_NESTED,
    ],
    ids=[
        "string-n", "scalar-vectors", "top-level-list", "zero-denominator", "bool", "float",
        "decimal-string", "deeply-nested",
    ],
)
def test_verify_malformed_frame_exits_2(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(doc)
    code, out, err = run(capsys, "verify", str(p), "--checks", "pr")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("BadInput: ")
    assert "Traceback" not in err


def test_subspace_file_nested_too_deeply_exits_2(capsys, tmp_path, pr_frame_file):
    sub = tmp_path / "deep.json"
    sub.write_text(DEEPLY_NESTED)
    code, out, err = run(capsys, "subspace", pr_frame_file, "--action", "check", "--subspace-file", str(sub))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("BadInput: ")
    assert "Traceback" not in err


def test_analyze(capsys, pr_frame_file):
    code, out, _ = run(capsys, "analyze", pr_frame_file, "--what", "dmax,spark,redundancy")
    assert code == 0
    rep = json.loads(out)["results"]
    assert rep == {"dmax": 2, "spark": 3, "redundancy": 1}


def test_analyze_rational_redundancy(capsys, tmp_path):
    p = write_frame(tmp_path, "over.json", [(1, 0), (0, 1), (1, 1), (1, -1)], 2)
    code, out, _ = run(capsys, "analyze", p, "--what", "redundancy")
    assert code == 0
    assert json.loads(out)["results"]["redundancy"] == "4/3"


def test_subspace_random_then_check(capsys, tmp_path):
    f = write_frame(
        tmp_path, "f.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)], 3
    )
    sub_path = tmp_path / "sub.json"
    code, _, _ = run(
        capsys, "subspace", f, "--action", "random", "--dim", "2", "--seed", "1",
        "--out", str(sub_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "subspace", f, "--action", "check", "--subspace-file", str(sub_path)
    )
    assert code == 0
    assert json.loads(out)["is_pr_subspace"] is True


def test_subspace_random_on_a_dmax_frame_past_the_d_max_cap(capsys, tmp_path):
    f = str(tmp_path / "f.json")
    code, _, _ = run(
        capsys, "gen", "--kind", "dmax", "--n", "9", "--k", "5", "--len", "25", "--seed", "0",
        "--out", f,
    )
    assert code == 0
    code, out, _ = run(capsys, "subspace", f, "--action", "random", "--dim", "5", "--seed", "0")
    assert code == 0
    sub = json.loads(out)
    assert sub["meta"]["certified_pr"] is True and sub["dim"] == 5
    code, _, err = run(capsys, "subspace", f, "--action", "random", "--dim", "6", "--seed", "0")
    assert code == 2 and "N=25 exceeds enumeration cap 24" in err


def test_subspace_check_failure_exits_1(capsys, tmp_path):
    f = write_frame(tmp_path, "b4.json", [tuple(int(i == j) for i in range(4)) for j in range(4)], 4)
    bad = tmp_path / "bad_sub.json"
    save_json(
        subspace_to_dict(Subspace.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0)], ambient_dim=4)),
        str(bad),
    )
    code, out, _ = run(capsys, "subspace", f, "--action", "check", "--subspace-file", str(bad))
    assert code == 1
    assert json.loads(out)["is_pr_subspace"] is False
    code, out, _ = run(capsys, "subspace", f, "--action", "maximal", "--subspace-file", str(bad))
    assert code == 1


@pytest.mark.parametrize("action", ["check", "maximal"])
def test_subspace_wrong_ambient_dim_exits_2(capsys, tmp_path, action):
    f = write_frame(tmp_path, "f3.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3)
    sub = tmp_path / "sub2.json"
    save_json(subspace_to_dict(Subspace.from_vectors([(1, 1)], ambient_dim=2)), str(sub))
    code, out, err = run(capsys, "subspace", f, "--action", action, "--subspace-file", str(sub))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("BadInput: ")


def test_subspace_maximal_verdict(capsys, tmp_path):
    f = write_frame(tmp_path, "b4.json", [tuple(int(i == j) for i in range(4)) for j in range(4)], 4)
    good = tmp_path / "sub.json"
    save_json(
        subspace_to_dict(Subspace.from_vectors([(1, 1, 1, 0), (1, -1, 0, 1)], ambient_dim=4)),
        str(good),
    )
    code, out, _ = run(capsys, "subspace", f, "--action", "maximal", "--subspace-file", str(good))
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "Maximal"


def test_subspace_maximal_unknown_verdict(capsys, tmp_path):
    # no rung decides and the probe finds no larger PR subspace (the case of
    # test_subspaces.py::test_probe_computes_one_nullspace); exit 0
    f = write_frame(tmp_path, "f.json", [(-1, -2, 0), (2, 0, 0), (1, 0, 0), (0, 1, -2)], 3)
    sub = tmp_path / "sub.json"
    save_json(subspace_to_dict(Subspace.from_vectors([(0, 0, 1)], ambient_dim=3)), str(sub))
    code, out, err = run(capsys, "subspace", f, "--action", "maximal", "--subspace-file", str(sub))
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "command": "subspace-maximal",\n'
        '  "verdict": {\n'
        '    "probe_report": {\n'
        '      "attempts": 20,\n'
        '      "extension_found": false\n'
        "    },\n"
        '    "reason": "no decision procedure applies",\n'
        '    "status": "Unknown"\n'
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize("dim", [2, 0])
def test_subspace_file_dim_must_count_the_basis_columns(capsys, tmp_path, dim):
    f = write_frame(tmp_path, "f.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3)
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"n": 3, "dim": dim, "basis": [[1], [0], [0]]}))
    for action in ("check", "maximal"):
        code, out, err = run(capsys, "subspace", f, "--action", action, "--subspace-file", str(sub))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"BadInput: 'dim' must be 1, the number of basis columns, got {dim}"]


def test_subspace_extend(capsys, tmp_path):
    f = write_frame(tmp_path, "b5.json", [tuple(int(i == j) for i in range(5)) for j in range(5)], 5)
    code, out, _ = run(
        capsys, "subspace", f, "--action", "extend", "--vector", "1,1,0,0,0", "--seed", "2"
    )
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 2
    assert d["meta"]["certified"] == {"pr": True, "min_support": 2, "maximal": True}


def test_subspace_extend_vector_with_leading_minus(capsys, tmp_path):
    # a comma list that starts with a minus sign is the value of --vector,
    # given separately or after "="
    f = write_frame(tmp_path, "b5.json", [tuple(int(i == j) for i in range(5)) for j in range(5)], 5)
    spaced = run(capsys, "subspace", f, "--action", "extend", "--vector", "-2,1,0,0,0")
    glued = run(capsys, "subspace", f, "--action", "extend", "--vector=-2,1,0,0,0")
    abbreviated = run(capsys, "subspace", f, "--action", "extend", "--vec", "-2,1,0,0,0")
    assert spaced == glued == abbreviated
    assert spaced[0] == 0 and json.loads(spaced[1])["dim"] == 2


def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch, tmp_path, pr_frame_file):
    # the reader of a pipe went away (`prframes ... | head`)
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr("sys.stdout", ClosedPipe(sink.fileno()))
        code = main(["verify", pr_frame_file])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [e for e in PRFramesError.__subclasses__() if e is not NotPRSubspace],
    ids=lambda e: e.__name__,
)
def test_library_errors_exit_2_with_one_line(capsys, monkeypatch, error):
    # the subspace command reports NotPRSubspace itself; every other library
    # error that reaches main is one of usage, parsing or range
    def raising(args):
        raise error("stubbed")

    monkeypatch.setattr(prframes.cli, "cmd_paper_suite", raising)
    code, out, err = run(capsys, "paper-suite")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"{error.__name__}: {error('stubbed')}"]


def test_subspace_extend_wrong_length_exits_2(capsys, tmp_path):
    f = write_frame(tmp_path, "I4.json", [tuple(int(i == j) for i in range(4)) for j in range(4)], 4)
    code, out, err = run(capsys, "subspace", f, "--action", "extend", "--vector", "1,2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("BadInput: ")


def test_subspace_missing_option_exits_2(capsys, pr_frame_file):
    code, _, err = run(capsys, "subspace", pr_frame_file, "--action", "random")
    assert code == 2 and "--dim" in err
    code, _, err = run(capsys, "subspace", pr_frame_file, "--action", "extend")
    assert code == 2 and "--vector" in err
    for action in ("check", "maximal"):
        code, out, err = run(capsys, "subspace", pr_frame_file, "--action", action)
        assert (code, out) == (2, "") and err == "--subspace-file is required for this action\n"


def test_paper_suite_all_green(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    names = {r["instance"] for r in rep["records"]}
    assert {f"exact-(5,{N})" for N in range(10, 16)} <= names
    assert all(r["passed"] for r in rep["records"])


def test_verify_proves_cp_and_each_removal_once(capsys, tmp_path, partition_searches):
    # a generated exact frame under a dense change of coordinates is still
    # exact, but no coordinate axis settles a removal, so every removal runs
    # the partition search
    gen = generate_exact_pr(4, 9, seed=1).frame
    t = ((1, 2, 3, 1), (1, 1, 3, 2), (2, 1, 1, 1), (1, 3, 1, 2))
    vectors = [[sum(a * x for a, x in zip(row, v)) for row in t] for v in gen.vectors]
    path = write_frame(tmp_path, "exact.json", vectors, 4)
    partition_searches.clear()
    code, out, _ = run(capsys, "verify", path, "--checks", "pr,exact,redundancy")
    assert code == 0 and json.loads(out)["all_passed"] is True
    sizes = Counter(len(cols) for cols in partition_searches)
    assert sizes == {9: 1, 8: 9}
    assert set(Counter(partition_searches).values()) == {1}


def test_paper_suite_searches_the_r4_family_once(capsys, partition_searches):
    # the suite asks whether the R^4 example is PR, then whether it is
    # maximal; the second question reads the verdict held on the basis
    r4_family = tuple(_projected_int_cols(r4_standard_basis(), r4_example_subspace()))
    code, _, _ = run(capsys, "paper-suite")
    assert code == 0
    assert partition_searches.count(r4_family) == 1


# ---------------------------------------------------------------------------
# What a process loads: one fresh interpreter per check, since this one has
# imported every module already.
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(prframes.__file__)))


# standard-library modules that no subcommand needs: ``dataclasses`` imports
# ``inspect``, which imports ``ast``, ``dis`` and ``tokenize``
HEAVY = {"dataclasses", "inspect"}


def loaded_modules(*python_args):
    """prframes.* and HEAVY modules a fresh interpreter imports, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *python_args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    return proc.returncode, {m for m in names if m.startswith("prframes.") or m in HEAVY}


def test_verify_loads_no_generator_or_subspace_module(pr_frame_file):
    code, loaded = loaded_modules(
        "-m", "prframes.cli", "verify", pr_frame_file, "--checks", "pr,exact"
    )
    assert code == 0
    assert "prframes.frames" in loaded
    modules = {"prframes.construct", "prframes.subspaces", "prframes.curated", "prframes.lifting"}
    assert not loaded & (HEAVY | modules)


def footprint_run(name, *argv, absent=()):
    return pytest.param(list(argv), set(absent), id=name)


LIFTING_SUBSPACES = ("prframes.lifting", "prframes.subspaces")


@pytest.mark.parametrize(
    "argv, absent",
    [
        footprint_run("gen-exact", "gen", "--n", "3", "--len", "6", absent=LIFTING_SUBSPACES),
        footprint_run("gen-exact-2n-1", "gen", "--n", "3", "--len", "5", absent=LIFTING_SUBSPACES),
        footprint_run(
            "gen-dmax", "gen", "--kind", "dmax", "--n", "4", "--k", "3", "--len", "7",
            absent=LIFTING_SUBSPACES,
        ),
        footprint_run(
            "gen-basis-subspace", "gen", "--kind", "basis-subspace", "--n", "3", "--k", "2",
            "--len", "3", absent=["prframes.lifting"],
        ),
        footprint_run(
            "verify-lifted", "verify", "{frame}", "--checks", "redundancy,lifted-independence"
        ),
        footprint_run(
            "analyze", "analyze", "{frame}", "--what", "dmax,spark", absent=["prframes.lifting"]
        ),
        footprint_run(
            "analyze-spark", "analyze", "{frame}", "--what", "spark", absent=LIFTING_SUBSPACES
        ),
        footprint_run(
            "analyze-redundancy", "analyze", "{frame}", "--what", "redundancy",
            absent=["prframes.subspaces"],
        ),
        footprint_run("subspace-random", "subspace", "{frame}", "--action", "random", "--dim", "1"),
        footprint_run(
            "subspace-check", "subspace", "{frame}", "--action", "check", "--subspace-file", "{sub}"
        ),
        footprint_run(
            "subspace-maximal", "subspace", "{frame}", "--action", "maximal",
            "--subspace-file", "{sub}",
        ),
        footprint_run(
            "subspace-extend", "subspace", "{basis}", "--action", "extend", "--vector", "1,1,0"
        ),
        footprint_run("paper-suite", "paper-suite"),
    ],
)
def test_subcommand_import_footprint(tmp_path, pr_frame_file, argv, absent):
    files = {
        "frame": pr_frame_file,
        "basis": write_frame(tmp_path, "b3.json", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
        "sub": str(tmp_path / "sub.json"),
    }
    save_json(subspace_to_dict(Subspace.from_vectors([(1, 1)])), files["sub"])
    code, loaded = loaded_modules("-m", "prframes.cli", *(a.format(**files) for a in argv))
    assert code == 0
    assert not loaded & (HEAVY | absent)


def test_bare_import_loads_no_submodule():
    code, loaded = loaded_modules("-c", "import prframes")
    assert code == 0
    assert loaded <= {"prframes.errors"}


def test_exported_names_are_their_modules_objects():
    for name in prframes.__all__:
        module = import_module(f"prframes.{prframes._MODULE_OF[name]}")
        obj = getattr(prframes, name)
        assert obj is getattr(module, name)
        if getattr(obj, "__module__", "").startswith("prframes"):
            assert obj.__module__ == module.__name__
    assert set(prframes.__all__) <= set(dir(prframes))
    with pytest.raises(AttributeError):
        prframes.no_such_name


# ---------------------------------------------------------------------------
# Fuzz: any argument mix and any input file ends with exit code 0, 1 or 2.
# ---------------------------------------------------------------------------

ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4).map(str),
    st.sampled_from(["1/0", "0.5", "x", True, None, [1], 2.5]),
)


@st.composite
def frame_docs(draw, n):
    """A frame file's text: a frame, a family of the wrong shape, or malformed."""
    kinds = ("frame",) * 6 + ("family", "short", "ragged", "bad-entry", "bad-n", "other")
    kind = draw(st.sampled_from(kinds))
    if kind == "other":
        return draw(st.sampled_from(("", "{", "null", "[]", '{"n": 2}', '{"vectors": []}')))
    entry = ENTRIES if kind == "bad-entry" else st.integers(-2, 2)
    lengths = st.integers(n - 1, n + 1) if kind == "ragged" else st.just(n)
    vector = lengths.flatmap(lambda k: st.lists(entry, min_size=k, max_size=k))
    count = (0, n - 1) if kind == "short" else (0, n + 1)
    vectors = draw(st.lists(vector, min_size=count[0], max_size=count[1]))
    if kind == "frame":
        # the unit vectors among them, so that the family spans
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        vectors = draw(st.permutations(vectors + units))
    dim = draw(st.sampled_from((0, -1, "2", True, 5))) if kind == "bad-n" else n
    return json.dumps({"n": dim, "vectors": vectors})


@st.composite
def subspace_docs(draw, n):
    """A subspace file's text: a basis, or basis rows of any shape and entries."""
    k = draw(st.integers(1, n))
    if draw(st.sampled_from((True, True, True, False))):
        # unit columns in the first k coordinates keep the basis independent
        tail = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        basis = [[int(i == j) for j in range(k)] for i in range(k)]
        basis += draw(st.lists(tail, min_size=n - k, max_size=n - k))
    else:
        k = draw(st.integers(0, n))
        rows = draw(st.sampled_from((n, n - 1, n + 1)))
        entry = draw(st.sampled_from((ENTRIES, st.integers(-2, 2))))
        row = st.lists(entry, min_size=k, max_size=k)
        basis = draw(st.lists(row, min_size=rows, max_size=rows))
    return json.dumps({"n": n, "dim": k, "basis": basis})


def _options(draw, options, required=()):
    """Each required option (dropped now and then) and about half of the others."""
    argv = []
    for option, values in options:
        odds = (True,) * 15 + (False,) if option in required else (True, False)
        if draw(st.sampled_from(odds)):
            argv += [option, str(draw(st.sampled_from(values)))]
    return argv


def _joined(draw, names):
    return [",".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))]


@st.composite
def cli_runs(draw, command):
    """(argv, files): an argument list with n <= 4 and the texts of the files it names.

    ``command`` is a subcommand, or "subspace ACTION" for one action of it.
    "dir.json" names a directory.
    """
    n = draw(st.integers(1, 4))
    sub_n = draw(st.sampled_from((n, n, n, max(n - 1, 1), n + 1)))
    files = {"frame.json": draw(frame_docs(n)), "sub.json": draw(subspace_docs(sub_n))}
    frame = draw(st.sampled_from(("frame.json",) * 5 + ("missing.json", "dir.json")))
    if command == "gen":
        options = [
            ("--n", (n, 0, -1)),
            ("--len", (2 * n - 1, 2 * n, n, n + 2, 11, 0)),
            ("--kind", ("exact", "dmax", "basis-subspace", "other")),
            ("--k", (2, 1, 3, 4, 0, 5, -1)),
            ("--seed", (0, 1, -1)),
            ("--range-max", (65536, 2, 1, 0, -1)),
            ("--out", ("out.json", "out.json", "dir.json")),
        ]
        return ["gen"] + _options(draw, options, required=("--n", "--len", "--kind")), files
    if command == "verify":
        checks = ("pr", "exact", "redundancy", "lifted-independence", "bogus")
        options = [("--checks", _joined(draw, checks))]
        return ["verify", frame] + _options(draw, options, required=("--checks",)), files
    if command == "analyze":
        what = ("dmax", "spark", "redundancy", "bogus")
        options = [("--what", _joined(draw, what))]
        return ["analyze", frame] + _options(draw, options, required=("--what",)), files
    if command.startswith("subspace"):
        entry = draw(st.sampled_from((ENTRIES, st.fractions(-3, 3, max_denominator=4))))
        size = draw(st.sampled_from((n, n, n, 0, n + 1)))
        vector = ",".join(map(str, draw(st.lists(entry, min_size=size, max_size=size))))
        action = command[len("subspace ") :] or draw(st.sampled_from(("random", "other")))
        needs = {"random": "--dim", "check": "--subspace-file", "maximal": "--subspace-file"}
        options = [
            ("--action", (action,)),
            ("--dim", (1, 2, n, 0, n + 1, -1)),
            ("--seed", (0, 3)),
            ("--subspace-file", ("sub.json",) * 3 + ("missing.json", "dir.json")),
            ("--vector", (vector,)),
            ("--out", ("out.json", "out.json", "dir.json")),
        ]
        required = ("--action", needs.get(action, "--vector"))
        return ["subspace", frame] + _options(draw, options, required), files
    return ["paper-suite"] + draw(st.sampled_from(([], [], ["--bogus"]))), files


@pytest.mark.parametrize(
    "command",
    [
        "gen", "verify", "analyze", "subspace", "subspace random", "subspace check",
        "subspace maximal", "subspace extend", "paper-suite",
    ],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_never_raises_and_exits_0_1_or_2(command, data):
    argv, files = data.draw(cli_runs(command))
    code, err = _run_in_a_directory(argv, files)
    assert code in (0, 1, 2), (argv, err)


def _run_in_a_directory(argv, files):
    """(exit code, stderr) of ``main(argv)`` run in-process, beside the named files.

    The files are written to a fresh directory, where "dir.json" names a
    directory, and every argument ending in ".json" is a name in it.
    """
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "dir.json"))
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse's usage errors; the process exits with this code
                code = exc.code
    return code, err.getvalue()


JSON_KEYS = st.sampled_from(("n", "dim", "vectors", "basis")) | st.text(max_size=2)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=10,
)
TEXTS = JSON_VALUES.map(json.dumps) | st.text(max_size=6)
# the structured documents above too, so that some files reach the decisions
FRAME_TEXTS = TEXTS | st.integers(1, 4).flatmap(frame_docs)
SUBSPACE_TEXTS = TEXTS | st.integers(1, 4).flatmap(subspace_docs)
SMALL_INTS = st.sampled_from([str(i) for i in range(-2, 9)] + ["1.5", "x"])


def _names_text(names):
    """A comma list of known names, of those and arbitrary words, or arbitrary text."""
    word = st.sampled_from(names) | st.text(max_size=4)
    return (
        st.lists(st.sampled_from(names), min_size=1, max_size=3).map(",".join)
        | st.lists(word, max_size=3).map(",".join)
        | st.text(max_size=12)
    )


@st.composite
def arbitrary_runs(draw):
    """(argv, files): any JSON or text in the frame and subspace files, any option text."""
    files = {"frame.json": draw(FRAME_TEXTS), "sub.json": draw(SUBSPACE_TEXTS)}
    command = draw(st.sampled_from(("gen", "verify", "analyze", "subspace")))
    if command == "gen":
        kind = draw(st.sampled_from(("exact", "dmax", "basis-subspace")))
        argv = ["gen", "--kind", kind]
        for option in ("--n", "--len", "--k"):
            argv += [option, draw(SMALL_INTS)]
    elif command == "verify":
        checks = ("pr", "exact", "redundancy", "lifted-independence")
        argv = ["verify", "frame.json", "--checks", draw(_names_text(checks))]
    elif command == "analyze":
        what = ("dmax", "spark", "redundancy")
        argv = ["analyze", "frame.json", "--what", draw(_names_text(what))]
    else:
        action = draw(st.sampled_from(("random", "check", "maximal", "extend")))
        entry = st.integers(-3, 3).map(str) | st.text(max_size=3)
        vector = st.text(max_size=8) | st.lists(entry, max_size=5).map(",".join)
        argv = ["subspace", "frame.json", "--action", action, "--dim", draw(SMALL_INTS)]
        argv += ["--subspace-file", "sub.json", "--vector", draw(vector)]
    return argv, files


class _Overran(Exception):
    """One fuzz example ran past its alarm."""


def _overran(signum, frame):
    raise _Overran


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arbitrary_runs())
def test_cli_on_arbitrary_input_exits_0_1_or_2_without_a_traceback(run):
    argv, files = run
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(10)
    try:
        code, err = _run_in_a_directory(argv, files)
    except _Overran:
        pytest.fail(f"no answer within 10 s: {argv}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
