"""Command-line contract: subcommands, JSON reports, exit codes 0/1/2."""

import json

import pytest

from prframes import Frame, frame_from_dict, frame_to_dict, save_json, subspace_to_dict
from prframes.cli import main
from prframes.subspaces import Subspace


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


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(p))
    assert code == 2


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
    ],
    ids=[
        "string-n", "scalar-vectors", "top-level-list", "zero-denominator", "bool", "float",
        "decimal-string",
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


def test_paper_suite_all_green(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    names = {r["instance"] for r in rep["records"]}
    assert {f"exact-(5,{N})" for N in range(10, 16)} <= names
    assert all(r["passed"] for r in rep["records"])
