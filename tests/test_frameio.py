"""JSON round-trips must be exact for every rational payload."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from prframes import (
    BadInput,
    NotAFrame,
    Frame,
    MaximalityVerdict,
    Subspace,
    frame_from_dict,
    frame_to_dict,
    load_json,
    save_json,
    subspace_from_dict,
    subspace_to_dict,
    verdict_to_dict,
)
from prframes.cli import main


def test_frame_roundtrip_with_fractions():
    f = Frame.from_vectors(
        [(Fraction(1, 3), Fraction(-7, 11)), (Fraction(2), Fraction(5, 2)), (0, 1)],
        dim=2,
    )
    d = frame_to_dict(f, meta={"seed": 9})
    assert d["meta"] == {"seed": 9}
    # payload is JSON-safe: only ints and "p/q" strings
    json.dumps(d)
    assert d["vectors"][0] == ["1/3", "-7/11"]
    g = frame_from_dict(d)
    assert g.vectors == f.vectors and g.dim == f.dim


def test_frame_dict_omits_meta_by_default():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    assert "meta" not in frame_to_dict(f)


def test_subspace_roundtrip():
    s = Subspace.from_vectors(
        [(Fraction(1, 2), 1, 0, 3), (0, Fraction(-5, 7), 1, 1)], ambient_dim=4
    )
    d = subspace_to_dict(s)
    assert (d["n"], d["dim"]) == (4, 2)
    json.dumps(d)
    t = subspace_from_dict(d)
    assert t.ambient_dim == 4 and t.dim == 2
    assert t.basis == s.basis


def test_verdict_serialization():
    sup = Subspace.from_vectors([(1, 0, 0), (0, 1, 1)], ambient_dim=3)
    v = MaximalityVerdict("NotMaximal", "found strictly larger subspace", sup, {"probes": 4})
    d = verdict_to_dict(v)
    json.dumps(d)
    assert d["status"] == "NotMaximal"
    assert d["probe_report"] == {"probes": 4}
    assert subspace_from_dict(d["witness"]).dim == 2
    plain = MaximalityVerdict("Maximal", "dimension equals d(F)", None, None)
    d2 = verdict_to_dict(plain)
    assert set(d2) == {"status", "reason"}
    assert verdict_to_dict(MaximalityVerdict("Maximal")) == {"status": "Maximal"}


def test_save_load_file(tmp_path):
    f = Frame.from_vectors([(Fraction(22, 7), 1), (0, Fraction(-1, 9)), (1, 1)], dim=2)
    p = tmp_path / "frame.json"
    save_json(frame_to_dict(f), str(p))
    text = p.read_text()
    assert text.endswith("\n")
    g = frame_from_dict(load_json(str(p)))
    assert g.vectors == f.vectors


@pytest.mark.parametrize(
    "d",
    [
        {"basis": [[1], [0]]},
        {"n": True, "basis": [[1], [0]]},
        {"n": 2, "basis": [1, 0]},
        {"n": 2, "basis": [[1], [False]]},
        [[1], [0]],
    ],
)
def test_subspace_from_dict_rejects_malformed_shapes(d):
    with pytest.raises(BadInput):
        subspace_from_dict(d)


@pytest.mark.parametrize(
    "dim, message",
    [
        (7, "'dim' must be 1, the number of basis columns, got 7"),
        (2, "'dim' must be 1, the number of basis columns, got 2"),
        ("1", "'dim' must be an integer"),
        (True, "'dim' must be an integer"),
    ],
)
def test_subspace_from_dict_checks_a_given_dim(dim, message):
    d = {"n": 3, "dim": dim, "basis": [[1], [0], [0]]}
    with pytest.raises(BadInput, match=message):
        subspace_from_dict(d)
    d["dim"] = 1
    assert subspace_from_dict(d).dim == 1
    del d["dim"]
    assert subspace_from_dict(d).dim == 1


@pytest.mark.parametrize(
    "basis",
    [[[1, 0], [0]], [[1], [0], [0]], [[1]]],
    ids=["ragged", "extra-row", "missing-row"],
)
def test_subspace_file_of_wrong_basis_shape_is_bad_input(tmp_path, capsys, basis):
    d = {"n": 2, "dim": 1, "basis": basis}
    with pytest.raises(BadInput, match="'basis' must be 2 rows of equal length"):
        subspace_from_dict(d)
    frame_path, sub_path = tmp_path / "f.json", tmp_path / "s.json"
    save_json(frame_to_dict(Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)), str(frame_path))
    save_json(d, str(sub_path))
    code = main(["subspace", str(frame_path), "--action", "check", "--subspace-file", str(sub_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("BadInput: ")


@pytest.mark.parametrize(
    "data",
    [b"{not json", b'\xff{"n": 2}', b'{"n": ' + b"1" * 5000 + b"}"],
    ids=["not-json", "not-utf8", "past-the-int-digit-limit"],
)
def test_load_json_refusals_are_bad_input(capsys, tmp_path, data):
    # json.load raises a ValueError on each; load_json names the file in a BadInput
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    with pytest.raises(BadInput) as info:
        load_json(str(p))
    assert str(info.value).startswith(f"{p}: ")
    assert main(["verify", str(p)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"BadInput: {p}: ")


@pytest.mark.parametrize("entry", ["0.5", "1e3", "1_000", " 1", "inf", "1/-2", "1/", ""])
def test_frame_from_dict_rejects_non_rational_strings(entry):
    with pytest.raises(BadInput):
        frame_from_dict({"n": 2, "vectors": [[entry, 0], [0, 1], [1, 1]]})


@pytest.mark.parametrize("entry", ["7", "-7", "+7", "3/4", "-3/4", "+06/8"])
def test_frame_from_dict_accepts_integer_and_ratio_strings(entry):
    frame = frame_from_dict({"n": 2, "vectors": [[entry, 0], [0, 1], [1, 1]]})
    assert frame.vectors[0][0] == Fraction(entry)


# ---------------------------------------------------------------------------
# Round-trips through JSON text, on rationals with negatives and denominators.
# ---------------------------------------------------------------------------

RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=97)


def vectors(n, min_size, max_size):
    return st.lists(st.tuples(*[RATIONALS] * n), min_size=min_size, max_size=max_size)


def through_json(d):
    return json.loads(json.dumps(d))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), vectors(n, n, 2 * n + 1))))
def test_frame_json_roundtrip_property(drawn):
    n, vecs = drawn
    try:
        f = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    assert frame_from_dict(through_json(frame_to_dict(f))) == f


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), vectors(n, 1, n))))
def test_subspace_json_roundtrip_property(drawn):
    n, vecs = drawn
    try:
        s = Subspace.from_vectors(vecs, ambient_dim=n)
    except BadInput:
        assume(False)
    t = subspace_from_dict(through_json(subspace_to_dict(s)))
    assert (t.ambient_dim, t.dim, t.basis) == (s.ambient_dim, s.dim, s.basis)
