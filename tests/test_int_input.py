"""Integer input is held as given, and Fractions are built only when read.

``Frame`` and ``Subspace`` read their rows with ``ratlin.read_rows``: rows
whose every entry is an int stay ints, and ``vectors``/``basis`` build the
Fraction tuples on first read.  These tests check that ints, the same
values as Fractions and the same values as strings build the same objects
with the same verdicts and errors, and they pin how many Fractions the
decision paths make.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prframes import (
    BadInput,
    Frame,
    Subspace,
    d_max,
    extend_to_maximal,
    find_s2_element,
    generate_exact_pr,
    has_complement_property,
    is_exact_pr_frame,
    is_maximal_pr_subspace,
    is_pr_subspace,
    random_pr_subspace,
    support,
)


def _forms(rows):
    """The same rows as ints, as Fractions and as strings."""
    return (
        [tuple(v) for v in rows],
        [tuple(Fraction(x) for x in v) for v in rows],
        [tuple(str(x) for x in v) for v in rows],
    )


def _outcome(build, rows, *args):
    try:
        return build(rows, *args)
    except Exception as exc:  # the error, compared by type and message
        return type(exc), str(exc)


def _frame_facts(frame):
    if not isinstance(frame, Frame):
        return frame
    assert all(type(x) is Fraction for v in frame.vectors for x in v)
    return (
        frame, hash(frame), repr(frame), frame._int_cols, frame.N, frame.dim,
        has_complement_property(frame).failing, is_exact_pr_frame(frame).removable, d_max(frame),
    )


def _subspace_facts(sub, frame):
    if not isinstance(sub, Subspace):
        return sub
    assert all(type(x) is Fraction for v in sub.basis for x in v)
    pr = is_pr_subspace(frame, sub) if isinstance(frame, Frame) and frame.dim == sub.ambient_dim else None
    return sub, hash(sub), repr(sub), sub._int_cols, sub.dim, sub.ambient_dim, pr


@st.composite
def int_rows(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=7))
    if rows and draw(st.booleans()):  # a row of another length
        rows[draw(st.integers(0, len(rows) - 1))].append(1)
    dim = draw(st.sampled_from((None, n, n + 1)))
    k = draw(st.integers(0, len(rows)))
    return rows, dim, k


@settings(max_examples=150, deadline=None)
@given(int_rows())
def test_int_fraction_and_string_input_build_the_same_objects(case):
    rows, dim, k = case
    frames = [_outcome(Frame.from_vectors, form, dim) for form in _forms(rows)]
    facts = [_frame_facts(f) for f in frames]
    assert facts[0] == facts[1] == facts[2]
    subs = [_outcome(Subspace.from_vectors, form[:k], dim) for form in _forms(rows)]
    assert _subspace_facts(subs[0], frames[0]) == _subspace_facts(subs[1], frames[1])
    assert _subspace_facts(subs[0], frames[0]) == _subspace_facts(subs[2], frames[2])


@settings(max_examples=50, deadline=None)
@given(int_rows())
def test_the_constructors_read_every_form_alike(case):
    rows, dim, k = case
    n = dim or (len(rows[0]) if rows else 1)
    frames = [_outcome(lambda r: Frame(n, r), form) for form in _forms(rows)]
    assert _frame_facts(frames[0]) == _frame_facts(frames[1]) == _frame_facts(frames[2])
    subs = [_outcome(lambda r: Subspace(n, r), form[:k]) for form in _forms(rows)]
    assert _subspace_facts(subs[0], None) == _subspace_facts(subs[1], None)
    assert _subspace_facts(subs[0], None) == _subspace_facts(subs[2], None)


@pytest.mark.parametrize(
    "build, rows",
    [
        (Frame.from_vectors, [(1, 0), (2, 0), (3, 0)]),  # does not span
        (lambda rows: Frame.from_vectors(rows, dim=3), [(1, 0), (0, 1), (1, 1)]),  # wrong lengths
        (Frame.from_vectors, [(1, 0), (0, 1, 1), (1, 1)]),  # ragged
        (Frame.from_vectors, []),  # empty
        (Subspace.from_vectors, [(1, 2, 0), (2, 4, 0)]),  # dependent columns
        (lambda rows: Subspace.from_vectors(rows, ambient_dim=2), [(1, 0, 0)]),  # wrong lengths
        (Subspace.from_vectors, []),  # empty
        (lambda rows: Subspace(2, rows), []),  # no columns
    ],
    ids=["no-span", "frame-length", "ragged", "frame-empty", "dependent", "subspace-length",
         "subspace-empty", "no-columns"],
)
def test_bad_input_raises_alike_in_every_form(build, rows):
    errors = [_outcome(build, form) for form in _forms(rows)]
    assert isinstance(errors[0], tuple) and issubclass(errors[0][0], Exception)
    assert errors[0] == errors[1] == errors[2]


def test_bool_entries_read_as_fractions_as_before():
    rows = [(True, False), (False, True), (True, True)]
    frame = Frame.from_vectors(rows)
    assert frame == Frame.from_vectors([(1, 0), (0, 1), (1, 1)])
    assert all(type(x) is Fraction for v in frame.vectors for x in v)
    assert Frame.from_vectors([(True, 0), (0, 1), (1, 1)]) == frame
    sub = Subspace.from_vectors([(True, False)])
    assert sub == Subspace.from_vectors([(1, 0)])
    assert all(type(x) is Fraction for x in sub.basis[0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Frame.from_vectors([(0.1, 1), (1, 0), (1, 1)]),
        lambda: Frame.from_vectors([(Fraction(1, 2), 0), (0, 1.0), (1, 1)]),
        lambda: Subspace.from_vectors([(0.5, 1, 0)]),
        lambda: support((1, 0.25), Frame.from_vectors([(1, 0), (0, 1)])),
    ],
    ids=["frame", "frame-mixed", "subspace", "support"],
)
def test_float_entries_raise_bad_input(build):
    # 0.1 would be held as its binary expansion, 3602879701896397/2^55
    with pytest.raises(BadInput, match="not a rational"):
        build()


def test_fraction_rows_are_returned_as_held(fractions_made):
    rows = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(3)), (Fraction(1), Fraction(1))]
    frame = Frame.from_vectors(rows)
    sub = Subspace.from_vectors(rows[:1])
    made = fractions_made[0]
    assert frame.vectors[0][0] is rows[0][0] and sub.basis[0][0] is rows[0][0]
    assert fractions_made[0] == made


PR_3_6 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
NOT_PR = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 2, 0)]


def test_int_frames_decide_without_a_fraction(fractions_made):
    for rows in (PR_3_6, NOT_PR, [(2, 4, 0), (0, 3, 0), (0, 0, 5), (6, 3, 9), (1, 1, 1)]):
        frame = Frame.from_vectors(rows)
        has_complement_property(frame)
        is_exact_pr_frame(frame)
        d_max(frame)
    assert fractions_made[0] == 0


def test_generators_make_no_fraction(fractions_made):
    generate_exact_pr(3, 5, 0)
    generate_exact_pr(4, 8, 0)
    random_pr_subspace(Frame.from_vectors(PR_3_6), 2, 0)
    assert fractions_made[0] == 0


def test_an_int_subspace_probes_without_a_fraction(fractions_made):
    # no rung decides, so all PROBE_BUDGET draws run (see test_cli.py's Unknown verdict)
    frame = Frame.from_vectors([(-1, -2, 0), (2, 0, 0), (1, 0, 0), (0, 1, -2)])
    verdict = is_maximal_pr_subspace(frame, Subspace.from_vectors([(0, 0, 1)]))
    assert verdict.status == "Unknown"
    assert fractions_made[0] == 0


BASIS_5 = [(1, 2, 0, 0, 1), (0, 1, 3, 0, 0), (2, 0, 1, 1, 0), (0, 0, 0, 1, 4), (1, 1, 1, 1, 2)]


def test_dual_coordinates_of_int_input_make_no_fraction(fractions_made):
    # <x, b_i> summed on the held ints; Fraction x gives the same support
    basis = Frame.from_vectors(BASIS_5)
    assert support((2, -1, 0, 0, 0), basis) == {1, 2, 4}
    assert fractions_made[0] == 0
    assert support((Fraction(1, 3), Fraction(-1, 6), 0, 0, 0), basis) == {1, 2, 4}


def test_extending_int_input_makes_no_fraction(fractions_made):
    # solve maps U back as ints where they divide exactly, as here
    basis = Frame.from_vectors([tuple(int(i == j) for j in range(9)) for i in range(9)])
    x = (1, 0, 2, 0, -1, 0, 3, 0, 0)
    m = extend_to_maximal(basis, x, seed=3)
    assert fractions_made[0] == 0
    assert m.dim == 4 and m._rows[0] == x
    assert all(type(c) is Fraction for v in m.basis for c in v)


def test_an_s2_element_makes_only_its_own_entries(fractions_made):
    frame = Frame.from_vectors(NOT_PR)
    w = find_s2_element(frame, range(frame.N))
    made = fractions_made[0]
    assert made == 2 * frame.dim, made
    assert w is not None and w.validate(frame, range(frame.N))
