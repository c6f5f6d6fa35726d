"""The residue kernel and the searches it certifies, against the sympy oracles.

Entries here include multiples of RESIDUE_P and values next to them, so a
residue search often meets a collision (a minor that vanishes mod p only)
and the exact search has to decide.
"""

from hypothesis import assume, example, given, settings, strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from oracles import _rank as oracle_rank, brute_family_has_cp, brute_has_cp, brute_stage_accepts
from prframes import BadInput, Frame, NotAFrame, Subspace, is_phase_retrievable, is_pr_subspace, project_frame
from prframes.frames import _partition, _spark
from prframes.ratlin import (
    RESIDUE_P,
    extend_residue,
    off_table,
    outgrows_digit,
    residues,
    span_table,
)
from prframes.subspaces import _stage_accepts

P = RESIDUE_P
RESIDUE = extend_residue

# small values, multiples of p and values next to them
entries = st.sampled_from((0, 0, 1, -1, 2, P, -P, 2 * P, P - 1, P + 1, -(P + 2), 3 * P + 1))


def _rank_mod_p(vecs, n):
    return DomainMatrix([[GF(P)(x) for x in v] for v in vecs], (len(vecs), n), GF(P)).rank() if vecs else 0


def _residue_table(vecs, n, watched):
    """The residue table after stepping through vecs, on vecs and then the watched columns."""
    cols = residues([*vecs, *watched])
    rows = span_table(cols, n)
    for at in range(-len(cols), -len(watched)):
        off = off_table(rows, at)
        assert (off is None) == (_rank_mod_p(vecs[: at + len(cols) + 1], n) == _rank_mod_p(vecs[: at + len(cols)], n))
        if off is not None:
            rows = extend_residue(rows, at, off)
    assert all(0 <= x < P for row in rows for x in row)
    return rows


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6),
            st.lists(entries, min_size=n, max_size=n),
        )
    )
)
# the last column's extension has an empty suffix; a zero column; a row
# whose suffix turns all zero (gcd 0 over Q, a multiple of p here)
@example((2, [[0, 0], [1, 1], [P + 1, 1]], [0, P]))
# a watched column right after the last searched one, in the span mod p only
@example((2, [[1, 0]], [1, P]))
def test_residue_rank_is_the_rank_mod_p(family):
    n, vecs, probe = family
    expected = _rank_mod_p(vecs, n)
    # the bare table, then one with the probe watched after the last column
    assert n - len(_residue_table(vecs, n, [])) == expected
    rows = _residue_table(vecs, n, [probe])
    assert n - len(rows) == expected
    assert (off_table(rows, -1) is None) == (_rank_mod_p(vecs + [probe], n) == expected)
    assert expected <= oracle_rank(vecs)


def test_outgrows_digit_bounds_the_minors_the_search_meets():
    # spans of rank <= t meet (t + 1)-minors: the t + 1 largest norms
    assert not outgrows_digit([(1 << 14, 0), (0, 1 << 14)], 1)
    assert outgrows_digit([(1 << 15, 0), (0, 1 << 15)], 1)
    assert not outgrows_digit([(1 << 15, 0), (0, 1 << 15)], 0)
    # zero vectors add no factor
    assert not outgrows_digit([(P - 1, 0), (0, 0)], 1)
    assert outgrows_digit([(P, 0)], 3)
    # entries in [-4, 4] with n <= 4 never reach p
    assert not outgrows_digit([(4, 4, 4, 4)] * 8, 3)


# ---------------------------------------------------------------------------
# Collisions: the residue search finds what does not exist over Q.
# ---------------------------------------------------------------------------


def test_minor_vanishing_mod_p_is_still_pr():
    # (1,0) and (1,p) are independent over Q, dependent mod p
    f = Frame.from_vectors([(1, 0), (0, 1), (1, P)])
    assert _partition(residues(f._int_cols), 1, None, RESIDUE) is not None
    assert is_phase_retrievable(f)
    assert brute_has_cp(f)
    whole = Subspace.from_vectors([(1, 0), (0, 1)])
    assert is_pr_subspace(f, whole)


def test_stage_rejected_mod_p_is_accepted_over_q():
    # rows (1,0), (1,p), (0,1): every 2-row subset meeting row 0 is
    # invertible over Q, but rows 0 and 1 coincide mod p
    us, n, supp = [(1, 1, 0), (0, P, 1)], 3, frozenset({0})
    rows = list(zip(*us))
    assert _spark(residues(rows), supp, RESIDUE) <= 2
    assert _stage_accepts(us, supp)
    assert brute_stage_accepts(us, n, supp)


@st.composite
def wide_frames_and_subspaces(draw):
    """A family of n..6 integer vectors in R^n (n <= 3) and k integer vectors, 1 <= k <= n."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    vec = st.lists(entries, min_size=n, max_size=n)
    return n, draw(st.lists(vec, min_size=n, max_size=6)), draw(st.lists(vec, min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(wide_frames_and_subspaces())
def test_certified_verdicts_agree_with_oracles(case):
    n, frame_vecs, sub_vecs = case
    try:
        f = Frame.from_vectors(frame_vecs, dim=n)
    except NotAFrame:
        assume(False)
    cp = f._cp
    assert cp.holds == brute_has_cp(f)
    if not cp.holds:
        # only the exact search returns a partition: a true failing subset
        failing = sorted(cp.failing)
        rest = [i for i in range(f.N) if i not in cp.failing]
        assert cp.failing == _partition(f._int_cols, n - 1).a
        assert oracle_rank([f.vectors[i] for i in failing]) < n
        assert oracle_rank([f.vectors[i] for i in rest]) < n
    try:
        m = Subspace.from_vectors(sub_vecs, ambient_dim=n)
    except BadInput:
        return
    assert is_pr_subspace(f, m) == brute_family_has_cp(project_frame(f, m), m.dim)


@st.composite
def wide_stage_candidates(draw):
    """m integer vectors in R^n (1 <= m <= n <= 5) with wide entries and a nonempty support."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, min(n, 3)))
    us = draw(st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple), min_size=m, max_size=m))
    supp = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    return us, n, supp


@settings(max_examples=200, deadline=None)
@given(wide_stage_candidates())
def test_certified_stage_agrees_with_oracle(case):
    us, n, supp = case
    assert _stage_accepts(us, supp) == brute_stage_accepts(us, n, supp)

