"""Lifted operator, rank-<=2 kernel searches, and redundancy measures."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    _rank as oracle_rank,
    brute_family_has_cp,
    brute_has_cp,
    brute_lifted_independent,
    brute_pr_redundancy,
    brute_s2_witness_exists,
)
from prframes import (
    BadInput,
    CapExceeded,
    curated,
    Frame,
    NotAFrame,
    S2Witness,
    find_s2_element,
    find_s2_witness,
    generate_exact_pr,
    has_exact_pr_redundancy,
    is_exact_pr_frame,
    is_phase_retrievable,
    lifted_independent,
    pr_redundancy,
)
from prframes.frames import _partition
from prframes.lifting import lifted_row
from prframes.ratlin import RESIDUE_P, span_of


def sym_pairs(n):
    """Coordinate order for symmetric matrices: diagonal first, then a < b."""
    return [(a, a) for a in range(n)] + list(itertools.combinations(range(n), 2))


def vech(x, y, n):
    """Upper-triangle coordinates of x x^T - y y^T in sym_pairs order."""
    return tuple(x[a] * x[b] - y[a] * y[b] for a, b in sym_pairs(n))


# CP fails: the five plane vectors and {e3, e1+e3} both have rank 2
NON_PR_3_7 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (2, 1, 0), (1, 0, 1)]


def random_frame(rng, n, N):
    while True:
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(N)]
        try:
            return Frame.from_vectors(vecs, dim=n)
        except NotAFrame:
            continue


def test_lifted_row_represents_quadratic():
    # row dotted with vech(x, y) must equal <f,x>^2 - <f,y>^2
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        f = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        y = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        row = lifted_row(f, n)
        coords = vech(x, y, n)
        lhs = sum(a * b for a, b in zip(row, coords))
        px = sum(a * b for a, b in zip(f, x))
        py = sum(a * b for a, b in zip(f, y))
        assert lhs == px * px - py * py


def test_sym_pairs_order():
    assert sym_pairs(3) == [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]


def test_lifted_operator_shape():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    # three rows of length n(n+1)/2 = 3, independent: a trivial kernel
    assert all(len(lifted_row(v, 2)) == 3 for v in f.vectors)
    assert lifted_independent(f)


def test_lifted_dependence_beyond_dimension():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1), (1, -1)], dim=2)
    assert not lifted_independent(f)


def test_witness_predicate():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    w = S2Witness((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)), 2)
    assert w.validate(f, [0, 1])
    assert not w.validate(f, [0, 1, 2])
    trivial = S2Witness((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)))
    assert not trivial.is_nonzero()


@pytest.mark.parametrize("seed", range(60))
def test_s2_kernel_empty_iff_cp(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    N = rng.randint(n, 7)
    f = random_frame(rng, n, N)
    w = find_s2_element(f, range(f.N))
    assert (w is None) == brute_has_cp(f)
    if w is not None:
        assert w.validate(f, range(f.N))


@pytest.mark.parametrize("seed", range(40))
def test_witness_search_consistent_with_subfamily_pr(seed):
    # a witness for a co-singleton exists iff dropping that vector changes
    # the rank-<=2 kernel part; cross-checked against the CP decision of the
    # reduced family when the full frame is PR
    rng = random.Random(500 + seed)
    n = rng.randint(2, 3)
    N = rng.randint(n + 1, 6)
    f = random_frame(rng, n, N)
    if not is_phase_retrievable(f):
        return
    for i in range(f.N):
        lam = [j for j in range(f.N) if j != i]
        w = find_s2_witness(f, lam)
        reduced = Frame.from_vectors([f.vectors[j] for j in lam], dim=n)
        reduced_pr = brute_has_cp(reduced)
        assert (w is not None) == (not reduced_pr)
        if w is not None:
            assert w.validate(f, lam)
            assert w.differing_index == i


def test_witness_search_rejects_improper_subsets():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    with pytest.raises(ValueError):
        find_s2_witness(f, [])
    with pytest.raises(ValueError):
        find_s2_witness(f, [0, 1, 2])
    with pytest.raises(ValueError):
        find_s2_element(f, [])


@pytest.mark.parametrize("search", [find_s2_element, find_s2_witness])
def test_subfamily_indices_outside_the_frame_are_bad_input(search):
    # -1 is not read as the last vector, and N or beyond is no bare IndexError
    f = Frame.from_vectors(NON_PR_3_7, dim=3)
    for lam in ([-1], [f.N], [0, f.N + 3], [0, -1]):
        with pytest.raises(BadInput, match="out of range"):
            search(f, lam)


def test_witness_search_is_one_partition_search(partition_searches):
    # the complement is watched inside the one search on lam's columns
    f = Frame.from_vectors(NON_PR_3_7, dim=3)
    lam = [0, 1, 3, 4, 5]
    w = find_s2_witness(f, lam)
    assert w.validate(f, lam) and w.differing_index in (2, 6)
    assert partition_searches == [tuple(f._int_cols[j] for j in lam)]


def test_exact_redundancy_of_bases():
    # dropping any basis vector admits a rank-one kernel element on its axis
    for n in range(1, 5):
        basis = Frame.from_vectors(
            [tuple(int(i == j) for i in range(n)) for j in range(n)], dim=n
        )
        assert has_exact_pr_redundancy(basis)


def test_redundancy_values():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1), (1, -1)], dim=2)
    assert pr_redundancy(f) == Fraction(4, 3)
    exact = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    assert pr_redundancy(exact) == 1
    assert has_exact_pr_redundancy(exact)


def test_redundancy_cap():
    vecs = [tuple(int(i == j % 3) for i in range(3)) for j in range(17)]
    f = Frame.from_vectors(vecs, dim=3)
    with pytest.raises(CapExceeded):
        pr_redundancy(f)


def test_redundancy_agrees_with_subset_scan():
    # independent re-derivation: smallest preserving subfamily by definition
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(2, 3)
        N = rng.randint(n + 1, 5)
        f = random_frame(rng, n, N)
        got = pr_redundancy(f)
        best = f.N
        found = False
        for k in range(1, f.N):
            for lam in itertools.combinations(range(f.N), k):
                if find_s2_witness(f, lam) is None:
                    best = k
                    found = True
                    break
            if found:
                break
        assert got == Fraction(f.N, best)


def test_exactness_and_redundancy_agree_for_pr_frames():
    rng = random.Random(13)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 3)
        N = rng.randint(2 * n - 1, n * (n + 1) // 2)
        f = random_frame(rng, n, N)
        if not is_phase_retrievable(f):
            continue
        checked += 1
        assert has_exact_pr_redundancy(f) == is_exact_pr_frame(f).exact


# ---------------------------------------------------------------------------
# Property tests against the sympy oracles, on degenerate families.
# ---------------------------------------------------------------------------


@st.composite
def degenerate_families(draw):
    """(n, vectors, lam): n <= 4, N <= 8, with zero and parallel columns.

    lam is a non-empty subset of the indices given as a sorted list.
    """
    n = draw(st.integers(1, 4))
    vecs = []
    for _ in range(draw(st.integers(n, 8))):
        kind = draw(st.sampled_from(("free", "free", "zero", "parallel")))
        if kind == "zero":
            vecs.append([0] * n)
        elif kind == "parallel" and vecs:
            k = draw(st.sampled_from((-2, -1, 2)))
            vecs.append([k * x for x in draw(st.sampled_from(vecs))])
        else:
            vecs.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    lam = draw(st.sets(st.integers(0, len(vecs) - 1), min_size=1))
    return n, vecs, sorted(lam)


def _frame_of(n, vecs):
    try:
        return Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(degenerate_families())
def test_s2_element_agrees_with_cp_oracle(family):
    n, vecs, lam = family
    f = _frame_of(n, vecs)
    for sub in (list(range(f.N)), lam):
        w = find_s2_element(f, sub)
        vs = [vecs[j] for j in sub]
        # a subfamily that does not span fails CP with everything in one class
        cp = oracle_rank(vs) == n and brute_has_cp(Frame.from_vectors(vs, dim=n))
        assert (w is None) == cp
        if w is not None:
            assert w.validate(f, sub)


@settings(max_examples=150, deadline=None)
@given(degenerate_families())
def test_s2_witness_agrees_with_oracle(family):
    n, vecs, lam = family
    f = _frame_of(n, vecs)
    assume(len(lam) < f.N)
    w = find_s2_witness(f, lam)
    assert (w is not None) == brute_s2_witness_exists(f, lam)
    if w is not None:
        assert w.differing_index not in lam
        assert w.validate(f, lam)


@st.composite
def non_spanning_subfamilies(draw):
    """(n, vectors, lam): lam's vectors lie in the hyperplane normal to some h.

    Each of them is hh * v - <h,v> h for a drawn v (zero when v is a multiple
    of h); the other vectors are free, so the family usually spans.
    """
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    h = draw(row.filter(any))
    hh = sum(x * x for x in h)

    def flatten(v):
        d = sum(a * b for a, b in zip(h, v))
        return [hh * a - d * b for a, b in zip(v, h)]

    inside = draw(st.lists(row.map(flatten), min_size=1, max_size=5))
    others = draw(st.lists(row, min_size=n, max_size=n + 2))
    order = draw(st.permutations(range(len(inside) + len(others))))
    vecs = [None] * len(order)
    for pos, v in zip(order, inside + others):
        vecs[pos] = v
    return n, vecs, sorted(order[: len(inside)])


@settings(max_examples=150, deadline=None)
@given(non_spanning_subfamilies())
def test_non_spanning_subfamily_has_a_seen_witness(family):
    # (lam, empty) is a kernel colouring, and some frame vector lies outside span lam
    n, vecs, lam = family
    f = _frame_of(n, vecs)
    assert oracle_rank([vecs[j] for j in lam]) < n
    assert find_s2_witness(f, lam) is not None
    assert brute_s2_witness_exists(f, lam)


@st.composite
def pr_candidate_subfamilies(draw):
    """(n, vectors, lam): n <= 3, 2n - 1 <= N <= 7, mostly free columns, some zero
    or repeated; lam is a proper non-empty subset of the indices."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    vecs = []
    for _ in range(draw(st.integers(max(2, 2 * n - 1), 7))):
        col = draw(st.sampled_from(("free", "free", "free", "zero", "repeat")))
        if col == "zero":
            vecs.append([0] * n)
        elif col == "repeat" and vecs:
            vecs.append(list(draw(st.sampled_from(vecs))))
        else:
            vecs.append(draw(row))
    lam = draw(st.sets(st.integers(0, len(vecs) - 1), min_size=1, max_size=len(vecs) - 1))
    return n, vecs, sorted(lam)


@settings(max_examples=100, deadline=None)
@given(pr_candidate_subfamilies())
def test_witness_on_pr_frame_iff_subfamily_fails_cp(family):
    # the rank-<=2 kernel part of a PR frame is {0}: lam preserves it iff lam is PR
    n, vecs, lam = family
    f = _frame_of(n, vecs)
    assume(brute_has_cp(f))
    lam_cp = brute_family_has_cp([vecs[j] for j in lam], n)
    assert (find_s2_witness(f, lam) is None) == lam_cp


@st.composite
def redundancy_frames(draw):
    """(n, vectors), n <= 4 and N <= 9, in three kinds.

    Bases (N = n); dense frames of length 2n - 1 to 2n + 1, mostly
    phase-retrievable, exact at 2n - 1 and often not beyond; and degenerate
    frames with zero and repeated columns, mostly not phase-retrievable.
    """
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("basis", "generic", "degenerate")))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    if kind == "basis":
        return n, draw(st.lists(row, min_size=n, max_size=n))
    if kind == "generic":
        # no zero entries, so nearly every one of these is phase-retrievable
        entry = st.sampled_from((-3, -2, -1, 1, 2, 3))
        dense = st.lists(entry, min_size=n, max_size=n)
        return n, draw(st.lists(dense, min_size=2 * n - 1, max_size=min(9, 2 * n + 1)))
    vecs = []
    for _ in range(draw(st.integers(n, 9 if n < 4 else 8))):
        col = draw(st.sampled_from(("free", "free", "zero", "repeat")))
        if col == "zero":
            vecs.append([0] * n)
        elif col == "repeat" and vecs:
            k = draw(st.sampled_from((-1, 1, 2)))
            vecs.append([k * x for x in draw(st.sampled_from(vecs))])
        else:
            vecs.append(draw(row))
    return n, vecs


@settings(max_examples=100, deadline=None)
@given(redundancy_frames())
@example((2, [[1, 0], [0, 1]]))
@example((2, [[1, 0], [0, 1], [1, 1]]))
@example((2, [[1, 0], [0, 1], [1, 1], [1, -1]]))
@example((3, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 1, 1], [2, 0, 0]]))
@example((3, NON_PR_3_7))
def test_redundancy_agrees_with_oracle(family):
    n, vecs = family
    f = _frame_of(n, vecs)
    assert pr_redundancy(f) == brute_pr_redundancy(f)


@st.composite
def rational_spanning_families(draw):
    """(n, vectors): n <= 4, n <= N <= 11, entries p/q with q in 1..4, zero and parallel columns."""
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    vecs = []
    for _ in range(draw(st.integers(n, 11))):
        kind = draw(st.sampled_from(("free", "free", "zero", "parallel")))
        if kind == "zero":
            vecs.append([Fraction(0)] * n)
        elif kind == "parallel" and vecs:
            k = draw(st.sampled_from((Fraction(-2), Fraction(1, 3), Fraction(3, 2))))
            vecs.append([k * x for x in draw(st.sampled_from(vecs))])
        else:
            vecs.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return n, vecs


@settings(max_examples=150, deadline=None)
@given(rational_spanning_families())
def test_lifted_independent_agrees_with_oracle(family):
    # the integer lifted rows have the rank of the rational ones
    n, vecs = family
    f = _frame_of(n, vecs)
    assert lifted_independent(f) == brute_lifted_independent(f)


# ---------------------------------------------------------------------------
# Work ceilings: span membership tests, counted by the span_tests fixture
# (tests/conftest.py), and no nullspace kernel on the redundancy paths.
# ---------------------------------------------------------------------------

def test_redundancy_work_ceiling_r3_example(span_tests):
    f = curated.r3_example_frame()
    span_tests[0] = 0
    assert pr_redundancy(f) == 1
    assert span_tests[0] <= 88


def test_redundancy_work_ceiling_non_pr_3_7(span_tests):
    f = Frame.from_vectors(NON_PR_3_7, dim=3)
    span_tests[0] = 0
    assert pr_redundancy(f) == Fraction(7, 5)
    assert span_tests[0] <= 600


def test_witness_search_count_generated_5_12(span_tests):
    # one watched search: the exact (5, 12) frame loses PR without vector 0,
    # and the complement (vector 0) is watched; exact, since search order
    # and pruning fix the questions asked
    f = Frame.from_vectors(generate_exact_pr(5, 12, 0).frame.vectors, dim=5)
    lam = list(range(1, 12))
    span_tests[0] = 0
    w = find_s2_witness(f, lam)
    assert w.validate(f, lam) and w.differing_index == 0
    assert span_tests[0] == 221


def test_s2_element_and_redundancy_search_the_frame_once(partition_searches):
    # on the whole frame find_s2_element reads the CP proof that
    # pr_redundancy starts from, instead of searching the columns again
    f = Frame.from_vectors(NON_PR_3_7, dim=3)
    assert find_s2_element(f, range(f.N)).validate(f, range(f.N))
    assert pr_redundancy(f) == Fraction(7, 5)
    assert partition_searches.count(f._int_cols) == 1


@pytest.mark.parametrize("scale", [1, RESIDUE_P])
def test_s2_element_on_the_whole_frame_is_the_search_witness(scale):
    # the held proof's failing subset is the one the search on the same
    # columns finds, wide frames (proved mod p first) included
    vecs = [tuple(x * scale if i == 2 else x for i, x in enumerate(v)) for v in NON_PR_3_7]
    f = Frame.from_vectors(vecs, dim=3)
    a = _partition(f._int_cols, 2).a
    u = span_of([c for j, c in enumerate(f._int_cols) if j in a], 3)[0]
    v = span_of([c for j, c in enumerate(f._int_cols) if j not in a], 3)[0]
    w = find_s2_element(f, range(f.N))
    assert (w.x, w.y) == (tuple(Fraction(p + q) for p, q in zip(u, v)), tuple(Fraction(p - q) for p, q in zip(u, v)))


def test_redundancy_paths_take_no_nullspace(monkeypatch):
    calls = [0]
    inner = sys.modules["prframes.ratlin"].int_nullspace

    def counting(rows, ncols):
        calls[0] += 1
        return inner(rows, ncols)

    for name, module in list(sys.modules.items()):
        if name.startswith("prframes") and hasattr(module, "int_nullspace"):
            monkeypatch.setattr(module, "int_nullspace", counting)
    f = Frame.from_vectors(NON_PR_3_7, dim=3)
    assert find_s2_element(f, range(f.N)).validate(f, range(f.N))
    assert pr_redundancy(f) == Fraction(7, 5)
    assert pr_redundancy(curated.r3_example_frame()) == 1
    assert calls[0] == 0
