"""Subspace analytics: projections, d values, supports, maximality, extension."""

import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, event, example, given, settings, strategies as st

import prframes.frames
import prframes.subspaces
from oracles import (
    _rank as oracle_rank,
    brute_d_value,
    brute_family_has_cp,
    brute_is_maximal,
    brute_min_support,
    brute_stage_accepts,
)
from prframes import (
    BadInput,
    CapExceeded,
    Frame,
    NotABasis,
    NotAFrame,
    NotPRSubspace,
    OutOfRange,
    RetriesExhausted,
    Subspace,
    SupportTooLarge,
    d_max,
    extend_to_maximal,
    generate_exact_pr,
    generate_with_dmax,
    is_maximal_pr_subspace,
    is_phase_retrievable,
    is_pr_subspace,
    min_support,
    project_frame,
    random_pr_subspace,
    support,
)
from prframes.ratlin import RESIDUE_P, RETRIES, span_of
from prframes.subspaces import PROBE_BUDGET, _projected_int_cols, _stage_accepts


def std_basis(n):
    return Frame.from_vectors([tuple(int(i == j) for i in range(n)) for j in range(n)], dim=n)


def contains(sub, x):
    """x lies in sub: appending it leaves the oracle rank of the basis at sub.dim."""
    return oracle_rank(list(sub.basis) + [x]) == sub.dim


def random_frame(rng, n, N):
    while True:
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(N)]
        try:
            return Frame.from_vectors(vecs, dim=n)
        except NotAFrame:
            continue


# sparse frames shaped like the benchmark's subspace workload: two and three
# nonzeros per vector, N = 2n
SPARSE_7_14 = [
    (0, 0, 0, 5, 0, 9, 1), (0, 0, 4, 8, 0, 0, 6), (0, 2, 5, 0, 3, 0, 0), (0, 0, 0, 0, 3, 5, 2),
    (9, 0, 2, 0, 0, 8, 0), (0, 0, 4, 9, 0, 0, 8), (0, 0, 1, 1, 9, 0, 0), (1, 0, 0, 6, 0, 8, 0),
    (0, 2, 4, 0, 0, 4, 0), (0, 8, 0, 0, 2, 0, 2), (0, 0, 2, 9, 5, 0, 0), (9, 0, 9, 0, 0, 6, 0),
    (0, 5, 0, 0, 8, 2, 0), (0, 0, 3, 5, 4, 0, 0),
]
SPARSE_8_16 = [
    (0, 0, 0, 0, 6, 9, 0, 0), (8, 0, 0, 0, 0, 0, 4, 0), (2, 6, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 7, 4),
    (0, 4, 0, 0, 1, 0, 0, 0), (0, 0, 0, 5, 0, 0, 0, 3), (0, 3, 0, 0, 0, 0, 2, 0), (0, 1, 0, 0, 0, 0, 0, 3),
    (4, 3, 0, 0, 0, 0, 0, 0), (0, 0, 6, 0, 0, 0, 0, 4), (0, 7, 0, 4, 0, 0, 0, 0), (7, 0, 0, 0, 6, 0, 0, 0),
    (0, 2, 5, 0, 0, 0, 0, 0), (0, 0, 6, 0, 0, 1, 0, 0), (0, 6, 5, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 3, 0, 6),
]


def example_subspace_r4():
    return Subspace.from_vectors([(1, 1, 1, 0), (1, -1, 0, 1)], ambient_dim=4)


def test_subspace_validation():
    with pytest.raises(BadInput, match="basis columns are dependent"):
        Subspace.from_vectors([(1, 0), (2, 0)], ambient_dim=2)
    with pytest.raises(BadInput, match="need at least one basis column"):
        Subspace(2, ())
    with pytest.raises(BadInput, match="vector has 3 entries, expected 2"):
        Subspace(2, ((Fraction(1), Fraction(0), Fraction(0)),))
    s = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], ambient_dim=3)
    assert s.dim == 2


@pytest.mark.parametrize(
    "vecs, ambient_dim, match",
    [
        ([], None, "empty vector list"),
        ([(1, 0)], 3, "vector has 2 entries, expected 3"),
        ([(1, 0, 0)], 2, "vector has 3 entries, expected 2"),
        ([(1, 0), (0, 1, 5)], None, "vector has 3 entries, expected 2"),
    ],
    ids=["empty", "short", "long", "ragged"],
)
def test_from_vectors_rejects_wrong_shape(vecs, ambient_dim, match):
    with pytest.raises(BadInput, match=match):
        Subspace.from_vectors(vecs, ambient_dim=ambient_dim)


def test_project_frame_slice():
    f = Frame.from_vectors([(1, 2, 3), (4, 5, 6), (7, 8, 10)], dim=3)
    m = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], ambient_dim=3)
    proj = project_frame(f, m)
    assert proj == [(Fraction(1), Fraction(2)), (Fraction(4), Fraction(5)), (Fraction(7), Fraction(8))]


def test_projected_rank_invariant_under_basis_change():
    rng = random.Random(3)
    from prframes.ratlin import int_rank, clear_denominators

    for _ in range(10):
        f = random_frame(rng, 4, 6)
        vecs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        try:
            m = Subspace.from_vectors(vecs, ambient_dim=4)
        except BadInput:
            continue
        # the basis times g = [[1, 1], [0, 1]]: columns b0 and b0 + b1
        b0, b1 = m.basis
        m2 = Subspace.from_vectors([b0, tuple(x + y for x, y in zip(b0, b1))], ambient_dim=4)
        p1 = [clear_denominators(v) for v in project_frame(f, m)]
        p2 = [clear_denominators(v) for v in project_frame(f, m2)]
        for idxs in [(0, 1), (2, 3, 4), tuple(range(6))]:
            assert int_rank([p1[i] for i in idxs]) == int_rank([p2[i] for i in idxs])


def test_is_pr_subspace_examples():
    b4 = std_basis(4)
    assert is_pr_subspace(b4, example_subspace_r4())
    b2 = std_basis(2)
    assert is_pr_subspace(b2, Subspace.from_vectors([(1, 1)], ambient_dim=2))
    # whole space reduces to plain phase retrievability
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    whole = Subspace.from_vectors([(1, 0), (0, 1)], ambient_dim=2)
    assert is_pr_subspace(f, whole) == is_phase_retrievable(f)
    assert not is_pr_subspace(b2, whole)


def test_one_dim_subspace_in_basis_frame():
    # span{e2} w.r.t. {e1, e2}: projected family contains a nonzero vector,
    # which is all phase retrieval needs in one dimension
    b2 = std_basis(2)
    assert is_pr_subspace(b2, Subspace.from_vectors([(0, 1)], ambient_dim=2))


@pytest.mark.parametrize("seed", range(30))
def test_d_max_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    N = rng.randint(n, 7)
    f = random_frame(rng, n, N)
    assert d_max(f) == brute_d_value(f)


def test_d_max_laws():
    for n in range(2, 7):
        assert d_max(std_basis(n)) == (n + 1) // 2
    pr = generate_exact_pr(4, 8, seed=0).frame
    assert d_max(pr) == 4


def test_d_max_cap():
    vecs = [tuple(int(i == j % 3) for i in range(3)) for j in range(25)]
    with pytest.raises(CapExceeded):
        d_max(Frame.from_vectors(vecs, dim=3))


def test_d_max_cached_per_frame(span_tests, monkeypatch):
    f = Frame.from_vectors(SPARSE_7_14, dim=7)
    assert d_max(f) == 6
    span_tests[0] = 0
    assert d_max(f) == 6
    assert span_tests[0] == 0
    # the cap is checked before the cached value is read
    monkeypatch.setattr(prframes.subspaces, "D_MAX_CAP", 13)
    with pytest.raises(CapExceeded, match="N=14 exceeds enumeration cap 13"):
        d_max(f)


def test_subspace_chain_reuses_cached_d(monkeypatch):
    # with d(F) on the frame, sampling and the maximality ladder only search
    # projected families, whose columns live in R^d, never the frame in R^n
    f = Frame.from_vectors(SPARSE_7_14, dim=7)
    d = d_max(f)
    dims = []
    inner = prframes.frames._partition

    def recording(cols, *rest, **named):
        dims.append(len(cols[0]))
        return inner(cols, *rest, **named)

    monkeypatch.setattr(prframes.frames, "_partition", recording)
    sub = random_pr_subspace(f, d, seed=3)
    assert is_maximal_pr_subspace(f, sub).status == "Maximal"
    assert dims and set(dims) == {d}


def _rescaled(sub, scales):
    """sub with column j multiplied by scales[j] (positive): the same span."""
    return Subspace.from_vectors(
        [tuple(x * c for x in col) for col, c in zip(sub.basis, scales)], ambient_dim=sub.ambient_dim
    )


def test_maximality_after_sampling_reads_the_held_verdict(partition_searches):
    f = Frame.from_vectors(SPARSE_7_14, dim=7)
    sub = random_pr_subspace(f, d_max(f), seed=3)
    partition_searches.clear()
    assert is_maximal_pr_subspace(f, sub).status == "Maximal"
    assert partition_searches == []


def test_rescaled_subspace_reads_the_held_verdict(partition_searches):
    f = Frame.from_vectors(SPARSE_7_14, dim=7)
    sub = random_pr_subspace(f, 3, seed=5)
    partition_searches.clear()
    scaled = _rescaled(sub, [Fraction(3, 7), Fraction(5, 2), Fraction(11)])
    assert scaled.basis != sub.basis
    assert is_pr_subspace(f, scaled) is True
    assert partition_searches == []


def test_equal_frame_built_separately_searches_again(partition_searches):
    # verdicts live on one frame object, not in a table shared by equal frames
    f = Frame.from_vectors(SPARSE_7_14, dim=7)
    sub = random_pr_subspace(f, 3, seed=5)
    twin = Frame.from_vectors(SPARSE_7_14, dim=7)
    assert twin == f
    partition_searches.clear()
    assert is_pr_subspace(twin, sub) is True
    assert len(partition_searches) == 1


def test_held_false_still_rejects_maximality(partition_searches):
    b2 = std_basis(2)
    whole = Subspace.from_vectors([(1, 0), (0, 1)], ambient_dim=2)
    assert is_pr_subspace(b2, whole) is False
    assert len(partition_searches) == 1
    with pytest.raises(NotPRSubspace):
        is_maximal_pr_subspace(b2, whole)
    assert len(partition_searches) == 1


@st.composite
def frames_and_subspaces(draw):
    """A family of n..7 rational vectors in R^n (n <= 4) and k rational vectors, 1 <= k <= n."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    vec = st.lists(entry, min_size=n, max_size=n)
    frame = draw(st.lists(vec, min_size=n, max_size=7))
    sub = draw(st.lists(vec, min_size=k, max_size=k))
    return n, frame, sub


@settings(max_examples=150, deadline=None)
@given(frames_and_subspaces())
def test_is_pr_subspace_agrees_with_oracle(case):
    n, frame_vecs, sub_vecs = case
    try:
        f = Frame.from_vectors(frame_vecs, dim=n)
        m = Subspace.from_vectors(sub_vecs, ambient_dim=n)
    except (NotAFrame, BadInput):
        assume(False)
    assert is_pr_subspace(f, m) == brute_family_has_cp(project_frame(f, m), m.dim)


def _coordinate_subspaces(n, k):
    """Every span of k standard basis vectors of R^n."""
    return [
        Subspace.from_vectors([tuple(int(i == j) for i in range(n)) for j in js], ambient_dim=n)
        for js in itertools.combinations(range(n), k)
    ]


@settings(max_examples=150, deadline=None)
@given(
    frames_and_subspaces(),
    st.lists(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7), min_size=4, max_size=4),
)
def test_repeated_questions_agree_with_oracle(case, scales):
    # one frame object, asked first about every coordinate subspace of M's
    # dimension, then about M twice and about a rescaled copy of M: every
    # answer is the oracle's, whichever verdicts the frame already holds
    n, frame_vecs, sub_vecs = case
    try:
        f = Frame.from_vectors(frame_vecs, dim=n)
        m = Subspace.from_vectors(sub_vecs, ambient_dim=n)
    except (NotAFrame, BadInput):
        assume(False)
    for q in _coordinate_subspaces(n, m.dim) + [m, m, _rescaled(m, scales)]:
        assert is_pr_subspace(f, q) == brute_family_has_cp(project_frame(f, q), q.dim)


def _sympy_cols(vecs):
    """The matrix whose columns are the given rational vectors."""
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vecs]).T


def _fractions(col):
    return tuple(Fraction(int(x.p), int(x.q)) for x in col)


@settings(max_examples=150, deadline=None)
@given(frames_and_subspaces())
def test_project_frame_agrees_with_oracle(case):
    # project_frame(f, M) is B^T f for every frame vector f
    n, frame_vecs, sub_vecs = case
    try:
        f = Frame.from_vectors(frame_vecs, dim=n)
        m = Subspace.from_vectors(sub_vecs, ambient_dim=n)
    except (NotAFrame, BadInput):
        assume(False)
    bt = _sympy_cols(m.basis).T
    expected = [_fractions(bt * _sympy_cols([v])) for v in f.vectors]
    assert project_frame(f, m) == expected


@st.composite
def skew_bases_and_vectors(draw):
    """A rational basis of R^n (n <= 4, entries p/q with q in 1..4) and a rational x with zeros."""
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    basis = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    x = draw(st.lists(entry | st.just(Fraction(0)), min_size=n, max_size=n))
    return n, basis, x


@settings(max_examples=150, deadline=None)
@given(skew_bases_and_vectors())
def test_support_agrees_with_oracle(case):
    # support(x, b) is the nonzero set of b_i^T x
    n, basis_vecs, x = case
    try:
        b = Frame.from_vectors(basis_vecs, dim=n)
    except NotAFrame:
        assume(False)
    coords = _fractions(_sympy_cols(b.vectors).T * _sympy_cols([x]))
    assert support(x, b) == frozenset(i for i, c in enumerate(coords) if c != 0)


def test_random_pr_subspace():
    f = Frame.from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)], dim=3)
    s = random_pr_subspace(f, 2, seed=1)
    assert s.dim == 2 and is_pr_subspace(f, s)
    s1 = random_pr_subspace(f, 1, seed=1)
    assert s1.dim == 1 and is_pr_subspace(f, s1)
    with pytest.raises(OutOfRange):
        random_pr_subspace(f, 3, seed=1)
    a = random_pr_subspace(f, 2, seed=5)
    b = random_pr_subspace(f, 2, seed=5)
    assert a.basis == b.basis


def test_random_pr_subspace_past_the_d_max_cap_up_to_half_the_dimension():
    # d(F) >= [(n+1)/2] on every frame, so dimensions up to that need no d_max
    f = generate_with_dmax(9, 5, 25, seed=0).frame
    sub = random_pr_subspace(f, 5, seed=0)
    assert sub.dim == 5 and is_pr_subspace(f, sub)
    for ell in (0, 6):
        with pytest.raises(CapExceeded, match="N=25 exceeds enumeration cap 24"):
            random_pr_subspace(f, ell, seed=0)


def test_random_pr_subspace_gives_up_after_retries_plus_one_draws(record_calls):
    checks = record_calls(prframes.subspaces, "is_pr_subspace", False)
    with pytest.raises(RetriesExhausted) as exc:
        random_pr_subspace(std_basis(3), 2, seed=0)
    assert len(checks) == RETRIES + 1
    assert str(exc.value) == "no PR subspace of dimension 2 found in 6 draws"


def test_support_duality():
    b5 = std_basis(5)
    assert support((1, 0, 1, 0, 0), b5) == frozenset({0, 2})
    assert support((0, 0, 0, 0, 0), b5) == frozenset()
    skew = Frame.from_vectors([(1, 0), (1, 1)], dim=2)
    # inner products against both basis vectors are nonzero for e1
    assert support((1, 0), skew) == frozenset({0, 1})
    with pytest.raises(NotABasis):
        support((1, 0), Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2))


def test_support_rejects_wrong_length():
    for x in ((1, 0, 5), (1,)):
        with pytest.raises(BadInput, match=r"vector has \d entries, expected 2"):
            support(x, std_basis(2))


@pytest.mark.parametrize("seed", range(15))
def test_min_support_matches_bruteforce(seed):
    rng = random.Random(700 + seed)
    n = rng.randint(2, 5)
    k = rng.randint(1, n - 1) if n > 1 else 1
    vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    try:
        m = Subspace.from_vectors(vecs, ambient_dim=n)
    except BadInput:
        return
    got = min_support(m, std_basis(n))
    assert got == brute_min_support(vecs, [tuple(int(i == j) for i in range(n)) for j in range(n)])


def test_min_support_examples():
    b4 = std_basis(4)
    assert min_support(example_subspace_r4(), b4) == 3
    m = Subspace.from_vectors([(0, 0, 1, 0)], ambient_dim=4)
    assert min_support(m, b4) == 1
    with pytest.raises(NotABasis):
        min_support(m, Frame.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)], dim=4))


@st.composite
def bases_and_subspaces(draw):
    """A random basis of R^n (entries -2..2) and k independent vectors, 1 <= k <= n."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    basis = draw(st.lists(entries, min_size=n, max_size=n))
    sub = draw(st.lists(entries, min_size=k, max_size=k))
    return n, basis, sub


@settings(max_examples=150, deadline=None)
@given(bases_and_subspaces())
# k == n: the parity check is empty
@example((3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)], [(1, 2, 0), (0, 1, 1), (2, 0, 1)]))
# M holds the dual-basis direction (1, -1, 0) of the skew basis: a zero
# parity-check column
@example((3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)], [(1, -1, 0), (1, 1, 1)]))
def test_min_support_agrees_with_oracle(case):
    n, basis_vecs, sub_vecs = case
    try:
        b = Frame.from_vectors(basis_vecs, dim=n)
        m = Subspace.from_vectors(sub_vecs, ambient_dim=n)
    except (NotAFrame, BadInput):
        assume(False)
    assert min_support(m, b) == brute_min_support(sub_vecs, basis_vecs)


def test_generic_min_support_value():
    # a generic k-dim subspace has minimum support n-k+1; the Vandermonde
    # pair below is generic because all 2x2 minors are nonzero
    m = Subspace.from_vectors([(1, 1, 1, 1, 1), (1, 2, 4, 8, 16)], ambient_dim=5)
    assert min_support(m, std_basis(5)) == 4


def test_maximality_rule_dimension_equals_d():
    b4 = std_basis(4)
    v = is_maximal_pr_subspace(b4, example_subspace_r4())
    assert v.status == "Maximal"


def test_maximality_requires_pr_subspace():
    b4 = std_basis(4)
    # projections of the basis onto span{e1, e2} form a basis of R^2,
    # which never retrieves phase
    not_pr = Subspace.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0)], ambient_dim=4)
    with pytest.raises(NotPRSubspace):
        is_maximal_pr_subspace(b4, not_pr)


def test_maximality_min_support_rule():
    b5 = std_basis(5)
    m = Subspace.from_vectors([(0, 0, 1, 0, 0)], ambient_dim=5)
    v = is_maximal_pr_subspace(b5, m)
    assert v.status == "Maximal"


def test_not_maximal_with_certified_superspace():
    b5 = std_basis(5)
    m = Subspace.from_vectors([(1, 2, 3, 4, 5)], ambient_dim=5)
    v = is_maximal_pr_subspace(b5, m)
    assert v.status == "NotMaximal"
    w = v.witness
    assert w is not None and w.dim == 2
    assert is_pr_subspace(b5, w)
    assert contains(w, (1, 2, 3, 4, 5))


def test_probe_computes_one_nullspace(record_calls):
    # no rung decides, and none of the probe's draws is PR: an Unknown
    # verdict after PROBE_BUDGET draws, all from one nullspace basis
    f = Frame.from_vectors([(-1, -2, 0), (2, 0, 0), (1, 0, 0), (0, 1, -2)], dim=3)
    m = Subspace.from_vectors([(0, 0, 1)], ambient_dim=3)
    bases = record_calls(prframes.subspaces, "int_nullspace")
    draws = record_calls(prframes.subspaces, "_orthogonal_sample")
    v = is_maximal_pr_subspace(f, m)
    assert v.status == "Unknown"
    assert v.probe_report == {"attempts": PROBE_BUDGET, "extension_found": False}
    assert len(draws) == PROBE_BUDGET and len(bases) == 1


@st.composite
def frames_and_pr_subspaces(draw):
    """A frame of N vectors in R^n (n <= 4, N <= 7; a basis about half the time) and a PR subspace."""
    n = draw(st.integers(1, 4))
    N = n if draw(st.booleans()) else draw(st.integers(n + 1, 7))
    k = draw(st.integers(1, n))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    frame = draw(st.lists(vec, min_size=N, max_size=N))
    sub = draw(st.lists(vec, min_size=k, max_size=k))
    try:
        f = Frame.from_vectors(frame, dim=n)
        m = Subspace.from_vectors(sub, ambient_dim=n)
    except (NotAFrame, BadInput):
        assume(False)
    assume(is_pr_subspace(f, m))
    return f, m


@settings(max_examples=100, deadline=None)
@given(frames_and_pr_subspaces())
def test_maximality_verdicts_agree_with_oracle(case):
    # every decided verdict, on bases and on other frames; Unknown decides nothing
    f, m = case
    status = is_maximal_pr_subspace(f, m).status
    event(f"{status} on a {'basis' if f.N == f.dim else 'longer frame'}")
    assume(status != "Unknown")
    assert (status == "Maximal") == brute_is_maximal(f, m)


def test_extend_to_maximal():
    b5 = std_basis(5)
    m = extend_to_maximal(b5, (1, 1, 1, 0, 0), seed=2)
    assert m.dim == 3
    assert contains(m, (1, 1, 1, 0, 0))
    assert is_pr_subspace(b5, m)
    assert min_support(m, b5) == 3
    assert is_maximal_pr_subspace(b5, m).status == "Maximal"


def test_extend_single_support():
    b5 = std_basis(5)
    m = extend_to_maximal(b5, (0, 0, 7, 0, 0), seed=0)
    assert m.dim == 1 and contains(m, (0, 0, 1, 0, 0))


def test_extend_support_too_large():
    with pytest.raises(SupportTooLarge):
        extend_to_maximal(std_basis(4), (1, 1, 1, 0), seed=0)
    with pytest.raises(OutOfRange):
        extend_to_maximal(std_basis(4), (0, 0, 0, 0), seed=0)


def test_extend_rejects_wrong_length():
    # the same BadInput as support
    for x in ((1, 2), (1, 0, 0, 0, 0)):
        with pytest.raises(BadInput, match=r"vector has \d entries, expected 4"):
            extend_to_maximal(std_basis(4), x, seed=0)


def test_extend_with_skew_basis():
    # support is measured against the dual basis, and the result transfers back
    b = Frame.from_vectors([(1, 0, 0), (1, 1, 0), (0, 0, 1)], dim=3)
    x = (1, -1, 0)
    s = support(x, b)
    assert len(s) == 1
    m = extend_to_maximal(b, x, seed=0)
    assert m.dim == 1 and contains(m, x)


@contextlib.contextmanager
def stage_rejections(flips):
    """Turn down the i-th U that ``_stage_accepts`` accepts whenever ``flips[i]``.

    The stub wraps the real check and never accepts a U it rejects, so
    every U that ``extend_to_maximal`` returns passed the real check.
    Yields the real check's verdicts, one per call.
    """
    inner = prframes.subspaces._stage_accepts
    flips = iter(flips)
    verdicts = []

    def stage(us, supp):
        verdicts.append(inner(us, supp))
        return verdicts[-1] and not next(flips, False)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prframes.subspaces, "_stage_accepts", stage)
        yield verdicts


def test_extend_computes_one_nullspace_per_stage(record_calls):
    # two turned-down attempts make a third; each attempt draws u_2..u_4,
    # each from the one nullspace basis of the vectors before it, and
    # tests the whole U once
    bases = record_calls(prframes.subspaces, "int_nullspace")
    with stage_rejections([True, True]) as verdicts:
        m = extend_to_maximal(std_basis(7), (3, 1, 2, 1, 0, 0, 0), seed=0)
    assert m.dim == 4
    assert len(bases) == 3 * 3
    assert verdicts == [True] * 3


def test_extend_gives_up_after_retries_plus_one_attempts(record_calls):
    accepts = record_calls(prframes.subspaces, "_stage_accepts", False)
    bases = record_calls(prframes.subspaces, "int_nullspace")
    with pytest.raises(RetriesExhausted) as exc:
        extend_to_maximal(std_basis(5), (1, 2, 3, 0, 0), seed=0)
    # each attempt draws u_2 and u_3 and tests U = [x, u_2, u_3] once
    assert len(accepts) == RETRIES + 1 == 6 and len(bases) == 2 * (RETRIES + 1) == 12
    assert all(len(us) == 3 for us, _supp in accepts)
    assert str(exc.value) == "extension failed after 6 attempts"


def assert_certified_extension(b, x, m):
    """m contains x and passes the sympy oracles, k = |supp x| in the basis b.

    Its coordinate family has the complement property in R^k, and its
    minimum dual-basis support is k.
    """
    basis_vecs = b.vectors
    bt = _sympy_cols(basis_vecs).T
    xs = _sympy_cols([x])
    k = sum(1 for c in bt * xs if c)
    assert m.dim == k
    cols = _sympy_cols(m.basis)
    assert cols.rank() == k and cols.row_join(xs).rank() == k
    coord_family = [_fractions(bt.row(i) * cols) for i in range(b.dim)]
    assert brute_family_has_cp(coord_family, k)
    assert brute_min_support(m.basis, basis_vecs) == k


def test_extend_turns_down_a_singular_u(monkeypatch):
    # the first draw makes rows 0 and 2 of U = [x, u_2] singular (row 2 is
    # zero), a row set that meets supp(x) = {0, 1}: that U is turned down
    # and the next attempt's U is returned
    inner = prframes.subspaces._orthogonal_sample
    draws = []

    def first_draw_singular(basis, n, rng):
        draws.append(inner(basis, n, rng) if draws else (1, -1, 0, 0, 0))
        return draws[-1]

    monkeypatch.setattr(prframes.subspaces, "_orthogonal_sample", first_draw_singular)
    b, x = std_basis(5), (1, 1, 0, 0, 0)
    with stage_rejections([]) as verdicts:
        m = extend_to_maximal(b, x, seed=0)
    assert verdicts == [False, True] and len(draws) == 2
    assert_certified_extension(b, x, m)


@st.composite
def bases_and_extendable_vectors(draw):
    """An invertible integer basis of R^n (n <= 6), dual coordinates c of x, attempt flips.

    The basis is L U with L unit lower triangular and U upper triangular with
    a nonzero diagonal, so it is always invertible and usually skew; c has
    1 <= |supp c| <= (n+1)//2 nonzero entries.  The flips turn down accepted
    attempts (``stage_rejections``), so the extension draws again; the
    acceptance test's own rejections are covered by
    ``test_stage_accepts_agrees_with_oracle`` and
    ``test_extend_turns_down_a_singular_u``.
    """
    n = draw(st.integers(1, 6))
    off = st.integers(-2, 2)
    lower = [[1 if i == j else draw(off) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [
        [draw(st.sampled_from((1, -1, 2))) if i == j else draw(off) if i < j else 0 for j in range(n)]
        for i in range(n)
    ]
    basis = sympy.Matrix(lower) * sympy.Matrix(upper)
    supp = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=(n + 1) // 2))
    coords = [draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) if i in supp else 0 for i in range(n)]
    # at most RETRIES turned-down attempts, so the last one is never exhausted
    flips = draw(st.lists(st.booleans(), max_size=RETRIES))
    return n, [tuple(int(v) for v in basis.col(j)) for j in range(n)], coords, flips


@settings(max_examples=100, deadline=None)
@given(bases_and_extendable_vectors())
# k = 1: U = [x], accepted at once
@example((5, [tuple(int(i == j) for i in range(5)) for j in range(5)], [0, 0, 7, 0, 0], []))
# a skew basis with k = 2, its first two accepted attempts turned down
@example((3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)], [2, 0, -1], [True, True]))
def test_extend_to_maximal_agrees_with_oracles(case):
    # the accepted U is the certificate
    n, basis_vecs, coords, flips = case
    bt = _sympy_cols([tuple(map(Fraction, v)) for v in basis_vecs]).T
    x = _fractions(bt.solve(sympy.Matrix(coords)))  # dual coordinates <x, b_i> = c_i
    b = Frame.from_vectors(basis_vecs, dim=n)
    with stage_rejections(flips):
        m = extend_to_maximal(b, x, seed=0)
    assert_certified_extension(b, x, m)


def test_two_dim_span_characterization():
    # span{x, y} for |supp(x)| = 2, y orthogonal to x: a PR subspace exactly
    # when y has a nonzero part both inside and outside supp(x)
    b4 = std_basis(4)
    x = (1, 1, 0, 0)
    y_good = (1, -1, 2, 0)      # nonzero inside and outside
    y_inside = (1, -1, 0, 0)    # entirely inside supp(x)
    y_outside = (0, 0, 1, 1)    # entirely outside supp(x)
    assert is_pr_subspace(b4, Subspace.from_vectors([x, y_good], ambient_dim=4))
    assert not is_pr_subspace(b4, Subspace.from_vectors([x, y_inside], ambient_dim=4))
    assert not is_pr_subspace(b4, Subspace.from_vectors([x, y_outside], ambient_dim=4))


def test_wrong_ambient_dimension_is_bad_input():
    f3 = Frame.from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], dim=3)
    b3 = std_basis(3)
    sub2 = Subspace.from_vectors([(1, 1)], ambient_dim=2)
    for call in (
        lambda: is_pr_subspace(f3, sub2),
        lambda: is_maximal_pr_subspace(f3, sub2),
        lambda: min_support(sub2, b3),
        lambda: project_frame(f3, sub2),
    ):
        with pytest.raises(BadInput, match=r"subspace lives in R\^2, the frame in R\^3"):
            call()


@st.composite
def stage_candidates(draw):
    """m integer vectors in R^n (1 <= m <= n <= 7, entries -2..2) and a nonempty support."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, min(n, 4)))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    us = draw(st.lists(vec, min_size=m, max_size=m))
    supp = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    return us, n, supp


@settings(max_examples=200, deadline=None)
@given(stage_candidates())
def test_stage_accepts_agrees_with_oracle(case):
    us, n, supp = case
    assert _stage_accepts(us, supp) == brute_stage_accepts(us, n, supp)


# ---------------------------------------------------------------------------
# Work ceilings: span membership tests, counted by the span_tests fixture
# (tests/conftest.py), about 1.25x the measured count.
# ---------------------------------------------------------------------------


def test_min_support_work_ceiling_vandermonde(span_tests, minors):
    # generic 5-dim subspace of R^11: minimum support n - k + 1 = 7, the
    # spark of the 11 parity-check columns in R^6.  Those are full spark,
    # so their C(11, 6) - 1 = 461 minors prove it with no search; the 5
    # span tests are the ones that compute the parity checks
    b = std_basis(11)
    m = Subspace.from_vectors([tuple((i + 1) ** p for i in range(11)) for p in range(5)], ambient_dim=11)
    span_tests[0] = minors[0] = 0
    assert min_support(m, b) == 7
    assert span_tests[0] == 5
    assert minors[0] == math.comb(11, 6) - 1 == 461
    # the spark search runs in full where its certificate proves nothing,
    # as on column 0 scaled by RESIDUE_P: zero mod p, with every
    # zero/nonzero answer over Q kept
    checks = span_of(zip(*_projected_int_cols(b, m)), 11)
    cols = [tuple(h[i] for h in checks) for i in range(11)]
    cols[0] = tuple(RESIDUE_P * x for x in cols[0])
    span_tests[0] = 0
    assert prframes.frames._spark(cols) == 7
    assert span_tests[0] <= 1860


@pytest.mark.parametrize("vecs, d, ceiling", [(SPARSE_7_14, 6, 1280), (SPARSE_8_16, 6, 1340)])
def test_d_max_work_ceiling_sparse(span_tests, vecs, d, ceiling):
    # one bounded search in support order that also reports the rank: 940
    # and 1,170 tests (1,024 and 1,071 in the given order; 1,038 and 1,087
    # when the two final classes were ranked again, 1,451 and 1,371 with
    # one search per threshold).  The second count rises while its time
    # falls: its extensions rebuild fewer and narrower entries, 1,992 of
    # 6,684 bits in all against 2,523 of 10,971
    f = Frame.from_vectors(vecs, dim=len(vecs[0]))
    span_tests[0] = 0
    assert d_max(f) == d
    assert span_tests[0] <= ceiling
    # exact, not just bounded: search order and pruning fix the questions asked
    assert span_tests[0] == {14: 940, 16: 1170}[len(vecs)]


@pytest.mark.parametrize("within, count, tests", [(None, 4, 799), ({0}, 5, 1254)])
def test_spark_count_sparse_8_16(span_tests, within, count, tests):
    # the least dependent set is a 4-set that avoids column 0, which counts
    # as 5 until the search proves that no 4-set meets column 0
    span_tests[0] = 0
    assert prframes.frames._spark(SPARSE_8_16, within and frozenset(within)) == count
    assert span_tests[0] == tests


def test_extend_to_maximal_work_ceiling(span_tests, minors):
    # U is accepted from its minors, with no search: the 5-row subsets that
    # meet the support, C(11, 5) - 1 - C(6, 5).  The span tests left are the
    # nullspaces, the solve and the result's rank (952 minors when each stage
    # of sizes 2..5 was certified, 1,851 tests when each ran the
    # independent-set search)
    b = std_basis(11)
    span_tests[0] = minors[0] = 0
    m = extend_to_maximal(b, (1, 2, 0, 3, 0, -1, 0, 0, 2, 0, 0), seed=0)
    assert m.dim == 5
    assert minors[0] == math.comb(11, 5) - 1 - math.comb(6, 5) == 455
    # exact, not just bounded: the draws and the walk fix the work
    assert span_tests[0] == 26


def test_extend_to_maximal_work_ceiling_support_7(span_tests, minors):
    # the test dominates: the minors of every 7-row subset of R^13, all of
    # which meet the support.  54 span tests with the basis built (5,735
    # minors when each stage was certified, 13,842 tests when each ran the
    # independent-set search)
    b = std_basis(13)
    m = extend_to_maximal(b, (1, 2, 0, 3, 0, -1, 0, 0, 2, 0, 0, 1, 1), seed=0)
    assert m.dim == 7
    assert minors[0] == math.comb(13, 7) - 1 == 1715
    assert span_tests[0] == 54
