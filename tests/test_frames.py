"""Frame model, complement property, spark, and exactness checks."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    _rank as oracle_rank,
    brute_d_value,
    brute_exactness,
    brute_has_cp,
    brute_has_cp_halved,
    brute_is_exact_pr,
    brute_spark,
)
from prframes import (
    Frame,
    NotAFrame,
    build_pattern,
    curated,
    d_max,
    generate_exact_pr,
    has_complement_property,
    instantiate,
    is_exact_pr_frame,
    is_full_spark,
    is_phase_retrievable,
    plan,
    span_dim,
    spark,
)
from prframes.frames import _partition


def std_basis(n):
    return Frame.from_vectors([tuple(int(i == j) for i in range(n)) for j in range(n)], dim=n)


def random_frame(rng, n, N):
    while True:
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(N)]
        try:
            return Frame.from_vectors(vecs, dim=n)
        except NotAFrame:
            continue


def test_constructor_rejects_non_spanning():
    with pytest.raises(NotAFrame):
        Frame.from_vectors([(1, 0), (2, 0)], dim=2)
    with pytest.raises(NotAFrame):
        Frame.from_vectors([(1, 0, 0)], dim=3)
    with pytest.raises(NotAFrame):
        Frame.from_vectors([(1, 0), (0, 1, 0)], dim=2)


def test_matrix_column_roundtrip():
    f = Frame.from_vectors([(1, 2), (3, 4), (5, 6)], dim=2)
    assert f.N == 3
    # the row form the generators draw, and back to columns
    rows = tuple(zip(*f.vectors))
    assert rows == ((1, 3, 5), (2, 4, 6))
    g = Frame.from_vectors(zip(*rows), dim=2)
    assert g.vectors == f.vectors


def test_span_dim():
    f = Frame.from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], dim=3)
    assert span_dim(f, []) == 0
    assert span_dim(f, [0, 3]) == 2
    assert span_dim(f, [0, 1, 3]) == 2
    assert span_dim(f, range(4)) == 3


def test_basis_is_never_pr():
    for n in range(2, 6):
        res = has_complement_property(std_basis(n))
        assert not res.holds
        lam = res.failing
        comp = set(range(n)) - lam
        assert span_dim(std_basis(n), lam) < n
        assert span_dim(std_basis(n), comp) < n


def test_full_spark_minimal_length_is_pr():
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1)], dim=2)
    assert is_phase_retrievable(f)
    assert is_full_spark(f)


@pytest.mark.parametrize("seed", range(60))
def test_cp_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    N = rng.randint(n, 7)
    f = random_frame(rng, n, N)
    got = has_complement_property(f)
    assert got.holds == brute_has_cp(f)
    assert brute_has_cp(f) == brute_has_cp_halved(f)
    if not got.holds:
        lam = got.failing
        comp = set(range(f.N)) - lam
        assert span_dim(f, lam) < n and span_dim(f, comp) < n


@pytest.mark.parametrize("seed", range(40))
def test_spark_matches_bruteforce(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 4)
    N = rng.randint(n, 6)
    f = random_frame(rng, n, N)
    assert spark(f) == brute_spark(f)


def test_spark_of_embedded_510_matrix():
    # exact value cross-checked by exhaustive subset search; an exact frame
    # longer than 2n-1 can never be full spark
    from prframes import curated

    f = curated.curated_exact_frame(10)
    assert spark(f) == brute_spark(f) == 5
    assert not is_full_spark(f)


def test_spark_with_zero_vector():
    f = Frame.from_vectors([(0, 0), (1, 0), (0, 1)], dim=2)
    assert spark(f) == 1


@pytest.mark.parametrize("seed", range(25))
def test_exactness_matches_bruteforce(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(2, 3)
    N = rng.randint(2 * n - 1, min(2 * n + 1, n * (n + 1) // 2))
    f = random_frame(rng, n, N)
    got = is_exact_pr_frame(f)
    assert got.exact == brute_is_exact_pr(f)


def test_exactness_reports_removable_indices():
    # full spark of length 2n in R^2: every removal keeps the property
    f = Frame.from_vectors([(1, 0), (0, 1), (1, 1), (1, -1)], dim=2)
    got = is_exact_pr_frame(f)
    assert not got.exact
    assert got.removable == (0, 1, 2, 3)


def test_exactness_of_single_vector_line():
    f = Frame.from_vectors([(1,)], dim=1)
    got = is_exact_pr_frame(f)
    assert got.exact


def test_repeated_vector_line_not_exact():
    f = Frame.from_vectors([(1,), (2,)], dim=1)
    got = is_exact_pr_frame(f)
    assert not got.exact and got.removable == (0, 1)


small_families = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=8),
    )
)


@settings(max_examples=100, deadline=None)
@given(small_families)
def test_partition_agrees_with_oracles(family):
    n, vecs = family
    try:
        frame = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    cols = frame._int_cols
    found = _partition(cols, n - 1)
    assert (found is None) == brute_has_cp(frame)
    if found is not None:
        failing = found.a
        comp = [i for i in range(frame.N) if i not in failing]
        assert 0 in failing
        assert oracle_rank([frame.vectors[i] for i in failing]) < n
        assert oracle_rank([frame.vectors[i] for i in comp]) < n
    d = next(t for t in range(n + 1) if _partition(cols, t) is not None)
    assert d == brute_d_value(frame)


@settings(max_examples=100, deadline=None)
@given(small_families)
def test_bounded_search_finds_d(family):
    # one search, tightened after each partition it finds, ends on d(F)
    n, vecs = family
    try:
        frame = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    d = brute_d_value(frame)
    assert d_max(frame) == d
    found = _partition(frame._int_cols, n - 1, (n + 1) // 2)
    if found is None:
        assert d == n
    else:
        comp = [i for i in range(frame.N) if i not in found.a]
        ranks = [oracle_rank([frame.vectors[i] for i in idxs]) for idxs in (sorted(found.a), comp)]
        assert found.rank == max(ranks) == d


@settings(max_examples=100, deadline=None)
@given(small_families)
def test_spark_agrees_with_oracle(family):
    n, vecs = family
    try:
        frame = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    assert spark(frame) == brute_spark(frame)


@st.composite
def sparse_families(draw):
    # columns drawn from a small pool, so zero and repeated columns are common
    n = draw(st.integers(1, 4))
    entry = st.sampled_from((0, 0, 1, -1, 2))
    pool = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=6))
    if draw(st.booleans()):
        pool.append([0] * n)
    repeats = draw(st.lists(st.sampled_from(pool), max_size=10 - len(pool)))
    return n, draw(st.permutations(pool + repeats))


# pattern frames with entries in 1..3: exact frames, which the other
# families rarely give, and now and then one that is not PR
pattern_families = st.integers(3, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(2 * n, min(n * (n + 1) // 2, 10)),
        st.integers(0, 1 << 32),
    )
).map(lambda t: (t[0], instantiate(build_pattern(plan(t[0], t[1])), 3, t[2]).vectors))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_families, sparse_families(), pattern_families))
def test_exactness_agrees_with_oracle(family):
    # the whole result, removable indices included: pattern frames have every
    # removal settled by the axis table, the other families also reach the
    # ranks in the table and the partition search behind it
    n, vecs = family
    try:
        frame = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    assert is_exact_pr_frame(frame) == brute_exactness(frame)


# ---------------------------------------------------------------------------
# Work ceilings: span membership tests taken by the searches, counted
# deterministically by the span_tests fixture (tests/conftest.py).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "N, ceiling", [(10, 320), (11, 350), (12, 355), (13, 405), (14, 470), (15, 540)]
)
def test_cp_work_ceiling_curated(span_tests, N, ceiling):
    frame = curated.curated_exact_frame(N)
    span_tests[0] = 0
    assert has_complement_property(frame).holds
    assert span_tests[0] <= ceiling


def fresh_generated(n, N, seed):
    # the generator's own Frame holds the CP and exactness results already
    return Frame.from_vectors(generate_exact_pr(n, N, seed).frame.vectors, dim=n)


def test_cp_work_ceiling_generated_6_21(span_tests):
    frame = fresh_generated(6, 21, 0)
    span_tests[0] = 0
    assert has_complement_property(frame).holds
    assert span_tests[0] <= 2850
    # exact, not just bounded: search order and pruning fix the questions asked
    assert span_tests[0] == 2278


def test_cp_proof_kernel_follows_the_width(span_tests):
    # a generated frame's minors can reach RESIDUE_P, so its CP proof runs
    # mod p and asks the same 2,278 questions there; a frame shaped like the
    # lifted workload's (entries in [-4, 4], n <= 4) cannot, and stays exact
    frame = fresh_generated(6, 21, 0)
    span_tests[:] = [0, 0, 0]
    assert has_complement_property(frame).holds
    assert span_tests == [2278, 0, 2278]
    rng = random.Random(7)
    for n, N in [(2, 3), (3, 6), (4, 8), (4, 8), (4, 8)]:
        small = random_frame(rng, n, N)
        span_tests[:] = [0, 0, 0]
        has_complement_property(small)
        assert span_tests[2] == 0
        assert span_tests[1] > 0


@pytest.mark.parametrize("n, N", [(6, 21), (7, 13)])
def test_cp_proof_extension_count_generated(span_extensions, n, N):
    # on a PR family the search makes C(2n-1, n) - 2 extensions in any
    # column order, plus one for column 0: 461 at (6, 21), 1,715 at (7, 13),
    # all of them in the residue kernel since both frames are wide
    frame = fresh_generated(n, N, 0)
    span_extensions[:] = [0, 0, 0]
    assert has_complement_property(frame).holds
    assert span_extensions == [math.comb(2 * n - 1, n) - 1, 0, math.comb(2 * n - 1, n) - 1]
    assert span_extensions[0] == {(6, 21): 461, (7, 13): 1715}[n, N]


def test_exactness_work_ceiling_generated_6_21(span_tests):
    # the CP proof and the removals: each row of a pattern frame has n
    # nonzeros, so the axis table settles every removal without a rank
    frame = fresh_generated(6, 21, 0)
    span_tests[0] = 0
    assert is_exact_pr_frame(frame).exact
    assert span_tests[0] <= 2400


def test_spark_work_ceiling_generated_6_11(span_tests):
    frame = generate_exact_pr(6, 11, 0).frame
    span_tests[0] = 0
    assert spark(frame) == 7
    assert span_tests[0] <= 1860
