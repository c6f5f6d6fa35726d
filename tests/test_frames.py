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
    brute_spark_within,
    reference_extend_residue,
    reference_partition,
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
    spark,
)
import prframes.ratlin
from prframes.frames import _partition, _spark
from prframes.ratlin import RESIDUE_P, extend_residue, residues


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


def test_basis_is_never_pr():
    for n in range(2, 6):
        res = has_complement_property(std_basis(n))
        assert not res.holds
        lam = res.failing
        comp = set(range(n)) - lam
        basis = std_basis(n).vectors
        assert oracle_rank([basis[i] for i in lam]) < n
        assert oracle_rank([basis[i] for i in comp]) < n


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
        assert oracle_rank([f.vectors[i] for i in lam]) < n
        assert oracle_rank([f.vectors[i] for i in comp]) < n


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
    found = _partition(frame._int_cols)
    assert (found is None) == brute_has_cp(frame)
    if found is not None:
        failing = found.a
        comp = [i for i in range(frame.N) if i not in failing]
        assert 0 in failing
        assert oracle_rank([frame.vectors[i] for i in failing]) < n
        assert oracle_rank([frame.vectors[i] for i in comp]) < n


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
    found = _partition(frame._int_cols, least=True)
    if found is None:
        assert d == n
    else:
        comp = [i for i in range(frame.N) if i not in found.a]
        ranks = [oracle_rank([frame.vectors[i] for i in idxs]) for idxs in (sorted(found.a), comp)]
        assert found.rank == max(ranks) == d


@st.composite
def search_modes(draw):
    # integer columns, n <= 4 and N <= 8, zero and repeated columns allowed,
    # and one of the four ways the package runs the search
    n = draw(st.integers(1, 4))
    entry = st.sampled_from((0, 0, 1, -1, 2, -2))
    vecs = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=8))
    mode = draw(st.sampled_from(("plain", "least", "watched", "residue")))
    cut = draw(st.integers(1, len(vecs))) if mode == "watched" else len(vecs)
    return n, vecs[:cut], vecs[cut:], mode


@settings(max_examples=400, deadline=None)
@given(search_modes())
def test_partition_returns_the_reference_split(case):
    # the search walks the same nodes in the same order as the frozen
    # reference (tests/oracles.py), so it ends on the identical Split; the
    # reference keeps the general threshold t and floor, here n - 1 and,
    # for d(F), (n + 1) // 2
    n, cols, seen, mode = case
    t = n - 1
    if mode == "plain":
        got, want = _partition(cols), reference_partition(cols, t)
    elif mode == "least":
        got, want = _partition(cols, least=True), reference_partition(cols, t, (n + 1) // 2)
    elif mode == "watched":
        got, want = _partition(cols, seen=seen), reference_partition(cols, t, seen=seen)
    else:
        res = residues(cols)
        got = _partition(res, kernel=extend_residue)
        want = reference_partition(res, t, None, reference_extend_residue)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.a, got.rank) == want


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
def spark_cases(draw):
    """Up to 7 columns in R^n (n <= 4, entries in -2..2) and a nonempty index set or None."""
    n = draw(st.integers(0, 4))
    cols = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=7))
    within = draw(st.none() | st.frozensets(st.integers(0, len(cols) - 1), min_size=1))
    return cols, within


@settings(max_examples=200, deadline=None)
@given(spark_cases())
def test_spark_within_agrees_with_oracle(case):
    cols, within = case
    assert _spark(cols, within) == brute_spark_within(cols, within)


@pytest.mark.parametrize(
    "cols, within, expected",
    [
        # empty vectors, the parity-check columns of a k = n subspace
        ([(), (), ()], None, 1),
        ([(), ()], frozenset({1}), 1),
        # a zero column inside within is dependent alone; outside it, with
        # any member of within
        ([(1, 0), (0, 0), (0, 1)], frozenset({1}), 1),
        ([(1, 0), (0, 0), (0, 1)], frozenset({2}), 2),
        # the circuit {0, 1} avoids within: size + 1, below the dim + 1 start
        ([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], frozenset({3}), 3),
        ([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], frozenset({1}), 2),
        # independent columns: none is dependent
        ([(1, 0, 0), (0, 1, 0)], frozenset({0}), 3),
    ],
)
def test_spark_within_examples(cols, within, expected):
    assert _spark(cols, within) == brute_spark_within(cols, within) == expected


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


def scaled_by_p(cols):
    # column 0 times RESIDUE_P is zero mod p, so the full-spark certificate
    # proves nothing, while every zero/nonzero answer over Q stays: the
    # searches behind the certificate run in full
    return (tuple(RESIDUE_P * x for x in cols[0]), *cols[1:])


def test_cp_work_ceiling_generated_6_21(span_tests):
    frame = fresh_generated(6, 21, 0)
    span_tests[0] = 0
    assert has_complement_property(frame).holds
    assert span_tests[0] <= 2850
    # exact, not just bounded: search order and pruning fix the questions
    # asked.  The residue search walks the support order (2,278 in the
    # given order, with the same 461 extensions)
    assert span_tests[0] == 1920


def test_cp_proof_kernel_follows_the_width(span_extensions):
    # a generated frame's minors can reach RESIDUE_P, so its CP proof runs
    # mod p and makes the same 461 extensions there; a frame shaped like the
    # lifted workload's (entries in [-4, 4], n <= 4) cannot, and stays exact:
    # C(2n-1, n) - 1 extensions on a PR frame, 2 to find the (2, 3) frame's
    # failing partition
    frame = fresh_generated(6, 21, 0)
    span_extensions[:] = [0, 0, 0]
    assert has_complement_property(frame).holds
    assert span_extensions == [461, 0, 461]
    rng = random.Random(7)
    for n, N, extensions in [(2, 3, 2), (3, 6, 9), (4, 8, 34), (4, 8, 34), (4, 8, 34)]:
        small = random_frame(rng, n, N)
        span_extensions[:] = [0, 0, 0]
        has_complement_property(small)
        assert span_extensions == [extensions, extensions, 0]


@pytest.mark.parametrize("n, N", [(6, 21), (7, 13)])
def test_cp_proof_extension_count_generated(span_extensions, minors, n, N):
    # on a PR family the partition search makes C(2n-1, n) - 2 extensions
    # in any column order, plus one for column 0, in either kernel: 461 at
    # (6, 21), 1,715 at (7, 13).  At 2n - 1 columns the search reads the
    # certificate first, which proves (7, 13) from its C(13, 7) - 1 = 1,715
    # minors mod p with no extension; with column 0 scaled by p it proves
    # nothing, and the exact search runs in full
    frame = fresh_generated(n, N, 0)
    count = math.comb(2 * n - 1, n) - 1
    assert count == {(6, 21): 461, (7, 13): 1715}[n, N]
    span_extensions[:] = [0, 0, 0]
    minors[0] = 0
    # the kernel is read from ratlin at the call, where the fixture wraps it
    assert _partition(residues(frame._int_cols), kernel=prframes.ratlin.extend_residue) is None
    certified = N == 2 * n - 1
    assert (span_extensions, minors[0]) == (([0, 0, 0], count) if certified else ([count, 0, count], 0))
    span_extensions[:] = [0, 0, 0]
    assert _partition(scaled_by_p(frame._int_cols)) is None
    assert span_extensions == [count, count, 0]


def test_cp_proof_of_a_2n_minus_1_frame_reads_minors(span_extensions, minors):
    # at length 2n - 1 the complement property is full spark, which the
    # certificate proves from the C(13, 7) - 1 = 1,715 square minors of
    # the block beside the reduced leading 7 columns, without a search
    frame = fresh_generated(7, 13, 0)
    span_extensions[:] = [0, 0, 0]
    minors[0] = 0
    assert has_complement_property(frame).holds
    assert span_extensions == [0, 0, 0]
    assert minors[0] == math.comb(13, 7) - 1 == 1715
    # at any width: a frame shaped like the lifted workload's, whose exact
    # search would make C(7, 4) - 1 = 34 extensions
    narrow = Frame.from_vectors(
        [(2, 2, -4, 0), (4, 3, 2, 0), (3, 1, -1, 4), (-2, 0, -2, -3), (0, 4, -2, 0), (-3, -3, 1, 3), (4, -3, 1, 2)]
    )
    span_extensions[:] = [0, 0, 0]
    minors[0] = 0
    assert has_complement_property(narrow).holds
    assert (span_extensions, minors[0]) == ([0, 0, 0], 34)


def test_exactness_work_ceiling_generated_6_21(span_tests):
    # the CP proof and the removals: each row of a pattern frame has n
    # nonzeros, so the axis table settles every removal without a rank
    frame = fresh_generated(6, 21, 0)
    span_tests[0] = 0
    assert is_exact_pr_frame(frame).exact
    assert span_tests[0] <= 2400


def test_span_tests_count_the_scans_made_in_place(span_tests):
    # the partition and spark searches read their tables in place, with no
    # call to wrap; a fixture that saw only calls would count 1 and 0 here
    # and every ceiling above would pass on a blind counter
    frame = fresh_generated(6, 21, 0)
    span_tests[0] = 0
    assert has_complement_property(frame).holds
    assert span_tests[0] == 1920
    frame = generate_exact_pr(6, 11, 0).frame
    span_tests[0] = 0
    assert _spark(scaled_by_p(frame._int_cols)) == 7
    assert span_tests[0] > 0


@pytest.mark.parametrize(
    "n, N, given, support",
    [(7, 16, (10085, 3553), (5137, 3665)), (8, 20, (43550, 14001), (22240, 14240)), (7, 22, (1927, 6193), (1853, 4706))],
)
def test_cp_proof_walks_the_support_order(table_entries, span_tests, span_extensions, n, N, given, support):
    # the CP proof's residue search walks the columns in support order,
    # sparse ones first: the same C(2n - 1, n) - 1 extensions, fewer row
    # entries rebuilt (a few more span tests on some short shapes).  The
    # search in the given order is the one the proof made before
    frame = fresh_generated(n, N, 0)
    count = math.comb(2 * n - 1, n) - 1
    table_entries[0] = span_tests[0] = 0
    span_extensions[:] = [0, 0, 0]
    assert has_complement_property(frame).holds
    assert (table_entries[0], span_tests[0]) == support
    assert span_extensions == [count, 0, count]
    table_entries[0] = span_tests[0] = 0
    span_extensions[:] = [0, 0, 0]
    # the kernel is read from ratlin at the call, where the fixtures wrap it
    assert _partition(residues(frame._int_cols), kernel=prframes.ratlin.extend_residue) is None
    assert (table_entries[0], span_tests[0]) == given
    assert span_extensions == [count, 0, count]


def test_spark_work_ceiling_generated_6_11(span_tests):
    # the exact search, which ``_spark`` runs when its certificate proves
    # nothing, as on column 0 scaled by p
    frame = generate_exact_pr(6, 11, 0).frame
    span_tests[0] = 0
    assert _spark(scaled_by_p(frame._int_cols)) == 7
    assert span_tests[0] <= 1860
    # exact, not just bounded: search order and pruning fix the questions asked
    assert span_tests[0] == 1485


def test_spark_of_a_full_spark_frame_reads_minors(span_tests, minors):
    # every 6 of the 11 vectors are independent mod p: C(11, 6) - 1 minors
    # and no span test, and is_full_spark reads the same certificate
    frame = generate_exact_pr(6, 11, 0).frame
    span_tests[0] = minors[0] = 0
    assert spark(frame) == 7
    assert (span_tests[0], minors[0]) == (0, math.comb(11, 6) - 1)
    assert is_full_spark(frame)
    assert (span_tests[0], minors[0]) == (0, 2 * (math.comb(11, 6) - 1))
    # at any width: a frame shaped like the lifted workload's
    narrow = Frame.from_vectors(
        [(2, 2, -4, 0), (4, 3, 2, 0), (3, 1, -1, 4), (-2, 0, -2, -3), (0, 4, -2, 0), (-3, -3, 1, 3), (4, -3, 1, 2)]
    )
    span_tests[0] = minors[0] = 0
    assert spark(narrow) == 5
    assert (span_tests[0], minors[0]) == (0, math.comb(7, 4) - 1)


def test_d_of_a_full_spark_frame_reads_minors(span_extensions, minors):
    # d(F) is the bounded partition search, and at 2n - 1 columns that
    # search reads the certificate first: C(15, 8) - 1 = 6,434 minors prove
    # the complement property, so d = n with no extension
    frame = fresh_generated(8, 15, 0)
    span_extensions[:] = [0, 0, 0]
    minors[0] = 0
    assert d_max(frame) == 8
    assert span_extensions == [0, 0, 0]
    assert minors[0] == math.comb(15, 8) - 1 == 6434


def test_removals_of_a_dense_2n_frame_read_minors(span_extensions, minors):
    # no entry is zero, so no axis settles a removal; each removal leaves
    # 2n - 1 = 11 columns, whose partition search reads the certificate
    # first: C(11, 6) - 1 = 461 minors prove each one removable, with no
    # extension (the CP proof of all 12 columns is the exact search's)
    rng = random.Random(0)
    entries = [x for x in range(-4, 5) if x]
    frame = Frame.from_vectors([[rng.choice(entries) for _ in range(6)] for _ in range(12)], dim=6)
    span_extensions[:] = [0, 0, 0]
    assert is_phase_retrievable(frame)
    assert (span_extensions, minors[0]) == ([461, 461, 0], 0)
    span_extensions[:] = [0, 0, 0]
    assert is_exact_pr_frame(frame) == (False, tuple(range(12)))
    assert span_extensions == [0, 0, 0]
    assert minors[0] == 12 * (math.comb(11, 6) - 1) == 5532
