"""The residue kernel and the searches it certifies, against the sympy oracles.

Entries here include multiples of RESIDUE_P and values next to them, so a
residue search often meets a collision (a minor that vanishes mod p only)
and the exact search has to decide.
"""

import math
import random
import tracemalloc
from itertools import combinations
from operator import mul

from hypothesis import assume, example, given, settings, strategies as st
from sympy.polys.domains import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from oracles import (
    _rank as oracle_rank,
    brute_family_has_cp,
    brute_has_cp,
    brute_has_cp_halved,
    brute_spark,
    brute_stage_accepts,
)
from prframes import (
    BadInput,
    Frame,
    NotAFrame,
    Subspace,
    has_complement_property,
    is_full_spark,
    is_phase_retrievable,
    is_pr_subspace,
    project_frame,
    spark,
)
from prframes.frames import _partition
from prframes.ratlin import (
    RESIDUE_P,
    _laplace_terms,
    extend_residue,
    full_spark_residue,
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
    # spans short of R^n meet n-minors at most: the n largest norms
    assert not outgrows_digit([(1 << 14, 0), (0, 1 << 14)])
    assert outgrows_digit([(1 << 15, 0), (0, 1 << 15)])
    # zero vectors add no factor
    assert not outgrows_digit([(P - 1, 0), (0, 0)])
    assert outgrows_digit([(P, 0)])
    # entries in [-4, 4] with n <= 4 never reach p
    assert not outgrows_digit([(4, 4, 4, 4)] * 8)


# ---------------------------------------------------------------------------
# Collisions: the residue search finds what does not exist over Q.
# ---------------------------------------------------------------------------


def test_minor_vanishing_mod_p_is_still_pr():
    # (1,0) and (1,p) are independent over Q, dependent mod p
    f = Frame.from_vectors([(1, 0), (0, 1), (1, P)])
    assert _partition(residues(f._int_cols), kernel=RESIDUE) is not None
    assert is_phase_retrievable(f)
    assert brute_has_cp(f)
    whole = Subspace.from_vectors([(1, 0), (0, 1)])
    assert is_pr_subspace(f, whole)


def test_stage_rejected_mod_p_is_accepted_over_q():
    # rows (1,0), (1,p), (0,1): every 2-row subset meeting rows 0 and 1 is
    # invertible over Q, but the certificate pivots on those two, which
    # coincide mod p, so it proves nothing and the exact search accepts
    us, n, supp = [(1, 1, 0), (0, P, 1)], 3, frozenset({0, 1})
    assert not full_spark_residue(list(zip(*us)), supp)
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
        assert cp.failing == _partition(f._int_cols).a
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


def test_an_accepted_stage_reads_only_the_minors_that_meet_the_support(span_extensions, minors):
    # 9 rows in R^3 and a support of 4: the pivots are three support rows,
    # and the walk skips the 3 x 3 minors of the C(5, 3) row sets off the
    # support, so it reads C(9, 3) - 1 - C(5, 3) = 73 minors and makes no
    # span extension
    rng = random.Random(31)
    us = [tuple(rng.randint(-(1 << 16), 1 << 16) for _ in range(9)) for _ in range(3)]
    supp = frozenset({1, 4, 6, 7})
    span_extensions[:] = [0, 0, 0]
    minors[0] = 0
    assert _stage_accepts(us, supp)
    assert minors[0] == math.comb(9, 3) - 1 - math.comb(5, 3) == 73
    assert span_extensions == [0, 0, 0]
    assert brute_stage_accepts(us, 9, supp)


@st.composite
def restricted_families(draw):
    """N vectors in R^n (n <= 4, n <= N <= 7), an index set of any size, and whether entries are narrow.

    Narrow entries (-2..2) make dependent subsets common, and no maximal
    minor of them reaches p.  Wide ones are up to 2^16 or collide mod p.
    """
    n = draw(st.integers(1, 4))
    N = draw(st.integers(n, 7))
    narrow = draw(st.booleans())
    entry = st.integers(-2, 2) if narrow else st.one_of(st.integers(-(1 << 16), 1 << 16), entries)
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple), min_size=N, max_size=N))
    return n, vecs, draw(st.frozensets(st.integers(0, N - 1))), narrow


@settings(max_examples=300, deadline=None)
@given(restricted_families())
# a dependent pair of a pivot and a row off the set (a 1 x 1 minor of a
# column set that avoids it), and a dependent triple of a pivot and two
# rows off it (a 2 x 2 minor); the set's own members dependent, after rows
# off it; n = 1 with a row off the set that is zero, and with a member zero
@example((2, [(1, 0), (0, 1), (1, 0)], frozenset({0, 1}), True))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (2, 4, 5)], frozenset({0, 1, 2}), True))
@example((2, [(1, 0), (0, 1), (1, 1), (2, 2)], frozenset({2, 3}), True))
@example((1, [(1,), (0,)], frozenset({1}), True))
@example((1, [(0,), (2,), (1,)], frozenset({1, 2}), True))
# a member that vanishes mod p only; fewer members than n
@example((2, [(1, 0), (0, P), (1, 1)], frozenset({0, 1}), False))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)], frozenset({0, 3}), True))
def test_full_spark_within_agrees_with_oracle(case):
    # True proves every n-subset that meets within independent over Q; on
    # narrow entries a minor is 0 mod p only when it is 0, so the
    # certificate decides exactly there, whenever within has n members
    n, vecs, within, narrow = case
    certified = full_spark_residue(vecs, within)
    expected = len(within) >= n and brute_stage_accepts(list(zip(*vecs)), len(vecs), within)
    if certified or narrow:
        assert certified == expected
    # within every index: the same walk as without within
    assert full_spark_residue(vecs, frozenset(range(len(vecs)))) == full_spark_residue(vecs)


def _det_mod_p(vecs):
    """The determinant of n integer vectors in R^n, mod p (sympy)."""
    n = len(vecs)
    return int(DomainMatrix([[ZZ(x) for x in v] for v in vecs], (n, n), ZZ).det()) % P


@st.composite
def certified_families(draw):
    """N integer vectors in R^n (n <= 4, n <= N <= 2n) and an index set of n or more.

    Half the families have 2n - 1 vectors, where the complement property
    is full spark.  The entries of a family are narrow (-2..2), wide (up
    to 2^16) or colliding mod p.
    """
    n = draw(st.integers(1, 4))
    N = 2 * n - 1 if draw(st.booleans()) else draw(st.integers(n, 2 * n))
    entry = draw(st.sampled_from((st.integers(-2, 2), st.integers(-(1 << 16), 1 << 16), entries)))
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple), min_size=N, max_size=N))
    within = draw(st.frozensets(st.integers(0, N - 1), min_size=n))
    return n, vecs, within


@settings(max_examples=200, deadline=None)
@given(certified_families())
# a member that vanishes mod p only: (0, p) is zero mod p, so the residue
# search finds a partition such as ({0, 1}, {2})
@example((2, [(1, 0), (0, P), (1, 1)], frozenset({0, 1})))
def test_a_failed_certificate_leaves_the_residue_search_nothing_to_settle(case):
    # with n or more members in within, False names an n-subset that meets
    # within and is singular mod p: a residue search for a dependent set
    # that meets within finds one, so only the exact search can settle it
    n, vecs, within = case
    singular = any(
        within.intersection(on) and _det_mod_p([vecs[i] for i in on]) == 0
        for on in combinations(range(len(vecs)), n)
    )
    assert full_spark_residue(vecs, within) == (not singular)
    # at 2n - 1 columns in R^n: a failed certificate leaves n columns
    # dependent mod p, a class of a partition mod p
    if len(vecs) == 2 * n - 1 and not full_spark_residue(vecs):
        assert _partition(residues(vecs), kernel=RESIDUE) is not None



# ---------------------------------------------------------------------------
# The full-spark certificate: every square minor beside the reduced leading
# columns, mod p.
# ---------------------------------------------------------------------------

PLANTS = ("scaled", "span", "zero", "leading")


@st.composite
def spark_families(draw):
    """N integer vectors in R^n (n <= 5, n <= N <= 2n + 1), and whether a dependent n-subset is planted.

    Entries are wide (up to 2^16) or collide mod p.  A plant is a scaled
    duplicate column (n >= 2), a column in the span of n - 1 others, a
    coordinate that is zero on n columns, or dependent leading n columns.
    """
    n = draw(st.integers(1, 5))
    N = draw(st.integers(n, 2 * n + 1))
    wide = st.one_of(st.integers(-(1 << 16), 1 << 16), entries)
    vecs = draw(st.lists(st.lists(wide, min_size=n, max_size=n), min_size=N, max_size=N))
    plant = draw(st.sampled_from((None,) + PLANTS))
    if plant == "scaled" and n == 1:
        plant = None
    if plant is not None:
        picked = draw(st.permutations(range(N)))[:n] if plant != "leading" else list(range(n))
        coefs = [draw(st.integers(-3, 3).filter(bool)) for _ in range(n - 1)]
        if plant == "scaled":
            vecs[picked[1]] = [coefs[0] * x for x in vecs[picked[0]]]
        elif plant == "zero":
            r = draw(st.integers(0, n - 1))
            for j in picked:
                vecs[j][r] = 0
        else:
            j, *others = picked
            vecs[j] = [sum(c * vecs[o][r] for c, o in zip(coefs, others)) for r in range(n)]
    return n, [tuple(v) for v in vecs], plant is not None


@settings(max_examples=40, deadline=None)
@given(spark_families())
# full spark, and each plant on it: a scaled duplicate, a column in the span
# of two others, a coordinate zero on three columns, dependent leading columns
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (5, 7, 65536)], False))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 4, 6), (1, 2, 3)], True))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 7), (4, 5, 7)], True))
@example((3, [(0, 1, 4), (0, 2, 3), (0, 5, 1), (1, 1, 1), (2, 3, 9)], True))
@example((3, [(1, 2, 3), (4, 5, 6), (5, 7, 9), (1, 0, 0), (0, 0, 1)], True))
# the leading columns are singular mod p only: False proves nothing
@example((2, [(1, 0), (0, P), (1, 1)], False))
def test_full_spark_certificate_agrees_with_oracles(case):
    n, vecs, planted = case
    certified = full_spark_residue(vecs)
    if planted:
        assert not certified
    try:
        f = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assert not certified
        return
    expected = brute_spark(f)
    if certified:
        assert expected == n + 1
    assert spark(f) == expected
    assert is_full_spark(f) == (expected == n + 1)
    assert has_complement_property(f).holds == brute_has_cp_halved(f)


def _minors_mod_p(cols, n):
    """The k x k minors mod p of k integer columns in R^n, by row set in lexicographic order (sympy)."""
    k = len(cols)
    if k == 0:
        return [1]
    rows = list(zip(*cols))
    return [
        int(DomainMatrix([[ZZ(rows[r][c]) for c in range(k)] for r in on], (k, k), ZZ).det()) % P
        for on in combinations(range(n), k)
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.one_of(st.integers(-(1 << 16), 1 << 16), entries), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
# a 6 x 6 with a zero and a multiple of p: every size, odd positions up to 5
@example((6, [[3, 0, 1, 4, 1, 5], [9, 2, 6, P, 3, 5], [8, 9, 7, 9, 3, 2],
             [3, 8, 4, 6, 2, 6], [4, 3, 3, 8, 3, 2], [7, 9, 5, 0, 2, 8]]))
def test_laplace_step_reads_the_minors_one_size_up(case):
    # one step of the certificate's walk: the minors of k - 1 columns and
    # their negated copies, expanded along a new column, are the minors of
    # the k columns with the new one in front; k = 1 starts from the empty
    # set's minor 1
    n, cols = case
    for k in range(1, n + 1):
        head, col = cols[: k - 1], residues(cols[k - 1 : k])[0]
        smaller = _minors_mod_p(head, n)
        signed = smaller + [-x for x in smaller]
        got = [sum(map(mul, at(col), below(signed))) % P for at, below in _laplace_terms(n, k)]
        assert got == _minors_mod_p([col, *head], n)


def test_full_spark_certificate_holds_one_minors_vector_per_depth(minors):
    # a wide family (N = 4n) is full spark with high probability; the walk
    # reads all C(20, 5) - 1 minors but holds one vector of minors per depth
    # (at most C(5, k) each), where a walk that kept every column set of a
    # size held thousands of them (about 0.9 MB here)
    rng = random.Random(5)
    vecs = [tuple(rng.randint(-(1 << 16), 1 << 16) for _ in range(5)) for _ in range(20)]
    full_spark_residue(vecs[:10])
    minors[0] = 0
    tracemalloc.start()
    try:
        assert full_spark_residue(vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert minors[0] == math.comb(20, 5) - 1 == 15503
    assert peak < 100_000
