"""Exact linear algebra and seeded sampling primitives."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from oracles import _rank as oracle_rank
from prframes import BadInput
from prframes.ratlin import (
    clear_denominators,
    derive_seed,
    extend_span,
    format_rational,
    int_nullspace,
    int_rank,
    off_span,
    parse_rational,
    sample_int_matrix,
    sample_pattern,
    solve,
    span_normals,
)


def sympy_to_fractions(m) -> tuple:
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in m.tolist())


def test_parse_format_roundtrip():
    for s in ["3/4", "-7/2", "5", "-12", "0"]:
        x = parse_rational(s)
        assert parse_rational(format_rational(x)) == x
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(6, 3)) == 2
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    for bad in [True, 0.5, "1/0", "x", None, [1]]:
        with pytest.raises(BadInput):
            parse_rational(bad)


@pytest.mark.parametrize("seed", range(25))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    expected = sympy.Matrix([[sympy.Rational(x) for x in r] for r in data]).rank()
    # each row cleared to primitive integers on its own: a rank-neutral row scaling
    assert int_rank([clear_denominators(r) for r in data]) == expected


@pytest.mark.parametrize("seed", range(25))
def test_nullspace_is_exact_kernel_basis(seed):
    rng = random.Random(100 + seed)
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 5)
    data = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    ns = int_nullspace(data, cols)
    assert len(ns) == cols - oracle_rank(data)
    for v in ns:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in data)
    if ns:
        assert oracle_rank(ns) == len(ns)
    # the same basis as sympy's, vector for vector, once scaled to primitive integers
    expected = [
        clear_denominators(tuple(Fraction(int(x.p), int(x.q)) for x in v))
        for v in sympy.Matrix(data).nullspace()
    ]
    assert ns == expected


def test_int_nullspace_orthogonal_to_rows():
    rows = [(1, 2, 3, 0), (0, 1, -1, 2)]
    basis = int_nullspace(rows, 4)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


# columns of a non-orthogonal basis of R^4, as in extend_to_maximal's B^T v = u
SKEW_BASIS_T = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2]]


@pytest.mark.parametrize("seed", range(12))
def test_solve_matches_sympy(seed):
    rng = random.Random(300 + seed)
    if seed == 0:
        a_rows = SKEW_BASIS_T
    else:
        n = rng.randint(1, 5)
        a_rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    n = len(a_rows)
    a_sym = sympy.Matrix([[sympy.Rational(x) for x in r] for r in a_rows])
    if a_sym.rank() < n:
        with pytest.raises(ValueError):
            solve(a_rows, [[int(i == j) for j in range(n)] for i in range(n)])
        return
    m = rng.randint(1, 3)
    b_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)] for _ in range(n)]
    x = solve(a_rows, b_rows)
    expected = a_sym.solve(sympy.Matrix([[sympy.Rational(v) for v in r] for r in b_rows]))
    assert x == sympy_to_fractions(expected)


def test_solve_rejects_singular():
    with pytest.raises(ValueError):
        solve([[1, 2], [2, 4]], [[1, 0], [0, 1]])


def test_clear_denominators_primitive():
    v = clear_denominators((Fraction(1, 2), Fraction(3, 4), Fraction(0)))
    assert v == (2, 3, 0)
    assert clear_denominators((Fraction(4), Fraction(6))) == (2, 3)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30)
        | st.just(Fraction(0)),
        max_size=6,
    )
)
def test_clear_denominators_matches_fraction_scaling(vec):
    # reference: scale by the lcm of the denominators as Fractions, then trim
    den = math.lcm(*(x.denominator for x in vec))
    ref = [int(x * den) for x in vec]
    g = math.gcd(*ref)
    if g > 1:
        ref = [x // g for x in ref]
    assert clear_denominators(tuple(vec)) == tuple(ref)


def test_int_rank_degenerate():
    assert int_rank([]) == 0
    assert int_rank([(0, 0)]) == 0
    assert int_rank([(1, 0), (2, 0)]) == 1


@st.composite
def degenerate_families(draw):
    """Integer columns in R^n (n = 0..4, entries -2..2) with zero and parallel ones, and a probe."""
    n = draw(st.integers(0, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    cols = draw(st.lists(vec, max_size=6))
    if cols:
        # multiples of drawn columns; a factor 0 gives a zero column
        scaled = st.tuples(st.integers(0, len(cols) - 1), st.integers(-2, 2))
        for j, s in draw(st.lists(scaled, max_size=3)):
            cols.append(tuple(s * x for x in cols[j]))
        cols = draw(st.permutations(cols))
    return n, cols, draw(vec)


@settings(max_examples=200, deadline=None)
@given(degenerate_families())
def test_span_normals_agree_with_sympy(family):
    n, cols, probe = family
    normals = span_normals(n)
    for col in cols:
        off = off_span(normals, col)
        if off is not None:
            normals = extend_span(normals, col, off)
    r = oracle_rank(cols)
    assert n - len(normals) == r
    assert oracle_rank(normals) == len(normals)
    assert all(sum(a * b for a, b in zip(h, col)) == 0 for h in normals for col in cols)
    assert (off_span(normals, probe) is None) == (oracle_rank(cols + [probe]) == r)
    if cols:
        assert int_rank(cols) == r


@settings(max_examples=200, deadline=None)
@given(degenerate_families())
def test_nullspace_agrees_with_sympy_on_families(family):
    # the columns as the rows of a matrix; sympy's reduced-echelon basis, made primitive
    n, cols, _ = family
    expected = [
        clear_denominators(tuple(Fraction(int(x.p), int(x.q)) for x in v))
        for v in sympy.Matrix(len(cols), n, [x for col in cols for x in col]).nullspace()
    ]
    assert int_nullspace(cols, n) == expected


@settings(max_examples=200, deadline=None)
@given(degenerate_families())
def test_solve_agrees_with_sympy_on_families(family):
    # a: n rows taken from the family (the probe pads it), b: the family as columns
    n, cols, probe = family
    assume(n > 0)
    a_rows = (cols + [probe] * n)[:n]
    b_rows = [[col[i] for col in cols] for i in range(n)]
    a_sym = sympy.Matrix(a_rows)
    if a_sym.rank() < n:
        with pytest.raises(ValueError):
            solve(a_rows, b_rows)
        return
    expected = a_sym.inv() * sympy.Matrix(n, len(cols), [x for row in b_rows for x in row])
    assert solve(a_rows, b_rows) == sympy_to_fractions(expected)


def test_sample_pattern_respects_mask_and_seed():
    mask = [[True, False], [False, True]]
    a = sample_pattern(mask, 100, 5)
    b = sample_pattern(mask, 100, 5)
    c = sample_pattern(mask, 100, 6)
    assert a == b
    assert a != c
    assert a[0][1] == 0 and a[1][0] == 0
    assert 1 <= a[0][0] <= 100
    with pytest.raises(ValueError):
        sample_pattern(mask, 1, 0)


def test_sample_int_matrix_deterministic():
    a = sample_int_matrix(3, 4, 1 << 16, 9)
    b = sample_int_matrix(3, 4, 1 << 16, 9)
    assert a == b
    assert all(1 <= x <= 1 << 16 for row in a for x in row)


def _row_major_draws(mask, range_max, seed):
    # the sampling contract: randint(1, range_max) per truthy cell, row-major
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(1, range_max) if cell else 0 for cell in row) for row in mask)


def test_sample_pattern_pins_the_draws():
    # generated frames are byte-identical for a seed only while this order holds
    mask = [[True, False], [False, True]]
    a = sample_pattern(mask, 100, 5)
    assert a == ((80, 0), (0, 33))
    assert a == _row_major_draws(mask, 100, 5)
    assert all(type(x) is int for row in a for x in row)


def test_sample_int_matrix_pins_the_draws():
    a = sample_int_matrix(3, 4, 1 << 16, 9)
    assert a == (
        (60688, 48931, 35014, 18159),
        (24399, 844, 44346, 60781),
        (10593, 43782, 5361, 49679),
    )
    assert a == _row_major_draws([[True] * 4] * 3, 1 << 16, 9)
    assert all(type(x) is int for row in a for x in row)


def test_derive_seed_stable_and_spread():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    outs = {derive_seed(42, s) for s in range(100)}
    assert len(outs) == 100
