"""Exact linear algebra and seeded sampling primitives."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import _rank as oracle_rank
from prframes import BadInput
from prframes.ratlin import (
    RatMatrix,
    clear_denominators,
    derive_seed,
    extend_span,
    format_rational,
    int_nullspace,
    int_rank,
    nullspace,
    off_span,
    parse_rational,
    rank,
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


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, ((Fraction(1),),))
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.transpose().entries[0] == (Fraction(1), Fraction(3))
    assert m.column(1) == (Fraction(2), Fraction(4))


def test_matmul_and_identity():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    eye = RatMatrix.identity(2)
    assert (m @ eye).entries == m.entries
    v = m.mul_vec([Fraction(1), Fraction(1)])
    assert v == (Fraction(3), Fraction(7))


@pytest.mark.parametrize("seed", range(25))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    m = RatMatrix.from_rows(data)
    expected = sympy.Matrix([[sympy.Rational(x) for x in r] for r in data]).rank()
    assert rank(m) == expected


@pytest.mark.parametrize("seed", range(25))
def test_nullspace_is_exact_kernel_basis(seed):
    rng = random.Random(100 + seed)
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 5)
    data = [[Fraction(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]
    m = RatMatrix.from_rows(data)
    ns = nullspace(m)
    assert ns.cols == m.cols - rank(m)
    for j in range(ns.cols):
        assert all(x == 0 for x in m.mul_vec(ns.column(j)))
    if ns.cols:
        assert rank(ns) == ns.cols
    # the same basis as sympy's, vector for vector, once scaled to primitive integers
    expected = [
        clear_denominators(tuple(Fraction(int(x.p), int(x.q)) for x in v))
        for v in sympy.Matrix([[int(x) for x in r] for r in data]).nullspace()
    ]
    assert int_nullspace([[int(x) for x in r] for r in data], cols) == expected


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
            solve(RatMatrix.from_rows(a_rows), RatMatrix.identity(n))
        return
    m = rng.randint(1, 3)
    b_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)] for _ in range(n)]
    x = solve(RatMatrix.from_rows(a_rows), RatMatrix.from_rows(b_rows))
    expected = a_sym.solve(sympy.Matrix([[sympy.Rational(v) for v in r] for r in b_rows]))
    assert x.entries == sympy_to_fractions(expected)


def test_solve_rejects_singular():
    with pytest.raises(ValueError):
        solve(RatMatrix.from_rows([[1, 2], [2, 4]]), RatMatrix.identity(2))


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


def test_sample_pattern_respects_mask_and_seed():
    mask = [[True, False], [False, True]]
    a = sample_pattern(mask, 100, 5)
    b = sample_pattern(mask, 100, 5)
    c = sample_pattern(mask, 100, 6)
    assert a.entries == b.entries
    assert a.entries != c.entries
    assert a.entries[0][1] == 0 and a.entries[1][0] == 0
    assert 1 <= a.entries[0][0] <= 100
    with pytest.raises(ValueError):
        sample_pattern(mask, 1, 0)


def test_sample_int_matrix_deterministic():
    a = sample_int_matrix(3, 4, 1 << 16, 9)
    b = sample_int_matrix(3, 4, 1 << 16, 9)
    assert a.entries == b.entries
    assert all(1 <= x <= 1 << 16 for row in a.entries for x in row)


def test_derive_seed_stable_and_spread():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    outs = {derive_seed(42, s) for s in range(100)}
    assert len(outs) == 100
