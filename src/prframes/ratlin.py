"""Exact rational linear algebra and seeded integer sampling.

Everything downstream (complement-property scans, kernel searches, pattern
instantiation) runs on top of this module, and this module is the only place
that eliminates.  All arithmetic is exact, and the one kernel works
fraction-free on Python integers with gcd trimming.  A vector family is a
tuple of integer or rational vectors; there is no matrix class.
``fractions.Fraction`` appears only where input is parsed, where output is
printed, and in ``solve``'s result.  No floating point appears anywhere.

The kernel is the span step, on a table.  Every caller knows up front the
columns it will ask about, in the order it adds them, and the watched
columns it tests after them.  A span of rank r in R^n has n - r independent
integer normals, and its table holds one row per normal: that normal's dot
products with the columns still to come.  The zero span's normals are the
identity rows, so its table is the columns transposed (``span_table``).
Column j lies in the span iff every row is zero at j (``off_table``: a
lookup, no arithmetic).  Adding a column that is not (``extend_table``)
takes the first nonzero entry d_k and replaces each other row r_i by the
gcd-trimmed d_k r_i - d_i r_k, on the columns after j only.  That is the
row of the normal d_k h_i - d_i h_k, up to a positive scale, because dot
products are linear in the normal.  So each row stays a multiple of its
normal's dot products, and every zero/nonzero answer is the one the
normals would give.  Ranks and the searches in ``frames``, ``lifting`` and
``subspaces`` run on this step.  So do nullspaces and solves: with the
identity columns last, a row ends with its normal, and the normals of a
row span are a kernel basis, one per free column (``span_rows``,
``int_nullspace``, ``solve``).

The residue kernel (``off_residue``, ``extend_residue``) is the same step
over the field of ``RESIDUE_P`` elements, the largest prime below 2^30: every
table entry is reduced mod p, so each residue is a single CPython digit
however wide the exact entries grow.  It serves as a certificate for
searches that prove a negative.  The rank of a set of integer vectors mod
p is at most its rank over Q (a nonzero minor mod p is nonzero), so a
search that is complete over any field and finds no low-rank
configuration mod p has proved that none exists over Q; one that finds
something mod p may have met a collision, and the exact search runs to
decide.  That pass pays only on wide families: a span of rank r has
primitive normals whose entries are r x r minors of its vectors (Cramer),
and the exact table's entries are (r + 1) x (r + 1) minors or smaller;
while Hadamard's bound on those minors stays below ``RESIDUE_P`` the exact
numbers fit one digit already (``outgrows_digit``).

A ``Seed`` is a plain int; the determinism contract is that identical seed and
identical call sequence produce identical outputs.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import mul
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .errors import BadInput

Seed = int

DEFAULT_RANGE_MAX = 1 << 16

IntVec = Tuple[int, ...]


_RATIONAL_STR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(s) -> Fraction:
    """Parse a JSON-side rational: "p/q", "k", or a plain int.

    Strings must be ``[+-]?digits`` or ``[+-]?digits/digits``; anything
    else (decimals, exponents, underscores, spaces, bools, floats) raises
    BadInput.
    """
    if isinstance(s, bool) or not isinstance(s, (int, str, Fraction)):
        raise BadInput(f"not a rational: {s!r}")
    if isinstance(s, str) and not _RATIONAL_STR.fullmatch(s):
        raise BadInput(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise BadInput(f"not a rational: {s!r}") from None


def format_rational(x: Fraction):
    """Render a rational for JSON: bare int when integral, else "p/q"."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Fraction-free integer kernels: every elimination in the package runs here.
# ---------------------------------------------------------------------------


def _vec_gcd_reduce(v: List[int]) -> List[int]:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return v
    if g > 1:
        return [x // g for x in v]
    return v


Table = Tuple[Tuple[int, ...], ...]


def span_table(cols: Sequence[Sequence[int]], n: int) -> Table:
    """Table of the zero span in R^n on these columns: the columns transposed.

    The zero span's normals are e_1..e_n, and row i holds e_i's dot products.
    """
    return tuple(zip(*cols)) if cols else ((),) * n


def off_table(rows: Table, at: int) -> Optional[Tuple[int, int]]:
    """(k, d) for the first row with entry d = row[at] != 0; None when column ``at`` lies in the span.

    ``at`` is the column's position counted from the end of the table
    (column j of M is at j - M), which trimming a row's front never moves.
    """
    for k, row in enumerate(rows):
        d = row[at]
        if d:
            return k, d
    return None


def extend_table(rows: Table, at: int, off: Tuple[int, int]) -> Table:
    """Table of the span with column ``at`` added, given ``off = off_table(rows, at)``.

    Each other row r_i with d_i = r_i[at] != 0 becomes the gcd-trimmed
    d_k r_i - d_i r_k on the columns after ``at``: the dot products of the
    new normal d_k h_i - d_i h_k, up to a positive scale.  Row k is dropped.
    Every row zero at ``at`` (all rows before k among them) is kept as it
    is, entries for passed columns included; no one reads those again.  A
    row may come out all zero (gcd 0): its normal is orthogonal to every
    column left, and at the last column every updated row comes out empty.
    """
    k, dk = off
    s = at + 1
    rk = rows[k][s:] if s else ()
    out = list(rows[:k])
    for row in rows[k + 1 :]:
        di = row[at]
        if di:
            row = [dk * x - di * y for x, y in zip(row[s:], rk)]
            g = gcd(*row)
            row = tuple([x // g for x in row] if g > 1 else row)
        out.append(row)
    return tuple(out)


RESIDUE_P = 1073741789  # the largest prime below 2^30

# a span step: the membership test and the extension
Kernel = Tuple[Callable, Callable]

Found = TypeVar("Found")


def residues(vecs: Iterable[Sequence[int]]) -> Tuple[IntVec, ...]:
    """Integer vectors reduced mod ``RESIDUE_P``, entries in [0, p)."""
    p = RESIDUE_P
    return tuple(tuple(x % p for x in v) for v in vecs)


# residue rows are reduced already, so the residue test is the exact one
off_residue = off_table


def extend_residue(rows: Table, at: int, off: Tuple[int, int]) -> Table:
    """``extend_table`` mod ``RESIDUE_P``, given ``off = off_residue(rows, at)``.

    d_k is a unit mod p, so each d_k h_i - d_i h_k is a nonzero normal
    independent of the others, and its row needs no trimming.
    """
    p = RESIDUE_P
    k, dk = off
    s = at + 1
    rk = rows[k][s:] if s else ()
    out = list(rows[:k])
    for row in rows[k + 1 :]:
        di = row[at]
        if di:
            row = tuple([(dk * x - di * y) % p for x, y in zip(row[s:], rk)])
        out.append(row)
    return tuple(out)


def outgrows_digit(vecs: Sequence[Sequence[int]], t: int) -> bool:
    """Can the exact table on spans of rank <= t of these vectors reach ``RESIDUE_P``?

    The primitive normals of a span of rank r have r x r minors of its
    vectors as entries (Cramer), and their dot products with a vector are
    (r + 1) x (r + 1) minors up to that normal's gcd.  A trimmed row of the
    exact table is those dot products divided by their own gcd, so no entry
    is larger (nor are the normals, with the identity columns).  Hadamard bounds a
    minor by the product of its vectors' Euclidean norms, so every such
    number is at most the product of the t + 1 largest nonzero norms (all
    of them when fewer are nonzero).  True when that bound reaches p;
    squares are compared, on integers.  Bounding every squared norm by n
    times the largest squared entry first settles narrow families in one
    pass, without a sort.
    """
    p2 = RESIDUE_P * RESIDUE_P
    top = max(map(abs, chain.from_iterable(vecs)), default=0)
    if not top or (len(vecs[0]) * top * top) ** (t + 1) < p2:
        return False
    squares = sorted([sum(map(mul, v, v)) for v in vecs], reverse=True)
    bound = 1
    for s in squares[: t + 1]:
        if not s:
            break
        bound *= s
    return bound >= p2


def residue_first(
    search: Callable[[Sequence[IntVec], Optional[Kernel]], Found], vecs: Sequence[IntVec], t: int
) -> Found:
    """``search(vecs, None)``, with a residue certificate in front where it can pay.

    ``search(vecs, kernel)`` looks for spans of rank <= t among the vectors
    that ``kernel`` (exact when None) steps through, is complete over any
    field, and returns something falsy when it finds nothing.  When
    ``outgrows_digit(vecs, t)``, it runs on the residues first, and a falsy
    result there is the answer: every rank mod p is at most the rank over
    Q, so what exists over Q exists mod p.  A find mod p may be a
    collision, so the exact search decides and supplies the witness.
    """
    if outgrows_digit(vecs, t):
        found = search(residues(vecs), (off_residue, extend_residue))
        if not found:
            return found
    return search(vecs, None)


@lru_cache(maxsize=32)
def identity(n: int) -> Tuple[IntVec, ...]:
    """The columns e_1..e_n of R^n (shared, immutable)."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def span_rows(
    vecs: Iterable[Sequence[int]], n: int, tail: Sequence[Sequence[int]] = ()
) -> Tuple[Table, List[int]]:
    """The table of the span of integer vectors in R^n, adding them one by one, on the columns ``tail``.

    Also returns the free columns: normal i starts as e_i, so it owns
    coordinate i, and each extension drops row k and with it ``free[k]``.
    Every kept normal stays nonzero on its own free coordinate and zero on
    the other kept ones (both it and the dropped normal are zero there).
    With ``identity(n)`` at the end of ``tail``, each row ends with its
    normal, whose dot products with e_1..e_n are its entries.  Every other
    entry is an integer combination of those, so the row's gcd is the
    normal's and the trimmed normal is the primitive one.
    """
    cols = [*vecs, *tail]
    rows, free = span_table(cols, n), list(range(n))
    width = len(cols)
    for at in range(-width, -len(tail)):
        off = off_table(rows, at)
        if off is not None:
            rows = extend_table(rows, at, off)
            del free[off[0]]
    return rows, free


def _normals_and_free(vecs: Iterable[Sequence[int]], n: int) -> Tuple[Table, List[int]]:
    """Primitive integer normals of the span of integer vectors in R^n, and their free columns."""
    rows, free = span_rows(vecs, n, identity(n))
    return tuple(row[len(row) - n :] for row in rows), free


def span_of(vecs: Iterable[Sequence[int]], n: int) -> Table:
    """Primitive integer normals of the span of integer vectors in R^n, adding them one by one."""
    return _normals_and_free(vecs, n)[0]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows: their length minus the rows of their span's table."""
    if not rows:
        return 0
    n = len(rows[0])
    return n - len(span_rows(rows, n)[0])


def int_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[IntVec]:
    """Integer basis of {x : rows . x = 0}, one primitive vector per free column.

    The normals of the row span are that basis.  The vector for free column
    c is zero on every other free column, which makes it the reduced-echelon
    kernel vector with a 1 at c, up to scale; it is signed positive at c.
    """
    normals, free = _normals_and_free(rows, ncols)
    return [h if h[c] > 0 else tuple(-x for x in h) for h, c in zip(normals, free)]


def clear_denominators(vec: Sequence[Fraction]) -> IntVec:
    """Scale a rational vector by a positive rational into a primitive int vector."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    iv = [x.numerator * (den // x.denominator) for x in vec]
    return tuple(_vec_gcd_reduce(iv))


def solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Rows of X with aX = b, for an invertible square a; ValueError if a is singular.

    a and b are sequences of rational (or integer) rows, b of width m.  The
    normals of the row span of [a | b] are the kernel of [a | b], which
    holds the m columns of [X; -I].  a is invertible iff their free columns
    are exactly the last m, and then normal j is a multiple of column j of
    [X; -I]: X[i][j] = -h_j[i] / h_j[n + j].
    """
    n = len(a)
    m = len(b[0]) if b else 0
    if any(len(r) != n for r in a) or len(b) != n or any(len(r) != m for r in b):
        raise ValueError("shape mismatch")
    aug = [clear_denominators(tuple(ra) + tuple(rb)) for ra, rb in zip(a, b)]
    normals, free = _normals_and_free(aug, n + m)
    if free != list(range(n, n + m)):
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(-h[i], h[n + j]) for j, h in enumerate(normals)) for i in range(n))


def sample_pattern(
    pattern: Sequence[Sequence[bool]], range_max: int, seed: Seed
) -> Tuple[IntVec, ...]:
    """Instantiate a zero/nonzero mask with uniform integers in [1, range_max].

    Returns integer rows: 0 exactly where the mask is falsy, elsewhere drawn
    row-major from ``random.Random(seed)``.  Deterministic in the seed.
    """
    if range_max < 2:
        raise ValueError("range_max must be >= 2")
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(1, range_max) if cell else 0 for cell in row) for row in pattern)


def sample_int_matrix(rows: int, cols: int, range_max: int, seed: Seed) -> Tuple[IntVec, ...]:
    """Dense positive-integer rows, row-major draws from the seeded RNG."""
    return sample_pattern([[True] * cols for _ in range(rows)], range_max, seed)


def derive_seed(seed: Seed, salt: int) -> Seed:
    """Stable 64-bit mix of (seed, salt) for retry chains."""
    x = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 29)
