"""Exact rational linear algebra and seeded integer sampling.

Everything downstream (complement-property scans, kernel searches, pattern
instantiation) runs on top of this module, and this module is the only place
that eliminates.  All arithmetic is exact, and the one kernel works
fraction-free on Python integers with gcd trimming.  A vector family is a
tuple of integer or rational vectors; there is no matrix class.  Input
rows are read in one place (``read_rows``): rows whose every entry is an
int are held as given, and any other rows with every entry a ``Fraction``.
``fractions.Fraction`` appears only where non-integer input is read, where
a caller asks for rational rows (``as_fractions``: ``Frame.vectors`` and
``Subspace.basis`` on first read), and in ``solve``'s non-integral
entries.  The generators build integer rows, and ``format_rational`` prints
ints and Fractions alike.  No floating point appears anywhere.

The kernel is the span step, on a table.  Every caller knows up front the
columns it will ask about, in the order it adds them, and the watched
columns it tests after them.  A span of rank r in R^n has n - r independent
integer normals, and its table holds one row per normal: that normal's dot
products with the columns still to come.  The zero span's normals are the
identity rows, so its table is the columns transposed (``span_table``).
Column j lies in the span iff every row is zero at j: a lookup, no
arithmetic, which ``off_table`` makes and the searches in ``frames`` make
in place.  Adding a column that is not (``extend_table``) takes the first
nonzero entry d_k and replaces each other row r_i by the gcd-trimmed
d_k r_i - d_i r_k, on the columns after j only.  That is the
row of the normal d_k h_i - d_i h_k, up to a positive scale, because dot
products are linear in the normal.  So each row stays a multiple of its
normal's dot products, and every zero/nonzero answer is the one the
normals would give.  Ranks and the searches in ``frames`` run on this
step, and no other module reads a table.  So do nullspaces and solves:
with the identity columns last, a row ends with its normal, and the
normals of a row span are a kernel basis, one per free column
(``span_rows``, ``int_nullspace``, ``solve``).

The residue kernel (``off_table``, ``extend_residue``) is the same step
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

One more certificate proves a negative without a search: full spark, that
every n of N >= n integer vectors in R^n are independent
(``full_spark_residue``).  Row operations mod p reduce the first n vectors
to a diagonal, and every maximal minor of the result is, up to a nonzero
scale, a square minor of the block beside it, so the certificate reads
each of those C(N, n) - 1 minors once, walking the column sets depth
first, each minor by Laplace expansion from minors a size smaller.  The
expansions are compiled once per size: each minor is one sum of products
of two ``itemgetter`` reads, the new column's entries and the signed
smaller minors, with no index arithmetic in the walk.  A minor
nonzero mod p is nonzero over Q, so True proves full spark, and False
proves nothing.  Given an index set ``within``, it proves only that every
n-subset meeting that set is independent, and skips the minors of the
n-subsets that avoid it.

Two searches read this certificate in front of themselves, and no other
code calls it: ``frames._partition`` on 2t + 1 columns in R^(t+1), where
the complement property is full spark (a 2-colouring has a class of
t + 1 or more columns, so a partition with both ranks <= t exists iff
some t + 1 columns are dependent), and ``frames._spark`` on at least n
vectors, with its ``within``, where a dependent set of at most n vectors
meeting ``within`` lies in a singular n-subset that meets it.  So the
complement property and d(F) of 2n - 1 vectors, the removals that leave
2n - 1, the spark, the minimum support and the extension's test all read
it.  A residue search behind it could never settle anything.  False
means that some n-subset (meeting ``within``) is singular mod p, and each
search looks for such a configuration and is complete over any field, so
mod p it would find one and hand over to the exact search anyway.  So a
failed certificate goes straight to the exact search, and only the
complement property at other lengths runs a residue search.

A ``Seed`` is a plain int; the determinism contract is that identical seed and
identical call sequence produce identical outputs.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd
from operator import itemgetter, mul
from typing import AbstractSet, Callable, Iterable, List, Optional, Sequence, Tuple, Union

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


def format_rational(x: Union[int, Fraction]):
    """Render an int or a Fraction for JSON: bare int when integral, else "p/q"."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Fraction-free integer kernels: every elimination in the package runs here.
# ---------------------------------------------------------------------------


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
    The searches in ``frames`` make this scan in place, in their loops,
    without ``enumerate``: they recover k only where a branch needs it.
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
    Row k is sliced only once some row after it is nonzero at ``at``; when
    none is, the table is the other rows as they are, and no row is built.
    """
    k, dk = off
    rest = rows[k + 1 :]
    for row in rest:
        if row[at]:
            break
    else:
        return rows[:k] + rest
    s = at + 1
    rk = rows[k][s:] if s else ()
    out = list(rows[:k])
    for row in rest:
        di = row[at]
        if di:
            row = [dk * x - di * y for x, y in zip(row[s:], rk)]
            g = gcd(*row)
            row = tuple([x // g for x in row] if g > 1 else row)
        out.append(row)
    return tuple(out)


RESIDUE_P = 1073741789  # the largest prime below 2^30

# a span step's extension, exact (``extend_table``) or mod p (``extend_residue``);
# the membership test reads the table alike for both
Kernel = Callable[[Table, int, Tuple[int, int]], Table]


def residues(vecs: Iterable[Sequence[int]]) -> Tuple[IntVec, ...]:
    """Integer vectors reduced mod ``RESIDUE_P``, entries in [0, p)."""
    p = RESIDUE_P
    return tuple(tuple(x % p for x in v) for v in vecs)


def extend_residue(rows: Table, at: int, off: Tuple[int, int]) -> Table:
    """``extend_table`` mod ``RESIDUE_P``, given ``off = off_table(rows, at)``.

    d_k is a unit mod p, so each d_k h_i - d_i h_k is a nonzero normal
    independent of the others, and its row needs no trimming.  As there,
    row k is sliced only once some row after it needs it, and when none
    does the other rows are returned as they are.
    """
    k, dk = off
    rest = rows[k + 1 :]
    for row in rest:
        if row[at]:
            break
    else:
        return rows[:k] + rest
    p = RESIDUE_P
    s = at + 1
    rk = rows[k][s:] if s else ()
    out = list(rows[:k])
    for row in rest:
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


Gather = Callable[[Sequence[int]], Sequence[int]]


def _gather(positions: Sequence[int]) -> Gather:
    """A precompiled read of the entries at these positions, as a sequence.

    ``itemgetter`` of one position returns the bare item, so one position
    is read as a slice of length 1.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1))


@lru_cache(maxsize=64)
def _laplace_terms(n: int, k: int) -> Tuple[Tuple[Gather, Gather], ...]:
    """The Laplace expansion of a k x k minor along a new first column, for each row set.

    For k - 1 columns A and a new column c, the minor of [c | A] on a row
    set R = (r_0 < ... < r_(k-1)) is the sum over i of (-1)^i c[r_i] times
    A's (k - 1)-minor on R minus r_i.  One entry per k-subset R of
    range(n), in lexicographic order: a pair (at, below) of precompiled
    gathers.  ``at`` reads c's entries on R.  ``below`` reads the signed
    minors of A, its minors by row set followed by their negated copies:
    R minus r_i at its position among the (k - 1)-subsets, plus C(n, k - 1)
    when i is odd.  So ``sum(map(mul, at(c), below(signed)))`` is the minor.
    """
    below = {rows: j for j, rows in enumerate(combinations(range(n), k - 1))}
    half = len(below)
    return tuple(
        (_gather(rows), _gather([below[rows[:i] + rows[i + 1 :]] + half * (i & 1) for i in range(k)]))
        for rows in combinations(range(n), k)
    )


def full_spark_residue(
    vecs: Sequence[Sequence[int]], within: Optional[AbstractSet[int]] = None
) -> bool:
    """Is every n-subset of these N >= n integer vectors in R^n independent?

    True proves it; False proves nothing.

    Row operations mod ``RESIDUE_P`` take the matrix [v_1 .. v_N] to
    [D | C], D diagonal with a nonzero diagonal, or find the first n
    vectors singular mod p (False).  Scaling the rows of [D | C] by D^-1
    gives [I | D^-1 C], whose maximal minors are, up to sign, the square
    minors of D^-1 C, and those are the minors of C times nonzero scales:
    the n-subset (P - R) + S, for the leading n vectors P, k of them in R
    and k others in S, has the k x k minor of C on rows R and columns S.
    So the vectors are independent n at a time mod p iff every square
    minor of C is nonzero mod p: C(N, n) - 1 minors in all.  A zero entry
    of C ends it first.  Otherwise the column sets of C are walked depth
    first, each set's minors from the minors of the set without its last
    column, by Laplace expansion along that column put in front: one pass
    of precompiled gathers over ``_laplace_terms`` per set.  So a minor
    has its set's columns in reverse order, which changes only its sign.
    The walk holds one minors vector per depth, and it stops at the first
    column set with a minor that is 0 mod p.  A minor nonzero mod p is
    nonzero over Q, so every n-subset that is independent mod p is
    independent over Q.

    ``within`` (an index set; None: every index) narrows the claim: True
    proves every n-subset that meets ``within`` independent.  Its members
    move to the front, in index order, so the leading n vectors P lie in
    it and its other members are C's first columns; fewer than n members
    give False.  (P - R) + S meets ``within`` unless R = P and S avoids
    it, so the walk skips exactly the n x n minors of the column sets that
    avoid ``within``: those that start after its members.  Every smaller
    minor of such a set is read, since its n-subset keeps a member of P,
    and the zero-entry test skips only entries that are such n x n minors
    (n = 1).  So an accepted set reads C(N, n) - 1 - C(N - |within|, n)
    minors.
    """
    p = RESIDUE_P
    n = len(vecs[0])
    if within is not None:
        lead = sorted(within)
        if len(lead) < n:
            return False
        vecs = [vecs[i] for i in lead] + [v for i, v in enumerate(vecs) if i not in within]
    rows = list(zip(*residues(vecs)))
    # fraction-free Gauss-Jordan on the columns still to come: after step
    # c every row but the pivot row is zero at column c, which is dropped
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][0]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        d, top = rows[c][0], rows[c][1:]
        rows = [
            row[1:] if r == c or not row[0]
            else [(d * x - row[0] * y) % p for x, y in zip(row[1:], top)]
            for r, row in enumerate(rows)
        ]
    cols = list(zip(*rows))
    m = len(cols)
    if m == 0:  # N = n, and the leading vectors are independent
        return True
    # within's members among C's columns: its first w
    w = m if within is None else len(within) - n
    if any(0 in col for col in (cols if n > 1 else cols[:w])):
        return False
    terms = [_laplace_terms(n, k) for k in range(1, min(n, m) + 1)]

    def grow(firsts: Iterable[int], minors: List[int], k: int, deepest: int) -> bool:
        # minors: on a column set of size k, by row set (the empty set's is
        # 1); each column in firsts extends it to a set of size k + 1, whose
        # minors are read up to size deepest
        signed = minors + [-x for x in minors]
        size = terms[k]
        for s in firsts:
            col = cols[s]
            out = [sum(map(mul, at(col), below(signed))) % p for at, below in size]
            if 0 in out or k + 1 < deepest and not grow(range(s + 1, m), out, k + 1, deepest):
                return False
        return True

    # a column set avoids within iff it starts at column w or later, and
    # then its n x n minor is skipped
    deepest, short = len(terms), min(len(terms), n - 1)
    return grow(range(w), [1], 0, deepest) and (short == 0 or grow(range(w, m), [1], 0, short))


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


Rows = Tuple[tuple, ...]  # held rows: every entry an int, or every entry a Fraction


def read_rows(vectors: Iterable[Iterable]) -> Rows:
    """Rational rows as held: as given when every entry is an int, else every entry a Fraction.

    Only ``type(x) is int`` counts as an int, so bools (and int subclasses)
    go through ``Fraction``.  Entries that are Fractions already are kept.
    A float raises ``BadInput``, as in ``parse_rational``: 0.1 is not the
    rational it prints as, and its binary expansion is not what was meant.
    """
    rows = tuple(map(tuple, vectors))
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    for x in chain.from_iterable(rows):
        if isinstance(x, float):
            raise BadInput(f"not a rational: {x!r}")
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)


def _held_ints(rows: Rows) -> bool:
    # held rows are all int or all Fraction, so their first entry tells
    return type(next(chain.from_iterable(rows), None)) is int


def as_fractions(rows: Rows) -> Tuple[Tuple[Fraction, ...], ...]:
    """Held rows with every entry a Fraction: int rows converted, Fraction rows as held."""
    if _held_ints(rows):
        return tuple(tuple(map(Fraction, row)) for row in rows)
    return rows


def primitive(v: Sequence[int]) -> IntVec:
    """An integer vector divided by the gcd of its entries; a zero or empty vector as it is."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def primitive_rows(rows: Rows) -> Tuple[IntVec, ...]:
    """Each held row scaled by a positive rational into a primitive int vector.

    Int rows take one ``gcd`` each (``primitive``), and Fraction rows
    ``clear_denominators``.
    """
    return tuple(map(primitive if _held_ints(rows) else clear_denominators, rows))


def clear_denominators(vec: Sequence[Fraction]) -> IntVec:
    """Scale a rational vector by a positive rational into a primitive int vector."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    return primitive([x.numerator * (den // x.denominator) for x in vec])


def solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> Tuple[tuple, ...]:
    """Rows of X with aX = b, for an invertible square a; ValueError if a is singular.

    a and b are sequences of rational (or integer) rows, b of width m.  The
    normals of the row span of [a | b] are the kernel of [a | b], which
    holds the m columns of [X; -I].  a is invertible iff their free columns
    are exactly the last m, and then normal j is a multiple of column j of
    [X; -I]: X[i][j] = -h_j[i] / h_j[n + j], an int where that divides
    exactly and a Fraction elsewhere.
    """
    n = len(a)
    m = len(b[0]) if b else 0
    if any(len(r) != n for r in a) or len(b) != n or any(len(r) != m for r in b):
        raise ValueError("shape mismatch")
    aug = [clear_denominators(tuple(ra) + tuple(rb)) for ra, rb in zip(a, b)]
    normals, free = _normals_and_free(aug, n + m)
    if free != list(range(n, n + m)):
        raise ValueError("singular matrix")
    return tuple(tuple(_quotient(-h[i], h[n + j]) for j, h in enumerate(normals)) for i in range(n))


def _quotient(p: int, q: int) -> Union[int, Fraction]:
    return p // q if p % q == 0 else Fraction(p, q)


def sample_pattern(
    pattern: Sequence[Sequence[bool]], range_max: int, seed: Seed
) -> Tuple[IntVec, ...]:
    """Instantiate a zero/nonzero mask with uniform integers in [1, range_max].

    Returns integer rows: 0 exactly where the mask is falsy, elsewhere drawn
    row-major from ``random.Random(seed)``.  Deterministic in the seed.
    Each draw is ``randint(1, range_max)`` step for step, without its call
    chain: r = getrandbits(k), k the bit length of range_max, until
    r < range_max, and then r + 1.
    """
    if range_max < 2:
        raise ValueError("range_max must be >= 2")
    bits, k = random.Random(seed).getrandbits, range_max.bit_length()
    out = []
    for row in pattern:
        drawn = []
        for cell in row:
            if not cell:
                drawn.append(0)
                continue
            r = bits(k)
            while r >= range_max:
                r = bits(k)
            drawn.append(r + 1)
        out.append(tuple(drawn))
    return tuple(out)


def sample_int_matrix(rows: int, cols: int, range_max: int, seed: Seed) -> Tuple[IntVec, ...]:
    """Dense positive-integer rows, row-major draws from the seeded RNG."""
    return sample_pattern([[True] * cols for _ in range(rows)], range_max, seed)


# Every sample-verify loop (the generators, the subspace sampler and the
# extension) makes RETRIES + 1 draws, each seeded through derive_seed,
# before it raises RetriesExhausted.
RETRIES = 5


def derive_seed(seed: Seed, salt: int) -> Seed:
    """Stable 64-bit mix of (seed, salt) for retry chains."""
    x = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 29)
