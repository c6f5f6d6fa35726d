"""Frame model and the complement-property machinery.

A frame is a spanning family of N rational vectors in R^n.  Over the reals,
phase retrievability is equivalent to the complement property: every index
subset or its complement spans.  One search, ``_partition(cols, t)``, looks
for a 2-colouring whose classes both have rank <= t with a pruned depth-first
scan.  Index 0 is pinned to class A, cutting the mirror half; a branch dies
as soon as one class exceeds rank t; and a column already in the span of one
class goes to that class only (dominance: it costs that class no rank, and
keeping it out of the other class can only lower that one's rank).  The
reported failing subset is therefore one valid witness, not the first one in
bitmask order.  The complement property is t = n - 1; removal and
``lifting``'s rank-<=2 kernel elements reuse it.  Given watched columns
(``seen``), the search also asks that one of them stay outside both class
spans: that is ``lifting``'s S2-witness search and its redundancy test, so
every 2-colouring search in the package is this one.  Exactness is one CP
proof and then N removals: a PR frame of length 2n - 1 is exact by
counting, and otherwise one table of coordinate axes per frame settles
most removals, so only the rest run the partition search.  d(F) is one run
with a stopping floor below t: each partition found lowers t to one below
its larger class rank until that rank reaches the floor (n + 1) // 2, and
the value is cached on the ``Frame``.

The search takes its span kernel as an argument.  The CP proof
(``_certified_partition``: ``Frame._cp``, and ``subspaces.is_pr_subspace``
on projected families) runs it first with ``ratlin``'s residue kernel,
modulo the prime ``RESIDUE_P`` below 2^30, where the numbers can outgrow
one digit.  The pin and dominance rules hold over any field, so the search
is complete mod p, and finding no partition there proves that none exists
over Q (``ratlin.residue_first``).  When it finds one, the exact search
supplies the verdict and the witness, so every failing subset is the exact
search's.  d(F), the removals, the watched searches and ``spark`` stay
exact, since they need the exact values.

``spark`` is a depth-first search over independent subfamilies that shares
each prefix's span; it runs on bare integer columns as ``_spark(cols)``, so
the subspace tools reuse it for the minimum support.  Both searches ask
about their columns in index order, so each holds every span as a
``ratlin`` table: one row per normal, holding its dot products with the
columns still to come and then the watched ones.  A membership question is
a lookup in the table (``off_table``), and only a branch extends a span,
updating its rows on the columns after the one added (``extend_table``).
Each row stays a multiple of its normal's dot products, so every question
gets the answer the normals would give.  All rank arithmetic is
integer-only, and every verdict rests on exact ranks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import NotAFrame
from .ratlin import (
    IntVec,
    Kernel,
    clear_denominators,
    extend_table,
    int_rank,
    off_table,
    residue_first,
    span_table,
)

IndexSet = FrozenSet[int]


class _Value:
    """Value semantics over ``_fields``, as a frozen dataclass has them.

    Equal fields mean equal objects of one class, the hash follows the
    fields, and no attribute can be set or deleted.  ``cached_property``
    still works, since it writes to the instance ``__dict__`` directly.
    """

    # not a dataclass: ``dataclasses`` imports ``inspect``, which every CLI
    # process would pay for
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Frame(_Value):
    """An ordered spanning family of N rational vectors in R^n.

    The constructor rejects non-spanning input: every criterion in this
    package assumes a frame for the whole space.  Indices are 0-based.
    """

    _fields = ("dim", "vectors")
    dim: int
    vectors: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, dim: int, vectors: Tuple[Tuple[Fraction, ...], ...]):
        self.__dict__.update(dim=dim, vectors=vectors)
        n = self.dim
        if n < 1:
            raise NotAFrame("ambient dimension must be >= 1")
        if any(len(v) != n for v in self.vectors):
            raise NotAFrame("vector length does not match dim")
        if len(self.vectors) < n:
            raise NotAFrame(f"need at least {n} vectors, got {len(self.vectors)}")
        if int_rank(self._int_cols) < n:
            raise NotAFrame("vectors do not span R^n")

    @classmethod
    def from_vectors(cls, vectors: Iterable[Iterable], dim: Optional[int] = None) -> "Frame":
        vecs = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        if not vecs:
            raise NotAFrame("empty vector list")
        return cls(dim if dim is not None else len(vecs[0]), vecs)

    @property
    def N(self) -> int:
        return len(self.vectors)

    @cached_property
    def _int_cols(self) -> Tuple[IntVec, ...]:
        # per-vector scaling to primitive integer vectors; rank-neutral
        return tuple(clear_denominators(v) for v in self.vectors)

    @cached_property
    def _cp(self) -> CPResult:
        # held so that PR, exactness and redundancy checks share one proof
        found = _certified_partition(self._int_cols, self.dim - 1)
        return CPResult(found is None, None if found is None else found.a)

    @cached_property
    def _exactness(self) -> ExactnessResult:
        n, N = self.dim, self.N
        if not is_phase_retrievable(self):
            return ExactnessResult(False, ())
        if N == 2 * n - 1:
            return ExactnessResult(True, ())
        settled = _axis_settled(self._int_cols, n)
        removable = tuple(
            i
            for i in range(N)
            if i not in settled and _partition(self.drop(i), n - 1) is None
        )
        return ExactnessResult(len(removable) == 0, removable)

    @cached_property
    def _d(self) -> int:
        # d(F): the larger class rank of the partition the bounded search
        # ends on, or n when no partition has both ranks <= n - 1
        n = self.dim
        found = _partition(self._int_cols, n - 1, (n + 1) // 2)
        return n if found is None else found.rank

    @cached_property
    def _pr_subspaces(self) -> Dict[Tuple[IntVec, ...], bool]:
        # subspace PR verdicts by primitive basis columns; subspaces.is_pr_subspace fills it
        return {}

    def drop(self, i: int) -> Tuple[IntVec, ...]:
        cols = self._int_cols
        return cols[:i] + cols[i + 1 :]


class Split(NamedTuple):
    """A 2-colouring found by ``_partition``: class A and the larger class rank."""

    a: IndexSet
    rank: int


class CPResult(NamedTuple):
    """Outcome of a complement-property check.

    ``failing`` is a subset where neither it nor its complement spans
    (None when the property holds).
    """

    holds: bool
    failing: Optional[IndexSet]


class ExactnessResult(NamedTuple):
    """Outcome of the exact-PR check.

    ``removable`` lists indices whose removal keeps phase retrievability;
    populated only when the frame is PR but not exact.
    """

    exact: bool
    removable: Tuple[int, ...]


# ---------------------------------------------------------------------------
# The partition search.
# ---------------------------------------------------------------------------


def _partition(
    cols: Sequence[IntVec],
    t: int,
    floor: Optional[int] = None,
    kernel: Optional[Kernel] = None,
    seen: Optional[Sequence[IntVec]] = None,
) -> Optional[Split]:
    """A 2-colouring of the columns with both class ranks <= t, or None.

    ``kernel`` is the span step (membership test, extension), the exact one
    of ``ratlin`` by default; with the residue kernel the columns must be
    residues, and every rank is a rank mod p.

    Each class is held as the table of its span (``ratlin``) on the
    columns and then the watched ones, so a node asks two membership
    questions, a lookup each, and a class has rank <= t exactly while its
    table keeps at least n - t rows.
    Column 0 is pinned to A (global swap symmetry).  A column in the span of
    A goes to A only, and otherwise a column in the span of B goes to B only:
    any 2-colouring with both ranks <= t stays one after that move, so the
    rule loses no answer.  Only a column independent of both classes
    branches, trying B before A, and a branch dies the moment either class
    exceeds rank t.  The returned class is one valid witness, not the first
    failing subset in bitmask order.

    The search stops at the first partition whose larger class rank r is at
    most ``floor`` (default t, so every caller asking whether a partition
    exists stops at the first one).  Below that it keeps looking with
    t = r - 1, dropping the stacked branches that already exceed the new t,
    and returns the last partition found: with floor (n + 1) // 2, the
    least any partition can reach, that one has the least larger class rank,
    which it carries as ``rank``.

    ``seen`` (watched columns, with floor t) asks in addition that some
    watched column lie outside both class spans.  Each stack entry carries
    the table positions of those still outside both, from those outside
    the span of column 0 (no zero column is), and a branch dies once none
    are left.  Adding a column to a class only shrinks that set, so the pin
    and the dominance rule still lose no answer.  At t = n - 1 a class of
    rank n would leave none, and the rank test prunes it before it is built.
    """
    off, extend = kernel or (off_table, extend_table)
    ncols = len(cols)
    if ncols == 0:
        # the empty family: both classes empty, of rank 0, and every nonzero
        # watched column outside both
        return Split(frozenset(), 0) if seen is None or any(map(any, seen)) else None
    n = len(cols[0])
    keep = n - t  # fewest rows a class of rank <= t still has
    watched = () if seen is None else tuple(seen)
    width = ncols + len(watched)
    empty = span_table((*cols, *watched), n)
    off0 = off(empty, -width)
    start_a = empty if off0 is None else extend(empty, -width, off0)
    live = None if seen is None else [at for at in range(ncols - width, 0) if off(start_a, at) is not None]
    if len(start_a) < keep or live == []:
        return None
    if floor is None:
        floor = t
    best = None
    # stack entries: (next index, table of A, table of B, bitmask of A's
    # members, positions of the watched columns outside both spans or None)
    stack = [(1, start_a, empty, 1, live)]
    while stack:
        i, na, nb, amask, live = stack.pop()
        if i == ncols:
            r = n - min(len(na), len(nb))
            best = amask, r
            if r <= floor:
                break
            keep = n - r + 1  # go on with t = r - 1
            stack = [e for e in stack if len(e[1]) >= keep and len(e[2]) >= keep]
            continue
        at = i - width
        off_a = off(na, at)
        if off_a is None:
            stack.append((i + 1, na, nb, amask | 1 << i, live))
            continue
        off_b = off(nb, at)
        if off_b is None:
            stack.append((i + 1, na, nb, amask, live))
            continue
        # live is None when nothing is watched and never empty on the stack
        if len(na) > keep:
            grown = extend(na, at, off_a)
            left = live and [c for c in live if off(grown, c) is not None]
            if left != []:
                stack.append((i + 1, grown, nb, amask | 1 << i, left))
        if len(nb) > keep:
            grown = extend(nb, at, off_b)
            left = live and [c for c in live if off(grown, c) is not None]
            if left != []:
                stack.append((i + 1, na, grown, amask, left))
    if best is None:
        return None
    amask, r = best
    return Split(frozenset(j for j in range(ncols) if amask >> j & 1), r)


def _certified_partition(cols: Sequence[IntVec], t: int) -> Optional[Split]:
    """``_partition(cols, t)``, run mod ``RESIDUE_P`` first where that can pay: the CP proof."""
    return residue_first(lambda vecs, kernel: _partition(vecs, t, None, kernel), cols, t)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def span_dim(frame: Frame, idxs: Iterable[int]) -> int:
    """Rank of the subfamily with the given indices; empty set gives 0."""
    cols = frame._int_cols
    return int_rank([cols[i] for i in idxs])


def has_complement_property(frame: Frame) -> CPResult:
    """Decide the complement property; on failure return one failing subset.

    The result is held on the frame, so a second check costs nothing.
    """
    return frame._cp


def is_phase_retrievable(frame: Frame) -> bool:
    """Real-case phase retrievability: exactly the complement property."""
    return has_complement_property(frame).holds


def spark(frame: Frame) -> int:
    """Size of the smallest linearly dependent subfamily; N+1 if none exists."""
    return _spark(frame._int_cols)


def _spark(cols: Sequence[IntVec]) -> int:
    """Size of the smallest dependent subfamily of the columns; len+1 if none.

    Depth-first search over independent subfamilies in index order, each
    node holding the table of its span and extending its parent's by one
    column.  A column in the span of an independent set I closes a
    dependent set of size |I|+1, so every circuit is found from its members
    below its largest index.  The best size so far bounds the search: a
    node is only expanded while it can still close a smaller dependent set.
    A zero column (also the empty vector) is dependent on its own, so such a
    family has spark 1.
    """
    best = len(cols) + 1
    if not cols:
        return best
    n, width = len(cols[0]), len(cols)
    # stack entries: (next index, table of an independent set's span)
    stack = [(0, span_table(cols, n))]
    while stack:
        start, rows = stack.pop()
        size = n - len(rows)
        if size + 1 >= best:
            continue
        children = []
        for j in range(start, width):
            off = off_table(rows, j - width)
            if off is None:
                best = size + 1
                break
            if size + 2 < best:
                children.append((j + 1, extend_table(rows, j - width, off)))
        else:
            stack.extend(reversed(children))
    return best


def _axis_settled(cols: Sequence[IntVec], n: int) -> Set[int]:
    """Indices whose removal from a PR frame a coordinate hyperplane breaks.

    For each axis r, Lambda_r is the set of columns nonzero on r; the others
    lie in the hyperplane x_r = 0.  Dropping an i in Lambda_r therefore
    leaves the failing partition (Lambda_r minus i, the rest) whenever
    Lambda_r minus i does not span.  That holds outright when
    |Lambda_r| <= n, as on every axis of a pattern frame (n nonzeros per
    row); otherwise it takes one ``int_rank``.  An axis with no zero column
    is skipped: a removal it settles leaves a family that does not span,
    which the partition search rejects at its first leaf.  An i outside
    Lambda_r never fails this way, since in a PR frame Lambda_r spans
    whenever some column is zero on r.
    """
    settled: Set[int] = set()
    for r in range(n):
        lam = [j for j, c in enumerate(cols) if c[r] != 0]
        if len(lam) == len(cols):
            continue
        if len(lam) <= n:
            settled.update(lam)
            continue
        settled.update(
            i
            for i in lam
            if i not in settled and int_rank([cols[j] for j in lam if j != i]) < n
        )
    return settled


def is_exact_pr_frame(frame: Frame) -> ExactnessResult:
    """PR frames that lose PR on every single removal.

    Only single removals are tested: kernels only grow when more vectors are
    dropped, so failing on every co-singleton already fails on every proper
    subset.  A PR frame of length 2n - 1 is exact by counting: the 2n - 2
    vectors left after any removal split into two classes of n - 1, neither
    of which spans.  Otherwise one axis table per frame (``_axis_settled``)
    settles most removals, and only the rest run the partition search on the
    reduced family.  The result is held on the frame, like the CP proof it
    starts from.
    """
    return frame._exactness


def is_full_spark(frame: Frame) -> bool:
    return spark(frame) == frame.dim + 1
