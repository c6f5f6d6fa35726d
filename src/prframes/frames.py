"""Frame model and the complement-property machinery.

A frame is a spanning family of N rational vectors in R^n.  Over the reals,
phase retrievability is equivalent to the complement property: every index
subset or its complement spans.  One search, ``_partition(cols)``, looks
for a 2-colouring in which neither class spans, with a pruned depth-first
scan.  Index 0 is pinned to class A, cutting the mirror half; a branch dies
as soon as one class spans; and a column already in the span of one
class goes to that class only (dominance: it costs that class no rank, and
keeping it out of the other class can only lower that one's rank).  The
reported failing subset is therefore one valid witness, not the first one in
bitmask order.  Removal and ``lifting``'s rank-<=2 kernel elements reuse
the search.  Given watched columns (``seen``), it also asks that one of
them stay outside both class spans: that is ``lifting``'s S2-witness
search and its redundancy test, so every 2-colouring search in the
package is this one.  Exactness is one CP
proof and then N removals: a PR frame of length 2n - 1 is exact by
counting, and otherwise one table of coordinate axes per frame settles
most removals, so only the rest run the partition search.  d(F) is the
search's ``least`` mode: each partition found sends it on for one whose
larger class rank is lower, until that rank reaches the floor
(n + 1) // 2, and the value is cached on the ``Frame``.

The partition search takes its span extension as an argument, exact or
modulo the prime ``RESIDUE_P``.  ``_partition`` on 2n - 1 columns in
R^n and ``_spark`` on at least n columns read the minors mod p
(``ratlin.full_spark_residue``) before they search, and the CP proof
(``_certified_partition``, for ``Frame._cp`` and
``subspaces.is_pr_subspace``) runs the residue search first at other
lengths whose numbers can outgrow one digit.  Where a certificate proves
nothing the exact search decides, so every failing subset and every
spark below n + 1 is the exact search's (``ratlin`` has the argument).

Two searches walk the columns in support order (``_support_order``: by
the index of the last nonzero entry, then by the number of nonzeros): the
CP proof's residue search, read only for None, and d(F), read only for the
rank.  Neither answer depends on the order, and with sparse columns first
an extension rebuilds fewer rows, and shorter ones, since it rebuilds only
the rows nonzero at the added column.  A search whose partition is
reported (the exact search behind ``Frame._cp``, whose failing subset
``verify`` prints, and ``lifting``'s witnesses) keeps the given order: its
class A is a set of indices into the columns as given.

``spark`` is a depth-first search over independent subfamilies that shares
each prefix's span.  On bare integer columns, ``_spark(cols, within)`` is
the size of the smallest dependent subfamily that meets ``within``: the
one independent-set search, which ``subspaces`` runs for the minimum
support and for the extension's test.
Both searches ask about their columns in index order, so each holds every
span as a ``ratlin`` table: one row per normal, holding its dot products
with the columns still to come and then the watched ones.  No other
module reads these tables.  A membership question is a lookup in the
table: the first row nonzero at the column, or none when the column lies
in the span.  Both searches read it in place, as a plain scan of the rows
that stops at a nonzero entry, so no question in their loops costs a call
or an index (``off_table`` asks it for column 0, and in
``ratlin.span_rows``).  Only a branch extends a span, a ``ratlin`` call
that updates its rows on the columns after the one added
(``extend_table``); the branch recovers its pivot, the first nonzero row,
as the index of the row the scan stopped at, which is exact because an
equal row earlier in the table would have stopped the scan.  Each row
stays a multiple of its normal's dot products, so every question gets the
answer the normals would give.  All rank arithmetic is integer-only, and
every verdict rests on exact ranks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import NotAFrame
from .ratlin import (
    IntVec,
    Kernel,
    Table,
    as_fractions,
    extend_residue,
    extend_table,
    full_spark_residue,
    int_rank,
    off_table,
    outgrows_digit,
    primitive_rows,
    read_rows,
    residues,
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
    The vectors are read with ``ratlin.read_rows``: when every entry is an
    int they are held as given, and every check runs on them without a
    ``Fraction``.  ``vectors``, the rational columns, is built on first read.
    """

    _fields = ("dim", "vectors")
    dim: int

    def __init__(self, dim: int, vectors: Iterable[Iterable]):
        rows = read_rows(vectors)
        self.__dict__.update(dim=dim, _rows=rows)
        if dim < 1:
            raise NotAFrame("ambient dimension must be >= 1")
        if any(len(v) != dim for v in rows):
            raise NotAFrame("vector length does not match dim")
        if len(rows) < dim:
            raise NotAFrame(f"need at least {dim} vectors, got {len(rows)}")
        if int_rank(self._int_cols) < dim:
            raise NotAFrame("vectors do not span R^n")

    @classmethod
    def from_vectors(cls, vectors: Iterable[Iterable], dim: Optional[int] = None) -> "Frame":
        vecs = tuple(map(tuple, vectors))
        if not vecs:
            raise NotAFrame("empty vector list")
        return cls(dim if dim is not None else len(vecs[0]), vecs)

    @cached_property
    def vectors(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return as_fractions(self._rows)

    @property
    def N(self) -> int:
        return len(self._rows)

    @cached_property
    def _int_cols(self) -> Tuple[IntVec, ...]:
        # per-vector scaling to primitive integer vectors; rank-neutral
        return primitive_rows(self._rows)

    @cached_property
    def _cp(self) -> CPResult:
        # held so that PR, exactness and redundancy checks share one proof
        found = _certified_partition(self._int_cols)
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
            if i not in settled and _partition(self.drop(i)) is None
        )
        return ExactnessResult(len(removable) == 0, removable)

    @cached_property
    def _d(self) -> int:
        # d(F): the larger class rank of the partition the least search
        # ends on, or n when every 2-colouring has a class that spans.  The
        # least rank over all 2-colourings is the same in any column order,
        # so the search walks the support order; its class A, which indexes
        # the sorted columns, is not read
        found = _partition(_support_order(self._int_cols), least=True)
        return self.dim if found is None else found.rank

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
    least: bool = False,
    kernel: Optional[Kernel] = None,
    seen: Optional[Sequence[IntVec]] = None,
) -> Optional[Split]:
    """A 2-colouring of the columns in which neither class spans, or None.

    ``kernel`` is the span extension, ``extend_table`` by default; with
    ``extend_residue`` the columns must be residues, and every rank is a
    rank mod p.  The membership test reads the table either way.

    On 2n - 1 columns in R^n the minors mod p are read first
    (``ratlin.full_spark_residue``): when they prove the columns full
    spark, one class of every 2-colouring holds n independent columns, so
    no partition exists in any mode below, and the result is None.

    Each class is held as the table of its span (``ratlin``) on the
    columns and then the watched ones, and a class does not span exactly
    while its table keeps a row.  A column lies in a span iff its table
    has no row nonzero there, and the first nonzero row is the one an
    extension drops (``off_table``).  Column 0 is pinned to A
    (global swap symmetry).  A column in the span of A goes to A only, and
    otherwise a column in the span of B goes to B only: any 2-colouring
    in which neither class spans stays one after that move, so the rule
    loses no answer.  Only a column independent of both classes branches,
    trying B before A, and a branch dies the moment either class spans.
    The returned class is one valid witness, not the first failing subset
    in bitmask order.

    A popped node walks its columns while they lie in the span of A or of
    B, scanning both tables in place, so a membership question costs no
    call.  At a column outside both, the node stacks its A child and walks
    on as its B child.  Stacked, the B child would be pushed and popped at
    once, so the nodes come in the same order, and only the A children
    cost a push and a pop.  Only there does the walk recover each pivot's
    index, ``table.index(row)`` on the row its scan stopped at.

    The search stops at the first partition found, whose larger class rank
    r it carries as ``rank``.  With ``least`` (d(F)) it stops only once r
    reaches (n + 1) // 2, the least any partition can reach.  Until then
    it keeps looking for one of larger class rank at most r - 1, dropping
    the stacked branches that already exceed it, and returns the last
    partition found, the one with the least larger class rank.

    ``seen`` (watched columns, without ``least``) asks in addition that
    some watched column lie outside both class spans.  Each node carries
    the table positions of those still outside both, from those outside the
    span of column 0 (no zero column is), and a branch dies once none are
    left: its A child is not stacked, or its B child not walked on.  Adding
    a column to a class only shrinks that set, so the pin and the dominance
    rule still lose no answer.  A class that spans would leave none, and
    the rank test prunes it before it is built.
    """
    extend = kernel or extend_table
    ncols, n = len(cols), len(cols[0])
    if ncols == 2 * n - 1 and full_spark_residue(cols):
        return None
    keep = 1  # fewest rows a class that does not span still has
    watched = () if seen is None else tuple(seen)
    width = ncols + len(watched)
    empty = span_table((*cols, *watched), n)
    off0 = off_table(empty, -width)
    start_a = empty if off0 is None else extend(empty, -width, off0)
    live = None if seen is None else _outside(start_a, range(ncols - width, 0))
    if len(start_a) < keep or live == []:
        return None
    floor = (n + 1) // 2 if least else n - 1
    best = None
    # stack entries: (next index, table of A, table of B, bitmask of A's
    # members, positions of the watched columns outside both spans or None)
    stack = [(1, start_a, empty, 1, live)]
    while stack:
        i, na, nb, amask, live = stack.pop()
        # walk the columns in the span of A, or else of B, reading each
        # table in place: column i lies in a span iff no row is nonzero at it
        while i < ncols:
            at = i - width
            for ra in na:
                if ra[at]:
                    break
            else:
                amask |= 1 << i
                i += 1
                continue
            for rb in nb:
                if rb[at]:
                    break
            else:
                i += 1
                continue
            # column i branches; live is None when nothing is watched, and
            # never empty in a live branch.  The A child is stacked, and the
            # B child, tried first, is walked on in place.  The pivot is the
            # first row equal to the one the scan stopped at: an earlier
            # equal row would have stopped it.
            if len(na) > keep:
                grown = extend(na, at, (na.index(ra), ra[at]))
                left = live and _outside(grown, live)
                if left != []:
                    stack.append((i + 1, grown, nb, amask | 1 << i, left))
            if len(nb) <= keep:
                break
            nb = extend(nb, at, (nb.index(rb), rb[at]))
            live = live and _outside(nb, live)
            if live == []:
                break
            i += 1
        else:
            # every column is placed: a partition in which neither class spans
            r = n - min(len(na), len(nb))
            best = amask, r
            if r <= floor:
                break
            keep = n - r + 1  # go on below larger class rank r
            stack = [e for e in stack if len(e[1]) >= keep and len(e[2]) >= keep]
    if best is None:
        return None
    amask, r = best
    return Split(frozenset(j for j in range(ncols) if amask >> j & 1), r)


def _outside(rows: Table, live: Iterable[int]) -> List[int]:
    """The positions in ``live`` of the columns outside the span: some row is nonzero there."""
    out = []
    for c in live:
        for row in rows:
            if row[c]:
                out.append(c)
                break
    return out


def _certified_partition(cols: Sequence[IntVec]) -> Optional[Split]:
    """The CP proof: ``_partition(cols)``, with a residue search in front.

    Where the numbers can outgrow one digit, the residue search runs first,
    and finding no partition mod p proves that none exists; at 2n - 1
    columns in R^n ``_partition`` reads the full-spark certificate instead.
    The residue search is read only for None, which holds or fails for the
    set of columns in any order, so it walks them in support order.  The
    exact search keeps the given order: its partition is the failing subset
    that ``Frame._cp`` reports.
    """
    if len(cols) != 2 * len(cols[0]) - 1 and outgrows_digit(cols):
        if _partition(residues(_support_order(cols)), kernel=extend_residue) is None:
            return None
    return _partition(cols)


def _support_order(cols: Sequence[IntVec]) -> List[IntVec]:
    """The columns sorted by the index of their last nonzero entry, then by their number of nonzeros.

    The sort is stable, so columns with the same key keep their order, and
    a family with no zero entry keeps its own.
    """

    def key(c: IntVec) -> Tuple[int, int]:
        support = [i for i, x in enumerate(c) if x]
        return (support[-1] if support else -1, len(support))

    return sorted(cols, key=key)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def has_complement_property(frame: Frame) -> CPResult:
    """Decide the complement property; on failure return one failing subset.

    The result is held on the frame, so a second check costs nothing.
    """
    return frame._cp


def is_phase_retrievable(frame: Frame) -> bool:
    """Real-case phase retrievability: exactly the complement property."""
    return has_complement_property(frame).holds


def spark(frame: Frame) -> int:
    """Size of the smallest linearly dependent subfamily; N+1 if none exists.

    One ``_spark`` search, which reads the minors mod p first.
    """
    return _spark(frame._int_cols)


def _spark(cols: Sequence[IntVec], within: Optional[IndexSet] = None) -> int:
    """Size of the smallest dependent subfamily that meets ``within``; len+1 if none.

    ``cols`` is nonempty, and so is ``within``, an index set (None: every
    column).  Depth-first search over independent subfamilies in index
    order, each node holding the table of its span and extending its
    parent's by one column.  A column j in the span of an independent set I
    closes the dependent set I+j, so every circuit is found from its
    members below its largest index.

    * A closed set I+j that avoids ``within`` counts as |I|+2: adding any
      member of ``within`` gives a dependent set that meets it.  A smallest
      dependent set D that meets ``within`` holds a circuit, which is D or,
      when it avoids ``within``, a proper subset counted at most |D|.
    * The search starts from the bound min(len, dim)+1: any dim+1 columns
      are dependent, and one of them can be taken from ``within``.

    A column is only tested, and a node only expanded, while it can still
    lower the best count.  A zero column (also the empty vector) is
    dependent on its own.

    With at least dim columns the minors mod p of the dim-subsets that meet
    ``within`` are read first (``ratlin.full_spark_residue``); when they
    prove those independent, the starting bound is the answer.
    """
    n, width = len(cols[0]), len(cols)
    best = min(width, n) + 1
    if width >= n and full_spark_residue(cols, within):
        return best
    # stack entries: (next index, table of an independent set's span,
    # does the set meet within)
    stack = [(0, span_table(cols, n), within is None)]
    while stack:
        start, rows, meets = stack.pop()
        size = n - len(rows)
        if size + 1 >= best:
            continue
        # can a closed set that avoids within, or a child, still lower best?
        grow = size + 2 < best
        for j in range(start, width):
            hit = meets or j in within
            if not (hit or grow):
                continue
            at = j - width
            # the table read in place: j lies in the span iff no row is
            # nonzero at it
            for row in rows:
                if row[at]:
                    break
            else:
                best = size + 1 if hit else size + 2
                if hit:
                    break
                grow = False
                continue
            if grow:
                stack.append((j + 1, extend_table(rows, at, (rows.index(row), row[at])), hit))
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
    """Is every n of the frame's vectors independent, that is, is its spark n + 1?

    ``spark`` decides it, from the minors mod p first.
    A frame of length 2n - 1 is full spark exactly when it has the
    complement property.
    """
    return spark(frame) == frame.dim + 1
