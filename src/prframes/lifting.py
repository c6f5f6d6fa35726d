"""Rank-one lifting of a frame and exact searches in its kernel.

Lifting sends a vector f to the quadratic functional A |-> f^T A f on
symmetric matrices.  A frame is phase-retrievable exactly when the joint
kernel of these functionals meets the rank-<=2 symmetric matrices only at 0,
and every nonzero rank-<=2 element is x x^T - y y^T with x != +-y.  Put
u = (x + y)/2 and v = (x - y)/2: the quadratic at f is
<x,f>^2 - <y,f>^2 = 4 <u,f> <v,f>, and x != +-y means u != 0 and v != 0.  So
the element vanishes on a subfamily exactly when every member is orthogonal
to u or to v: it is a 2-colouring (A, B) of the subfamily with u normal to
span A and v normal to span B, which exists iff neither class spans.  This
is the complement-property argument of Balan, Casazza and Edidin ("On
signal reconstruction without phase", 2006).  Both witness searches and
the preservation test behind the redundancy measures are
``frames._partition`` calls on the subfamily's columns:

* ``find_s2_element`` runs the plain search, with u and v taken from the
  normals of the two class spans; on the whole frame that search is the CP
  proof held on the ``Frame``, so it is read;
* ``find_s2_witness`` also needs a frame vector f_i outside the subfamily
  with <u,f_i> <v,f_i> != 0, that is, outside both class spans, so its
  search watches the complement columns (``seen``);
* the preservation test of ``pr_redundancy`` and
  ``has_exact_pr_redundancy`` is the witness search finding nothing, or on
  a phase-retrievable frame the plain search on the kept subfamily.

All are exact and complete, and every witness they return is integral.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BadInput, CapExceeded
from .frames import Frame, IndexSet, _partition, is_exact_pr_frame, has_complement_property
from .ratlin import IntVec, int_rank, span_of

REDUNDANCY_CAP = 16


def lifted_row(f: IntVec, n: int) -> IntVec:
    """Row representing A |-> f^T A f for an integer column f; off-diagonal slots carry the factor 2."""
    row = [f[a] * f[a] for a in range(n)]
    row += [2 * f[a] * f[b] for a, b in itertools.combinations(range(n), 2)]
    return tuple(row)


class S2Witness(NamedTuple):
    """A nonzero A = x (x)^T - y (y)^T annihilated by a chosen subfamily.

    ``differing_index`` points at a frame vector outside the subfamily where
    the quadratic does not vanish (None for pure kernel elements).
    """

    x: Tuple[Fraction, ...]
    y: Tuple[Fraction, ...]
    differing_index: Optional[int] = None

    def quad(self, f: Sequence[Fraction]) -> Fraction:
        px = sum((a * b for a, b in zip(self.x, f)), Fraction(0))
        py = sum((a * b for a, b in zip(self.y, f)), Fraction(0))
        return px * px - py * py

    def is_nonzero(self) -> bool:
        x, y = self.x, self.y
        return tuple(x) != tuple(y) and tuple(x) != tuple(-v for v in y)

    def validate(self, frame: Frame, lam: Iterable[int]) -> bool:
        """Revalidate against the defining constraints; used by every test."""
        if not self.is_nonzero():
            return False
        if any(self.quad(frame.vectors[j]) != 0 for j in lam):
            return False
        if self.differing_index is not None:
            return self.quad(frame.vectors[self.differing_index]) != 0
        return True


def lifted_independent(frame: Frame) -> bool:
    """True iff the lifted vectors are linearly independent.

    The rows are lifted from the primitive integer columns: scaling f by
    c > 0 scales its row by c^2, so the rank is unchanged.
    """
    n = frame.dim
    return int_rank([lifted_row(f, n) for f in frame._int_cols]) == frame.N


def _subfamily(frame: Frame, lam: Iterable[int]) -> List[int]:
    """lam as sorted distinct frame indices; empty raises ValueError, out of range BadInput."""
    lam = sorted(set(lam))
    if not lam:
        raise ValueError("lam must be non-empty")
    if lam[0] < 0 or lam[-1] >= frame.N:
        raise BadInput(f"subfamily index out of range 0..{frame.N - 1}: {lam}")
    return lam


def _colouring(frame: Frame, lam: Sequence[int], watched: Optional[Sequence[int]]) -> Optional[IndexSet]:
    """Class A (positions in lam) of a kernel colouring of the subfamily, or None.

    Neither class spans, and when ``watched`` indices are given, one of
    them lies outside both class spans.
    """
    cols = frame._int_cols
    seen = None if watched is None else [cols[i] for i in watched]
    found = _partition([cols[j] for j in lam], seen=seen)
    return None if found is None else found.a


def _witness(
    frame: Frame, lam: Sequence[int], a: Optional[IndexSet], watched: Sequence[int] = ()
) -> Optional[S2Witness]:
    """x = u + v, y = u - v from primitive normals u of span A and v of span B (``span_of``).

    u and v are the first normals, or with watched indices the first ones
    off the first watched vector outside both spans, the
    ``differing_index``.  These are the normals, in the same order, that the
    search's tables hold.
    """
    if a is None:
        return None
    n, cols = frame.dim, frame._int_cols
    na = span_of((cols[j] for p, j in enumerate(lam) if p in a), n)
    nb = span_of((cols[j] for p, j in enumerate(lam) if p not in a), n)
    u, v, idx = na[0], nb[0], None
    for i in watched:
        off_a = next((h for h in na if sum(map(mul, h, cols[i]))), None)
        off_b = next((h for h in nb if sum(map(mul, h, cols[i]))), None)
        if off_a and off_b:
            u, v, idx = off_a, off_b, i
            break
    x = tuple(Fraction(p + q) for p, q in zip(u, v))
    y = tuple(Fraction(p - q) for p, q in zip(u, v))
    return S2Witness(x, y, idx)


def find_s2_element(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A nonzero rank-<=2 symmetric kernel element of the subfamily, or None.

    None is definitive: no such element exists.  On the whole frame the
    colouring is the failing subset of the frame's held CP proof, which is
    the same search on the same columns.
    """
    lam = _subfamily(frame, lam)
    a = frame._cp.failing if len(lam) == frame.N else _colouring(frame, lam, None)
    return _witness(frame, lam, a)


def find_s2_witness(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A rank-<=2 kernel element of the subfamily that the full frame sees.

    Returns None exactly when dropping the complement does not enlarge the
    rank-<=2 part of the kernel.  Requires a proper, non-empty subfamily.
    """
    lam = _subfamily(frame, lam)
    if len(lam) == frame.N:
        raise ValueError("lam must be a proper non-empty subset")
    comp = _without(frame.N, set(lam))
    return _witness(frame, lam, _colouring(frame, lam, comp), comp)


def has_exact_pr_redundancy(frame: Frame) -> bool:
    """True iff every single removal enlarges the rank-<=2 kernel part.

    Kernels are sandwiched along inclusions of subfamilies, so co-singleton
    failure is equivalent to failure on every proper subfamily.  For
    phase-retrievable frames this coincides with exactness, which is much
    cheaper to decide, so that path is taken first.
    """
    if has_complement_property(frame).holds:
        return is_exact_pr_frame(frame).exact
    return not any(_keeps_s2_part(frame, _without(frame.N, (i,))) for i in range(frame.N))


def pr_redundancy(frame: Frame) -> Fraction:
    """N/k for the smallest subfamily Lambda preserving the rank-<=2 kernel part.

    Preservation is monotone under inclusion, so the answer is 1 exactly
    when no co-singleton preserves, and the search runs top-down over
    removal sets.  Two facts cap how many vectors can go:

    * A preserving Lambda spans R^n: otherwise (Lambda, empty) is a kernel
      colouring, and some frame vector outside span Lambda sees it.  So k >= n.
    * On a phase-retrievable frame the rank-<=2 kernel part is {0}, so Lambda
      preserves iff Lambda is itself phase-retrievable: a colouring of Lambda
      with both class ranks <= n - 1 that no vector outside Lambda sees would
      extend to one of the whole frame.  So k >= 2n - 1.

    A phase-retrievable frame is settled by exactness (answer 1) or searched
    with the plain partition search on each kept subfamily, starting from
    the removable indices exactness already found, and at most N - (2n - 1)
    removed.  Any other frame, every one shorter than 2n - 1 among them, is
    searched with the partition search that watches the complement, and at
    most N - n removed.  Frames longer than ``REDUNDANCY_CAP`` are refused.
    """
    n, N = frame.dim, frame.N
    if N > REDUNDANCY_CAP:
        raise CapExceeded(f"N={N} exceeds exhaustive cap {REDUNDANCY_CAP}")
    watch, most, free = True, N - n, None
    if N >= 2 * n - 1:  # a shorter frame is never phase-retrievable
        exactness = is_exact_pr_frame(frame)
        if exactness.exact:
            return Fraction(1)
        if exactness.removable:
            watch, most, free = False, N - (2 * n - 1), exactness.removable
    removed = _most_removable(frame, watch, most, free)
    return Fraction(1) if removed == 0 else Fraction(N, N - removed)


def _without(N: int, removed: Sequence[int]) -> List[int]:
    return [j for j in range(N) if j not in removed]


def _keeps_s2_part(frame: Frame, kept: Sequence[int], watch: bool = True) -> bool:
    """True iff dropping the complement of ``kept`` leaves the rank-<=2 kernel part.

    ``watch=False`` tests that ``kept`` is phase-retrievable instead: the same
    on a phase-retrievable frame (``pr_redundancy``), and cheaper there.
    """
    return _colouring(frame, kept, _without(frame.N, set(kept)) if watch else None) is None


def _most_removable(frame: Frame, watch: bool, most: int, free: Optional[Sequence[int]] = None) -> int:
    """Size of the largest removal set, at most ``most``, whose complement keeps the part.

    Each complement is tested with ``_keeps_s2_part(frame, kept, watch)``.

    Every subset of a preserving removal set preserves, so only the indices
    whose single removal preserves (``free``; tested here unless given) can
    join one.  Depth-first over increasing tuples of them; a branch that
    cannot beat the best size found is cut, and the search stops at ``most``.
    """
    N = frame.N
    if most == 0:
        return 0
    if free is None:
        free = [i for i in range(N) if _keeps_s2_part(frame, _without(N, (i,)), watch)]
    best = min(len(free), 1)
    # stack entries: positions in free of a removal set one longer than a preserving one
    stack = [(p,) for p in reversed(range(len(free)))]
    while stack and best < most:
        pos = stack.pop()
        r = len(pos)
        # only positions above pos[-1] can join: can this branch beat best?
        if r + len(free) - 1 - pos[-1] <= best:
            continue
        if r > 1 and not _keeps_s2_part(frame, _without(N, [free[p] for p in pos]), watch):
            continue
        best = max(best, r)
        if r < most:
            stack.extend(pos + (p,) for p in reversed(range(pos[-1] + 1, len(free))))
    return best
