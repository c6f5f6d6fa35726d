"""Rank-one lifting of a frame and exact searches in its kernel.

Lifting sends a vector f to the quadratic functional A |-> f^T A f on
symmetric matrices.  A frame is phase-retrievable exactly when the joint
kernel of these functionals meets the rank-<=2 symmetric matrices only at 0,
and every nonzero rank-<=2 element is x x^T - y y^T with x != +-y.  Put
u = (x + y)/2 and v = (x - y)/2: the quadratic at f is
<x,f>^2 - <y,f>^2 = 4 <u,f> <v,f>, and x != +-y means u != 0 and v != 0.  So
the element vanishes on a subfamily exactly when every member is orthogonal
to u or to v: it is a 2-colouring (A, B) of the subfamily with u normal to
span A and v normal to span B, which exists iff both classes have rank
<= n - 1.  This is the complement-property argument of Balan, Casazza and
Edidin ("On signal reconstruction without phase", 2006).  Both searches
below are the pruned partition search of ``frames`` on that colouring:

* ``find_s2_element`` is ``_partition(cols, n - 1)`` on the subfamily, with
  u and v taken from the normals of the two class spans;
* ``find_s2_witness`` also needs a frame vector f_i outside the subfamily
  with <u,f_i> <v,f_i> != 0, that is, outside both class spans.  Its search
  carries the complement indices still outside both spans and prunes a
  branch when none are left.

Both are exact and complete, and every witness they return is integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded
from .frames import Frame, _partition, is_exact_pr_frame, has_complement_property
from .ratlin import extend_span, int_rank, off_span, span_normals, span_of


def sym_pairs(n: int) -> List[Tuple[int, int]]:
    """Coordinate order for symmetric matrices: diagonal first, then a < b."""
    return [(a, a) for a in range(n)] + list(itertools.combinations(range(n), 2))


def lifted_row(f: Sequence[Fraction], n: int) -> Tuple[Fraction, ...]:
    """Row representing A |-> f^T A f; off-diagonal slots carry the factor 2."""
    row = [f[a] * f[a] for a in range(n)]
    row += [2 * f[a] * f[b] for a, b in itertools.combinations(range(n), 2)]
    return tuple(row)


def vech(x: Sequence[Fraction], y: Sequence[Fraction], n: int) -> Tuple[Fraction, ...]:
    """Upper-triangle coordinates of x (x)^T - y (y)^T in sym_pairs order."""
    return tuple(x[a] * x[b] - y[a] * y[b] for a, b in sym_pairs(n))


@dataclass(frozen=True)
class S2Witness:
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


def _witness(u: Sequence[int], v: Sequence[int], idx: Optional[int]) -> S2Witness:
    """x = u + v, y = u - v: the quadratic at f is 4 <u,f> <v,f>."""
    x = tuple(Fraction(a + b) for a, b in zip(u, v))
    y = tuple(Fraction(a - b) for a, b in zip(u, v))
    return S2Witness(x, y, idx)


def find_s2_element(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A nonzero rank-<=2 symmetric kernel element of the subfamily, or None.

    None is definitive: no such element exists.
    """
    lam = sorted(set(lam))
    if not lam:
        raise ValueError("lam must be non-empty")
    n, cols = frame.dim, frame._int_cols
    sub = [cols[j] for j in lam]
    found = _partition(sub, n - 1)
    if found is None:
        return None
    a = found.a
    # both classes have rank <= n - 1, so each span keeps a nonzero normal
    u = span_of((c for j, c in enumerate(sub) if j in a), n)[0]
    v = span_of((c for j, c in enumerate(sub) if j not in a), n)[0]
    return _witness(u, v, None)


def find_s2_witness(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A rank-<=2 kernel element of the subfamily that the full frame sees.

    Returns None exactly when dropping the complement does not enlarge the
    rank-<=2 part of the kernel.  Requires a proper, non-empty subfamily.

    The search is ``frames._partition``'s over the subfamily, with "some
    complement vector lies outside both class spans" in place of the rank
    bound.  Adding a column to a class only shrinks the set of such
    vectors, so the dominance rule and the pin of the first column to A
    lose no answer, and a branch dies once the set is empty.
    """
    lam = sorted(set(lam))
    n, N = frame.dim, frame.N
    if not lam or len(lam) >= N:
        raise ValueError("lam must be a proper non-empty subset")
    cols = frame._int_cols
    inside = set(lam)

    def outside(normals, live):
        return tuple(i for i in live if off_span(normals, cols[i]) is not None)

    empty = span_normals(n)
    start_a = span_of([cols[lam[0]]], n)
    # B starts empty, so this drops exactly the zero columns and those in span A
    live = outside(start_a, (i for i in range(N) if i not in inside))
    if not live:
        return None
    # stack entries: (next position in lam, normals of A, normals of B,
    # complement indices outside both spans)
    stack = [(1, start_a, empty, live)]
    while stack:
        p, na, nb, live = stack.pop()
        if p == len(lam):
            f = cols[live[0]]
            ka, kb = off_span(na, f)[0], off_span(nb, f)[0]
            return _witness(na[ka], nb[kb], live[0])
        col = cols[lam[p]]
        off_a = off_span(na, col)
        if off_a is None:
            stack.append((p + 1, na, nb, live))
            continue
        off_b = off_span(nb, col)
        if off_b is None:
            stack.append((p + 1, na, nb, live))
            continue
        grown = extend_span(na, col, off_a)
        keep = outside(grown, live)
        if keep:
            stack.append((p + 1, grown, nb, keep))
        grown = extend_span(nb, col, off_b)
        keep = outside(grown, live)
        if keep:
            stack.append((p + 1, na, grown, keep))
    return None


def has_exact_pr_redundancy(frame: Frame) -> bool:
    """True iff every single removal enlarges the rank-<=2 kernel part.

    Kernels are sandwiched along inclusions of subfamilies, so co-singleton
    failure is equivalent to failure on every proper subfamily.  For
    phase-retrievable frames this coincides with exactness, which is much
    cheaper to decide, so that path is taken first.
    """
    if has_complement_property(frame).holds:
        return is_exact_pr_frame(frame).exact
    for i in range(frame.N):
        lam = [j for j in range(frame.N) if j != i]
        if find_s2_witness(frame, lam) is None:
            return False
    return True


def pr_redundancy(frame: Frame, max_n: int = 16) -> Fraction:
    """N/k for the smallest subfamily preserving the rank-<=2 kernel part.

    Preservation is monotone under inclusion, so exactness (no co-singleton
    preserves) settles the answer at 1 without scanning all subsets.
    Otherwise some co-singleton preserves, so the scan stops at size N - 2
    and the answer is N/(N - 1) when no smaller subfamily preserves.
    """
    if frame.N > max_n:
        raise CapExceeded(f"N={frame.N} exceeds exhaustive cap {max_n}")
    if has_exact_pr_redundancy(frame):
        return Fraction(1)
    for k in range(1, frame.N - 1):
        for lam in itertools.combinations(range(frame.N), k):
            if find_s2_witness(frame, lam) is None:
                return Fraction(frame.N, k)
    return Fraction(frame.N, frame.N - 1)
