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
  u and v taken from the normals of the two class spans; on the whole
  frame that search is the CP proof held on the ``Frame``, so it is read;
* ``find_s2_witness`` also needs a frame vector f_i outside the subfamily
  with <u,f_i> <v,f_i> != 0, that is, outside both class spans.  Its search
  carries the complement indices still outside both spans and prunes a
  branch when none are left.

Both are exact and complete, and every witness they return is integral.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapExceeded
from .frames import Frame, _partition, is_exact_pr_frame, has_complement_property
from .ratlin import IntVec, extend_span, int_rank, off_span, span_normals, span_of


def lifted_row(f: Sequence[Fraction], n: int) -> Tuple[Fraction, ...]:
    """Row representing A |-> f^T A f; off-diagonal slots carry the factor 2."""
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


def _witness(u: Sequence[int], v: Sequence[int], idx: Optional[int]) -> S2Witness:
    """x = u + v, y = u - v: the quadratic at f is 4 <u,f> <v,f>."""
    x = tuple(Fraction(a + b) for a, b in zip(u, v))
    y = tuple(Fraction(a - b) for a, b in zip(u, v))
    return S2Witness(x, y, idx)


def find_s2_element(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A nonzero rank-<=2 symmetric kernel element of the subfamily, or None.

    None is definitive: no such element exists.  On the whole frame the
    colouring is the failing subset of the frame's held CP proof, which is
    the same search on the same columns.
    """
    lam = sorted(set(lam))
    if not lam:
        raise ValueError("lam must be non-empty")
    n, cols = frame.dim, frame._int_cols
    sub = [cols[j] for j in lam]
    if lam == list(range(frame.N)):
        a = frame._cp.failing
    else:
        found = _partition(sub, n - 1)
        a = None if found is None else found.a
    if a is None:
        return None
    # both classes have rank <= n - 1, so each span keeps a nonzero normal
    u = span_of((c for j, c in enumerate(sub) if j in a), n)[0]
    v = span_of((c for j, c in enumerate(sub) if j not in a), n)[0]
    return _witness(u, v, None)


def find_s2_witness(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A rank-<=2 kernel element of the subfamily that the full frame sees.

    Returns None exactly when dropping the complement does not enlarge the
    rank-<=2 part of the kernel.  Requires a proper, non-empty subfamily.
    """
    found = _seen_colouring(frame, lam)
    return None if found is None else _witness(*found)


def _seen_colouring(frame: Frame, lam: Iterable[int]) -> Optional[Tuple[IntVec, IntVec, int]]:
    """(u, v, i): normals of the two class spans and the complement index they see.

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
            return na[ka], nb[kb], live[0]
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
    return not any(_keeps_s2_part(frame, _without(frame.N, (i,))) for i in range(frame.N))


def pr_redundancy(frame: Frame, max_n: int = 16) -> Fraction:
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
    with the partition search on each kept subfamily, starting from the
    removable indices exactness already found, and at most N - (2n - 1)
    removed.  Any other frame, every one shorter than 2n - 1 among them, is
    searched with the seen-colouring test and at most N - n removed.
    """
    n, N = frame.dim, frame.N
    if N > max_n:
        raise CapExceeded(f"N={N} exceeds exhaustive cap {max_n}")
    keeps, most, free = _keeps_s2_part, N - n, None
    if N >= 2 * n - 1:  # a shorter frame is never phase-retrievable
        exactness = is_exact_pr_frame(frame)
        if exactness.exact:
            return Fraction(1)
        if exactness.removable:
            keeps, most, free = _is_pr_subfamily, N - (2 * n - 1), exactness.removable
    removed = _most_removable(frame, keeps, most, free)
    return Fraction(1) if removed == 0 else Fraction(N, N - removed)


def _without(N: int, removed: Sequence[int]) -> List[int]:
    return [j for j in range(N) if j not in removed]


def _keeps_s2_part(frame: Frame, kept: Sequence[int]) -> bool:
    """True iff dropping the complement of ``kept`` leaves the rank-<=2 kernel part."""
    return _seen_colouring(frame, kept) is None


def _is_pr_subfamily(frame: Frame, kept: Sequence[int]) -> bool:
    cols = frame._int_cols
    return _partition([cols[j] for j in kept], frame.dim - 1) is None


def _most_removable(
    frame: Frame,
    keeps: Callable[[Frame, Sequence[int]], bool],
    most: int,
    free: Optional[Sequence[int]] = None,
) -> int:
    """Size of the largest removal set, at most ``most``, whose complement ``keeps``.

    Every subset of a preserving removal set preserves, so only the indices
    whose single removal preserves (``free``; tested here unless given) can
    join one.  Depth-first over increasing tuples of them; a branch that
    cannot beat the best size found is cut, and the search stops at ``most``.
    """
    N = frame.N
    if most == 0:
        return 0
    if free is None:
        free = [i for i in range(N) if keeps(frame, _without(N, (i,)))]
    best = min(len(free), 1)
    # stack entries: positions in free of a removal set one longer than a preserving one
    stack = [(p,) for p in reversed(range(len(free)))]
    while stack and best < most:
        pos = stack.pop()
        r = len(pos)
        # only positions above pos[-1] can join: can this branch beat best?
        if r + len(free) - 1 - pos[-1] <= best:
            continue
        if r > 1 and not keeps(frame, _without(N, [free[p] for p in pos])):
            continue
        best = max(best, r)
        if r < most:
            stack.extend(pos + (p,) for p in reversed(range(pos[-1] + 1, len(free))))
    return best
