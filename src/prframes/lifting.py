"""Rank-one lifting of a frame and exact searches in its kernel.

Lifting sends a vector f to the quadratic functional A |-> f^T A f on
symmetric matrices.  A frame is phase-retrievable exactly when the joint
kernel of these functionals meets the rank-<=2 symmetric matrices only at 0,
and the witnesses of failure all have the form x (x)^T - y (y)^T.  The
searches below are complete and exact:

* a rank-2 definite kernel element forces both generators orthogonal to the
  selected subfamily, so a rank-one element from the orthogonal complement
  exists as well -- that case is a single nullspace computation;
* everything else satisfies <x, f_j> = eps_j <y, f_j> for a sign vector eps,
  so a scan over sign patterns (first sign pinned to +1) with one linear
  solve each covers it.

Zero testing of the residual quadratics is symbolic (congruence transform of
the coefficient matrix restricted to the solution space), never sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded
from .frames import Frame, is_exact_pr_frame, has_complement_property
from .ratlin import RatMatrix, IntVec, int_nullspace, rank


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
class LiftedSystem:
    """The N x n(n+1)/2 matrix of the lifted analysis operator."""

    frame: Frame
    matrix: RatMatrix

    @property
    def kernel_dim(self) -> int:
        return self.matrix.cols - rank(self.matrix)


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


def lifted_operator(frame: Frame) -> LiftedSystem:
    rows = tuple(lifted_row(v, frame.dim) for v in frame.vectors)
    return LiftedSystem(frame, RatMatrix(frame.N, len(rows[0]), rows))


def lifted_independent(frame: Frame) -> bool:
    """True iff the lifted vectors are linearly independent."""
    return rank(lifted_operator(frame).matrix) == frame.N


# ---------------------------------------------------------------------------
# Sign-pattern search machinery.
# ---------------------------------------------------------------------------


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _flip_sets(rest: Sequence[int]):
    """Flip subsets ordered by size; witnesses tend to need few sign flips."""
    for r in range(len(rest) + 1):
        yield from itertools.combinations(rest, r)


def _sign_rows(cols: Sequence[IntVec], lam: Sequence[int], flips) -> List[Tuple[int, ...]]:
    flipped = set(flips)
    rows = []
    for j in lam:
        eps = -1 if j in flipped else 1
        rows.append(tuple(cols[j]) + tuple(-eps * t for t in cols[j]))
    return rows


def _solution_bases(frame: Frame, lam: Sequence[int]):
    """Integer bases of the candidate spaces of pairs (x, y), one at a time.

    If some u != 0 is orthogonal to the whole subfamily, the only space is
    span{(u, 0)} and the scan ends there.  Otherwise each sign pattern eps
    (first sign pinned to +1) gives {(x, y) : <x, f_j> = eps_j <y, f_j>};
    empty solution bases are skipped.
    """
    n, cols = frame.dim, frame._int_cols
    perp = int_nullspace([cols[j] for j in lam], n)
    if perp:
        yield [tuple(perp[0]) + (0,) * n]
        return
    for flips in _flip_sets(lam[1:]):
        basis = int_nullspace(_sign_rows(cols, lam, flips), 2 * n)
        if basis:
            yield basis


def _witness_from(v: Sequence[int], n: int, idx: Optional[int]) -> S2Witness:
    return S2Witness(tuple(Fraction(a) for a in v[:n]), tuple(Fraction(a) for a in v[n:]), idx)


def find_s2_element(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A nonzero rank-<=2 symmetric kernel element of the subfamily, or None.

    None is definitive: no such element exists.
    """
    lam = sorted(set(lam))
    if not lam:
        raise ValueError("lam must be non-empty")
    n = frame.dim

    def in_same(v):
        return v[:n] == v[n:]

    def in_anti(v):
        return all(a == -b for a, b in zip(v[:n], v[n:]))

    for basis in _solution_bases(frame, lam):
        # some v in the solution space avoids both x=y and x=-y unless the
        # whole space lies in one of them
        v1 = next((v for v in basis if not in_same(v)), None)
        v2 = next((v for v in basis if not in_anti(v)), None)
        if v1 is None or v2 is None:
            continue
        if not in_anti(v1):
            pick = v1
        elif not in_same(v2):
            pick = v2
        else:
            pick = tuple(a + b for a, b in zip(v1, v2))
        return _witness_from(pick, n, None)
    return None


def find_s2_witness(frame: Frame, lam: Iterable[int]) -> Optional[S2Witness]:
    """A rank-<=2 kernel element of the subfamily that the full frame sees.

    Returns None exactly when dropping the complement does not enlarge the
    rank-<=2 part of the kernel.  Requires a proper, non-empty subfamily.
    """
    lam = sorted(set(lam))
    n, N = frame.dim, frame.N
    if not lam or len(lam) >= N:
        raise ValueError("lam must be a proper non-empty subset")
    comp = [i for i in range(N) if i not in set(lam)]
    cols = frame._int_cols
    for basis in _solution_bases(frame, lam):
        d = len(basis)
        for i in comp:
            f = cols[i]
            p = [_dot(v[:n], f) for v in basis]
            q = [_dot(v[n:], f) for v in basis]
            pick = None
            for a in range(d):
                if p[a] * p[a] - q[a] * q[a] != 0:
                    pick = basis[a]
                    break
            if pick is None:
                for a in range(d):
                    for b in range(a + 1, d):
                        if p[a] * p[b] - q[a] * q[b] != 0:
                            pick = tuple(s + t for s, t in zip(basis[a], basis[b]))
                            break
                    if pick is not None:
                        break
            if pick is not None:
                return _witness_from(pick, n, i)
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
    """
    if frame.N > max_n:
        raise CapExceeded(f"N={frame.N} exceeds exhaustive cap {max_n}")
    if has_exact_pr_redundancy(frame):
        return Fraction(1)
    for k in range(1, frame.N):
        for lam in itertools.combinations(range(frame.N), k):
            if find_s2_witness(frame, lam) is None:
                return Fraction(frame.N, k)
    return Fraction(frame.N, frame.N)
