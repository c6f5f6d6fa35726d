"""Independent exact checks used to validate benchmark outputs.

Plain Gaussian elimination over ``fractions.Fraction``; nothing here imports
prframes, so a defect in the library's kernels cannot hide its own output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def rank(vectors: Iterable[Sequence]) -> int:
    """Exact rank of a family of rational vectors (0 for the empty family)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def is_failing_subset(vectors: Sequence[Sequence], n: int, subset: Iterable[int]) -> bool:
    """True when neither the subset nor its complement spans R^n."""
    inside = set(subset)
    part = [v for i, v in enumerate(vectors) if i in inside]
    rest = [v for i, v in enumerate(vectors) if i not in inside]
    return rank(part) < n and rank(rest) < n


def complement_property(vectors: Sequence[Sequence], n: int) -> bool:
    """Brute force over all subsets containing index 0 (mirror half cut)."""
    count = len(vectors)
    for mask in range(1 << (count - 1)):
        subset = [0] + [i + 1 for i in range(count - 1) if mask >> i & 1]
        if is_failing_subset(vectors, n, subset):
            return False
    return True
