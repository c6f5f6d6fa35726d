"""Embedded regression instances.

Six explicit integer matrices (one per length 10..15 in R^5) that are exact
phase-retrievable frames, a small R^3 frame with largest PR-subspace
dimension 2 together with hand-picked removal witnesses, and a maximal
2-dimensional PR subspace of R^4.  These are frozen inputs for the
regression suite; nothing here is recomputed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .frames import Frame
from .lifting import S2Witness
from .ratlin import identity
from .subspaces import Subspace

# Extra columns appended to the 5x5 identity; key is the total length N.
_EXTRA_COLUMNS: Dict[int, List[Tuple[int, ...]]] = {
    10: [
        (6, 13, 7, 16, 0),
        (4, 10, 7, 0, 4),
        (2, 8, 0, 8, 12),
        (11, 0, 9, 30, 14),
        (0, 3, 8, 13, 18),
    ],
    11: [
        (5, 18, 0, 0, 0),
        (0, 0, 23, 8, 0),
        (3, 14, 5, 0, 3),
        (35, 27, 0, 14, 30),
        (7, 0, 1, 7, 3),
        (0, 2, 14, 14, 14),
    ],
    12: [
        (7, 4, 0, 0, 0),
        (0, 0, 16, 1, 0),
        (10, 7, 2, 0, 12),
        (10, 16, 0, 23, 2),
        (11, 0, 2, 3, 11),
        (0, 15, 3, 0, 0),
        (0, 0, 0, 9, 2),
    ],
    13: [
        (6, 6, 0, 0, 0),
        (0, 0, 9, 16, 0),
        (4, 8, 5, 0, 7),
        (12, 5, 0, 6, 6),
        (16, 0, 0, 1, 0),
        (0, 0, 11, 0, 10),
        (0, 15, 12, 0, 0),
        (0, 0, 0, 8, 9),
    ],
    14: [
        (11, 5, 0, 0, 0),
        (0, 0, 3, 17, 0),
        (20, 0, 6, 0, 0),
        (0, 1, 0, 0, 1),
        (16, 16, 0, 8, 2),
        (4, 0, 0, 8, 0),
        (0, 0, 13, 0, 1),
        (0, 4, 8, 0, 0),
        (0, 0, 0, 4, 3),
    ],
    15: [
        (12, 17, 0, 0, 0),
        (0, 0, 1, 3, 0),
        (4, 0, 8, 0, 0),
        (0, 3, 0, 0, 3),
        (7, 0, 0, 0, 1),
        (0, 10, 0, 1, 0),
        (13, 0, 0, 15, 0),
        (0, 0, 12, 0, 13),
        (0, 2, 17, 0, 0),
        (0, 0, 0, 2, 18),
    ],
}


def curated_exact_frame(N: int) -> Frame:
    """The embedded exact PR frame of length N in R^5 (N in 10..15)."""
    return Frame.from_vectors([*identity(5), *_EXTRA_COLUMNS[N]], dim=5)


def curated_exact_frames() -> Dict[int, Frame]:
    return {N: curated_exact_frame(N) for N in sorted(_EXTRA_COLUMNS)}


def r3_example_frame() -> Frame:
    """{e1, e2, e3, e1+e2, e1+e2+e3}: largest PR-subspace dimension 2, redundancy 1."""
    return Frame.from_vectors(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)], dim=3
    )


def r3_example_witnesses() -> Dict[int, S2Witness]:
    """Removal witnesses for the R^3 example, keyed by removed index.

    Each pair (x, y) has equal quadratic values on the four retained vectors
    and differs on the removed one.  Index 0 is left to the witness search
    (no curated pair is stored for it).
    """

    def w(x, y, i):
        return S2Witness(
            tuple(Fraction(t) for t in x), tuple(Fraction(t) for t in y), i
        )

    return {
        1: w((1, 2, 0), (-1, 4, 0), 1),
        2: w((1, 0, 1), (1, 0, -3), 2),
        3: w((1, 1, -1), (1, -1, 1), 3),
        4: w((1, 0, 1), (1, 0, -1), 4),
    }


def r4_example_subspace() -> Subspace:
    """span{e1+e2+e3, e1-e2+e4}: maximal 2-dim PR subspace w.r.t. the standard basis."""
    return Subspace.from_vectors([(1, 1, 1, 0), (1, -1, 0, 1)], ambient_dim=4)


def r4_standard_basis() -> Frame:
    return Frame.from_vectors(identity(4), dim=4)
