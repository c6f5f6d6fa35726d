"""Generators for exact PR frames and related certified constructions.

The pattern calculus starts from a fixed 3x6 zero/nonzero mask and grows it
with three steps that add one dimension and n+1, n, or 2 columns.  Chaining
steps reaches every (n, N) with 2n <= N <= n(n+1)/2, and ``plan`` picks the
chain by a rule.  Each step builds its output directly: a valid input gives
a valid output (each step's docstring holds the proof), so a step checks
only its input.  Step III's chain columns and every row's representatives
are bipartite matchings (``_matching``), and its tail is its first
candidate.  Length 2n-1 is covered by a dense integer draw, exact
precisely when full spark.
Either way the free cells are drawn as uniform integers and the frame is
certified by one exactness check in exact arithmetic; a failed draw (a
measure-zero event at integer scale) is retried with a derived seed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    NotAFrame,
    NotPRSubspace,
    OutOfRange,
    PatternViolation,
    RetriesExhausted,
)
from .frames import Frame, is_exact_pr_frame, is_full_spark
from .ratlin import (
    DEFAULT_RANGE_MAX,
    RETRIES,
    Seed,
    derive_seed,
    identity,
    sample_int_matrix,
    sample_pattern,
    solve,
)

# subspaces loads inside the one generator that uses it, so that
# `prframes gen --kind exact` and `--kind dmax` do not import it


class PatternMatrix(NamedTuple):
    """Zero/nonzero mask; its identity columns are the cells pinned to 1.

    The mask is n rows of N cells.  Structural invariants (checked by
    :meth:`validate`):

    * contains the full identity as a column submatrix,
    * every non-identity column has at least one zero and two nonzeros,
    * every row has exactly n nonzero cells,
    * for each row i there is a system of distinct representatives: columns
      j_1..j_n with cells (i, j_l) and (l, j_l) both nonzero.
    """

    mask: Tuple[Tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.mask)

    @property
    def N(self) -> int:
        return len(self.mask[0])

    def col_nonzeros(self, j: int) -> List[int]:
        return [i for i in range(self.n) if self.mask[i][j]]

    def identity_columns(self) -> Optional[List[int]]:
        """Column index of e_i for each i, or None if some e_i is missing.

        e_i is the first column whose one nonzero cell is in row i; under the
        second invariant no other column has a single nonzero.
        """
        cols = [self.col_nonzeros(j) for j in range(self.N)]
        try:
            return [cols.index([i]) for i in range(self.n)]
        except ValueError:
            return None

    def validate(self) -> None:
        if not self.mask or len(set(map(len, self.mask))) != 1:
            raise PatternViolation("shape", "mask must be a nonempty rectangle")
        id_cols = self.identity_columns()
        if id_cols is None:
            raise PatternViolation("P1", "identity submatrix missing")
        idset = set(id_cols)
        for j in range(self.N):
            if j in idset:
                continue
            nz = self.col_nonzeros(j)
            if len(nz) < 2 or len(nz) == self.n:
                raise PatternViolation("P2", f"column {j}")
        for i in range(self.n):
            if sum(self.mask[i]) != self.n:
                raise PatternViolation("P3", f"row {i} has {sum(self.mask[i])} nonzeros")
        for i in range(self.n):
            if self.sdr_for_row(i) is None:
                raise PatternViolation("P4", f"row {i}")

    def sdr_for_row(self, i: int) -> Optional[Dict[int, int]]:
        """Row -> column representatives for row i, if a full system exists.

        Rows l are matched to distinct columns j with cells (i, j) and (l, j)
        both nonzero (``_matching``).
        """
        cand_cols = [j for j in range(self.N) if self.mask[i][j]]
        return _matching({l: [j for j in cand_cols if self.mask[l][j]] for l in range(self.n)})

    def permute_columns(self, order: Sequence[int]) -> "PatternMatrix":
        return PatternMatrix(tuple(tuple(row[j] for j in order) for row in self.mask))

    def normalized(self) -> "PatternMatrix":
        """Identity columns first (in row order), remaining columns in order."""
        id_cols = self.identity_columns()
        if id_cols is None:
            raise PatternViolation("P1", "identity submatrix missing")
        rest = [j for j in range(self.N) if j not in set(id_cols)]
        return self.permute_columns(list(id_cols) + rest)


class ConstructionPlan(NamedTuple):
    """Derivation path from the 3x6 base mask to a target (n, N)."""

    steps: Tuple[str, ...]  # "base36" followed by "step_I" / "step_II" / "step_III"


class CertifiedFrame(NamedTuple):
    """A generated frame together with its verification certificate."""

    frame: Frame
    certificate: Dict


def base_pattern_36() -> PatternMatrix:
    """The 3x6 seed mask: identity block, then three 2-nonzero columns."""
    mask = (
        (True, False, False, True, True, False),
        (False, True, False, True, False, True),
        (False, False, True, False, True, True),
    )
    p = PatternMatrix(mask)
    p.validate()
    return p


def _step_input(a: PatternMatrix) -> PatternMatrix:
    # the steps' proofs need n >= 3; below it the only valid mask is 1x1
    a.validate()
    if a.n < 3:
        raise PatternViolation("shape", f"a step needs n >= 3 rows, got {a.n}")
    return a


def step_I(a: PatternMatrix) -> PatternMatrix:
    """(n, N) -> (n+1, N+n+1): one fresh free column per old row, plus e_{n+1}.

    A valid input gives a valid output.  P1-P3 by counting: old row i and
    the new row share fresh column N+i, and the new row adds e_{n+1}.  P4:
    the new row takes column N+l for row l and e_{n+1} for itself; an old
    row keeps its system and takes its fresh column for the new row.
    """
    n, N = _step_input(a).n, a.N
    rows = [tuple(row) + tuple(j == i for j in range(n + 1)) for i, row in enumerate(a.mask)]
    rows.append((False,) * N + (True,) * (n + 1))
    return PatternMatrix(tuple(rows)).normalized()


def step_II(a: PatternMatrix) -> PatternMatrix:
    """(n, N) -> (n+1, N+n): splice the first free column through the new row.

    sp, column n once normalized, has a zero and a nonzero (P2); its first
    zero row and first nonzero row become rows 0 and 1, and it moves last.
    Fresh column N is nonzero in rows 0 and 1, column N+i-1 in row i >= 2,
    and the new row is sp, those columns and e_{n+1}.  A valid input gives
    a valid output.  P1-P3 by counting (column N has a zero as n >= 3).
    P4: the new row takes column N for row 0, sp for row 1, column N+i-1
    for row i and e_{n+1} for itself; an old row keeps its system and
    takes its fresh column for the new row.
    """
    a = _step_input(a).normalized()
    n, N = a.n, a.N
    splice = [row[n] for row in a.mask]
    r0, r1 = splice.index(False), splice.index(True)
    cols = [j for j in range(N) if j != n] + [n]
    rows = [
        tuple(a.mask[r][j] for j in cols) + tuple(j == max(i - 1, 0) for j in range(n))
        for i, r in enumerate([r0, r1] + [r for r in range(n) if r not in (r0, r1)])
    ]
    rows.append((False,) * (N - 1) + (True,) * (n + 1))
    return PatternMatrix(tuple(rows)).normalized()


def step_III(a: PatternMatrix) -> PatternMatrix:
    """(n, N) -> (n+1, N+2): rearrange so the tail columns chain through row n.

    The tail is a free column zero in row n-1, and chain column i (0 < i < n)
    a free column nonzero in rows i-1 and n-1, all distinct.  Row n-1's
    representative system gives a chain, and a tail exists as P2 and P3
    force N >= 2n.  Chain columns are nonzero in row n-1 and a tail is
    zero there, so any tail goes with any chain: the first tail candidate
    and the chain of ``_first_matching``.  Fresh column N is nonzero in
    every old row, and the new row is the chain, the tail and e_{n+1}.
    A valid input gives a valid output.  P1-P3 by counting.  P4: for the
    new row, row i-1 takes chain column i, except that a row t takes the
    tail (nonzero off row n-1) and row n-1 takes chain column t+1.  Old row
    i takes chain column i+1 (any, if i = n-1) for the new row and moves
    the row it displaces to column N.
    """
    a = _step_input(a).normalized()
    n, N = a.n, a.N
    free_cols = range(n, N)
    # position N-1 (0-based): zero in row n-1, >=2 nonzeros (P2 grants the latter)
    tail_cands = [j for j in free_cols if not a.mask[n - 1][j]]
    # positions N-1-i need mask[i-1] and mask[n-1] nonzero (1 <= i <= n-1)
    chain_cands = {
        i: [j for j in free_cols if a.mask[i - 1][j] and a.mask[n - 1][j]]
        for i in range(1, n)
    }
    tail_col, chain = tail_cands[0], _first_matching(chain_cands)
    used = {tail_col} | set(chain.values())
    middle = [j for j in free_cols if j not in used]
    order = [*range(n), *middle, *(chain[i] for i in range(n - 1, 0, -1)), tail_col]
    a = a.permute_columns(order)
    rows = [row + (True, False) for row in a.mask]  # column N+1 free in rows 1..n
    # row n+1 free under the last n old columns
    rows.append((False,) * (N - n) + (True,) * n + (False, True))
    return PatternMatrix(tuple(rows)).normalized()


def _first_matching(cands: Dict[int, Sequence[int]]) -> Dict[int, int]:
    """The lexicographically first matching, keys fewest candidates first; one must exist.

    Each key takes its first free column after which ``_matching`` can
    still place the later keys.
    """
    keys = sorted(cands, key=lambda i: len(cands[i]))
    chosen: Dict[int, int] = {}
    for pos, i in enumerate(keys):
        used = set(chosen.values())
        for j in (j for j in cands[i] if j not in used):
            taken = used | {j}
            later = {k: [c for c in cands[k] if c not in taken] for k in keys[pos + 1 :]}
            if _matching(later) is not None:
                chosen[i] = j
                break
    return chosen


def _matching(cands: Dict[int, Sequence[int]]) -> Optional[Dict[int, int]]:
    """Distinct columns, one of its candidates per key, or None if there are none.

    Kuhn's augmenting paths: keys are placed in order, each trying its
    candidates in order; a taken column is freed when its key can move on.
    """
    owner: Dict[int, int] = {}  # column -> key

    def augment(k: int, seen: set) -> bool:
        for j in cands[k]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = k
                    return True
        return False

    if not all(augment(k, set()) for k in cands):
        return None
    return {k: j for j, k in owner.items()}


_STEP_FNS = {"step_I": step_I, "step_II": step_II, "step_III": step_III}


def plan(n: int, N: int) -> ConstructionPlan:
    """A derivation of (n, N), read backwards: each step undoes the first in range of III, II, I.

    The first always leads back to (3, 6), as every in-range target has one:
    for n >= 5, (n-1, N-2) or (n-1, N-n) is, as (n-2)(n-5) >= 0; n = 4 by inspection.
    """
    if n < 3 or N < 2 * n or N > n * (n + 1) // 2:
        raise OutOfRange(f"no pattern target (n={n}, N={N})")
    steps, m, M = [], n, N
    while m > 3:
        undo = (("step_III", M - 2), ("step_II", M - m + 1), ("step_I", M - m))
        step, M = next(u for u in undo if 2 * (m - 1) <= u[1] <= (m - 1) * m // 2)
        steps.append(step)
        m -= 1
    return ConstructionPlan(("base36", *reversed(steps)))


def build_pattern(p: ConstructionPlan) -> PatternMatrix:
    return _pattern(p.steps)


@lru_cache(maxsize=None)
def _pattern(steps: Tuple[str, ...]) -> PatternMatrix:
    # one build per derivation prefix; PatternMatrix is frozen, so callers
    # share it, and there are as many prefixes as admissible plans
    if len(steps) == 1:
        return base_pattern_36()
    return _STEP_FNS[steps[-1]](_pattern(steps[:-1]))


@lru_cache(maxsize=256)
def _unit_columns(mask: Tuple[Tuple[bool, ...], ...]) -> Tuple[Optional[Tuple[int, ...]], ...]:
    # e_i for each column whose one nonzero cell is in row i, else None; read
    # once per mask, not on every draw
    return tuple(tuple(map(int, m)) if sum(m) == 1 else None for m in zip(*mask))


def instantiate(pat: PatternMatrix, range_max: int, seed: Seed) -> Frame:
    """Draw every nonzero cell, set the identity columns to e_i, return the column frame."""
    cols = zip(*sample_pattern(pat.mask, range_max, seed))
    return Frame.from_vectors(
        (col if e is None else e for col, e in zip(cols, _unit_columns(pat.mask))), dim=pat.n
    )


def generate_exact_pr(
    n: int, N: int, seed: Seed, range_max: int = DEFAULT_RANGE_MAX
) -> CertifiedFrame:
    """A certified exact PR frame of length N in R^n, any admissible N.

    Length 2n-1 draws a dense integer matrix; longer frames instantiate a
    derivation of the pattern calculus.  Only the draw differs: one exactness
    check certifies both.  At length 2n-1 it also proves full spark: an
    n-subset's complement has only n-1 vectors, so there the complement
    property means that every n-subset spans.  So the CP proof of a dense
    draw reads the C(2n-1, n) - 1 square minors beside its leading n columns
    once each, mod a prime below 2^30 (``ratlin.full_spark_residue``), with
    no partition search, and exactness then follows by counting.
    """
    if n < 1 or N < 2 * n - 1 or N > n * (n + 1) // 2:
        raise OutOfRange(f"exact PR frames require 2n-1 <= N <= n(n+1)/2, got (n={n}, N={N})")
    if range_max < 2:
        raise OutOfRange(f"range_max must be >= 2, got {range_max}")
    if N == 2 * n - 1:
        steps, what = ["full_spark"], "full-spark sampling"
        draw = lambda s: Frame.from_vectors(zip(*sample_int_matrix(n, N, range_max, s)), dim=n)
    else:
        p = plan(n, N)
        steps, what, pat = list(p.steps), "pattern instantiation", build_pattern(p)
        draw = lambda s: instantiate(pat, range_max, s)
    for attempt in range(RETRIES + 1):
        try:
            frame = draw(derive_seed(seed, attempt))
        except NotAFrame:  # a dense draw that does not span
            continue
        if is_exact_pr_frame(frame).exact:
            return CertifiedFrame(
                frame,
                {"exact_pr": True, "d": n, "plan": steps, "seed": seed, "retries": attempt},
            )
    raise RetriesExhausted(f"{what} failed for (n={n}, N={N})")


def compose_direct_sum(f1: Frame, f2: Frame) -> Frame:
    """Embed f1 in the leading and f2 in the trailing coordinates, concatenate."""
    k, m = f1.dim, f2.dim
    vecs = [v + (0,) * m for v in f1._rows] + [(0,) * k + v for v in f2._rows]
    return Frame.from_vectors(vecs, dim=k + m)


def _as_identity_leading(cf: CertifiedFrame) -> Frame:
    """Similar frame whose first k vectors are the standard basis.

    Exactness and PR-redundancy are invariant under an invertible change of
    coordinates, so the certificate carries over.  The first k vectors of a
    certified exact frame are always independent, so ``solve`` never
    refuses them: a pattern frame leads with e_1..e_k (every step ends
    normalized and ``instantiate`` pins those columns), and a certified
    frame of length 2k - 1 is full spark.
    """
    n = cf.frame.dim
    rows = tuple(zip(*cf.frame._rows))
    return Frame.from_vectors(zip(*solve([r[:n] for r in rows], rows)), dim=n)


def _redundancy_component(dim: int, length: int, seed: Seed) -> Frame:
    """A frame for R^dim of the given length with the exact-redundancy property.

    Lengths of at least 2*dim-1 use the exact PR generator.  Shorter lengths
    (down to dim) cannot be phase-retrievable; there a full-spark sample is
    drawn, and full spark is the certificate.  Write n = dim, N = length.
    Exact redundancy asks that every single removal enlarges the rank-<=2
    kernel part, that is, that for each i the rest has a 2-colouring (A, B)
    with f_i outside span A and outside span B.  Split the N - 1 <= 2n - 3
    other vectors into A of n - 1 vectors and B of the remaining
    N - n <= n - 2.  Under full spark any n or fewer vectors are
    independent, so A + f_i and B + f_i both are, and f_i lies in neither
    span.
    """
    if length >= 2 * dim - 1:
        return generate_exact_pr(dim, length, seed).frame
    failure = f"short component ({dim}, {length}) failed to certify"
    return _full_spark_draw((), dim, length, seed, 57, failure)


def generate_with_dmax(n: int, k: int, N: int, seed: Seed) -> CertifiedFrame:
    """A certified frame with largest PR-subspace dimension k and redundancy 1.

    Lengths up to k(k+1)/2 plant an exact PR frame for a k-dimensional slice
    and tilt its tail vectors out of the slice; the slice projection of the
    result is exactly that exact frame, which transfers every removal witness,
    so the slice certificate covers the whole frame.  Longer lengths split
    into a direct sum over complementary slices of two components that each
    carry the exact-redundancy property; both components are exact PR frames
    whenever the length budget allows, and short full-spark components
    (full spark is their certificate) fill the remaining low-length corner.
    The value of d is always re-computed exactly on the assembled frame,
    by the search that ``subspaces.d_max`` reads, without its length cap:
    the generator admits lengths up to k(k+1)/2 + (n-k)(n-k+1)/2.
    """
    lo_k = (n + 1) // 2
    hi_N = k * (k + 1) // 2 + (n - k) * (n - k + 1) // 2
    if not (lo_k <= k <= n):
        raise OutOfRange(f"need [(n+1)/2] <= k <= n, got k={k} for n={n}")
    if not (2 * k - 1 <= N <= hi_N):
        raise OutOfRange(f"need 2k-1 <= N <= {hi_N}, got N={N}")
    if N < n:
        # fewer than n vectors cannot span R^n, so no such frame exists
        raise OutOfRange(f"length {N} cannot be a frame for R^{n}")
    if k == n:
        return generate_exact_pr(n, N, seed)
    n2 = n - k
    last_err = None
    for attempt in range(RETRIES + 1):
        s = derive_seed(seed, 211 + attempt)
        try:
            if N <= k * (k + 1) // 2:
                g = _as_identity_leading(generate_exact_pr(k, N, s))
                # vectors k..n-1 tilt into e_1..e_{n-k} of the complement
                e, zeros = identity(n2), (0,) * n2
                vecs = [v + (e[j - k] if k <= j < n else zeros) for j, v in enumerate(g._rows)]
                frame = Frame.from_vectors(vecs, dim=n)
                mode = ["tilted_slice", N]
            else:
                # K = k(k+1)/2.  When N - K >= 2*n2 - 1 both components can
                # be exact and this is K, as N - n2 >= K + n2 - 1 >= K;
                # shorter, the first shrinks to the corner and the second
                # keeps its n2 vectors
                n1_len = min(k * (k + 1) // 2, N - n2)
                n2_len = N - n1_len
                f1 = _redundancy_component(k, n1_len, s)
                f2 = _redundancy_component(n2, n2_len, derive_seed(s, 101))
                frame = compose_direct_sum(f1, f2)
                mode = ["direct_sum", n1_len, n2_len]
        except RetriesExhausted as e:
            last_err = e
            continue
        if frame._d != k:
            last_err = RetriesExhausted(f"d != {k} for the sampled instance")
            continue
        return CertifiedFrame(
            frame,
            {"exact_pr_redundancy": True, "d": k, "plan": mode, "seed": seed, "retries": attempt},
        )
    raise RetriesExhausted(f"generation failed for (n={n}, k={k}, N={N}): {last_err}")


def basis_with_maximal_subspace(n: int, k: int, seed: Seed = 0):
    """A basis of R^n together with a certified maximal k-dim PR subspace.

    Builds the slice M = span{e_1..e_k}, a full-spark (2k-1)-frame for it,
    and tilts basis vectors e_{k+1}..e_{2k-1} into M so the projected basis
    is that frame.  Valid exactly for 1 <= k <= [(n+1)/2].
    """
    from .subspaces import Subspace, is_maximal_pr_subspace

    if not (1 <= k <= (n + 1) // 2):
        raise OutOfRange(f"maximal PR subspaces of a basis need 1 <= k <= [(n+1)/2]")
    phis = _full_spark_fill(k, seed)
    vecs = list(identity(n))
    for i, phi in enumerate(phis, start=k):
        vecs[i] = tuple(e + t for e, t in zip(vecs[i], phi + (0,) * (n - k)))
    basis = Frame.from_vectors(vecs, dim=n)
    sub = Subspace.from_vectors(identity(n)[:k], ambient_dim=n)
    try:
        verdict = is_maximal_pr_subspace(basis, sub)
    except NotPRSubspace:
        raise RetriesExhausted("constructed subspace is not PR") from None  # not expected
    if verdict.status != "Maximal":
        raise RetriesExhausted("constructed subspace failed the maximality certificate")
    return basis, sub


def _full_spark_fill(k: int, seed: Seed) -> Tuple[Tuple[int, ...], ...]:
    """k-1 extra vectors making {e_1..e_k, extras} full spark in R^k."""
    return _full_spark_draw(identity(k), k, k - 1, seed, 7, "full-spark fill failed")._rows[k:]


def _full_spark_draw(lead, n: int, m: int, seed: Seed, salt: int, failure: str) -> Frame:
    """``lead`` and m vectors drawn in R^n with seed (seed, salt + attempt), once full spark."""
    for attempt in range(RETRIES + 1):
        drawn = zip(*sample_int_matrix(n, m, DEFAULT_RANGE_MAX, derive_seed(seed, salt + attempt)))
        try:
            frame = Frame.from_vectors([*lead, *drawn], dim=n)
        except NotAFrame:
            continue
        if is_full_spark(frame):
            return frame
    raise RetriesExhausted(failure)
