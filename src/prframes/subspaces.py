"""Phase-retrievable subspace analytics.

A subspace M is PR with respect to a frame F when the projected family
{P_M f_i} is a PR frame for M.  All tests here run on the coordinate family
{B^T f_i} instead: it differs from the projected coordinates by the
invertible Gram factor (B^T B)^{-1}, so every rank (hence the complement
property) agrees.  d_max(F) is the exact min over index subsets of
max(rank of the subset, rank of the complement); it equals the largest
dimension of any PR subspace.  Both run on the partition search of
``frames._partition``: the projected complement property is threshold
k - 1, and d_max is one search that lowers its threshold after each
partition it finds, run once per frame (``Frame._d``).  The coordinate
family is computed on integers, from primitive integer basis columns and
frame vectors; ``project_frame`` gives its rational form.  Each PR verdict
is held on the frame (``Frame._pr_subspaces``), keyed by the subspace's
primitive basis columns, so the sampler, the maximality ladder and the
extension probe search one (frame, span) pair once.  The
minimum dual-basis support of M, which decides maximality for a basis, is
the spark of the parity-check columns of M's dual-basis code, so it runs on
the spark search ``frames._spark``; the rows of its parity-check matrix
are the primitive normals that ``ratlin.span_of`` reads off a table whose
last columns are e_1..e_n.  A subspace and a frame of different ambient
dimensions raise ``BadInput``.

Every search here runs on the ``ratlin`` table step.  A span is held as
its normals' dot products with the vectors still to come, so a
membership question is a lookup and only a branch does arithmetic.

Two searches here prove a negative, and each runs first modulo
``ratlin.RESIDUE_P`` where the numbers can outgrow one digit
(``ratlin.residue_first`` has the argument): the projected complement
property (``is_pr_subspace``, through ``frames._certified_partition``) and
an extension stage's "no singular row subset meets the support"
(``_stage_accepts``).  Both are complete over any field, so a residue
search that finds nothing proves that nothing exists over Q, and one that
finds something hands over to the exact search.  d(F) and the minimum
support stay exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BadInput,
    CapExceeded,
    NotABasis,
    NotPRSubspace,
    OutOfRange,
    RetriesExhausted,
    SupportTooLarge,
)
from .frames import Frame, _Value, _certified_partition, _spark
from .ratlin import (
    DEFAULT_RANGE_MAX,
    IntVec,
    Seed,
    _vec_gcd_reduce,
    clear_denominators,
    Kernel,
    derive_seed,
    extend_table,
    int_nullspace,
    int_rank,
    off_table,
    residue_first,
    sample_int_matrix,
    solve,
    span_of,
    span_table,
)

DEFAULT_CAP = 24


class Subspace(_Value):
    """A subspace of R^n given by k independent basis columns in R^n.

    ``basis`` is a tuple of rational columns, as ``Frame.vectors`` is.
    Dependent columns, a column of the wrong length, or no columns at all
    raise ``BadInput``.  Columns produced by the extension algorithm have
    orthogonal dual-basis coordinates but are left unnormalized; every
    criterion used downstream is scale-invariant.
    """

    _fields = ("ambient_dim", "basis")
    ambient_dim: int
    basis: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, ambient_dim: int, basis: Tuple[Tuple[Fraction, ...], ...]):
        self.__dict__.update(ambient_dim=ambient_dim, basis=basis)
        if not self.basis:
            raise BadInput("need at least one basis column")
        for col in self.basis:
            _require_length(col, self.ambient_dim)
        if int_rank(self._int_cols) < self.dim:
            raise BadInput("basis columns are dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Iterable], ambient_dim: Optional[int] = None) -> "Subspace":
        vecs = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        if ambient_dim is None:
            if not vecs:
                raise BadInput("empty vector list")
            ambient_dim = len(vecs[0])
        return cls(ambient_dim, vecs)

    @cached_property
    def _int_cols(self) -> Tuple[IntVec, ...]:
        # basis columns scaled to primitive integer vectors; rank-neutral
        return tuple(clear_denominators(col) for col in self.basis)

    def vectors(self) -> List[Tuple[Fraction, ...]]:
        return list(self.basis)

    def contains(self, x: Sequence[Fraction]) -> bool:
        xv = _vector_in(x, self.ambient_dim)
        return int_rank(self._int_cols + (clear_denominators(xv),)) == self.dim


class MaximalityVerdict(NamedTuple):
    """Outcome of the maximality ladder.

    status is "Maximal", "NotMaximal", or "Unknown".  NotMaximal carries a
    certified strictly larger PR superspace; Unknown carries the probe report.
    """

    status: str
    reason: Optional[str] = None
    witness: Optional[Subspace] = None
    probe_report: Optional[dict] = None


def project_frame(frame: Frame, sub: Subspace) -> List[Tuple[Fraction, ...]]:
    """Coordinates {B^T f_i}; returned raw because they may fail to span.

    For any index set the rank of these vectors equals the rank of the true
    projected vectors (the coordinate map differs by an invertible factor).
    """
    _require_same_space(frame, sub)
    bs = sub.vectors()
    return [tuple(sum(map(mul, b, f), Fraction(0)) for b in bs) for f in frame.vectors]


def _projected_int_cols(frame: Frame, sub: Subspace) -> List[IntVec]:
    """``project_frame`` on integers: <b_j, f_i> over primitive integer b_j and f_i.

    Scaling basis column b_j by a positive number scales coordinate j of
    every projected vector, an invertible diagonal change of coordinates in
    R^k, so every subset rank (and hence every partition search and the
    kernel that ``min_support`` takes) is unchanged.
    """
    bcols = sub._int_cols
    return [tuple(_vec_gcd_reduce([sum(map(mul, b, f)) for b in bcols])) for f in frame._int_cols]


def _require_same_space(frame: Frame, sub: Subspace) -> None:
    if sub.ambient_dim != frame.dim:
        raise BadInput(f"subspace lives in R^{sub.ambient_dim}, the frame in R^{frame.dim}")


def _require_length(x: Sequence, n: int) -> None:
    if len(x) != n:
        raise BadInput(f"vector has {len(x)} entries, expected {n} for R^{n}")


def _vector_in(x: Sequence, n: int) -> Tuple[Fraction, ...]:
    """x as rationals, which must be a vector of R^n."""
    xv = tuple(Fraction(v) for v in x)
    _require_length(xv, n)
    return xv


def is_pr_subspace(frame: Frame, sub: Subspace) -> bool:
    """True iff the coordinate family has the complement property in R^k.

    A family that does not span R^k fails it as well (every column in one
    class), and the partition search finds that split, so no separate rank
    check is needed.  The verdict is held on the frame, keyed by the
    subspace's primitive integer basis columns: whether M is PR depends only
    on the span M, and equal keys span the same M (each column is scaled by
    a positive rational), so one frame object searches each span once.
    """
    _require_same_space(frame, sub)
    held = frame._pr_subspaces
    key = sub._int_cols
    if key not in held:
        held[key] = _certified_partition(_projected_int_cols(frame, sub), sub.dim - 1) is None
    return held[key]


def d_max(frame: Frame, cap: int = DEFAULT_CAP) -> int:
    """Largest dimension of a PR subspace: min over subsets of the larger rank.

    One partition search: each partition it finds lowers the threshold to
    one below its larger class rank, and it stops at (n+1)//2, which no
    partition beats because the two class ranks add up to at least n.  With
    no partition of both ranks <= n - 1 (the complement property) d = n.
    The value is computed once per frame and kept on it; the cap is checked
    first on every call.
    """
    if frame.N > cap:
        raise CapExceeded(f"N={frame.N} exceeds enumeration cap {cap}")
    return frame._d


def random_pr_subspace(
    frame: Frame,
    ell: int,
    seed: Seed,
    max_retries: int = 5,
    range_max: int = DEFAULT_RANGE_MAX,
) -> Subspace:
    """A certified PR subspace of dimension ell, sampled then verified exactly."""
    d = d_max(frame)
    if not 1 <= ell <= d:
        raise OutOfRange(f"no PR subspace of dimension {ell}: admissible range is 1..{d}")
    n = frame.dim
    for attempt in range(max_retries + 1):
        rows = sample_int_matrix(n, ell, range_max, derive_seed(seed, attempt))
        try:
            sub = Subspace.from_vectors(zip(*rows), ambient_dim=n)
        except BadInput:  # dependent columns
            continue
        if is_pr_subspace(frame, sub):
            return sub
    raise RetriesExhausted(f"no PR subspace of dimension {ell} found in {max_retries + 1} draws")


def _require_basis(b: Frame) -> None:
    if b.N != b.dim:
        raise NotABasis(f"expected {b.dim} vectors, got {b.N}")


def _dual_coords(x: Sequence, b: Frame) -> Tuple[Fraction, ...]:
    """Dual-basis coordinates (<x, b_i>)_i of x, for a basis b and x in R^n."""
    _require_basis(b)
    xv = _vector_in(x, b.dim)
    return tuple(sum(map(mul, xv, bi), Fraction(0)) for bi in b.vectors)


def support(x: Sequence, b: Frame) -> FrozenSet[int]:
    """Dual-basis coordinate support {i : <x, b_i> != 0}; 0-based indices."""
    return frozenset(i for i, c in enumerate(_dual_coords(x, b)) if c)


def min_support(sub: Subspace, b: Frame) -> int:
    """Smallest dual-basis support size over nonzero elements of the subspace.

    In dual-basis coordinates M is the code spanned by the k columns of the
    n x k coefficient matrix C (row i holds <b_i, m_j>, up to a scale that
    leaves supports alone).  A vector is in that code iff a parity-check
    matrix H, whose rows are an integer basis of ker C^T, annihilates it, so
    the supports of M are the supports of the linear dependencies among the
    n columns of H, and the smallest one is their spark.  For k = n, H is
    empty: its columns are empty vectors, each dependent alone, and the
    answer is 1.
    """
    _require_basis(b)
    _require_same_space(b, sub)
    n = b.dim
    rows = _projected_int_cols(b, sub)
    checks = span_of(zip(*rows), n)
    return _spark([tuple(h[i] for h in checks) for i in range(n)])


def _orthogonal_sample(us: Sequence[IntVec], n: int, rng: random.Random, range_max: int) -> Optional[IntVec]:
    """Random integer vector orthogonal to all of us, or None if none exists."""
    basis = int_nullspace(us, n)
    if not basis:
        return None
    coeffs = [rng.randint(1, range_max) for _ in basis]
    v = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
    return tuple(v)


def _extension_probe(
    frame: Frame, sub: Subspace, budget: int, seed: Seed, range_max: int = DEFAULT_RANGE_MAX
) -> Optional[Subspace]:
    """Try to certify a strictly larger PR subspace containing M."""
    n = sub.ambient_dim
    us = sub._int_cols
    rng = random.Random(derive_seed(seed, 9001))
    for _ in range(budget):
        u = _orthogonal_sample(us, n, rng, range_max)
        if u is None or all(t == 0 for t in u):
            return None
        bigger = Subspace.from_vectors(sub.basis + (u,), ambient_dim=n)
        if is_pr_subspace(frame, bigger):
            return bigger
    return None


def is_maximal_pr_subspace(
    frame: Frame, sub: Subspace, probe_budget: int = 20, seed: Seed = 0
) -> MaximalityVerdict:
    """Decision ladder for maximality of a PR subspace.

    (1) dimension equals d_max: Maximal outright.  (2) frame is a basis:
    minimum support equal to the dimension certifies Maximal; a strictly
    larger minimum support below the [(n+1)/2] ceiling always extends, and
    the verdict carries a verified superspace.  (3) anything else is probed;
    a failed probe is reported as Unknown, never as Maximal.
    """
    if not is_pr_subspace(frame, sub):
        raise NotPRSubspace("subspace is not phase-retrievable w.r.t. the frame")
    k, n = sub.dim, sub.ambient_dim
    try:
        d = d_max(frame)
    except CapExceeded:
        d = None
    if d is not None and k == d:
        return MaximalityVerdict("Maximal", reason=f"dimension equals d_max = {d}")
    if frame.N == frame.dim:
        s = min_support(sub, frame)
        if s == k:
            return MaximalityVerdict("Maximal", reason=f"minimum support {s} equals dimension")
        if s > k and k < (n + 1) // 2:
            witness = _extension_probe(frame, sub, max(probe_budget, 20), seed)
            if witness is None:
                raise RetriesExhausted("extension exists but sampling failed to certify one")
            return MaximalityVerdict(
                "NotMaximal", reason=f"minimum support {s} exceeds dimension", witness=witness
            )
    witness = _extension_probe(frame, sub, probe_budget, seed)
    if witness is not None:
        return MaximalityVerdict("NotMaximal", reason="probe found a larger PR subspace", witness=witness)
    return MaximalityVerdict(
        "Unknown",
        reason="no decision procedure applies",
        probe_report={"attempts": probe_budget, "extension_found": False},
    )


def _stage_accepts(us: List[IntVec], n: int, supp: FrozenSet[int]) -> bool:
    """Every m-row subset meeting the support is invertible, m = len(us).

    Row i is (u[i] for u in us), a vector in R^m.  Where Hadamard's bound
    lets the exact search's minors reach ``ratlin.RESIDUE_P``, the search
    runs mod p first: a row subset independent mod p is independent over Q,
    so finding no dependent row set mod p accepts.  Finding one may be a
    collision, and the exact search decides.
    """
    rows = list(zip(*us))
    return not residue_first(lambda rs, kernel: _dependent_rows(rs, n, supp, kernel), rows, len(us) - 1)


def _dependent_rows(
    rows: Sequence[IntVec], n: int, supp: FrozenSet[int], kernel: Optional[Kernel] = None
) -> bool:
    """Does some m-row subset meeting the support fail to be invertible?

    ``kernel`` is the span step, exact by default (see ``frames._partition``).
    For m <= n and a nonempty support (as ``extend_to_maximal`` guarantees)
    every such subset is invertible iff every dependent row set of size
    <= m has size exactly m and avoids the support: a smaller one, or one
    meeting the support, lies in a singular m-subset that meets it.  Those
    sets are found as in ``frames._spark``, by a depth-first search over
    independent row sets in index order, to depth m - 1, each node holding
    the table of its span (``ratlin``).  At depth m - 1 a set that avoids
    the support only needs its support rows tested, and any of them in the
    span closes one.
    """
    off, extend = kernel or (off_table, extend_table)
    # stack entries: (next index, table of an independent set's span, does it meet supp)
    stack = [(0, span_table(rows, len(rows[0])), False)]
    while stack:
        start, table, meets = stack.pop()
        last = len(table) == 1
        for j in range(start, n):
            if last and not meets and j not in supp:
                continue
            found = off(table, j - n)
            if found is None:
                return True
            if not last:
                stack.append((j + 1, extend(table, j - n, found), meets or j in supp))
    return False


def extend_to_maximal(
    b: Frame,
    x: Sequence,
    seed: Seed = 0,
    max_retries: int = 5,
    range_max: int = DEFAULT_RANGE_MAX,
) -> Subspace:
    """Grow span{x} into a certified maximal PR subspace w.r.t. the basis b.

    Works in dual-basis coordinates, where the target dimension is the
    support size k of x.  Each stage samples an integer vector orthogonal to
    the ones already kept and accepts it when every square row subset of the
    running size that meets the support is invertible.  The last stage's
    acceptance is the certificate.  Let U = [x, u_2..u_k] be the n x k
    matrix of dual coordinates and S = supp(x), so every k-row subset of U
    that meets S is invertible.  For a basis, PR plus minimum support k is
    exactly the rule under which ``is_maximal_pr_subspace`` returns Maximal,
    and both follow:

    * CP of U's rows in R^k.  Since n >= 2k - 1, one class of any
      2-colouring has at least k rows.  If that class meets S, it spans.
      If it does not, S lies in the other class, and S itself spans.
    * Minimum support k.  Take y = Uc != 0 and let Z be the set of rows
      orthogonal to c; any k rows of Z are dependent.  So if Z meets S,
      then |Z| <= k - 1 and |supp y| >= n - k + 1 >= k.  Otherwise
      supp y contains S.  And x itself attains k.
    * k = 1.  There is no stage: span{x} has CP (x is nonzero on S) and
      every nonzero multiple of x has support S.

    ``solve`` is exact, so the returned subspace has exactly U as its
    dual coordinates, and the result needs no second proof.
    """
    coords = _dual_coords(x, b)
    n = b.dim
    supp = frozenset(i for i, c in enumerate(coords) if c)
    if not supp:
        raise OutOfRange("cannot extend the zero vector")
    k = len(supp)
    if k > (n + 1) // 2:
        raise SupportTooLarge(f"support size {k} exceeds [(n+1)/2] = {(n + 1) // 2}")
    x0 = clear_denominators(coords)
    for attempt in range(max_retries + 1):
        rng = random.Random(derive_seed(seed, 31 + attempt))
        us: List[IntVec] = [x0]
        for _m in range(1, k):
            got = None
            for _ in range(40):
                u = _orthogonal_sample(us, n, rng, range_max)
                if u is None:
                    break
                cand = us + [u]
                if _stage_accepts(cand, n, supp):
                    got = u
                    break
            if got is None:
                break
            us.append(got)
        else:
            # back from dual-basis coordinates: columns v with B^T v = u
            return Subspace.from_vectors(zip(*solve(b.vectors, tuple(zip(*us)))), ambient_dim=n)
    raise RetriesExhausted(f"extension failed after {max_retries + 1} attempts")
