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
are the primitive normals of a span (``ratlin.span_of``).  The test that
certifies an extension is the same search, restricted to dependent row
sets that meet the support.  A subspace and a frame of different ambient
dimensions raise ``BadInput``.

Every search here is a ``frames`` search, which reads its own minors mod
p first, so this module never touches a span table or a certificate.
The projected complement property (``is_pr_subspace``) runs through
``frames._certified_partition``.
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
    RETRIES,
    IntVec,
    Seed,
    as_fractions,
    clear_denominators,
    derive_seed,
    int_nullspace,
    int_rank,
    primitive,
    primitive_rows,
    read_rows,
    sample_int_matrix,
    solve,
    span_of,
)

D_MAX_CAP = 24

# draws of the extension probe in one maximality verdict
PROBE_BUDGET = 20


class Subspace(_Value):
    """A subspace of R^n given by k independent basis columns in R^n.

    ``basis`` is a tuple of rational columns, as ``Frame.vectors`` is, and
    like it is built on first read: columns whose every entry is an int are
    held as given (``ratlin.read_rows``).  Dependent columns, a column of
    the wrong length, or no columns at all raise ``BadInput``.  The columns
    ``extend_to_maximal`` returns have orthogonal dual-basis coordinates
    (each u_j is drawn orthogonal to the ones before it) but are left
    unnormalized; every criterion used downstream is scale-invariant.
    """

    _fields = ("ambient_dim", "basis")
    ambient_dim: int

    def __init__(self, ambient_dim: int, basis: Iterable[Iterable]):
        rows = read_rows(basis)
        self.__dict__.update(ambient_dim=ambient_dim, _rows=rows)
        if not rows:
            raise BadInput("need at least one basis column")
        for col in rows:
            _require_length(col, ambient_dim)
        if int_rank(self._int_cols) < len(rows):
            raise BadInput("basis columns are dependent")

    @cached_property
    def basis(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return as_fractions(self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Iterable], ambient_dim: Optional[int] = None) -> "Subspace":
        vecs = tuple(map(tuple, vectors))
        if ambient_dim is None:
            if not vecs:
                raise BadInput("empty vector list")
            ambient_dim = len(vecs[0])
        return cls(ambient_dim, vecs)

    @cached_property
    def _int_cols(self) -> Tuple[IntVec, ...]:
        # basis columns scaled to primitive integer vectors; rank-neutral
        return primitive_rows(self._rows)

    def vectors(self) -> List[Tuple[Fraction, ...]]:
        return list(self.basis)


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
    return [primitive([sum(map(mul, b, f)) for b in bcols]) for f in frame._int_cols]


def _require_same_space(frame: Frame, sub: Subspace) -> None:
    if sub.ambient_dim != frame.dim:
        raise BadInput(f"subspace lives in R^{sub.ambient_dim}, the frame in R^{frame.dim}")


def _require_length(x: Sequence, n: int) -> None:
    if len(x) != n:
        raise BadInput(f"vector has {len(x)} entries, expected {n} for R^{n}")


def _vector_in(x: Sequence, n: int) -> tuple:
    """x held as ``ratlin.read_rows`` holds a row, which must be a vector of R^n."""
    (xv,) = read_rows([x])
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


def d_max(frame: Frame) -> int:
    """Largest dimension of a PR subspace: min over subsets of the larger rank.

    One partition search: each partition it finds lowers the threshold to
    one below its larger class rank, and it stops at (n+1)//2, which no
    partition beats because the two class ranks add up to at least n.  With
    no partition of both ranks <= n - 1 (the complement property) d = n.
    The value is computed once per frame and kept on it; the cap
    ``D_MAX_CAP`` is checked first on every call.
    """
    if frame.N > D_MAX_CAP:
        raise CapExceeded(f"N={frame.N} exceeds enumeration cap {D_MAX_CAP}")
    return frame._d


def random_pr_subspace(frame: Frame, ell: int, seed: Seed) -> Subspace:
    """A certified PR subspace of dimension ell, sampled then verified exactly.

    Every frame has d(F) >= [(n+1)/2], since the two classes of a partition
    span R^n together; so ``d_max`` and its cap are met only outside that range.
    """
    n = frame.dim
    if not 1 <= ell <= (n + 1) // 2:
        d = d_max(frame)
        if not 1 <= ell <= d:
            raise OutOfRange(f"no PR subspace of dimension {ell}: admissible range is 1..{d}")
    for attempt in range(RETRIES + 1):
        rows = sample_int_matrix(n, ell, DEFAULT_RANGE_MAX, derive_seed(seed, attempt))
        try:
            sub = Subspace.from_vectors(zip(*rows), ambient_dim=n)
        except BadInput:  # dependent columns
            continue
        if is_pr_subspace(frame, sub):
            return sub
    raise RetriesExhausted(f"no PR subspace of dimension {ell} found in {RETRIES + 1} draws")


def _require_basis(b: Frame) -> None:
    if b.N != b.dim:
        raise NotABasis(f"expected {b.dim} vectors, got {b.N}")


def _dual_coords(x: Sequence, b: Frame) -> tuple:
    """Dual-basis coordinates (<x, b_i>)_i of x in R^n, ints when x and the basis b are."""
    _require_basis(b)
    xv = _vector_in(x, b.dim)
    return tuple(sum(map(mul, xv, bi)) for bi in b._rows)


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


def _orthogonal_sample(basis: Sequence[IntVec], n: int, rng: random.Random) -> IntVec:
    """A combination of the integer nullspace basis with coefficients in 1..DEFAULT_RANGE_MAX.

    The basis is independent and every coefficient is positive, so the
    vector is never zero.
    """
    coeffs = [rng.randint(1, DEFAULT_RANGE_MAX) for _ in basis]
    return tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))


def _extension_probe(frame: Frame, sub: Subspace, seed: Seed) -> Optional[Subspace]:
    """Try to certify a strictly larger PR subspace containing M, in PROBE_BUDGET draws."""
    n = sub.ambient_dim
    basis = int_nullspace(sub._int_cols, n)
    if not basis:  # M is all of R^n
        return None
    rng = random.Random(derive_seed(seed, 9001))
    for _ in range(PROBE_BUDGET):
        u = _orthogonal_sample(basis, n, rng)
        bigger = Subspace(n, sub._rows + (u,))
        if is_pr_subspace(frame, bigger):
            return bigger
    return None


def is_maximal_pr_subspace(frame: Frame, sub: Subspace, seed: Seed = 0) -> MaximalityVerdict:
    """Decision ladder for maximality of a PR subspace.

    (1) dimension equals d_max: Maximal outright.  (2) frame is a basis:
    minimum support equal to the dimension certifies Maximal; a strictly
    larger minimum support below the [(n+1)/2] ceiling always extends, and
    the verdict carries a verified superspace.  (3) anything else is probed;
    a failed probe is reported as Unknown, never as Maximal.  Rungs (2) and
    (3) run the same extension probe, once; the rung decides only what its
    outcome means.
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
    extends = None  # the reason, when the basis rung proves that M extends
    if frame.N == frame.dim:
        s = min_support(sub, frame)
        if s == k:
            return MaximalityVerdict("Maximal", reason=f"minimum support {s} equals dimension")
        if s > k and k < (n + 1) // 2:
            extends = f"minimum support {s} exceeds dimension"
    witness = _extension_probe(frame, sub, seed)
    if witness is not None:
        reason = extends or "probe found a larger PR subspace"
        return MaximalityVerdict("NotMaximal", reason=reason, witness=witness)
    if extends:
        raise RetriesExhausted("extension exists but sampling failed to certify one")
    return MaximalityVerdict(
        "Unknown",
        reason="no decision procedure applies",
        probe_report={"attempts": PROBE_BUDGET, "extension_found": False},
    )


def _stage_accepts(us: List[IntVec], supp: FrozenSet[int]) -> bool:
    """Every m-row subset of U = [u_1..u_m] meeting the support is invertible.

    ``extend_to_maximal`` asks it once per attempt, on its whole U.  Each
    u has n entries, and row i is (u[i] for u in us), a vector in R^m.
    For m <= n and a support of at least m rows (as ``extend_to_maximal``
    guarantees), that holds iff no dependent set of at most m rows meets
    the support, since such a set lies in a singular m-subset that meets
    it: one ``frames._spark`` call, whose minors mod p accept at any entry
    width, and every rejection is the exact search's.
    """
    return _spark(list(zip(*us)), supp) > len(us)


def extend_to_maximal(b: Frame, x: Sequence, seed: Seed = 0) -> Subspace:
    """Grow span{x} into a certified maximal PR subspace w.r.t. the basis b.

    Works in dual-basis coordinates, where the target dimension is the
    support size k of x.  Each attempt draws u_2..u_k in turn, each an
    integer combination of the integer nullspace basis of the vectors
    before it (``_orthogonal_sample``); those are independent and fewer
    than n, so that basis is never empty.  Let U = [x, u_2..u_k] be the
    n x k matrix of dual coordinates and S = supp(x).  One test
    (``_stage_accepts``) then certifies the attempt: every k-row subset of
    U that meets S is invertible.  A rejected U starts the next attempt.
    For a basis, PR plus minimum support k is exactly the rule under which
    ``is_maximal_pr_subspace`` returns Maximal, and both follow:

    * CP of U's rows in R^k.  Since n >= 2k - 1, one class of any
      2-colouring has at least k rows.  If that class meets S, it spans.
      If it does not, S lies in the other class, and S itself spans.
    * Minimum support k.  Take y = Uc != 0 and let Z be the set of rows
      orthogonal to c; any k rows of Z are dependent.  So if Z meets S,
      then |Z| <= k - 1 and |supp y| >= n - k + 1 >= k.  Otherwise
      supp y contains S.  And x itself attains k.

    For k = 1, U = [x] and the test holds at once: x is nonzero on S.
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
    for attempt in range(RETRIES + 1):
        rng = random.Random(derive_seed(seed, 31 + attempt))
        us: List[IntVec] = [x0]
        for _ in range(1, k):
            us.append(_orthogonal_sample(int_nullspace(us, n), n, rng))
        if _stage_accepts(us, supp):
            # back from dual-basis coordinates: columns v with B^T v = u
            return Subspace.from_vectors(zip(*solve(b._rows, tuple(zip(*us)))), ambient_dim=n)
    raise RetriesExhausted(f"extension failed after {RETRIES + 1} attempts")
