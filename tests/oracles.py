"""Independent brute-force reference implementations used only by tests.

Everything here favors obviousness over speed: subsets are enumerated
explicitly and ranks are computed by sympy over exact integers, giving a
second, unrelated code path to compare the library against.
"""

import functools
import itertools
import math
from fractions import Fraction

import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from prframes import Frame


def _rank(vectors) -> int:
    return _rank_of(tuple(tuple(v) for v in vectors))


@functools.lru_cache(maxsize=1 << 16)
def _rank_of(vectors) -> int:
    # the subset scans ask for the same subfamilies over and over (every
    # co-singleton family's subsets are subsets of the frame), so the sympy
    # rank of each distinct list of vectors is computed once.  Each vector is
    # scaled by the lcm of its denominators, which leaves the rank alone, and
    # sympy ranks the integer rows over ZZ, which is cheaper than over QQ
    if not vectors:
        return 0
    rows = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        den = math.lcm(*(x.denominator for x in v))
        rows.append([ZZ(x.numerator * (den // x.denominator)) for x in v])
    return DomainMatrix(rows, (len(rows), len(rows[0])), ZZ).rank()


def brute_has_cp(frame: Frame) -> bool:
    """Complement property by scanning every subset."""
    return brute_family_has_cp(frame.vectors, frame.dim)


def brute_family_has_cp(vecs, n: int) -> bool:
    """Complement property of any family in R^n; one that does not span fails it."""
    N = len(vecs)
    for bits in range(2 ** N):
        lam = [i for i in range(N) if bits >> i & 1]
        comp = [i for i in range(N) if not bits >> i & 1]
        if _rank([vecs[i] for i in lam]) < n and _rank([vecs[i] for i in comp]) < n:
            return False
    return True


def brute_has_cp_halved(frame: Frame) -> bool:
    """Complement property scanning only subsets containing index 0."""
    n, N = frame.dim, frame.N
    vecs = frame.vectors
    for bits in range(2 ** (N - 1)):
        lam = [0] + [i + 1 for i in range(N - 1) if bits >> i & 1]
        comp = [i for i in range(N) if i not in set(lam)]
        if _rank([vecs[i] for i in lam]) < n and _rank([vecs[i] for i in comp]) < n:
            return False
    return True


def brute_spark(frame: Frame) -> int:
    vecs = frame.vectors
    for s in range(1, frame.N + 1):
        for combo in itertools.combinations(range(frame.N), s):
            if _rank([vecs[i] for i in combo]) < s:
                return s
    return frame.N + 1


def brute_d_value(frame: Frame) -> int:
    """min over subsets of max(rank(subset), rank(complement))."""
    n, N = frame.dim, frame.N
    vecs = frame.vectors
    best = n
    for bits in range(2 ** (N - 1)):
        lam = [0] + [i + 1 for i in range(N - 1) if bits >> i & 1]
        comp = [i for i in range(N) if i not in set(lam)]
        m = max(_rank([vecs[i] for i in lam]), _rank([vecs[i] for i in comp]))
        best = min(best, m)
    return best


def brute_is_exact_pr(frame: Frame) -> bool:
    if not brute_has_cp(frame):
        return False
    for i in range(frame.N):
        reduced = Frame.from_vectors(
            [v for j, v in enumerate(frame.vectors) if j != i], dim=frame.dim
        )
        if brute_has_cp(reduced):
            return False
    return True


def brute_exactness(frame: Frame):
    """(exact, removable) by definition, as ``is_exact_pr_frame`` reports it.

    removable lists every i whose co-singleton family still has the
    complement property; a family that does not span fails it, and no
    co-singleton of a frame without the property has it.
    """
    vecs, n = frame.vectors, frame.dim
    removable = tuple(
        i for i in range(frame.N) if brute_family_has_cp(vecs[:i] + vecs[i + 1 :], n)
    )
    return brute_has_cp(frame) and not removable, removable


def brute_s2_witness_exists(frame: Frame, lam) -> bool:
    """Does some rank-<=2 kernel element of the subfamily lam miss a vector outside it?

    Scans every 2-colouring (A, B) of lam, and for each every index i outside
    lam: True iff f_i lies outside both span A and span B (then u normal to A
    and v normal to B with <u,f_i> <v,f_i> != 0 give x = u+v, y = u-v).
    """
    vecs = frame.vectors
    lam = sorted(set(lam))
    comp = [i for i in range(frame.N) if i not in set(lam)]
    for bits in range(2 ** len(lam)):
        a = [vecs[j] for k, j in enumerate(lam) if bits >> k & 1]
        b = [vecs[j] for k, j in enumerate(lam) if not bits >> k & 1]
        ra, rb = _rank(a), _rank(b)
        for i in comp:
            if _rank(a + [vecs[i]]) > ra and _rank(b + [vecs[i]]) > rb:
                return True
    return False


def brute_pr_redundancy(frame: Frame) -> Fraction:
    """N/k for the smallest subfamily with no rank-<=2 kernel element the frame sees.

    Scans the subfamilies by size from 1, each with ``brute_s2_witness_exists``;
    1 when no proper subfamily qualifies.
    """
    N = frame.N
    for k in range(1, N):
        for lam in itertools.combinations(range(N), k):
            if not brute_s2_witness_exists(frame, lam):
                return Fraction(N, k)
    return Fraction(1)


def brute_is_maximal(frame: Frame, sub) -> bool:
    """Is the PR subspace maximal among PR subspaces?  By the colouring criterion.

    With k = dim M: M is maximal iff some 2-colouring (A, B) of the frame
    has, for each class X, rank(P_M X) <= k - 1 or rank(X) <= k.  The
    projected ranks are those of the coordinates (<b_j, f>)_j over M's basis
    columns b_j, which differ from P_M f by an invertible factor; every
    colouring is scanned, ranks by sympy.
    """
    k, N = len(sub.basis), frame.N
    vecs = frame.vectors
    coords = [tuple(sum((Fraction(x) * y for x, y in zip(b, f)), Fraction(0)) for b in sub.basis) for f in vecs]

    def settled(cls) -> bool:
        return _rank([coords[i] for i in cls]) <= k - 1 or _rank([vecs[i] for i in cls]) <= k

    for bits in range(2 ** N):
        a = [i for i in range(N) if bits >> i & 1]
        b = [i for i in range(N) if not bits >> i & 1]
        if settled(a) and settled(b):
            return True
    return False


def brute_min_support(sub_vectors, basis_vectors) -> int:
    """Smallest dual-coordinate support over the subspace, by full enumeration."""
    n = len(basis_vectors)
    b = sympy.Matrix([[sympy.Rational(x) for x in v] for v in basis_vectors]).T
    m = sympy.Matrix([[sympy.Rational(x) for x in v] for v in sub_vectors]).T
    coeff = b.T * m  # row i = coordinates against basis vector i
    k = m.shape[1]
    best = n + 1
    for s in range(1, n + 1):
        for supp in itertools.combinations(range(n), s):
            outside = [list(coeff.row(i)) for i in range(n) if i not in supp]
            if _rank(outside) < k:
                best = min(best, s)
                break
        if best <= s:
            break
    return best


def brute_stage_accepts(us, n: int, supp) -> bool:
    """Is every m-row subset of [u_1 .. u_m] that meets supp invertible?

    Row i is (u[i] for u in us); every m-subset of the n rows is scanned.
    """
    m = len(us)
    for lam in itertools.combinations(range(n), m):
        if supp.intersection(lam) and _rank([[u[i] for u in us] for i in lam]) < m:
            return False
    return True


def brute_sdr(mask, i: int) -> bool:
    """Does row i of a 0/1 mask have a system of distinct representatives?

    Scans every injective assignment of the rows l to columns j with
    mask[i][j]; it needs mask[l][j] for every l.
    """
    n = len(mask)
    cand = [j for j, cell in enumerate(mask[i]) if cell]
    return any(
        all(mask[l][js[l]] for l in range(n)) for js in itertools.permutations(cand, n)
    )


def brute_lifted_independent(frame: Frame) -> bool:
    """Are the lifted vectors (f_a f_b)_{a <= b} linearly independent?

    Each row is built here from the rational frame vector, products taken in
    sympy; the off-diagonal factor 2 of the library's rows only scales a
    column, so the rank is the same.
    """
    n = frame.dim
    rows = []
    for f in frame.vectors:
        g = [sympy.Rational(x.numerator, x.denominator) for x in f]
        rows.append([g[a] * g[b] for a in range(n) for b in range(a, n)])
    return _rank(rows) == frame.N


def greedy_lifted_completion(frame: Frame, rng, tries: int = 200) -> Frame:
    """Extend a frame until its lifted vectors form a basis of the symmetric space.

    Candidate vectors are random small integers, kept when they increase the
    rank of the lifted family.
    """
    from prframes.lifting import lifted_row

    n = frame.dim
    target = n * (n + 1) // 2
    rows = [lifted_row(v, n) for v in frame.vectors]
    vecs = list(frame.vectors)
    attempts = 0
    while _rank(rows) < target and attempts < tries:
        attempts += 1
        cand = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
        r = lifted_row(cand, n)
        if _rank(rows + [r]) > _rank(rows):
            rows.append(r)
            vecs.append(cand)
    assert _rank(rows) == target, "completion failed"
    return Frame.from_vectors(vecs, dim=n)
