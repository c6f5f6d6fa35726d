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
from prframes.construct import PatternMatrix
from prframes.errors import PatternViolation


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


def brute_spark_within(cols, within) -> int:
    """Size of the smallest dependent subfamily of cols that meets within; len+1 if none.

    within is a set of indices, or None for every column.  Subsets are
    scanned by size, ranks by sympy.
    """
    N = len(cols)
    for s in range(1, N + 1):
        for combo in itertools.combinations(range(N), s):
            if (within is None or within.intersection(combo)) and _rank([cols[i] for i in combo]) < s:
                return s
    return N + 1


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


def backtrack_assign_tail(tail_cands, chain_cands):
    """Step III's tail by exhaustive backtracking: the first tail and chain it completes.

    Slots are filled fewest candidates first (ties in key order), each
    trying its candidates in order, so the answer is the lexicographically
    first assignment.  Exponential in the number of slots.
    """
    slots = sorted(chain_cands, key=lambda i: len(chain_cands[i]))

    def bt(pos, used, acc):
        if pos == len(slots):
            return dict(acc)
        i = slots[pos]
        for j in chain_cands[i]:
            if j in used:
                continue
            used.add(j)
            acc[i] = j
            got = bt(pos + 1, used, acc)
            if got is not None:
                return got
            used.discard(j)
            del acc[i]
        return None

    for tail in tail_cands:
        chain = bt(0, {tail}, {})
        if chain is not None:
            return tail, chain
    return None


@functools.lru_cache(maxsize=None)
def searched_plan_steps(n: int, N: int):
    """Steps from the 3x6 base to (n, N), by memoised search over predecessors.

    Tries undoing step III, then II, then I, and takes the first that
    leads back to (3, 6); None when none does.
    """
    if not (3 <= n and 2 * n <= N <= n * (n + 1) // 2):
        return None
    if (n, N) == (3, 6):
        return ("base36",)
    for step, prev_N in (("step_III", N - 2), ("step_II", N - (n - 1)), ("step_I", N - n)):
        prev = searched_plan_steps(n - 1, prev_N)
        if prev is not None:
            return prev + (step,)
    return None


def permute_rows(p: PatternMatrix, order) -> PatternMatrix:
    """The mask with its rows relabelled: row i of the result is row order[i].

    A relabelling of coordinates; (P1)-(P4) are invariant under it.
    """
    return PatternMatrix(tuple(p.mask[i] for i in order))


def searched_step_II(a: PatternMatrix) -> PatternMatrix:
    """Step II by exhaustive search: the first splice arrangement that validates.

    Tries every non-identity splice column of the normalized input, and for
    it every (zero row, nonzero row) pair, in order; each arrangement is
    assembled as ``step_II`` assembles its one and kept once it validates.
    A valid input always has one (``step_II``'s docstring), so finding none
    fails the calling test with an AssertionError.
    """
    a.validate()
    n, N = a.n, a.N
    a = a.normalized()
    for splice in range(n, N):
        zeros = [r for r in range(n) if not a.mask[r][splice]]
        nonzeros = [r for r in range(n) if a.mask[r][splice]]
        for r0 in zeros:
            for r1 in nonzeros:
                row_order = [r0, r1] + [r for r in range(n) if r not in (r0, r1)]
                cand = permute_rows(a, row_order).normalized()
                sp = next(j for j in range(n, N) if not cand.mask[0][j] and cand.mask[1][j])
                cand = cand.permute_columns([j for j in range(N) if j != sp] + [sp])
                rows = []
                for i in range(n):
                    ext = [False] * n
                    ext[0 if i <= 1 else i - 1] = True
                    rows.append(tuple(cand.mask[i]) + tuple(ext))
                rows.append((False,) * (N - 1) + (True,) * (n + 1))
                try:
                    b = PatternMatrix(tuple(rows)).normalized()
                    b.validate()
                except PatternViolation:
                    continue
                return b
    raise AssertionError("no splice column arrangement validates")


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


# ---------------------------------------------------------------------------
# The partition search frozen as a reference, with its two span steps: each
# table scan with ``enumerate``, both children stacked, and every pivot row
# sliced up front.  ``frames._partition`` must return the identical Split in
# every mode, because each failing subset and witness it reports rests on
# its depth-first order.
# ---------------------------------------------------------------------------

REFERENCE_P = 1073741789  # ratlin.RESIDUE_P


def _reference_off(rows, at):
    for k, row in enumerate(rows):
        d = row[at]
        if d:
            return k, d
    return None


def reference_extend_table(rows, at, off):
    k, dk = off
    s = at + 1
    rk = rows[k][s:] if s else ()
    out = list(rows[:k])
    for row in rows[k + 1 :]:
        di = row[at]
        if di:
            row = [dk * x - di * y for x, y in zip(row[s:], rk)]
            g = math.gcd(*row)
            row = tuple([x // g for x in row] if g > 1 else row)
        out.append(row)
    return tuple(out)


def reference_extend_residue(rows, at, off):
    p = REFERENCE_P
    k, dk = off
    s = at + 1
    rk = rows[k][s:] if s else ()
    out = list(rows[:k])
    for row in rows[k + 1 :]:
        di = row[at]
        if di:
            row = tuple([(dk * x - di * y) % p for x, y in zip(row[s:], rk)])
        out.append(row)
    return tuple(out)


def reference_partition(cols, t, floor=None, kernel=None, seen=None):
    """``frames._partition``'s search, frozen: (members of A, larger class rank) or None."""
    off, extend = _reference_off, kernel or reference_extend_table
    ncols = len(cols)
    if ncols == 0:
        return (frozenset(), 0) if seen is None or any(map(any, seen)) else None
    n = len(cols[0])
    keep = n - t
    watched = () if seen is None else tuple(seen)
    width = ncols + len(watched)
    empty = tuple(zip(*cols, *watched))
    off0 = off(empty, -width)
    start_a = empty if off0 is None else extend(empty, -width, off0)
    live = None if seen is None else [at for at in range(ncols - width, 0) if off(start_a, at) is not None]
    if len(start_a) < keep or live == []:
        return None
    if floor is None:
        floor = t
    best = None
    stack = [(1, start_a, empty, 1, live)]
    while stack:
        i, na, nb, amask, live = stack.pop()
        while i < ncols:
            at = i - width
            for ka, row in enumerate(na):
                da = row[at]
                if da:
                    break
            else:
                amask |= 1 << i
                i += 1
                continue
            for kb, row in enumerate(nb):
                db = row[at]
                if db:
                    break
            else:
                i += 1
                continue
            break
        if i == ncols:
            r = n - min(len(na), len(nb))
            best = amask, r
            if r <= floor:
                break
            keep = n - r + 1
            stack = [e for e in stack if len(e[1]) >= keep and len(e[2]) >= keep]
            continue
        if len(na) > keep:
            grown = extend(na, at, (ka, da))
            left = live and [c for c in live if off(grown, c) is not None]
            if left != []:
                stack.append((i + 1, grown, nb, amask | 1 << i, left))
        if len(nb) > keep:
            grown = extend(nb, at, (kb, db))
            left = live and [c for c in live if off(grown, c) is not None]
            if left != []:
                stack.append((i + 1, na, grown, amask, left))
    if best is None:
        return None
    amask, r = best
    return frozenset(j for j in range(ncols) if amask >> j & 1), r
