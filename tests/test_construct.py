"""Pattern calculus, planning, and certified generators."""

import hashlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import prframes.construct
import prframes.frames
from oracles import (
    backtrack_assign_tail,
    brute_is_exact_pr,
    brute_pr_redundancy,
    brute_sdr,
    brute_spark,
    permute_rows,
    searched_plan_steps,
    searched_step_II,
)
from prframes import (
    CapExceeded,
    Frame,
    NotAFrame,
    OutOfRange,
    PatternViolation,
    RetriesExhausted,
    base_pattern_36,
    basis_with_maximal_subspace,
    build_pattern,
    compose_direct_sum,
    d_max,
    generate_exact_pr,
    generate_with_dmax,
    has_exact_pr_redundancy,
    instantiate,
    is_exact_pr_frame,
    is_full_spark,
    is_pr_subspace,
    is_maximal_pr_subspace,
    min_support,
    plan,
    spark,
    step_I,
    step_II,
    step_III,
)
from prframes.construct import (
    CertifiedFrame,
    PatternMatrix,
    _as_identity_leading,
    _assign_tail,
    _full_spark_fill,
    _redundancy_component,
)
from prframes.ratlin import RETRIES


def test_base_pattern_structure():
    p = base_pattern_36()
    p.validate()
    assert (p.n, p.N) == (3, 6)
    # each row carries exactly 3 nonzero cells
    assert all(sum(row) == 3 for row in p.mask)
    # identity block up front, one zero in each trailing column
    assert p.identity_columns() == [0, 1, 2]
    zero_cells = {(i, j) for i in range(3) for j in range(3, 6) if not p.mask[i][j]}
    assert zero_cells == {(0, 5), (1, 4), (2, 3)}


def test_base_pattern_row_representatives():
    p = base_pattern_36()
    sdr = p.sdr_for_row(0)
    assert sdr is not None
    cols = set(sdr.values())
    assert len(cols) == 3
    for row, col in sdr.items():
        assert p.mask[0][col] and p.mask[row][col]


def check_sdr(p, i):
    sdr = p.sdr_for_row(i)
    assert (sdr is not None) == brute_sdr(p.mask, i)
    if sdr is not None:
        assert sorted(sdr) == list(range(p.n))
        assert len(set(sdr.values())) == p.n
        assert all(p.mask[i][j] and p.mask[l][j] for l, j in sdr.items())


@pytest.mark.parametrize(
    "n,N", [(n, N) for n in range(3, 9) for N in range(2 * n, n * (n + 1) // 2 + 1)]
)
def test_sdr_matcher_agrees_with_brute_force_on_plans(n, N):
    p = build_pattern(plan(n, N))
    for i in range(n):
        check_sdr(p, i)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n + 2, max_size=n + 2), min_size=n, max_size=n
        )
    )
)
def test_sdr_matcher_agrees_with_brute_force_on_random_masks(rows):
    # random masks also cover rows without a representative system
    p = PatternMatrix(tuple(tuple(r) for r in rows))
    for i in range(p.n):
        check_sdr(p, i)


@pytest.mark.parametrize("step,shape", [(step_I, (4, 10)), (step_II, (4, 9)), (step_III, (4, 8))])
def test_steps_grow_and_validate(step, shape):
    out = step(base_pattern_36())
    assert (out.n, out.N) == shape
    out.validate()
    assert all(sum(row) == out.n for row in out.mask)


def test_step_rejects_invalid_input():
    bad = PatternMatrix(((True, False, True), (False, True, True)))
    # trailing column has no zero entry
    with pytest.raises(PatternViolation):
        step_I(bad)


def _permuted_plan_masks():
    # every plan's mask for n <= 6 and three per n up to 10, each under two
    # seeded row and column relabelings, so the steps meet unnormalized input
    rng = random.Random(30)
    for n in range(3, 11):
        lengths = range(2 * n, n * (n + 1) // 2 + 1)
        if n > 6:
            lengths = [lengths[0], lengths[len(lengths) // 2], lengths[-1]]
        for N in lengths:
            pat = build_pattern(plan(n, N))
            for _ in range(2):
                rows, cols = list(range(n)), list(range(N))
                rng.shuffle(rows)
                rng.shuffle(cols)
                yield permute_rows(pat, rows).permute_columns(cols)


STEP_DIGEST = "cfc2664d49baba135223801308a60c19586fc6269810d175c19c2051288dbd7a"


def test_steps_on_permuted_plan_masks_match_the_search_and_validate():
    # step II against the splice search it replaced; all three steps against
    # the masks recorded when every step validated its own output
    h = hashlib.sha256()
    for a in _permuted_plan_masks():
        outs = step_I(a), step_II(a), step_III(a)
        assert outs[1] == searched_step_II(a)
        for b in outs:
            b.validate()
            h.update(repr(b.mask).encode())
    assert h.hexdigest() == STEP_DIGEST


def test_the_one_by_one_mask_is_the_only_valid_mask_below_n_3():
    valid = []
    for n in (1, 2):
        for N in range(1, 7):
            for cells in itertools.product((False, True), repeat=n * N):
                p = PatternMatrix(tuple(tuple(cells[i * N : (i + 1) * N]) for i in range(n)))
                try:
                    p.validate()
                except PatternViolation:
                    continue
                valid.append(p.mask)
    assert valid == [((True,),)]


@pytest.mark.parametrize("step", [step_I, step_II, step_III])
def test_steps_refuse_the_one_by_one_mask(step):
    with pytest.raises(PatternViolation, match="n >= 3"):
        step(PatternMatrix(((True,),)))


@pytest.mark.parametrize("mask", [(), ((True,), (True, False, True))], ids=["empty", "ragged"])
def test_validate_rejects_a_mask_that_is_not_a_rectangle(mask):
    with pytest.raises(PatternViolation, match="shape"):
        PatternMatrix(mask).validate()


def test_identity_columns_are_read_from_the_mask():
    p = PatternMatrix(((True, False, True, True), (False, True, True, False)))
    assert (p.n, p.N) == (2, 4)
    assert p.identity_columns() == [0, 1]
    assert p.permute_columns([2, 1, 3, 0]).identity_columns() == [2, 1]
    assert permute_rows(p, [1, 0]).identity_columns() == [1, 0]
    # no column is nonzero in row 1 alone
    assert PatternMatrix(((True, True), (False, True))).identity_columns() is None


def test_plan_known_paths():
    assert plan(3, 6).steps == ("base36",)
    assert plan(4, 8).steps == ("base36", "step_III")
    assert plan(4, 9).steps == ("base36", "step_II")
    assert plan(4, 10).steps == ("base36", "step_I")


def _replay_shape(steps):
    """The (n, N) that a plan's steps reach from the 3x6 base."""
    n, N = 3, 6
    for s in steps[1:]:
        n, N = {"step_I": (n + 1, N + n + 1), "step_II": (n + 1, N + n), "step_III": (n + 1, N + 2)}[s]
    return n, N


def test_plan_exists_for_every_target():
    for n in range(3, 9):
        for N in range(2 * n, n * (n + 1) // 2 + 1):
            p = plan(n, N)
            assert _replay_shape(p.steps) == (n, N)


def test_plan_out_of_range():
    with pytest.raises(OutOfRange):
        plan(3, 7)
    with pytest.raises(OutOfRange):
        plan(2, 4)
    with pytest.raises(OutOfRange):
        plan(4, 7)


def test_plan_agrees_with_the_memoised_search_up_to_n_40():
    for n in range(3, 41):
        for N in range(2 * n, n * (n + 1) // 2 + 1):
            assert plan(n, N).steps == searched_plan_steps(n, N), (n, N)


def test_plan_is_a_loop_at_any_n():
    # one step per dimension above 3, so no recursion limit
    p = plan(600, 1800)
    assert len(p.steps) == 598
    assert _replay_shape(p.steps) == (600, 1800)


tail_instances = st.integers(2, 6).flatmap(
    lambda slots: st.tuples(
        st.lists(st.integers(0, 7), unique=True, min_size=1, max_size=4),
        st.fixed_dictionaries(
            {
                i: st.lists(st.integers(0, 7), unique=True, min_size=1, max_size=5)
                for i in range(1, slots)
            }
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(tail_instances)
def test_assign_tail_agrees_with_backtracking(instance):
    # eight columns for up to five slots: about a third of the instances have no assignment
    tail_cands, chain_cands = instance
    got = _assign_tail(tail_cands, chain_cands)
    assert got == backtrack_assign_tail(tail_cands, chain_cands)
    if got is not None:
        tail, chain = got
        assert len({tail, *chain.values()}) == len(chain) + 1
        assert all(j in chain_cands[i] for i, j in chain.items())


def test_building_a_deep_pattern_takes_polynomially_many_matchings(record_calls):
    # the representative systems of each step's input validate (the base's
    # included) and step III's tail checks; no step validates its output
    prframes.construct._pattern.cache_clear()
    matchings = record_calls(prframes.construct, "_matching")
    pat = build_pattern(plan(22, 66))
    assert (pat.n, pat.N) == (22, 66)
    assert len(matchings) == 445


def test_patterns_along_plans_validate():
    for n, N in [(5, 11), (6, 14), (6, 18), (6, 21)]:
        pat = build_pattern(plan(n, N))
        pat.validate()
        assert (pat.n, pat.N) == (n, N)


PATTERN_DIGEST = "1a1e74ef3ef866fbccf22e790333cdbfd24368dde1e436a927b1a9ea8be5822f"


def test_patterns_and_draws_match_the_recorded_digest():
    # every plan's mask, identity columns and seed-0 draw for 3 <= n <= 10
    h = hashlib.sha256()
    for n in range(3, 11):
        for N in range(2 * n, n * (n + 1) // 2 + 1):
            pat = build_pattern(plan(n, N))
            h.update(repr((n, N, pat.mask, pat.identity_columns())).encode())
            h.update(repr(instantiate(pat, 1 << 16, 0).vectors).encode())
    assert h.hexdigest() == PATTERN_DIGEST


WIDE_PATTERN_DIGEST = "8c65a8d81f7eb54f65af276ca1dc5f62f2f2b065d52767dc8cd87e79269b6179"


def test_wide_patterns_match_the_recorded_digest():
    # every plan's mask and identity columns for 11 <= n <= 16, recorded
    # when step III's tail was found by backtracking
    h = hashlib.sha256()
    for n in range(11, 17):
        for N in range(2 * n, n * (n + 1) // 2 + 1):
            pat = build_pattern(plan(n, N))
            h.update(repr((n, N, pat.mask, pat.identity_columns())).encode())
    assert h.hexdigest() == WIDE_PATTERN_DIGEST


FULL_SPARK_DIGEST = "75a384c2b0fa6de411962e5085202890914530ed1143b4c2f4a6ace619dcb9ba"


def test_shortest_exact_frames_match_the_recorded_digest():
    # the frame, certificate and spark of generate_exact_pr(n, 2n - 1, s) for
    # 3 <= n <= 10 and s = 0..2, recorded when every CP proof and spark
    # there ran the exact searches
    h = hashlib.sha256()
    for n in range(3, 11):
        for s in range(3):
            cert = generate_exact_pr(n, 2 * n - 1, s)
            h.update(repr((n, s, cert.frame.vectors, cert.certificate)).encode())
            h.update(repr(spark(cert.frame)).encode())
    assert h.hexdigest() == FULL_SPARK_DIGEST


def test_instantiate_respects_pattern():
    pat = base_pattern_36()
    f = instantiate(pat, 1 << 16, 3)
    assert (f.dim, f.N) == (3, 6)
    for j in range(3):
        col = f.vectors[j]
        assert col[j] == 1 and sum(1 for x in col if x != 0) == 1
    for i in range(3):
        for j in range(6):
            assert (f.vectors[j][i] != 0) == pat.mask[i][j]


def test_generate_exact_small_against_bruteforce():
    for n, N, seed in [(3, 5, 0), (3, 6, 1), (2, 3, 2)]:
        cert = generate_exact_pr(n, N, seed)
        assert cert.certificate["exact_pr"]
        assert brute_is_exact_pr(cert.frame)


def test_generate_exact_full_spark_path():
    cert = generate_exact_pr(4, 7, seed=5)
    assert is_full_spark(cert.frame)
    assert cert.certificate["plan"] == ["full_spark"]


minimal_length_families = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=2 * n - 1,
            max_size=2 * n - 1,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(minimal_length_families)
def test_exact_iff_full_spark_at_minimal_length(family):
    # why the 2n-1 branch of generate_exact_pr needs no separate spark proof
    n, vecs = family
    try:
        frame = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    assert is_exact_pr_frame(frame).exact == is_full_spark(frame)


def test_generate_exact_work_ceiling_7_13(span_tests):
    # the whole call: draws, frame construction and the exactness proof
    cert = generate_exact_pr(7, 13, 0)
    assert cert.certificate["plan"] == ["full_spark"]
    assert span_tests[0] <= 6050
    # a PR frame of length 2n - 1 is exact by counting: no removal search
    assert span_tests[0] <= 3800


@pytest.mark.parametrize("n, N, range_max", [(5, 9, 2), (3, 5, 3)])
def test_draw_that_does_not_span_is_a_failed_attempt(n, N, range_max):
    # with entries in 1..range_max a dense draw of length 2n-1 can miss a
    # dimension; the generator tries its next seed instead of failing
    for seed in range(40):
        try:
            cert = generate_exact_pr(n, N, seed, range_max=range_max)
        except RetriesExhausted:
            continue
        assert brute_is_exact_pr(cert.frame)


def test_redundancy_component_retries_a_draw_that_does_not_span(monkeypatch):
    draws = []
    real = prframes.construct.sample_int_matrix

    def rank_one_first(rows, cols, range_max, seed):
        draws.append(((1,) * cols,) * rows if not draws else real(rows, cols, range_max, seed))
        return draws[-1]

    monkeypatch.setattr(prframes.construct, "sample_int_matrix", rank_one_first)
    frame = _redundancy_component(3, 4, seed=0)
    assert len(draws) == 2
    assert frame == Frame.from_vectors(zip(*draws[1]), dim=3) and brute_spark(frame) == 4


short_families = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(n, 2 * n - 2).flatmap(
            lambda N: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=N, max_size=N
            )
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(short_families)
def test_full_spark_short_families_have_exact_redundancy(family):
    # why _redundancy_component certifies a short component by full spark alone
    n, vecs = family
    try:
        frame = Frame.from_vectors(vecs, dim=n)
    except NotAFrame:
        assume(False)
    assume(brute_spark(frame) == n + 1)
    assert brute_pr_redundancy(frame) == 1


@pytest.mark.parametrize(
    "module, check, verdict, call, message",
    [
        pytest.param(
            prframes.construct, "is_exact_pr_frame", SimpleNamespace(exact=False),
            lambda: generate_exact_pr(3, 5, 0), "full-spark sampling failed for (n=3, N=5)",
            id="exact-dense",
        ),
        pytest.param(
            prframes.construct, "is_exact_pr_frame", SimpleNamespace(exact=False),
            lambda: generate_exact_pr(3, 6, 0), "pattern instantiation failed for (n=3, N=6)",
            id="exact-pattern",
        ),
        pytest.param(
            prframes.frames.Frame, "_d", 0, lambda: generate_with_dmax(4, 3, 6, 0),
            "generation failed for (n=4, k=3, N=6): d != 3 for the sampled instance",
            id="dmax",
        ),
        pytest.param(
            prframes.construct, "is_full_spark", False, lambda: _redundancy_component(3, 4, 0),
            "short component (3, 4) failed to certify", id="short-component",
        ),
        pytest.param(
            prframes.construct, "is_full_spark", False, lambda: _full_spark_fill(3, 0),
            "full-spark fill failed", id="full-spark-fill",
        ),
    ],
)
def test_generator_gives_up_after_retries_plus_one_draws(
    record_calls, module, check, verdict, call, message
):
    # every draw spans, so each is checked once, and every check fails
    checks = record_calls(module, check, verdict)
    with pytest.raises(RetriesExhausted) as exc:
        call()
    assert len(checks) == RETRIES + 1
    assert str(exc.value) == message


def test_generate_exact_deterministic():
    a = generate_exact_pr(4, 9, seed=77)
    b = generate_exact_pr(4, 9, seed=77)
    assert a.frame.vectors == b.frame.vectors


def test_generate_exact_out_of_range():
    with pytest.raises(OutOfRange):
        generate_exact_pr(3, 7, seed=0)
    with pytest.raises(OutOfRange):
        generate_exact_pr(3, 4, seed=0)


@pytest.mark.parametrize("n, N, range_max", [(3, 5, 1), (3, 6, 0)], ids=["dense", "pattern"])
def test_generate_exact_rejects_range_max_below_2(n, N, range_max):
    # checked before any draw, for the dense and the pattern path alike
    with pytest.raises(OutOfRange, match=f"range_max must be >= 2, got {range_max}"):
        generate_exact_pr(n, N, seed=0, range_max=range_max)


def test_direct_sum_embedding():
    f1 = generate_exact_pr(3, 6, seed=0).frame
    f2 = generate_exact_pr(2, 3, seed=0).frame
    f = compose_direct_sum(f1, f2)
    assert (f.dim, f.N) == (5, 9)
    assert has_exact_pr_redundancy(f)
    assert d_max(f) == 3
    for j in range(6):
        assert all(x == 0 for x in f.vectors[j][3:])
    for j in range(6, 9):
        assert all(x == 0 for x in f.vectors[j][:3])


@st.composite
def rational_frames(draw):
    """n vectors of R^n (n <= 4) then up to 3 more; entries p/q with q in 1..4."""
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    vec = st.lists(entry, min_size=n, max_size=n)
    return n, draw(st.lists(vec, min_size=n, max_size=n + 3))


@settings(max_examples=100, deadline=None)
@given(rational_frames())
def test_as_identity_leading_agrees_with_sympy(case):
    # the similar frame lead^-1 F, whose first n vectors are e_1 .. e_n
    n, vecs = case
    cols = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vecs]).T
    lead = cols[:, :n]
    assume(lead.det() != 0)
    g = _as_identity_leading(CertifiedFrame(Frame.from_vectors(vecs, dim=n), {}))
    assert g.vectors[:n] == tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    expected = lead.inv() * cols
    assert g.vectors == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in expected.col(j)) for j in range(len(vecs))
    )


@pytest.mark.parametrize(
    "n,k,N",
    [
        (3, 2, 3),  # smallest slice-tilt case
        (4, 2, 4),  # shorter than two phase-retrievable components allow
        (5, 3, 7),  # ditto, one component at its bare minimum
        (6, 3, 7),  # needs a non-PR short component
        (5, 3, 9),  # two exact components
        (6, 4, 13),
    ],
)
def test_generate_with_dmax_targets(n, k, N):
    cert = generate_with_dmax(n, k, N, seed=8)
    f = cert.frame
    assert (f.dim, f.N) == (n, N)
    assert cert.certificate["d"] == k
    assert d_max(f) == k


@pytest.mark.parametrize("n, k, N", [(9, 5, 25), (8, 7, 25)])
def test_generate_with_dmax_past_the_d_max_cap(n, k, N):
    # admissible lengths above d_max's cap are certified by the uncapped
    # search that d_max reads; d_max itself still refuses them
    cert = generate_with_dmax(n, k, N, seed=0)
    f = cert.frame
    assert (f.dim, f.N) == (n, N)
    assert cert.certificate["d"] == k == f._d
    with pytest.raises(CapExceeded, match=f"N={N} exceeds enumeration cap 24"):
        d_max(f)


def test_generate_with_dmax_small_redundancy_crosscheck():
    for n, k, N in [(3, 2, 3), (3, 2, 4), (4, 2, 4), (4, 2, 5), (4, 3, 6)]:
        cert = generate_with_dmax(n, k, N, seed=21)
        assert has_exact_pr_redundancy(cert.frame)


def test_generate_with_dmax_bounds():
    with pytest.raises(OutOfRange):
        generate_with_dmax(4, 1, 3, seed=0)  # k below the admissible floor
    with pytest.raises(OutOfRange):
        generate_with_dmax(5, 3, 4, seed=0)  # too short
    with pytest.raises(OutOfRange):
        generate_with_dmax(5, 3, 10, seed=0)  # too long
    with pytest.raises(OutOfRange):
        generate_with_dmax(4, 2, 3, seed=0)  # cannot span R^4 with 3 vectors
    # boundary: minimal admissible k accepted
    cert = generate_with_dmax(4, 2, 6, seed=1)
    assert cert.certificate["d"] == 2


def test_basis_with_maximal_subspace():
    basis, sub = basis_with_maximal_subspace(5, 2, seed=4)
    assert basis.N == basis.dim == 5
    assert sub.dim == 2
    assert is_pr_subspace(basis, sub)
    assert is_maximal_pr_subspace(basis, sub).status == "Maximal"
    # the subspace projection of the basis has exactly 2k-1 nonzero vectors
    from prframes import project_frame

    proj = project_frame(basis, sub)
    nonzero = [v for v in proj if any(x != 0 for x in v)]
    assert len(nonzero) == 3


def test_basis_with_maximal_subspace_proves_pr_once(monkeypatch):
    import prframes.subspaces

    calls = [0]
    inner = prframes.subspaces.is_pr_subspace

    def counting(frame, sub):
        calls[0] += 1
        return inner(frame, sub)

    monkeypatch.setattr(prframes.subspaces, "is_pr_subspace", counting)
    basis_with_maximal_subspace(7, 3, 4)
    assert calls[0] == 1


def test_basis_with_maximal_subspace_bounds():
    with pytest.raises(OutOfRange):
        basis_with_maximal_subspace(4, 3, seed=0)
    with pytest.raises(OutOfRange):
        basis_with_maximal_subspace(3, 0, seed=0)
    basis, sub = basis_with_maximal_subspace(3, 1, seed=0)
    assert sub.dim == 1 and min_support(sub, basis) == 1
