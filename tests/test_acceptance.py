"""End-to-end acceptance suite.

Each test covers one release criterion and emits a single PASS line on the
real terminal (capture disabled) so the run log shows an explicit verdict
per criterion.
"""

import random
import time

import pytest

from oracles import greedy_lifted_completion
from prframes import (
    Frame,
    OutOfRange,
    basis_with_maximal_subspace,
    clear_denominators,
    d_max,
    extend_to_maximal,
    find_s2_element,
    generate_exact_pr,
    generate_with_dmax,
    has_complement_property,
    has_exact_pr_redundancy,
    is_exact_pr_frame,
    is_maximal_pr_subspace,
    is_phase_retrievable,
    is_pr_subspace,
    lifted_independent,
    min_support,
    random_pr_subspace,
)
from prframes import curated
from prframes.ratlin import int_rank


def report(capsys, label: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance] {label}: PASS")


def std_basis(n):
    return Frame.from_vectors([tuple(int(i == j) for i in range(n)) for j in range(n)], dim=n)


def full_cp_scan(frame) -> bool:
    """Exhaustive complement-property check over all 2^(N-1) symmetry-reduced
    subsets (vector 0 pinned to the subset, complements covered by symmetry)."""
    n = frame.dim
    cols = [clear_denominators(v) for v in frame.vectors]
    N = len(cols)
    rest = list(range(1, N))
    for mask in range(1 << (N - 1)):
        lam = [cols[0]] + [cols[j] for b, j in enumerate(rest) if mask >> b & 1]
        comp = [cols[j] for b, j in enumerate(rest) if not mask >> b & 1]
        if len(lam) >= n and int_rank(lam) == n:
            continue
        if len(comp) >= n and int_rank(comp) == n:
            continue
        return False
    return True


def test_criterion_01_embedded_matrices_exact(capsys):
    frames = curated.curated_exact_frames()
    assert sorted(frames) == [10, 11, 12, 13, 14, 15]
    for N, frame in frames.items():
        t0 = time.monotonic()
        assert full_cp_scan(frame), f"(5,{N}) fails the complement property"
        for i in range(frame.N):
            reduced = Frame.from_vectors(
                [frame.vectors[j] for j in range(frame.N) if j != i], dim=5
            )
            assert not has_complement_property(reduced).holds, (
                f"(5,{N}) survives removal of vector {i}"
            )
        assert time.monotonic() - t0 < 60
    report(capsys, "criterion 01 embedded (5,10)..(5,15) matrices exact")


def test_criterion_02_generator_coverage(capsys):
    targets = [
        (n, N)
        for n in range(3, 7)
        for N in range(2 * n - 1, n * (n + 1) // 2 + 1)
    ]
    assert len(targets) == 24
    for n, N in targets:
        total_retries = 0
        for seed in range(100):
            cert = generate_exact_pr(n, N, seed)
            assert cert.certificate["exact_pr"]
            assert (cert.frame.dim, cert.frame.N) == (n, N)
            total_retries += cert.certificate["retries"]
        assert total_retries <= 5, f"target ({n},{N}) needed {total_retries} retries"
    report(capsys, f"criterion 02 generator coverage, {len(targets)} targets x 100 seeds")


def test_criterion_02_generator_coverage_n7_n8(capsys):
    targets = [
        (n, N, seeds)
        for n, seeds in ((7, 5), (8, 1))
        for N in range(2 * n - 1, n * (n + 1) // 2 + 1)
    ]
    assert len(targets) == 16 + 22
    for n, N, seeds in targets:
        total_retries = 0
        for seed in range(seeds):
            cert = generate_exact_pr(n, N, seed)
            assert cert.certificate["exact_pr"]
            assert (cert.frame.dim, cert.frame.N) == (n, N)
            total_retries += cert.certificate["retries"]
        assert total_retries <= 5, f"target ({n},{N}) needed {total_retries} retries"
    report(capsys, f"criterion 02 generator coverage, {len(targets)} targets with n = 7, 8")


def test_criterion_03_r3_example(capsys):
    f = curated.r3_example_frame()
    assert d_max(f) == 2
    assert has_exact_pr_redundancy(f)
    witnesses = curated.r3_example_witnesses()
    for removed in (2, 3, 4):
        w = witnesses[removed]
        retained = [j for j in range(f.N) if j != removed]
        assert w.validate(f, retained)
        assert w.differing_index == removed
    report(capsys, "criterion 03 R^3 five-vector example")


def test_criterion_04_basis_dimension_law(capsys):
    for n in range(2, 7):
        lo_bound = (n + 1) // 2
        assert d_max(std_basis(n)) == lo_bound
        for k in range(0, n + 2):
            if 1 <= k <= lo_bound:
                basis, sub = basis_with_maximal_subspace(n, k, seed=1)
                assert sub.dim == k
                assert is_pr_subspace(basis, sub)
                assert is_maximal_pr_subspace(basis, sub).status == "Maximal"
            else:
                with pytest.raises(OutOfRange):
                    basis_with_maximal_subspace(n, k, seed=1)
    report(capsys, "criterion 04 basis dimension law, n = 2..6")


def test_criterion_05_r4_subspace_example(capsys):
    basis = curated.r4_standard_basis()
    sub = curated.r4_example_subspace()
    assert is_pr_subspace(basis, sub)
    assert min_support(sub, basis) == 3
    assert is_maximal_pr_subspace(basis, sub).status == "Maximal"
    report(capsys, "criterion 05 R^4 maximal subspace example")


def test_criterion_06_oracle_equivalence(capsys):
    rng = random.Random(123)
    checked = 0
    disagreements = 0
    while checked < 200:
        n = rng.randint(2, 4)
        N = rng.randint(n, 8)
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(N)]
        try:
            f = Frame.from_vectors(vecs, dim=n)
        except Exception:
            continue
        checked += 1
        cp = has_complement_property(f).holds
        s2 = find_s2_element(f, range(f.N)) is None
        if cp != s2:
            disagreements += 1
    assert checked >= 200 and disagreements == 0
    report(capsys, "criterion 06 CP decision == lifted S2-kernel decision, 200 frames")


def test_criterion_07_support_bound_suite(capsys):
    instances = 0
    for n in range(3, 7):
        basis = std_basis(n)
        top = (n + 1) // 2
        for ell in range(1, top + 1):
            for seed in range(50):
                sub = random_pr_subspace(basis, ell, seed=seed)
                assert min_support(sub, basis) >= sub.dim
                instances += 1
    for n in range(3, 7):
        basis = std_basis(n)
        for size in range(1, (n + 1) // 2 + 1):
            for seed in range(5):
                rng = random.Random(seed * 97 + n)
                x = [0] * n
                pos = rng.sample(range(n), size)
                for p in pos:
                    x[p] = rng.randint(1, 9)
                sub = extend_to_maximal(basis, x, seed=seed)
                assert min_support(sub, basis) == sub.dim
                assert is_maximal_pr_subspace(basis, sub).status == "Maximal"
                instances += 1
    assert instances >= 500
    report(capsys, f"criterion 07 support bounds over {instances} subspace instances")


def _admissible_dmax_targets():
    out = []
    for n in range(3, 7):
        for k in range((n + 1) // 2, n + 1):
            hi = k * (k + 1) // 2 + (n - k) * (n - k + 1) // 2
            for N in range(max(2 * k - 1, n), hi + 1):
                out.append((n, k, N))
    return out


def test_criterion_08_dmax_prescribed_generation(capsys):
    targets = _admissible_dmax_targets()
    assert targets
    for n, k, N in targets:
        cert = generate_with_dmax(n, k, N, seed=5)
        f = cert.frame
        assert (f.dim, f.N) == (n, N)
        assert cert.certificate["d"] == k
        assert d_max(f) == k
        # direct redundancy cross-check where the witness scan stays cheap
        if N <= 9:
            assert has_exact_pr_redundancy(f)
    report(capsys, f"criterion 08 prescribed d(F) generation, {len(targets)} targets")


def test_criterion_09_lifted_complete_frames_not_exact(capsys):
    for n in (3, 4):
        rng = random.Random(n)
        base = generate_exact_pr(n, 2 * n - 1, seed=n).frame
        full = greedy_lifted_completion(base, rng)
        assert full.N == n * (n + 1) // 2
        assert lifted_independent(full)
        assert is_phase_retrievable(full)
        res = is_exact_pr_frame(full)
        assert not res.exact
    report(capsys, "criterion 09 lifted-complete frames are PR but never exact")


def test_criterion_10_length_bound_under_small_d(capsys):
    violations = 0
    checked = 0
    for n, k, N in _admissible_dmax_targets():
        if k == n:
            continue
        cert = generate_with_dmax(n, k, N, seed=9)
        checked += 1
        # construction certifies exact PR-redundancy with d(F) = k < n
        if cert.frame.N >= n * (n + 1) // 2:
            violations += 1
    for n in range(3, 7):
        for N in range(2 * n - 1, n * (n + 1) // 2 + 1):
            f = generate_exact_pr(n, N, seed=17).frame
            checked += 1
            if d_max(f) < n and f.N >= n * (n + 1) // 2:
                violations += 1
    assert checked > 0 and violations == 0
    report(capsys, f"criterion 10 length bound, {checked} frames, zero violations")
