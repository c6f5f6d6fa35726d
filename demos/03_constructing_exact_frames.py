"""Certified construction of exact phase-retrievable frames.

Every admissible length N in [2n-1, n(n+1)/2] is reachable: short lengths by
full-spark sampling, longer ones by growing a 3x6 sparsity pattern through
three inductive steps and filling it with random rationals. Each result is
verified before it is returned, and the certificate records how.
"""

from prframes import build_pattern, generate_exact_pr, plan


def shapes(steps):
    """The (n, N) after each step, from the 3x6 base: each step adds a row and some columns."""
    out = [(3, 6)]
    for s in steps[1:]:
        n, N = out[-1]
        out.append({"step_I": (n + 1, N + n + 1), "step_II": (n + 1, N + n), "step_III": (n + 1, N + 2)}[s])
    return out


def main():
    print("== Construction plans ==")
    for n, N in [(3, 6), (4, 8), (5, 12), (6, 21)]:
        p = plan(n, N)
        print(f"  ({n},{N}): {' -> '.join(p.steps)}  shapes {shapes(p.steps)}")

    print("\n== The (4,9) sparsity pattern ==")
    pat = build_pattern(plan(4, 9))
    for row in pat.mask:
        print("   " + "".join("#" if cell else "." for cell in row))
    print("  (# = free nonzero cell; every row has exactly n of them)")

    print("\n== Generate and certify ==")
    for n, N in [(3, 5), (4, 9), (5, 14), (6, 21)]:
        cert = generate_exact_pr(n, N, seed=42)
        c = cert.certificate
        print(
            f"  ({n},{N}): exact={c['exact_pr']}  d(F)={c['d']}  "
            f"plan={c['plan']}  retries={c['retries']}"
        )


if __name__ == "__main__":
    main()
