"""The lifted view: rank-one measurements and failure witnesses.

A frame fails to retrieve phase exactly when some pair x, y (with x != y and
x != -y) produces identical measurement magnitudes. Such a pair is a
certificate anyone can re-check by hand; this demo produces and validates
them.
"""

from prframes import (
    Frame,
    find_s2_element,
    find_s2_witness,
    has_exact_pr_redundancy,
    pr_redundancy,
)
from prframes.curated import r3_example_frame, r3_example_witnesses


def fmt(v):
    return "(" + ", ".join(str(c) for c in v) + ")"


def main():
    basis = Frame.from_vectors([(1, 0), (0, 1)], dim=2)
    w = find_s2_element(basis, range(2))
    print("== A confusion pair for the R^2 basis ==")
    print(f"x = {fmt(w.x)}, y = {fmt(w.y)}")
    print("  |<e_i, x>| = |<e_i, y>| for both basis vectors, yet x != +-y.\n")

    f = r3_example_frame()
    print("== Removal witnesses for {e1, e2, e3, e1+e2, e1+e2+e3} ==")
    print(f"exact redundancy (no vector is expendable): {has_exact_pr_redundancy(f)}")
    print(f"redundancy ratio N/k = {pr_redundancy(f)}")
    for removed, w in sorted(r3_example_witnesses().items()):
        retained = [j for j in range(f.N) if j != removed]
        ok = w.validate(f, retained)
        print(f"  drop index {removed}: witness x={fmt(w.x)}, y={fmt(w.y)}  validates={ok}")
    print("\n== The engine can also find its own witness ==")
    retained = [1, 2, 3, 4]
    w = find_s2_witness(f, retained)
    print(
        f"  drop index 0: found x={fmt(w.x)}, y={fmt(w.y)}, "
        f"differing index {w.differing_index}  validates={w.validate(f, retained)}"
    )


if __name__ == "__main__":
    main()
