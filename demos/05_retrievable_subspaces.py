"""Phase retrieval on subspaces: supports, maximality, and extension.

Even a frame that cannot retrieve phase globally (a basis!) retrieves it on
suitable subspaces. The dual-basis support of a vector controls everything:
a k-dimensional retrievable subspace needs every nonzero vector to touch at
least k coordinates, and maximal ones achieve exactly k.
"""

from prframes import (
    Frame,
    Subspace,
    d_max,
    extend_to_maximal,
    is_maximal_pr_subspace,
    is_pr_subspace,
    min_support,
    support,
)
from prframes.curated import r4_example_subspace, r4_standard_basis


def main():
    basis = r4_standard_basis()
    sub = r4_example_subspace()
    print("== span{(1,1,1,0), (1,-1,0,1)} inside R^4, w.r.t. the basis ==")
    print(f"  retrievable subspace: {is_pr_subspace(basis, sub)}")
    print(f"  minimum support over nonzero members: {min_support(sub, basis)}")
    print(f"  verdict: {is_maximal_pr_subspace(basis, sub).status}")
    print(f"  (d of the basis frame is {d_max(basis)}, so dimension 2 is the ceiling)\n")

    print("== Growing a subspace from a single vector ==")
    basis5 = Frame.from_vectors(
        [tuple(int(i == j) for i in range(5)) for j in range(5)], dim=5
    )
    x = (1, 1, 1, 0, 0)
    print(f"  start from x = {x}, support {sorted(support(x, basis5))}")
    m = extend_to_maximal(basis5, x, seed=2)
    print(f"  extended to dimension {m.dim}; basis rows of the result:")
    for v in m.basis:
        print("    (" + ", ".join(str(c) for c in v) + ")")
    print(f"  min support = {min_support(m, basis5)} (equals the dimension: maximal)")
    print(f"  verdict: {is_maximal_pr_subspace(basis5, m).status}\n")

    print("== A retrievable line that is not maximal ==")
    line = Subspace.from_vectors([(1, 2, 3, 4, 5)], ambient_dim=5)
    v = is_maximal_pr_subspace(basis5, line)
    print(f"  span{{(1,2,3,4,5)}}: verdict {v.status}")
    print(f"  certified larger subspace found, dimension {v.witness.dim}")


if __name__ == "__main__":
    main()
