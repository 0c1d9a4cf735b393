"""Schubert classes, Demazure operators and symmetrizing forms in A2.

The coinvariant algebra is represented concretely: polynomials in the
fundamental weights, reduced modulo the invariant ideal by Demazure
projection onto the Schubert basis.  All coefficients are exact
fractions, and products of Schubert classes have natural-number
structure constants.
"""

from klblocks import coinvariant_algebra, weyl_group

group = weyl_group("A2")
coinv = coinvariant_algebra("A2")


def show(elem):
    parts = []
    for w, c in elem.items():
        word = ".".join(map(str, w.word)) or "e"
        parts.append(f"{c} X[{word}]" if c != 1 else f"X[{word}]")
    return " + ".join(parts) if parts else "0"


# A Demazure step divides a difference by a simple root; applied along
# a reduced word of w0 it collapses the staircase monomial to 1.
top = coinv.staircase_poly()
print("staircase polynomial:", top.render())
print("Demazure along w0 gives:", coinv.demazure(group.w0, top).render())

# Schubert classes multiply with nonnegative integer coefficients.
s1, s2 = group.simple(1), group.simple(2)
x1 = coinv.schubert_class(s1)
x2 = coinv.schubert_class(s2)
print()
print("X[1] * X[2] =", show(coinv.multiply(x1, x2)))
print("X[1] * X[1] =", show(coinv.multiply(x1, x1)))

# The Chevalley rule computes the same products from root pairings.
for w in group.elements:
    cls = coinv.schubert_class(w)
    assert coinv.chevalley_multiply(1, cls) == coinv.multiply(x1, cls)
print("Chevalley rule agrees with ring multiplication for every w")

# Duality: classes of complementary length pair to the top class or 0.
w12 = group.word_elem((1, 2))
w21 = group.word_elem((2, 1))
print()
print("X[1] * X[1.2] =", show(coinv.multiply(x1, coinv.schubert_class(w12))))
print("X[1] * X[2.1] =", show(coinv.multiply(x1, coinv.schubert_class(w21))))

# The parabolic symmetrizing form on W_J-invariants, here J = {1}:
# its Gram matrix on the invariant Schubert basis is nondegenerate.
J = frozenset({1})
reps, gram = coinv.gram_matrix(J)
print()
print("Gram matrix of the J={1} symmetrizing form, basis",
      [".".join(map(str, w.word)) or "e" for w in reps])
for row in gram:
    print("   ", [str(x) for x in row])

# Freeness over the parabolic piece: the certificate checks an
# expansion system of full rank and produces a dual family.
report = coinv.free_basis_over_parabolic(J)
print()
print("expansion system rank:", report.expansion_rank, "=", group.order)
size = len(report.basis_elements)
pairings = [
    [int(coinv.dual_pairing(report, a, b)) for b in range(size)]
    for a in range(size)
]
identity = [[int(a == b) for b in range(size)] for a in range(size)]
print("dual pairing matrix:", pairings, " identity:", pairings == identity)
