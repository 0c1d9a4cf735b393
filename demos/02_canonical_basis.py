"""The Hecke algebra and its canonical basis, computed exactly in A3.

The algebra lives over Laurent polynomials in v.  The canonical basis
element C_w is the unique bar-invariant element with unit leading term
and strictly negative exponents below; its coefficients encode the
Kazhdan-Lusztig polynomials P_{y,w} in q = v^2.
"""

from klblocks import hecke_algebra, weyl_group

group = weyl_group("A3")
hecke = hecke_algebra("A3")

s1 = group.simple(1)
s2 = group.simple(2)

# The defining relation: T_s^2 = (v - v^-1) T_s + 1.
t_s = hecke.t(s1)
print("T_s * T_s =", t_s * t_s)

# For a simple reflection the canonical element is T_s + v^-1.
print("C_s =", hecke.kl_element(s1))

# Bar invariance is the defining symmetry; T_s itself is not invariant.
print("bar(T_s) =", hecke.bar_t(s1))
print("bar(C_s) == C_s:", hecke.bar(hecke.kl_element(s1)) == hecke.kl_element(s1))

# The smallest interesting Kazhdan-Lusztig polynomial in type A appears
# for y = s2 under w = s2 s1 s3 s2.
y = group.word_elem((2,))
w = group.word_elem((2, 1, 3, 2))
print()
print("P_{2, 2.1.3.2} =", hecke.kl_polynomial(y, w).render("q"))

# mu(y, w) is the coefficient of q^((l(w)-l(y)-1)/2); it drives the
# multiplication recursion.
print("mu(2, 2.1.3.2) =", hecke.mu(y, w))
print("mu(e, 2) =", hecke.mu(group.identity, s2))

# Every column obeys the degree bound deg P_{y,w} <= (l(w)-l(y)-1)/2.
hecke.kl_basis_elements()
worst = 0
for ww, column in hecke.kl_table.columns():
    for yy, poly in column.items():
        if yy is ww:
            continue
        slack = (ww.length - yy.length - 1) // 2 - poly.max_exp()
        worst = max(worst, poly.max_exp())
        assert slack >= 0
print()
print("all", len(hecke.kl_table), "stored polynomials respect the degree",
      "bound; largest degree seen:", worst)

# Expanding a product of canonical elements back in the canonical basis
# gives coefficients in N[v, v^-1].
c = hecke.kl_element(s1) * hecke.kl_element(s1)
print()
print("C_1 * C_1 expands as:")
for elem, coeff in hecke.expand_in_kl_basis(c).items():
    word = ".".join(map(str, elem.word)) or "e"
    print(f"   {coeff}  C[{word}]")
