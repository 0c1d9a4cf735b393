"""Graded decomposition data for regular and wall blocks of A2.

A block is picked by a pair of antidominant weights.  The graded
decomposition matrix d records [Verma(x) : simple(y)<k>] as a Laurent
polynomial in v; its inverse, the Cartan matrix and the graded length
data all come from the same Kazhdan-Lusztig table.
"""

from klblocks import (
    decomposition_matrix,
    graded_cartan_matrix,
    graded_length_report,
    hecke_algebra,
    inverse_decomposition_matrix,
    make_block,
    matrix_to_table,
    standard_block,
    vp_center,
    vp_graded_dimension,
    weyl_group,
)

group = weyl_group("A2")
hecke = hecke_algebra("A2")

# The regular block: six Vermas, one per Weyl group element.
regular = make_block(group, (-2, -2), (-2, -2))
d = decomposition_matrix(regular, hecke)
print("regular block decomposition matrix (rows Vermas, columns simples):")
print(matrix_to_table(d))

e = inverse_decomposition_matrix(regular, hecke)
print()
print("its inverse (signed, same triangular shape):")
print(matrix_to_table(e))
print("product is the identity:", (d @ e).is_identity())

# At v = 1 the entries become ordinary multiplicities; in A2 every one
# of them is 0 or 1.
print()
print("multiplicities at v=1:", d.eval_at_one())

# A singular block: the weight (-1,-2) sits on the wall J = {1}, so
# Vermas are indexed by the three minimal coset representatives.
wall = standard_block(group, (), {1})
print()
print("wall block J={1}, index set",
      [".".join(map(str, w.word)) or "e" for w in wall.index_set])
print(matrix_to_table(decomposition_matrix(wall, hecke)))

print()
print("graded Cartan matrix of the wall block:")
print(matrix_to_table(graded_cartan_matrix(wall, hecke)))

# Graded lengths: each Verma reaches degree l(x), each projective
# reaches 2(l(w0) - l(w_J)) - l(x).
print()
print("graded lengths (top degrees):")
for row in graded_length_report(wall, hecke):
    word = ".".join(map(str, row.x.word)) or "e"
    print(f"   x = {word:6s} Verma top {row.verma_top}"
          f"  projective top {row.projective_top}  ok {row.ok}")

# The graded dimension of each weight piece of the big projective is
# palindromic about l(w0) - l(w_J).
center = vp_center(wall)
print()
print("graded dimensions on the wall, palindromic about", center)
for x in wall.index_set:
    vp = vp_graded_dimension(wall, hecke, x)
    word = ".".join(map(str, x.word)) or "e"
    print(f"   x = {word:6s} {vp.render():12s}",
          "palindromic:", vp.is_palindromic(center))
