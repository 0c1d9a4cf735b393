"""Wall-crossing translation and Bott-Samelson decompositions in B2.

Translation onto a wall and back is computed on classes of Vermas; the
composite must agree with right multiplication by the canonical basis
element of the wall's longest reflection subgroup, which is checked
live here.  Bott-Samelson modules decompose with multiplicities in
N[v, v^-1] read off from canonical-basis products.
"""

from klblocks import (
    bott_samelson_decomposition,
    hecke_algebra,
    standard_block,
    translate_onto_wall,
    translation_composite,
    weyl_group,
)
from klblocks.laurent import LaurentPoly

group = weyl_group("B2")
hecke = hecke_algebra("B2")


def label(w):
    return ".".join(map(str, w.word)) or "e"


for J in (frozenset({1}), frozenset({2})):
    wall = standard_block(group, (), J)
    w_wall = group.parabolic_longest(J)
    c_wall = hecke.kl_element(w_wall)
    print(f"wall J = {sorted(J)}")
    for x in group.min_coset_reps(J):
        down = translate_onto_wall(wall, {x: LaurentPoly.one()})
        composite = translation_composite(wall, x)
        product = dict((hecke.t(x) * c_wall).items())
        terms = ", ".join(
            f"{p} [{label(y)}]"
            for y, p in sorted(composite.items(), key=lambda kv: kv[0].index)
        )
        print(f"   [{label(x)}] -> wall {[label(y) for y in down]}"
              f" -> back: {terms}")
        assert composite == product
    print("   composite equals right multiplication by C_wall")
    print()

# Bott-Samelson decompositions: one reduced word per element.  The top
# class appears once, everything else sits strictly below in the
# Bruhat order, and a graded dimension count pins the one shift.
print("Bott-Samelson decompositions, one word per element:")
for x in group.elements:
    report = bott_samelson_decomposition(hecke, x.word)
    terms = ", ".join(
        f"{m} [{label(y)}]"
        for y, m in sorted(report.multiplicities.items(),
                           key=lambda kv: kv[0].index)
    )
    flags = all((report.top_multiplicity_ok, report.support_ok,
                 report.natural_coeffs_ok, report.dimension_identity_ok))
    print(f"   word {'.'.join(map(str, report.word)) or 'e':10s}"
          f" shift v^{report.shift}  {terms}   checks {flags}")
