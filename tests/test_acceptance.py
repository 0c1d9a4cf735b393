"""Acceptance gate: twelve exact criteria, one pass/fail line each."""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from klblocks import (
    HeckeAlgebra,
    bott_samelson_decomposition,
    coinvariant_algebra,
    decomposition_matrix,
    graded_cartan_matrix,
    graded_length_report,
    hecke_algebra,
    inverse_decomposition_matrix,
    rank,
    standard_block,
    translation_composite,
    vp_graded_dimension,
    weyl_group,
)
from klblocks.checks import decomposition_by_lookup, kl_bar_solve
from klblocks.laurent import LaurentPoly


def subsets_of(group):
    n = group.rank
    return [
        frozenset(c)
        for r in range(n + 1)
        for c in combinations(range(1, n + 1), r)
    ]


def natural_number(c):
    return c == int(c) and c >= 0


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num, label):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL criterion {num:2d}: {label}", flush=True)
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                f"\nPASS criterion {num:2d}: {label} [{elapsed:.1f}s]",
                flush=True,
            )

    return _criterion


def test_criterion_01_kl_axioms(criterion):
    label = "KL basis axioms for every Bruhat pair in A3 and B3"
    with criterion(1, label):
        start = time.perf_counter()
        for kind in ("A3", "B3"):
            group = weyl_group(kind)
            hecke = HeckeAlgebra(group)
            hecke.kl_basis_elements()
            for w in group.elements:
                c_w = hecke.kl_element(w)
                assert hecke.bar(c_w) == c_w
                assert c_w.coefficient(w) == LaurentPoly.one()
                for y in c_w.support():
                    assert group.bruhat_leq(y, w)
                    if y is not w:
                        low = c_w.coefficient(y)
                        assert low.max_exp() <= -1
                for y in group.elements:
                    p = hecke.kl_polynomial(y, w)
                    if not group.bruhat_leq(y, w):
                        assert p.is_zero()
                        continue
                    assert p.has_nonnegative_coeffs()
                    assert p.coefficient(0) == 1
                    if y is not w:
                        assert p.max_exp() <= (w.length - y.length - 1) // 2
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_bar_invariance_oracle(criterion):
    label = "recursion agrees with the bar-solve oracle for all of A3"
    with criterion(2, label):
        hecke = hecke_algebra("A3")
        for w in hecke.group.elements:
            assert kl_bar_solve(hecke, w) == hecke.kl_element(w)


def test_criterion_03_poincare_duality(criterion):
    label = "Schubert duality over equal-length pairs in A2 B2 G2 A3"
    with criterion(3, label):
        for kind in ("A2", "B2", "G2", "A3"):
            group = weyl_group(kind)
            coinv = coinvariant_algebra(kind)
            cls = {w: coinv.schubert_class(w) for w in group.elements}
            top = cls[group.w0]
            for w in group.elements:
                for u in group.elements:
                    if u.length != w.length:
                        continue
                    prod = coinv.multiply(cls[w], cls[group.w0 * u])
                    if u is w:
                        assert prod == top
                    else:
                        assert prod.is_zero()


def test_criterion_04_chevalley_agreement(criterion):
    label = "Chevalley rule matches ring multiplication in A2 B2 G2 A3"
    with criterion(4, label):
        for kind in ("A2", "B2", "G2", "A3"):
            group = weyl_group(kind)
            coinv = coinvariant_algebra(kind)
            cls = {w: coinv.schubert_class(w) for w in group.elements}
            for i in range(1, group.rank + 1):
                x_i = cls[group.simple(i)]
                for w in group.elements:
                    by_rule = coinv.chevalley_multiply(i, cls[w])
                    assert by_rule == coinv.multiply(x_i, cls[w])
                    assert all(natural_number(c) for _, c in by_rule.items())


def test_criterion_05_symmetrizing_forms(criterion):
    label = "Gram forms nondegenerate for every subset in A3 and B3"
    with criterion(5, label):
        for kind in ("A3", "B3"):
            group = weyl_group(kind)
            coinv = coinvariant_algebra(kind)
            for J in subsets_of(group):
                reps, gram = coinv.gram_matrix(J)
                assert rank([list(row) for row in gram]) == len(gram)
                if J:
                    continue
                assert reps == group.elements
                for a, x in enumerate(reps):
                    for b, y in enumerate(reps):
                        expected = Fraction(int(y is group.w0 * x))
                        assert gram[a][b] == expected


def test_criterion_06_freeness(criterion):
    label = "free module certificate and dual pairing for every subset in A3"
    with criterion(6, label):
        group = weyl_group("A3")
        coinv = coinvariant_algebra("A3")
        for J in subsets_of(group):
            report = coinv.free_basis_over_parabolic(J)
            assert report.expansion_rank == group.order
            size = len(report.basis_elements)
            for a in range(size):
                for b in range(size):
                    pairing = coinv.dual_pairing(report, a, b)
                    assert pairing == Fraction(int(a == b))


def test_criterion_07_inverse_pairs(criterion):
    label = "graded matrix identities over all subset pairs in A3 and B3"
    with criterion(7, label):
        start = time.perf_counter()
        for kind in ("A3", "B3"):
            group = weyl_group(kind)
            hecke = HeckeAlgebra(group)
            hecke.kl_basis_elements()
            for I in subsets_of(group):
                for J in subsets_of(group):
                    if not group.double_quotient(I, J):
                        continue
                    block = standard_block(group, I, J)
                    d = decomposition_matrix(block, hecke)
                    e = inverse_decomposition_matrix(block, hecke)
                    assert (d @ e).is_identity()
                    for a, x in enumerate(d.rows):
                        for b, y in enumerate(d.cols):
                            entry = d.entries[a][b]
                            if x is y:
                                assert entry == LaurentPoly.one()
                            if not entry.is_zero():
                                assert entry.has_nonnegative_coeffs()
                                assert entry.min_exp() >= 0
                    cartan = graded_cartan_matrix(block, hecke)
                    assert cartan == cartan.transpose()
                    if not I or not J:
                        assert decomposition_by_lookup(block, hecke) == d
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_08_graded_lengths(criterion):
    label = "Verma and projective graded lengths in every A2 A3 wall block"
    with criterion(8, label):
        for kind in ("A2", "A3"):
            group = weyl_group(kind)
            hecke = hecke_algebra(kind)
            for J in subsets_of(group):
                block = standard_block(group, (), J)
                w_wall = group.parabolic_longest(J) if J else group.identity
                proj_top = 2 * (group.w0.length - w_wall.length)
                for row in graded_length_report(block, hecke):
                    assert row.verma_top == row.x.length
                    assert row.projective_top == proj_top - row.x.length


def test_criterion_09_palindromic_dimensions(criterion):
    label = "graded dimensions palindromic for all x, all walls, A2 A3"
    with criterion(9, label):
        for kind in ("A2", "A3"):
            group = weyl_group(kind)
            hecke = hecke_algebra(kind)
            for J in subsets_of(group):
                block = standard_block(group, (), J)
                w_wall = group.parabolic_longest(J) if J else group.identity
                center = group.w0.length - w_wall.length
                for x in block.index_set:
                    vp = vp_graded_dimension(block, hecke, x)
                    assert vp.is_palindromic(center)


def test_criterion_10_bott_samelson(criterion):
    label = "Bott-Samelson multiplicities for one word per element, A2 B2"
    with criterion(10, label):
        for kind in ("A2", "B2"):
            group = weyl_group(kind)
            hecke = hecke_algebra(kind)
            for x in group.elements:
                report = bott_samelson_decomposition(hecke, x.word)
                assert report.x is x
                assert report.shift == group.w0.length - x.length
                assert report.top_multiplicity_ok
                assert report.support_ok
                assert report.natural_coeffs_ok
                assert report.dimension_identity_ok
                for y, mult in report.multiplicities.items():
                    assert group.bruhat_leq(y, x)
                    assert mult.has_nonnegative_coeffs()


def test_criterion_11_translation_composite(criterion):
    label = "through-wall composite is right multiplication by C_wall, A2 B2"
    with criterion(11, label):
        for kind in ("A2", "B2"):
            group = weyl_group(kind)
            hecke = hecke_algebra(kind)
            for J in subsets_of(group):
                wall = standard_block(group, (), J)
                w_wall = group.parabolic_longest(J) if J else group.identity
                c_wall = hecke.kl_element(w_wall)
                for x in group.min_coset_reps(J):
                    composite = translation_composite(wall, x)
                    product = hecke.t(x) * c_wall
                    assert composite == dict(product.items())


def test_criterion_12_ungraded_values(criterion):
    label = "v=1 multiplicities: the regular A3 value 2 and A2 all at most 1"
    with criterion(12, label):
        group = weyl_group("A3")
        hecke = hecke_algebra("A3")
        block = standard_block(group, (), ())
        d = decomposition_matrix(block, hecke)
        x = group.word_elem((2, 1, 3, 2))
        y = group.word_elem((2,))
        entry = d.entry(x, y)
        assert entry.eval_at_one() == 2
        oracle = hecke.kl_polynomial(y, x)
        assert oracle.eval_at_one() == 2

        a2 = weyl_group("A2")
        d2 = decomposition_matrix(
            standard_block(a2, (), ()), hecke_algebra("A2")
        )
        for row in d2.eval_at_one():
            assert all(value in (0, 1) for value in row)
