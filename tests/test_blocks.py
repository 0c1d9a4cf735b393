import hashlib
from itertools import combinations

import pytest

from klblocks import (
    LaurentPoly,
    NotAntidominantError,
    NotReducedError,
    UnsupportedBlockError,
    bott_samelson_decomposition,
    decomposition_matrix,
    graded_cartan_matrix,
    graded_length_report,
    hecke_algebra,
    inverse_decomposition_matrix,
    make_block,
    standard_block,
    standard_weight,
    translate_onto_wall,
    translate_out_of_wall,
    translation_composite,
    vp_center,
    vp_graded_dimension,
    weyl_group,
)
from klblocks import blocks
from klblocks.blocks import _column_sums
from klblocks.checks import decomposition_by_lookup
from klblocks.cli import main
from klblocks.hecke import HeckeAlgebra
from klblocks.serialize import matrix_to_json

V = LaurentPoly.gen()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def all_subsets(rank):
    return [
        frozenset(sub)
        for size in range(rank + 1)
        for sub in combinations(range(1, rank + 1), size)
    ]


def entries_of(matrix):
    return [[e for e in row] for row in matrix.entries]


def test_standard_weight():
    assert standard_weight(3, ()) == (-2, -2, -2)
    assert standard_weight(3, (1, 3)) == (-1, -2, -1)


@pytest.mark.parametrize("parabolic, singular, bad", [
    ((), (5,), 5), ((0,), (), 0), ((), (1, 3), 3),
])
def test_standard_weight_rejects_out_of_range_indices(a2, parabolic, singular, bad):
    with pytest.raises(ValueError, match=f"simple index {bad} out of range 1..2"):
        standard_weight(2, (*parabolic, *singular))
    with pytest.raises(ValueError, match=f"simple index {bad} "):
        standard_block(a2, parabolic, singular)


def test_make_block_validation(a2):
    with pytest.raises(NotAntidominantError):
        make_block(a2, (0, 0), (-2, -2))
    with pytest.raises(ValueError):
        make_block(a2, (-2,), (-2, -2))
    block = make_block(a2, (-1, -2), (-2, -2))
    assert block.J == frozenset({1})
    assert block.I == frozenset()


def test_empty_block_is_returned_empty():
    a1 = weyl_group("A1")
    block = make_block(a1, (-1,), (-1,))
    assert block.index_set == ()
    assert decomposition_matrix(block, hecke_algebra("A1")).entries == ()


def test_a1_matrices():
    a1 = weyl_group("A1")
    h = hecke_algebra("A1")
    block = make_block(a1, (-2,), (-2,))
    d = decomposition_matrix(block, h)
    e = inverse_decomposition_matrix(block, h)
    c = graded_cartan_matrix(block, h)
    assert entries_of(d) == [[ONE, ZERO], [V, ONE]]
    assert entries_of(e) == [[ONE, ZERO], [-V, ONE]]
    assert entries_of(c) == [[ONE + V ** 2, V], [V, ONE]]


def test_a2_regular_pattern(a2, hecke_a2):
    block = make_block(a2, (-2, -2), (-2, -2))
    d = decomposition_matrix(block, hecke_a2)
    for x in a2.elements:
        for y in a2.elements:
            expected = (
                LaurentPoly.gen(x.length - y.length)
                if a2.bruhat_leq(y, x) else ZERO
            )
            assert d.entry(x, y) == expected
    assert (d @ inverse_decomposition_matrix(block, hecke_a2)).is_identity()


def test_a2_wall_block_frozen(a2, hecke_a2):
    block = standard_block(a2, (), {1})
    c = graded_cartan_matrix(block, hecke_a2)
    labels = [w.word for w in c.rows]
    assert labels == [(), (2,), (1, 2)]
    assert entries_of(c) == [
        [ONE + V ** 2 + V ** 4, V + V ** 3, V ** 2],
        [V + V ** 3, ONE + V ** 2, V],
        [V ** 2, V, ONE],
    ]


def test_a2_parabolic_block(a2, hecke_a2):
    block = standard_block(a2, {1}, ())
    assert [w.word for w in block.index_set] == [(), (2,), (2, 1)]
    d = decomposition_matrix(block, hecke_a2)
    assert d.entry(a2.word_elem((2, 1)), a2.identity) == ZERO
    for x in block.index_set:
        assert d.entry(x, x) == ONE
    assert (d @ inverse_decomposition_matrix(block, hecke_a2)).is_identity()


def test_inverse_pairs_all_subsets(a2, hecke_a2):
    for I in all_subsets(2):
        for J in all_subsets(2):
            block = standard_block(a2, I, J)
            if not block.index_set:
                continue
            d = decomposition_matrix(block, hecke_a2)
            e = inverse_decomposition_matrix(block, hecke_a2)
            assert (d @ e).is_identity()
            for row in d.entries:
                for entry in row:
                    assert entry.has_nonnegative_coeffs()


def test_specialized_routes(a2, hecke_a2):
    for J in all_subsets(2):
        singular = standard_block(a2, (), J)
        assert decomposition_by_lookup(singular, hecke_a2) == \
            decomposition_matrix(singular, hecke_a2)
        parabolic = standard_block(a2, J, ())
        if parabolic.index_set:
            assert decomposition_by_lookup(parabolic, hecke_a2) == \
                decomposition_matrix(parabolic, hecke_a2)


def test_graded_lengths(a2, hecke_a2):
    for J in all_subsets(2):
        block = standard_block(a2, (), J)
        rows = graded_length_report(block, hecke_a2)
        assert rows and all(r.ok for r in rows)
        for r in rows:
            assert r.verma_expected == r.x.length
    with pytest.raises(UnsupportedBlockError):
        graded_length_report(standard_block(a2, {1}, ()), hecke_a2)


def test_vp_dimensions_frozen(a2, hecke_a2):
    block = standard_block(a2, (), {1})
    assert vp_center(block) == 2
    dims = {
        x.word: vp_graded_dimension(block, hecke_a2, x)
        for x in block.index_set
    }
    assert dims[()] == ONE + V ** 2 + V ** 4
    assert dims[(2,)] == V + V ** 3
    assert dims[(1, 2)] == V ** 2
    for vp in dims.values():
        assert vp.is_palindromic(2)


def test_vp_requires_block_membership(a2, hecke_a2):
    block = standard_block(a2, (), {1})
    with pytest.raises(ValueError):
        vp_graded_dimension(block, hecke_a2, a2.simple(1))


def test_block_of_another_group_is_refused(b2):
    # These used to fail with a bare IndexError or ArithmeticError.
    block = standard_block(b2, (), {1})
    hecke = HeckeAlgebra(weyl_group("A2"))
    for build in (decomposition_matrix, inverse_decomposition_matrix,
                  lambda block, hecke: vp_graded_dimension(block, hecke, b2.identity)):
        with pytest.raises(ValueError, match="Weyl group of B2 used in that of A2"):
            build(block, hecke)
    assert len(hecke.kl_table) == 0


def test_bott_samelson_basic(a2, hecke_a2):
    report = bott_samelson_decomposition(hecke_a2, (1, 2, 1))
    assert report.x is a2.w0
    assert report.shift == 0
    mults = {y.word: m for y, m in report.multiplicities.items()}
    assert mults == {(1, 2, 1): ONE, (1,): ONE}
    assert report.dimension_identity_ok
    assert report.top_multiplicity_ok
    assert report.support_ok
    assert report.natural_coeffs_ok


def test_bott_samelson_every_element(a2, hecke_a2):
    for x in a2.elements:
        report = bott_samelson_decomposition(hecke_a2, x.word)
        assert report.shift == a2.w0.length - x.length
        assert report.multiplicities[x] == ONE
        assert report.dimension_identity_ok


def test_bott_samelson_rejects_nonreduced(a2, hecke_a2):
    with pytest.raises(NotReducedError):
        bott_samelson_decomposition(hecke_a2, (1, 1))


def test_translation_frozen(a2, hecke_a2):
    wall = standard_block(a2, (), {1})
    x = a2.word_elem((1, 2))
    composite = translation_composite(wall, x)
    assert composite == {
        a2.word_elem((1, 2)): LaurentPoly.gen(-1),
        a2.w0: ONE,
    }


def test_translation_matches_hecke(a2, b2):
    for group in (a2, b2):
        h = hecke_algebra(group.kind)
        for J in all_subsets(group.rank):
            wall = standard_block(group, (), J)
            w_j = group.parabolic_longest(J) if J else group.identity
            target = h.kl_element(w_j)
            for x in group.min_coset_reps(J):
                composite = translation_composite(wall, x)
                assert composite == dict((h.t(x) * target).items())


def test_translation_roundtrip_shapes(a2, hecke_a2):
    wall = standard_block(a2, (), {1})
    down = translate_onto_wall(wall, {a2.word_elem((1, 2)): ONE})
    assert set(down) == {a2.word_elem((1, 2))}
    up = translate_out_of_wall(wall, down)
    assert set(up) == {a2.word_elem((1, 2)), a2.w0}


def test_translation_refuses_a_parabolic_block(a2):
    block = standard_block(a2, {1}, ())
    vec = {a2.identity: ONE}
    for translate in (translate_onto_wall, translate_out_of_wall):
        with pytest.raises(ValueError, match="wall-crossing is for ordinary blocks"):
            translate(block, vec)


def test_translation_refuses_elements_of_another_group(a3, b2):
    # On the A3 wall J = {1}, w0 of B2 used to land on <A3 2.3>, and s1
    # of B2 went out to a sum of B2 elements.
    wall = standard_block(a3, (), {1})
    for translate, x in ((translate_onto_wall, b2.w0), (translate_out_of_wall, b2.simple(1))):
        with pytest.raises(ValueError, match="Weyl group of B2 used in that of A3"):
            translate(wall, {a3.identity: ONE, x: ONE})


def test_ungraded_specialization(a2, hecke_a2):
    block = standard_block(a2, (), ())
    d1 = decomposition_matrix(block, hecke_a2).eval_at_one()
    e1 = inverse_decomposition_matrix(block, hecke_a2).eval_at_one()
    size = len(d1)
    product = [
        [sum(d1[a][k] * e1[k][b] for k in range(size)) for b in range(size)]
        for a in range(size)
    ]
    assert product == [[int(a == b) for b in range(size)] for a in range(size)]
    assert all(x in (0, 1) for row in d1 for x in row)


# sha256 digests recorded before d and e were read off the KL columns and
# before the block-matrix product skipped zero entries: the block layer's
# output must not drift with its engine.  One digest per type covers
# matrix_to_json of d, e and the Cartan matrix for every (I, J) pair.
@pytest.mark.parametrize("kind, digest", [
    ("A2", "35242a18242f17a5919595553b1a704eb7a824154e75c0eced3b9f2fbafc62b5"),
    ("B2", "74d7e64b712546f9d049cf5ecc9957663a4b2a489ac33d4251a1f834dfd5ae09"),
    ("G2", "8f7bef29cf465a8d1838d7f942b0dcf5e1cd4af7bb7a16f0e7ebaa78173f12d6"),
    ("A3", "f3ad57fe999a87decf4cc7ea1e17db5f46c595793e5c0219811cc3b30e1d5472"),
    ("B3", "95f2536185b5794da8782fde1271627403139ce861bac90c4547914c5087a5b1"),
])
def test_block_matrix_bytes_are_stable(kind, digest):
    group = weyl_group(kind)
    h = hecke_algebra(kind)
    sha = hashlib.sha256()
    for I in all_subsets(group.rank):
        for J in all_subsets(group.rank):
            block = standard_block(group, I, J)
            for build in (decomposition_matrix, inverse_decomposition_matrix,
                          graded_cartan_matrix):
                sha.update(matrix_to_json(build(block, h)).encode())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["decomp", "--type", "D4", "--format", "csv"],
     "65a82a8c597150cfd6ce9a2cc6a1add843f116a5af2e409750644a050e16b3af"),
    (["inverse-decomp", "--type", "B3", "--I", "1", "--J", "2"],
     "d5c22acd301419622a38e86dbbb20b45ec7b65ecb7159ccc7397ad75be60fa0f"),
    (["cartan", "--type", "A4", "--J", "1"],
     "02b75127637ecba4ef8e12a57caa5874d13ce64a58a43d5f11175f84dfc85ac5"),
])
def test_block_command_bytes_are_stable(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def dense_product(a, b):
    """Every triple product of a @ b, zeros included: the reference for @."""
    n = len(b.rows)
    return tuple(
        tuple(sum((a.entries[r][k] * b.entries[k][c] for k in range(n)), ZERO)
              for c in range(len(b.cols)))
        for r in range(len(a.rows))
    )


def test_block_matrices_read_no_single_kl_polynomial(b3, monkeypatch):
    hecke = HeckeAlgebra(b3)

    def refuse(*args):
        raise AssertionError("a block matrix looked up a single KL polynomial")

    monkeypatch.setattr(HeckeAlgebra, "kl_polynomial", refuse)
    blocks = [standard_block(b3, (), J) for J in all_subsets(3)]
    blocks.append(standard_block(b3, {1}, {3}))
    built = [(decomposition_matrix(b, hecke), inverse_decomposition_matrix(b, hecke))
             for b in blocks]
    monkeypatch.undo()
    for block, (d, e) in zip(blocks, built):
        assert (d @ e).is_identity()
        if not block.I:
            assert d == decomposition_by_lookup(block, hecke)


def test_product_matches_dense_and_skips_zeros(b3, hecke_b3, monkeypatch):
    cases = []
    for I, J in (((), ()), ((), {1, 3}), ({2}, ())):
        block = standard_block(b3, I, J)
        d = decomposition_matrix(block, hecke_b3)
        e = inverse_decomposition_matrix(block, hecke_b3)
        cases += [(d.transpose(), d), (d, e)]
    expected = [dense_product(a, b) for a, b in cases]
    real_mul = LaurentPoly.__mul__

    def mul(a, b):
        assert not (a.is_zero() or b.is_zero()), "multiplied by a zero entry"
        return real_mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", mul)
    for (a, b), want in zip(cases, expected):
        product = a @ b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.entries == want


def test_column_sums_reject_a_doubly_entered_source(b3, hecke_b3):
    s = b3.simple(1)
    with pytest.raises(ArithmeticError, match="two coset factorizations"):
        list(_column_sums(hecke_b3, [s], [(s, 0, 0), (s, 0, 1)]))


@pytest.mark.parametrize("kind", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_vp_dimension_is_the_cartan_entry_at_e(kind):
    group = weyl_group(kind)
    hecke = hecke_algebra(kind)
    for J in all_subsets(group.rank):
        block = standard_block(group, (), J)
        d = decomposition_matrix(block, hecke)
        cartan = dense_product(d.transpose(), d)
        e = block.index_set.index(group.identity)
        for r, x in enumerate(block.index_set):
            assert vp_graded_dimension(block, hecke, x) == cartan[r][e]


def test_graded_dimensions_build_no_decomposition_matrix(b3, hecke_b3, monkeypatch):
    calls = []
    real = blocks.decomposition_matrix

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blocks, "decomposition_matrix", counting)
    for J in all_subsets(3):
        block = standard_block(b3, (), J)
        for x in block.index_set:
            vp_graded_dimension(block, hecke_b3, x)
    for x in b3.elements:
        assert bott_samelson_decomposition(hecke_b3, x.word).dimension_identity_ok
    assert calls == []
    graded_cartan_matrix(standard_block(b3, (), ()), hecke_b3)
    assert len(calls) == 1


@pytest.mark.parametrize("kind, count", [("A3", 28), ("B3", 30)])
def test_lookup_route_agrees_on_singular_parabolic_blocks(kind, count):
    group = weyl_group(kind)
    hecke = hecke_algebra(kind)
    compared = 0
    for I in all_subsets(group.rank)[1:]:
        for J in all_subsets(group.rank)[1:]:
            block = standard_block(group, I, J)
            if block.index_set:
                assert decomposition_by_lookup(block, hecke) == \
                    decomposition_matrix(block, hecke)
                compared += 1
    assert compared == count
