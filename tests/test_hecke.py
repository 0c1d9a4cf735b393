import random
import re

import pytest

from klblocks import (
    HeckeAlgebra,
    KLTable,
    LaurentPoly,
    hecke_algebra,
    load_kl_table,
    save_kl_table,
    weyl_group,
)
from klblocks import hecke as hecke_module
from klblocks.checks import _MaxDescentHecke, kl_bar_solve

V = LaurentPoly.gen()
VINV = LaurentPoly.gen(-1)
ONE = LaurentPoly.one()


def test_quadratic_relation(hecke_a2, a2):
    ts = hecke_a2.t(a2.simple(1))
    assert ts * ts == ts.scale(V - VINV) + hecke_a2.one


def test_products_follow_words(hecke_a2, a2):
    t1 = hecke_a2.t(a2.simple(1))
    t2 = hecke_a2.t(a2.simple(2))
    assert t1 * t2 == hecke_a2.t(a2.word_elem((1, 2)))
    assert (t1 * t2) * t1 == hecke_a2.t(a2.w0)
    assert t1 * hecke_a2.one == t1


def test_bar_of_generator(hecke_a2, a2):
    ts = hecke_a2.t(a2.simple(1))
    expected = ts - hecke_a2.one.scale(V - VINV)
    assert hecke_a2.bar(ts) == expected
    assert hecke_a2.bar(expected) == ts


def test_bar_fixes_kl_basis(hecke_a2, a2):
    for w in a2.elements:
        c = hecke_a2.kl_element(w)
        assert hecke_a2.bar(c) == c


def test_c_s_shape(hecke_a2, a2):
    s = a2.simple(1)
    assert hecke_a2.kl_element(s) == hecke_a2.t(s) + hecke_a2.one.scale(VINV)


def test_longest_element_column_is_constant(hecke_a2, a2):
    c = hecke_a2.kl_element(a2.w0)
    for y, coeff in c.items():
        assert coeff == LaurentPoly.gen(y.length - a2.w0.length)
    assert len(c.support()) == 6


def test_dihedral_kl_polynomials_trivial():
    group = weyl_group("B2")
    hecke = HeckeAlgebra(group)
    for w in group.elements:
        for y in group.elements:
            p = hecke.kl_polynomial(y, w)
            if group.bruhat_leq(y, w):
                assert p == ONE
            else:
                assert p == LaurentPoly.zero()


def test_famous_a3_polynomial(hecke_a3, a3):
    y = a3.word_elem((2,))
    w = a3.word_elem((2, 1, 3, 2))
    assert hecke_a3.kl_polynomial(y, w) == ONE + V  # 1 + q
    assert hecke_a3.mu(y, w) == 1


def test_mu_on_covers(hecke_a3, a3):
    e = a3.identity
    for i in range(1, 4):
        assert hecke_a3.mu(e, a3.simple(i)) == 1
    # even length gap forces mu = 0
    assert hecke_a3.mu(e, a3.word_elem((1, 2))) == 0


def test_mu_needs_y_strictly_below_w(hecke_a3, a3):
    s1s2 = a3.word_elem((1, 2))
    # shorter but not below: s3 does not lie under s1 s2
    with pytest.raises(ValueError, match="strictly below"):
        hecke_a3.mu(a3.simple(3), s1s2)
    for w in (a3.identity, s1s2, a3.w0):
        with pytest.raises(ValueError, match="strictly below"):
            hecke_a3.mu(w, w)


def test_kl_expansion_roundtrip(hecke_a2, a2):
    c1 = hecke_a2.kl_element(a2.simple(1))
    prod = c1 * c1
    expansion = hecke_a2.expand_in_kl_basis(prod)
    assert expansion == {a2.simple(1): V + VINV}
    rebuilt = hecke_a2.element({})
    for w, coeff in expansion.items():
        rebuilt = rebuilt + hecke_a2.kl_element(w).scale(coeff)
    assert rebuilt == prod


def test_bar_solve_oracle_agrees(hecke_a3, a3):
    for w in a3.elements:
        assert hecke_a3.kl_element(w) == kl_bar_solve(hecke_a3, w)


def test_descent_rule_independence(a3):
    low = HeckeAlgebra(a3)
    high = _MaxDescentHecke(a3)
    for w in a3.elements:
        assert low.kl_element(w) == high.kl_element(w)


def test_b3_full_table_size(hecke_b3, b3):
    hecke_b3.kl_basis_elements()
    table = hecke_b3.kl_table
    assert len(table) == 847
    for w in b3.elements:
        assert table.column_complete(w)
    # every stored polynomial has natural coefficients and constant term 1
    for w, column in table.columns():
        for p in column.values():
            assert p.has_nonnegative_coeffs()
            assert p.coefficient(0) == 1


def test_kl_table_column_semantics(a2):
    # a column is stored whole or not at all
    table = KLTable(a2)
    w = a2.word_elem((1, 2))
    assert not table.column_complete(w)
    assert dict(table.column(w)) == {} and len(table) == 0
    given = {y: ONE for y in (a2.identity, a2.simple(1), a2.simple(2), w)}
    table.store({w: given})
    given.clear()
    assert table.column_complete(w)
    assert set(table.column(w)) == {a2.identity, a2.simple(1), a2.simple(2), w}
    assert len(table) == 4
    assert not table.column_complete(a2.simple(1))
    assert [u for u, _ in table.columns()] == [w]


def test_store_refuses_elements_of_another_group(a2, b2):
    table = KLTable(a2)
    e = a2.identity
    for columns in ({b2.simple(1): {b2.identity: ONE, b2.simple(1): ONE}},
                    {a2.simple(1): {e: ONE, b2.simple(1): ONE}}):
        with pytest.raises(ValueError, match="Weyl group of B2 used in that of A2"):
            table.store({e: {e: ONE}, **columns})
        assert len(table) == 0


def test_store_refuses_a_column_off_its_interval(a3):
    # [e, s1 s2] = {e, s1, s2, s1 s2}; the last column has its size, not its y
    table = KLTable(a3)
    e, s1, s2, s3, w = a3.identity, a3.simple(1), a3.simple(2), a3.simple(3), a3.word_elem((1, 2))
    problem = re.escape("column of w = <A3 1.2> is not indexed by [e, w]")
    for ys in ((e, s1, s2, s3, w), (s1, s2, w), (e, s1, s3, w)):
        with pytest.raises(ValueError, match=problem):
            table.store({e: {e: ONE}, w: {y: ONE for y in ys}})
        assert len(table) == 0


def test_store_refuses_what_does_not_pack(a2):
    table = KLTable(a2)
    e = a2.identity
    for p in (VINV, LaurentPoly.term(1 << 63, 0), LaurentPoly.term(-1 - (1 << 63), 1)):
        with pytest.raises(ValueError, match="does not pack at width 64"):
            table.store({e: {e: ONE}, a2.simple(1): {e: p}})
        assert len(table) == 0
    table.store({e: {e: LaurentPoly.term(-(1 << 63), 0) + LaurentPoly.term((1 << 63) - 1, 1)}})
    assert table.column(e)[e] == LaurentPoly.term(-(1 << 63), 0) + LaurentPoly.term((1 << 63) - 1, 1)


def test_computed_equal_polynomials_are_one_object(b3):
    hecke = HeckeAlgebra(b3)
    hecke.kl_basis_elements()
    polys = [p for _, column in hecke.kl_table.columns() for p in column.values()]
    assert len({id(p) for p in polys}) == len(set(polys)) > 1


# The smallest digit width whose bound 2 M_v + sum |mu(y, v)| M_y passes on
# every column of B3 (every B3 coefficient is 0 or 1).
_B3_WIDTH = 4


def test_digit_width_one_bit_short_raises_and_stores_nothing(monkeypatch, b3):
    full = HeckeAlgebra(b3)
    full.kl_basis_elements()
    monkeypatch.setattr(hecke_module, "_WIDTH", _B3_WIDTH)
    exact = HeckeAlgebra(b3)
    exact.kl_basis_elements()
    assert list(exact.kl_table.columns()) == list(full.kl_table.columns())
    monkeypatch.setattr(hecke_module, "_WIDTH", _B3_WIDTH - 1)
    short = HeckeAlgebra(b3)
    with pytest.raises(ArithmeticError, match=f"{_B3_WIDTH - 1}-bit digits") as raised:
        short.kl_basis_elements()
    # the columns before the failing one, in index order, are stored; it is not
    failing = next(w for w in b3.elements if not short.kl_table.column_complete(w))
    assert repr(failing) in str(raised.value)


def test_degree_bound(hecke_b3, b3):
    hecke_b3.kl_basis_elements()
    for w, column in hecke_b3.kl_table.columns():
        for y, p in column.items():
            if y is w:
                continue
            bound = (w.length - y.length - 1) // 2
            assert (p.max_exp() or 0) <= bound


def test_recursion_rejects_a_column_that_is_not_unitriangular(a2):
    hecke = HeckeAlgebra(a2)
    e = a2.identity
    # A complete column of e with P_{e,e} = 2 gives P_{s,s} = 2.
    hecke.kl_table.store({e: {e: ONE + ONE}})
    with pytest.raises(ArithmeticError, match="unitriangular"):
        hecke.kl_column(a2.simple(1))
    assert not hecke.kl_table.column_complete(a2.simple(1))


def test_kl_column_completes_a_read_only_column(b3):
    hecke = HeckeAlgebra(b3)
    w = b3.word_elem((1, 2, 3, 2))
    assert not hecke.kl_table.column_complete(w)
    col = hecke.kl_column(w)
    assert hecke.kl_table.column_complete(w)
    assert col[w] == ONE
    with pytest.raises(TypeError):
        col[b3.identity] = ONE
    # every nonzero P_{y,w} is in the column, and nothing else
    for y in b3.elements:
        p = hecke.kl_polynomial(y, w)
        assert col.get(y, LaurentPoly.zero()) == p
        assert (y in col) == (not p.is_zero()) == b3.bruhat_leq(y, w)


def _reference_multiply(h, a, b):
    """sum over y of b_y (a T_y), walking y's word on LaurentPoly coefficients."""
    total = {}
    for y, p in b.items():
        cur = dict(a.items())
        for i in y.word:
            nxt = {}
            for x, c in cur.items():
                xs = x * h.group.simple(i)
                nxt[xs] = nxt.get(xs, LaurentPoly.zero()) + c
                if xs.length < x.length:
                    nxt[x] = nxt.get(x, LaurentPoly.zero()) + c * (V - VINV)
            cur = nxt
        for x, c in cur.items():
            total[x] = total.get(x, LaurentPoly.zero()) + c * p
    return h.element(total)


def _reference_bar_t(h, w):
    """bar(T_w): the product of the factors T_s - (v - v^-1) along w's word."""
    total = h.one
    for i in w.word:
        factor = h.t(h.group.simple(i)) - h.one.scale(V - VINV)
        total = _reference_multiply(h, total, factor)
    return total


def _reference_bar(h, a):
    total = h.element({})
    for w, p in a.items():
        total = total + _reference_bar_t(h, w).scale(p.bar())
    return total


@pytest.mark.parametrize("kind", ["B3", "G2"])
def test_bar_t_is_the_product_of_inverted_generators(kind):
    h = HeckeAlgebra(weyl_group(kind))
    for w in h.group.elements:
        assert h.bar_t(w) == _reference_bar_t(h, w)


def test_bar_packs_each_coefficient_once(hecke_b3, b3, monkeypatch):
    # one walk over the word tree: bar(C_w0) packs its 48 coefficients and
    # nothing per bar(T_w) term
    c = hecke_b3.kl_element(b3.w0)
    calls = []
    pack = LaurentPoly.pack

    def counted_pack(p, shift, width):
        calls.append(p)
        return pack(p, shift, width)

    monkeypatch.setattr(LaurentPoly, "pack", counted_pack)
    assert hecke_b3.bar(c) == c
    assert len(c.support()) == 48
    assert len(calls) == 48


def _random_element(h, rng, terms, span=4, size=6):
    return h.element({
        rng.choice(h.group.elements): LaurentPoly({
            rng.randint(-span, span): rng.randint(-size, size) for _ in range(3)
        })
        for _ in range(terms)
    })


@pytest.mark.parametrize("kind", ["A2", "B2", "G2", "A3", "B3"])
def test_packed_products_match_the_word_walk(kind):
    h = HeckeAlgebra(weyl_group(kind))
    rng = random.Random(kind)
    elements = h.group.elements
    for _ in range(30):
        a = _random_element(h, rng, rng.randint(0, 4))
        b = _random_element(h, rng, rng.randint(0, 4))
        assert a * b == _reference_multiply(h, a, b)
        assert h.bar(a) == _reference_bar(h, a)
        c_x = h.kl_element(rng.choice(elements))
        c_y = h.kl_element(rng.choice(elements))
        assert c_x * c_y == _reference_multiply(h, c_x, c_y)
        assert a * c_y == _reference_multiply(h, a, c_y)
        assert c_x * b == _reference_multiply(h, c_x, b)
        assert h.bar(c_x.scale(V) + a) == _reference_bar(h, c_x.scale(V) + a)


@pytest.mark.parametrize("kind", ["A2", "G2", "B3"])
def test_packed_products_with_wide_coefficients(kind):
    # coefficients past 2^70 and exponents out to +-30 need more than 64
    # bits a digit
    h = HeckeAlgebra(weyl_group(kind))
    rng = random.Random(70)
    big = 2 ** 70
    e, w0 = h.group.identity, h.group.w0
    lone = h.element({w0: LaurentPoly({30: big})})
    assert lone * h.one == lone
    assert h.one * lone == lone
    assert h.bar(h.t(e).scale(LaurentPoly({-30: big}))) == h.one.scale(LaurentPoly({30: big}))
    assert h.bar(h.t(e).scale(LaurentPoly({30: -big}))) == h.one.scale(LaurentPoly({-30: -big}))
    for _ in range(6):
        a = _random_element(h, rng, rng.randint(1, 3), span=30, size=big)
        b = _random_element(h, rng, rng.randint(1, 3), span=30, size=big)
        a = a + lone
        assert a * b == _reference_multiply(h, a, b)
        assert b * lone == _reference_multiply(h, b, lone)
        assert h.bar(a) == _reference_bar(h, a)


def test_b3_products_are_associative_and_bar_is_multiplicative(hecke_b3, b3):
    h = hecke_b3
    rng = random.Random(3)
    for _ in range(8):
        a, b, c = (_random_element(h, rng, rng.randint(1, 3)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert h.bar(a * b) == h.bar(a) * h.bar(b)
        assert h.bar(h.bar(a)) == a
        c_w = h.kl_element(rng.choice(b3.elements))
        assert (a * c_w) * b == a * (c_w * b)


def test_operands_from_another_group_are_rejected():
    a2, b2 = hecke_algebra("A2"), hecke_algebra("B2")
    x = a2.t(a2.group.simple(1))
    y = b2.t(b2.group.w0)
    for op in (lambda: x * y, lambda: y * x, lambda: a2.multiply(y, y),
               lambda: a2.bar(y), lambda: x + y, lambda: y - x):
        with pytest.raises(ValueError, match="Hecke algebra of"):
            op()
    # a second algebra over the same group shares it
    other = HeckeAlgebra(a2.group)
    assert x * other.t(a2.group.simple(2)) == a2.t(a2.group.word_elem((1, 2)))
    assert a2.bar(other.kl_element(a2.group.w0)) == a2.kl_element(a2.group.w0)


# Each entry point takes an element x of another group next to A3's w0.  At
# the index of x they used to read an A3 element: t(s1 of B2) * t(s2) gave
# T_{s1 s2}, P_{x,w0} read 0, and kl_polynomial(e of A2, e of A2) read 1
# and stored an A2 column in the A3 table.
_FOREIGN_CALLS = {
    "t": lambda h, x, w: h.t(x),
    "element": lambda h, x, w: h.element({w: ONE, x: V}),
    "kl_column": lambda h, x, w: h.kl_column(x),
    "kl_polynomial(x, w0)": lambda h, x, w: h.kl_polynomial(x, w),
    "kl_polynomial(w0, x)": lambda h, x, w: h.kl_polynomial(w, x),
    "kl_polynomial(x, x)": lambda h, x, w: h.kl_polynomial(x, x),
    "mu(x, w0)": lambda h, x, w: h.mu(x, w),
    "mu(e, x)": lambda h, x, w: h.mu(h.group.identity, x),
    "kl_element": lambda h, x, w: h.kl_element(x),
    "kl_basis_elements": lambda h, x, w: h.kl_basis_elements([w, x]),
}


@pytest.mark.parametrize("call", sorted(_FOREIGN_CALLS))
@pytest.mark.parametrize("kind, word", [("B2", (1,)), ("A2", ())], ids=["B2-s1", "A2-e"])
def test_element_entry_points_refuse_another_group(call, kind, word):
    hecke = HeckeAlgebra(weyl_group("A3"))
    x = weyl_group(kind).word_elem(word)
    with pytest.raises(ValueError, match=f"Weyl group of {kind} used in that of A3"):
        _FOREIGN_CALLS[call](hecke, x, hecke.group.w0)
    assert len(hecke.kl_table) == 0


def test_a_refused_read_leaves_the_table_clean(tmp_path):
    hecke = HeckeAlgebra(weyl_group("A3"))
    e = weyl_group("A2").identity
    with pytest.raises(ValueError, match="Weyl group of A2 used in that of A3"):
        hecke.kl_polynomial(e, e)
    assert len(hecke.kl_table) == 0
    hecke.kl_basis_elements()
    path = str(tmp_path / "A3.klt")
    assert save_kl_table(hecke.kl_table, path) == 213
    assert load_kl_table(path, HeckeAlgebra(hecke.group)) == 213
