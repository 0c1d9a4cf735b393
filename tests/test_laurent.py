import random
from fractions import Fraction

import pytest

from klblocks import LaurentPoly, RatPoly, hecke_algebra

V = LaurentPoly.gen()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def test_constructors_drop_zero_coefficients():
    assert LaurentPoly({3: 0}) == ZERO
    assert LaurentPoly.term(0, 5) == ZERO
    assert LaurentPoly.gen(0) == ONE
    assert not ZERO and V and -ONE


def test_basic_arithmetic():
    assert (ONE + V) * (ONE + V) == LaurentPoly({0: 1, 1: 2, 2: 1})
    assert (V - ONE) * (V + ONE) == LaurentPoly({2: 1, 0: -1})
    assert V ** 3 == LaurentPoly.gen(3)
    assert V ** 0 == ONE
    assert LaurentPoly.term(2, 0) * V + V == LaurentPoly({1: 3})
    assert V - V == ZERO


def test_negative_exponents():
    vinv = LaurentPoly.gen(-1)
    assert V * vinv == ONE
    assert (V + vinv) ** 2 == LaurentPoly({-2: 1, 0: 2, 2: 1})


def test_bar_swaps_exponents():
    p = LaurentPoly({-1: 2, 3: 5})
    assert p.bar() == LaurentPoly({1: 2, -3: 5})
    assert p.bar().bar() == p
    assert (V + LaurentPoly.gen(-1)).bar() == V + LaurentPoly.gen(-1)


def test_shift_and_substitute():
    p = ONE + V ** 2
    assert p.shift(-1) == LaurentPoly({-1: 1, 1: 1})
    # v -> v^-2 turns 1 + q into 1 + v^-2 at the Laurent level
    assert p.substitute_power(-1) == ONE + LaurentPoly.gen(-2)
    q = LaurentPoly({0: 1, 1: 1})
    assert q.substitute_power(-2) == ONE + LaurentPoly.gen(-2)


def test_evaluation():
    p = LaurentPoly({-1: 1, 1: 1})
    assert p.evaluate(2) == Fraction(5, 2)
    assert (ONE + V + V ** 2).eval_at_one() == 3


def test_shape_predicates():
    assert (ONE + V ** 2 + V ** 4).is_palindromic(2)
    assert not (ONE + V).is_palindromic(0)
    assert ZERO.is_palindromic(7)
    assert (V + V ** 3).has_nonnegative_coeffs()
    assert not (V - ONE).has_nonnegative_coeffs()
    assert ZERO.min_exp() is None
    assert (V + V ** 3).min_exp() == 1
    assert (V + V ** 3).max_exp() == 3


def test_render():
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert V.render() == "v"
    assert (ONE + V ** 2).render() == "1+v^2"
    assert LaurentPoly.gen(-1).render() == "v^-1"
    assert (V - ONE).render() == "-1+v"
    assert LaurentPoly({1: -3}).render() == "-3v"
    assert (ONE + V).render("q") == "1+q"


def test_parse():
    for text in ("0", "1", "v", "1+v^2", "v^-1", "-1+v", "-3v", "2v^-3+v^5"):
        assert LaurentPoly.parse(text).render() == text
    assert LaurentPoly.parse("1+q", "q") == ONE + V
    with pytest.raises(ValueError):
        LaurentPoly.parse("1+w", "v")


def test_parse_render_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        p = LaurentPoly({
            rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))
        })
        assert LaurentPoly.parse(p.render(), "v") == p
        assert LaurentPoly.parse(p.render("q"), "q") == p


def test_ring_axioms_random():
    rng = random.Random(11)

    def rand():
        return LaurentPoly({
            rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(rng.randint(0, 5))
        })

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a * b).bar() == a.bar() * b.bar()


def test_arithmetic_takes_only_its_own_type():
    f = RatPoly.variable(2, 0)
    h = hecke_algebra("A2")
    c = h.t(h.group.simple(1))
    refused = (
        lambda: LaurentPoly.one() + 1, lambda: 1 + LaurentPoly.one(),
        lambda: 2 * LaurentPoly.gen(), lambda: f + 1, lambda: Fraction(1, 2) * f,
        lambda: c * V, lambda: V * c,
    )
    for op in refused:
        with pytest.raises(TypeError):
            op()
    assert (LaurentPoly.one() == 1) is False
    assert f * Fraction(1, 2) == RatPoly(2, {(1, 0): Fraction(1, 2)})
    assert c.scale(V).coefficient(h.group.simple(1)) == V


@pytest.mark.parametrize("text", [
    "0", "1", "-1", "v^-3", "-2+v^4", "5v^-2-3v^2", "-v^-1+v^7", "3-4v^2+v^3",
])
def test_pack_unpack_roundtrip(text):
    p = LaurentPoly.parse(text)
    for shift in (3, 5, 9):
        for width in (4, 5, 11, 70):
            assert LaurentPoly.unpack(p.pack(shift, width), shift, width) == p


def test_unpack_reads_balanced_digits_at_the_edges():
    # a width w holds every coefficient in [-2^(w-1), 2^(w-1))
    for width in (2, 3, 8, 65):
        half = 1 << (width - 1)
        for k in (half - 1, -half, -1, 1):
            p = LaurentPoly({-2: k, 0: -1, 1: 1, 3: k})
            assert LaurentPoly.unpack(p.pack(2, width), 2, width) == p
        too_big = LaurentPoly({1: half})
        assert LaurentPoly.unpack(too_big.pack(0, width), 0, width) != too_big
    with pytest.raises(ValueError):
        LaurentPoly.unpack(1, 0, 1)
    assert ZERO.pack(4, 9) == 0
    assert LaurentPoly.unpack(0, 4, 9) == ZERO


def test_pack_unpack_roundtrip_random():
    rng = random.Random(13)
    for _ in range(300):
        p = LaurentPoly({
            rng.randint(-30, 30): rng.randint(-2 ** 80, 2 ** 80)
            for _ in range(rng.randint(0, 8))
        })
        shift = 30 + rng.randint(0, 3)
        width = max([abs(k) for _, k in p.items()] + [1]).bit_length() + 1
        assert LaurentPoly.unpack(p.pack(shift, width), shift, width) == p
        # sums and products of packed values are packed sums and products
        q = LaurentPoly({rng.randint(-3, 3): rng.randint(-9, 9) for _ in range(3)})
        wide = width + 12
        assert LaurentPoly.unpack(
            p.pack(shift, wide) * q.pack(3, wide), shift + 3, wide
        ) == p * q
