import random
from fractions import Fraction

import pytest

from klblocks import NonDivisibleError, RatPoly, divide_by_linear


def x(j, n=2):
    """The fundamental-weight variable w_j (1-based, like the renders)."""
    return RatPoly.variable(n, j - 1)


def test_constructors():
    assert RatPoly.zero(2).is_zero()
    assert RatPoly.one(3).constant_term() == 1
    assert RatPoly(2, {(0, 0): Fraction(1, 2)}).constant_term() == Fraction(1, 2)
    assert RatPoly.linear(2, [1, -2]) == x(1) - x(2) * 2
    assert RatPoly(2, {(1, 0): Fraction(0)}).is_zero()


def test_arithmetic():
    f = x(1) + x(2)
    one = RatPoly.one(2)
    assert f * f == x(1) * x(1) + x(1) * x(2) * 2 + x(2) * x(2)
    assert f ** 2 == f * f
    assert f - f == RatPoly.zero(2)
    assert (f + one) * 2 == f * 2 + one * 2


def test_grading_counts_each_variable_twice():
    f = x(1) * x(2)
    assert f.graded_degree() == 4
    g = f + x(1)
    assert g.graded_components()[2] == x(1)
    assert g.graded_components()[4] == f
    assert RatPoly.zero(2).graded_degree() is None


def test_substitute_powers():
    three = RatPoly.one(2) * 3
    f = x(1) * x(1) * x(2) + x(2) + three
    image = x(2) - x(1)
    powers = [RatPoly.one(2), image, image ** 2]
    assert f.substitute_powers(0, powers) == image ** 2 * x(2) + x(2) + three
    # each power of the variable has its own image, not a power of one
    assert f.substitute_powers(0, [RatPoly.one(2), x(1), x(2)]) == x(2) ** 2 + x(2) + three


def test_leading_term_graded_lex():
    f = x(1) * x(1) + x(1) * x(2) + x(2)
    mono, coeff = f.leading_term()
    assert mono == (2, 0)
    assert coeff == 1
    with pytest.raises(ValueError):
        RatPoly.zero(2).leading_term()


def test_divide_by_linear_exact():
    f = (x(1) + x(2)) * x(1)
    assert divide_by_linear(f, x(1)) == x(1) + x(2)
    lin = x(1) - x(2) * 2
    g = (x(1) ** 2 + x(2) ** 2 * 3) * lin
    assert divide_by_linear(g, lin) == x(1) ** 2 + x(2) ** 2 * 3


def test_divide_by_linear_rejects():
    with pytest.raises(NonDivisibleError):
        divide_by_linear(x(2) * x(2), x(1))
    with pytest.raises(ValueError):
        divide_by_linear(x(1), x(1) * x(1))  # divisor not linear


def test_divide_random_roundtrip():
    rng = random.Random(3)
    for _ in range(60):
        lin = RatPoly.linear(3, [rng.randint(-3, 3) for _ in range(3)])
        if lin.is_zero():
            continue
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = [0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(3)] += 1
            terms[tuple(mono)] = Fraction(rng.randint(-4, 4))
        f = RatPoly(3, {m: c for m, c in terms.items() if c})
        assert divide_by_linear(f * lin, lin) == f


def test_render():
    assert RatPoly.zero(2).render() == "0"
    f = x(1) ** 2 - x(2)
    text = f.render(("a", "b"))
    assert "a" in text and "b" in text
