import itertools
import random
from fractions import Fraction

import pytest

from klblocks import (
    CoinvariantAlgebra,
    NotFreeError,
    RatPoly,
    coinvariant_algebra,
    divide_by_linear,
    hecke_algebra,
    weyl_group,
)
from klblocks.checks import _rand_poly

J1 = frozenset({1})


def test_alpha_and_weight_polys(coinv_a2):
    w1 = coinv_a2.weight_poly(1)
    w2 = coinv_a2.weight_poly(2)
    assert coinv_a2.alpha_poly(1) == w1 * 2 - w2
    assert coinv_a2.alpha_poly(2) == -w1 + w2 * 2
    assert coinv_a2.root_poly(0) in (coinv_a2.alpha_poly(1), coinv_a2.alpha_poly(2))


def test_simple_action_touches_one_variable(coinv_a2, a2):
    w1 = coinv_a2.weight_poly(1)
    w2 = coinv_a2.weight_poly(2)
    assert coinv_a2.act_simple(1, w1) == w1 - coinv_a2.alpha_poly(1)
    assert coinv_a2.act_simple(1, w2) == w2
    f = w1 * w2 + w2 ** 2
    assert coinv_a2.act(a2.simple(1), f) == coinv_a2.act_simple(1, f)


def test_simple_action_grows_its_power_table(a2):
    coinv = CoinvariantAlgebra(a2)
    w1, w2 = coinv.weight_poly(1), coinv.weight_poly(2)
    image = w1 - coinv.alpha_poly(1)
    assert coinv.act_simple(1, w1 ** 3 * w2) == image ** 3 * w2
    assert coinv._si_powers[0] == [RatPoly.one(2), image, image ** 2, image ** 3]
    assert coinv.act_simple(1, w1 ** 2) == image ** 2
    assert len(coinv._si_powers[0]) == 4


def test_demazure_simple(coinv_a2):
    w1 = coinv_a2.weight_poly(1)
    # Delta_1(w1) = (w1 - s1 w1)/alpha_1 = 1
    assert coinv_a2.demazure_simple(1, w1) == RatPoly.one(2)
    assert coinv_a2.demazure_simple(1, RatPoly.one(2)).is_zero()
    # twisted Leibniz consequence: Delta_i(f) is s_i-invariant here
    f = w1 ** 3
    d = coinv_a2.demazure_simple(1, f)
    assert coinv_a2.act_simple(1, d) == d


def test_simple_entry_points_refuse_an_index_off_the_rank(a2):
    # Index 0 used to read slot -1, the tables of s_2 and Delta_2.
    coinv = CoinvariantAlgebra(a2)
    f = coinv.weight_poly(1) * coinv.weight_poly(2)
    coinv.demazure_simple(2, f)
    x1 = coinv.schubert_class(a2.simple(1))
    for i in (0, 3):
        for op in (lambda: coinv.act_simple(i, f), lambda: coinv.demazure_simple(i, f),
                   lambda: coinv.chevalley_multiply(i, x1)):
            with pytest.raises(ValueError, match=f"simple index {i} out of range"):
                op()


def test_demazure_word_composition(coinv_a2, a2):
    w0 = a2.w0
    f = coinv_a2.staircase_poly() * 6  # degree-3 polynomial
    one_step = f
    for i in reversed(w0.word):
        one_step = coinv_a2.demazure_simple(i, one_step)
    assert coinv_a2.demazure(w0, f) == one_step


def test_staircase_projects_to_top_class(coinv_a2, a2):
    top = coinv_a2.poly_to_schubert(coinv_a2.staircase_poly())
    assert top == coinv_a2.schubert_class(a2.w0)


def test_rep_of_identity_is_one(coinv_a2, a2):
    assert coinv_a2.schubert_rep(a2.identity) == RatPoly.one(2)


def test_projection_roundtrip(coinv_a2, a2):
    for w in a2.elements:
        cls = coinv_a2.schubert_class(w)
        assert coinv_a2.poly_to_schubert(coinv_a2.schubert_rep(w)) == cls
        assert cls.graded_degrees() == (2 * w.length,)


def test_a2_products_frozen(coinv_a2, a2):
    x1 = coinv_a2.schubert_class(a2.simple(1))
    x2 = coinv_a2.schubert_class(a2.simple(2))
    x12 = coinv_a2.schubert_class(a2.word_elem((1, 2)))
    x21 = coinv_a2.schubert_class(a2.word_elem((2, 1)))
    top = coinv_a2.schubert_class(a2.w0)
    assert coinv_a2.multiply(x1, x2) == x12 + x21
    assert coinv_a2.multiply(x1, x1) == x21
    assert coinv_a2.multiply(x2, x2) == x12
    assert coinv_a2.multiply(x1, x12) == top
    assert coinv_a2.multiply(x1, x21).is_zero()
    assert coinv_a2.multiply(top, x1).is_zero()


def test_chevalley_agrees_with_products(coinv_a2, a2):
    for i in (1, 2):
        xi = coinv_a2.schubert_class(a2.simple(i))
        for w in a2.elements:
            cls = coinv_a2.schubert_class(w)
            assert coinv_a2.chevalley_multiply(i, cls) == coinv_a2.multiply(xi, cls)


def test_quotient_map_is_multiplicative(coinv_a2):
    rng = random.Random(5)
    w1 = coinv_a2.weight_poly(1)
    w2 = coinv_a2.weight_poly(2)
    basis = [RatPoly.one(2), w1, w2, w1 * w2, w1 ** 2, w2 ** 2]
    for _ in range(20):
        f = sum((b * rng.randint(-3, 3) for b in basis), RatPoly.zero(2))
        g = sum((b * rng.randint(-3, 3) for b in basis), RatPoly.zero(2))
        lhs = coinv_a2.poly_to_schubert(f * g)
        rhs = coinv_a2.multiply(
            coinv_a2.poly_to_schubert(f), coinv_a2.poly_to_schubert(g)
        )
        assert lhs == rhs


def test_trace_and_duality(coinv_a2, a2):
    w0 = a2.w0
    for x in a2.elements:
        for y in a2.elements:
            if x.length + y.length != w0.length:
                continue
            prod = coinv_a2.multiply(
                coinv_a2.schubert_class(x), coinv_a2.schubert_class(y)
            )
            assert coinv_a2.trace(prod) == Fraction(int(y == w0 * x))


def test_gram_matrices(coinv_a2, a2):
    reps, gram = coinv_a2.gram_matrix(J1)
    assert [w.word for w in reps] == [(), (2,), (1, 2)]
    assert gram == [
        [0, 0, 1],
        [0, 1, 0],
        [1, 0, 0],
    ]
    reps0, gram0 = coinv_a2.gram_matrix(frozenset())
    w0 = a2.w0
    for a, x in enumerate(reps0):
        for b, y in enumerate(reps0):
            assert gram0[a][b] == Fraction(int(y == w0 * x))


def test_parabolic_basis(coinv_a2, a2):
    basis = coinv_a2.parabolic_basis(J1)
    assert len(basis) == 3
    for elem in basis:
        assert set(elem.support()) <= set(a2.min_coset_reps(J1))


def test_freeness_certificate(coinv_a2, a2):
    for J in (frozenset(), J1, frozenset({1, 2})):
        report = coinv_a2.free_basis_over_parabolic(J)
        assert report.expansion_rank == 6
        size = len(a2.parabolic_elements(J))
        assert len(report.generators) == size
        for a in range(size):
            for b in range(size):
                assert coinv_a2.dual_pairing(report, a, b) == Fraction(int(a == b))


def test_cellular_datum(coinv_a2):
    datum = coinv_a2.cellular_datum(J1)
    assert datum.chain_verified
    degrees = [deg for _, _, deg in datum.entries]
    assert degrees == sorted(degrees)


def _counting(monkeypatch, name):
    """Replace a CoinvariantAlgebra method by one that logs its calls."""
    true_method = getattr(CoinvariantAlgebra, name)
    calls = []

    def counted(self, *args):
        calls.append(args)
        return true_method(self, *args)

    monkeypatch.setattr(CoinvariantAlgebra, name, counted)
    return calls


@pytest.mark.parametrize("kind, chains", [("A3", 106), ("B3", 296)])
def test_freeness_builds_each_pairing_matrix_once(monkeypatch, kind, chains):
    # With J = all, one matrix per length l holds n_l x n_l pairings
    # (n_l elements of length l); one matrix per dual would take
    # sum n_l^3 Demazure chains, 522 on A3 and 2 016 on B3.
    group = weyl_group(kind)
    coinv = CoinvariantAlgebra(group)
    full = range(1, group.rank + 1)
    lengths = [w.length for w in group.elements]
    calls = _counting(monkeypatch, "demazure")
    report = coinv.free_basis_over_parabolic(full)
    assert len(calls) == chains == sum(lengths.count(l) ** 2 for l in set(lengths))
    assert {w for w, _ in calls} == {group.w0}
    size = len(report.basis_elements)
    for a in range(size):
        for b in range(size):
            assert coinv.dual_pairing(report, a, b) == Fraction(int(a == b))


def test_cellular_chain_multiplies_each_pair_once(monkeypatch, b3):
    # The 47 classes X_u, u != e, of W^J = W: 47 * 48 / 2 unordered pairs,
    # where every ordered pair (u, w) with u != e would take 47 * 48.
    coinv = CoinvariantAlgebra(b3)
    calls = _counting(monkeypatch, "multiply")
    datum = coinv.cellular_datum(frozenset())
    assert datum.chain_verified
    assert len(calls) == 1128
    pairs = {frozenset(a.support() + b.support()) for a, b in calls}
    assert len(pairs) == 1128 and b3.identity not in set().union(*pairs)


def _monomials_up_to_top(group):
    n = group.rank
    for d in range(group.w0.length + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            mono = [0] * n
            for j in combo:
                mono[j] += 1
            yield RatPoly(n, {tuple(mono): 1})


def _composition_failures_word_by_word(coinv, pairs):
    """Pairs failing Delta_w Delta_u = Delta_{wu} (or 0), each operator
    applied along its canonical word to each monomial up to degree N."""
    group = coinv.group
    zero = RatPoly.zero(group.rank)
    monomials = list(_monomials_up_to_top(group))
    failed = []
    for w, u in pairs:
        wu = w * u
        additive = wu.length == w.length + u.length
        for m in monomials:
            want = coinv.demazure(wu, m) if additive else zero
            if coinv.demazure(w, coinv.demazure(u, m)) != want:
                failed.append((w, u))
                break
    return failed


def test_demazure_compose_check():
    for kind in ("A2", "B2", "G2"):
        group = weyl_group(kind)
        pairs = [(w, u) for w in group.elements for u in group.elements]
        assert coinvariant_algebra(kind).demazure_compose_check(pairs) == [], kind


@pytest.mark.parametrize("kind, expected", [("A2", 6), ("B2", 14), ("G2", 34)])
def test_demazure_compose_check_flags_a_broken_operator(monkeypatch, kind, expected):
    # Delta_1 f -> g + g * w_2 with g the true Delta_1 f.  Scaling Delta_1
    # by a constant would not do: the rule holds for c * Delta_1 too.
    true_simple = CoinvariantAlgebra.demazure_simple

    def broken(self, i, f):
        g = true_simple(self, i, f)
        return g + g * self.weight_poly(2) if i == 1 else g

    monkeypatch.setattr(CoinvariantAlgebra, "demazure_simple", broken)
    group = weyl_group(kind)
    coinv = CoinvariantAlgebra(group)
    pairs = [(w, u) for w in group.elements for u in group.elements]
    failed = coinv.demazure_compose_check(pairs)
    assert len(failed) == expected
    assert failed == _composition_failures_word_by_word(coinv, pairs)


@pytest.mark.parametrize("kind", ["A2", "B2", "G2"])
def test_demazure_tables_match_demazure(kind):
    group = weyl_group(kind)
    coinv = coinvariant_algebra(kind)
    degrees = 0
    for monomials, table in coinv._demazure_tables(group.elements):
        assert set(table) == set(group.elements)
        for x, row in table.items():
            assert row == [coinv.demazure(x, RatPoly(group.rank, {m: 1}))
                           for m in monomials]
        degrees += 1
    assert degrees == group.w0.length + 1


@pytest.mark.parametrize("kind", ["A3", "B3", "G2"])
def test_schubert_reps_are_demazure_images_of_the_top_class(kind):
    group = weyl_group(kind)
    coinv = CoinvariantAlgebra(group)
    top = coinv.staircase_poly()
    for w in group.elements:
        assert coinv.schubert_rep(w) == coinv.demazure(w.inverse() * group.w0, top)


def test_projection_takes_one_step_per_element(monkeypatch):
    # Total exponent 4 on B3: one walk visits each x with 0 < l(x) <= 4
    # once, 23 steps; Delta_w along each word of length 4 would take 8 * 4.
    group = weyl_group("B3")
    coinv = CoinvariantAlgebra(group)
    w1, w2, w3 = (coinv.weight_poly(i) for i in (1, 2, 3))
    f = (w1 + w2 * 2 - w3) ** 4 + w1 * w2 * w3 ** 2
    expected = {w: coinv.demazure(w, f).constant_term()
                for w in group.elements if w.length == 4}
    true_simple = CoinvariantAlgebra.demazure_simple
    steps = []

    def counted(self, i, g):
        steps.append(i)
        return true_simple(self, i, g)

    monkeypatch.setattr(CoinvariantAlgebra, "demazure_simple", counted)
    projected = coinv.poly_to_schubert(f)
    assert len(steps) <= sum(1 for w in group.elements if 0 < w.length <= 4) == 23
    assert {w: projected.coefficient(w) for w in expected} == expected
    assert all(w.length == 4 for w in projected.support())


def test_schubert_elem_arithmetic(coinv_a2, a2):
    x1 = coinv_a2.schubert_class(a2.simple(1))
    x2 = coinv_a2.schubert_class(a2.simple(2))
    s = x1 + x2
    assert s - x2 == x1
    assert s.scale(Fraction(1, 2)) + s.scale(Fraction(1, 2)) == s
    assert (x1 - x1).is_zero()
    assert "X[" in repr(x1)


def test_operands_from_another_group_are_rejected():
    a2, b2 = coinvariant_algebra("A2"), coinvariant_algebra("B2")
    x = a2.schubert_class(a2.group.simple(1))
    y = b2.schubert_class(b2.group.w0)
    for op in (lambda: x + y, lambda: y - x, lambda: x * y, lambda: y * x,
               lambda: a2.multiply(y, y)):
        with pytest.raises(ValueError, match="coinvariant algebra of"):
            op()
    # a second algebra over the same group shares it
    other = CoinvariantAlgebra(a2.group)
    z = other.schubert_class(a2.group.simple(2))
    assert x + z == a2.schubert_class(a2.group.simple(2)) + x
    assert x * z == a2.multiply(x, a2.schubert_class(a2.group.simple(2)))


def test_element_methods_refuse_another_group():
    # Each of these used to read a B2 element's indices as A2 ones: a
    # Schubert class outside A2, a zero trace, the action or Demazure
    # image of an A2 element, or a bare IndexError or KeyError.
    coinv, hecke = coinvariant_algebra("A2"), hecke_algebra("A2")
    x = coinvariant_algebra("B2").schubert_class(weyl_group("B2").simple(2))
    top = coinvariant_algebra("B2").schubert_class(weyl_group("B2").w0)
    t = hecke_algebra("B2").t(weyl_group("B2").w0)
    s1 = weyl_group("B2").simple(1)
    f = coinv.weight_poly(1)
    cases = [
        (lambda: coinv.chevalley_multiply(1, x), "coinvariant algebra of B2"),
        (lambda: coinv.trace(top), "coinvariant algebra of B2"),
        (lambda: hecke.expand_in_kl_basis(t), "Hecke algebra of B2"),
        (lambda: coinv.act(s1, f), "Weyl group of B2 used in that of A2"),
        (lambda: coinv.demazure(s1, f), "Weyl group of B2 used in that of A2"),
        (lambda: coinv.schubert_rep(s1), "Weyl group of B2 used in that of A2"),
    ]
    for op, message in cases:
        with pytest.raises(ValueError, match=message):
            op()


@pytest.mark.parametrize("kind", ["A2", "B2", "G2", "B3"])
def test_coinvariant_action_is_a_group_action(kind):
    group = weyl_group(kind)
    coinv = coinvariant_algebra(kind)
    rng = random.Random(7)
    f = _rand_poly(rng, group.rank, 3)
    for w in group.elements:
        assert coinv.act(w, coinv.act(w.inverse(), f)) == f
    # w0 sends the positive roots to the negative ones.
    roots = RatPoly.one(group.rank)
    for t in range(group.datum.num_positive_roots):
        roots = roots * coinv.root_poly(t)
    sign = (-1) ** group.datum.num_positive_roots
    assert coinv.act(group.w0, roots) == roots * sign


def test_g2_duality_spot_check():
    group = weyl_group("G2")
    coinv = coinvariant_algebra("G2")
    w0 = group.w0
    x = group.word_elem((1, 2, 1))
    y = w0 * x
    prod = coinv.multiply(coinv.schubert_class(x), coinv.schubert_class(y))
    assert coinv.trace(prod) == 1


def test_closed_form_demazure_matches_division():
    # divide_by_linear is the independent route: (f - s_i f) / alpha_i by
    # long division, where demazure_simple expands powers of w_i directly.
    for kind in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "F4"):
        coinv = coinvariant_algebra(kind)
        n = coinv.nvars
        rng = random.Random(f"demazure {kind}")
        for i in range(1, n + 1):
            for trial in range(12):
                f = _rand_poly(rng, n, 5)
                if trial % 3 == 0:
                    f = f * Fraction(rng.randint(1, 7), rng.randint(1, 7))
                alpha = coinv.alpha_poly(i)
                want = divide_by_linear(f - coinv.act_simple(i, f), alpha)
                got = coinv.demazure_simple(i, f)
                assert got == want, (kind, i, f)
                if all(c.denominator == 1 for _, c in f.items()):
                    assert all(c.denominator == 1 for _, c in got.items())


def test_schubert_class_refuses_another_group():
    # The B2 class used to be built, and a product of it in A3 then
    # failed with a bare KeyError inside multiply.
    coinv = coinvariant_algebra("A3")
    with pytest.raises(ValueError, match="Weyl group of B2 used in that of A3"):
        coinv.schubert_class(weyl_group("B2").simple(1))
