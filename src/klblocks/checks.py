"""Cross-validation suite: every result recomputed along a second route.

Each check pits the production code against an independent oracle (a
brute-force definition, a linear-system solve, a closure computation) or
against an identity that the implementation does not use internally.
``run_all_checks`` runs the whole catalogue for a type and returns one
``CheckResult`` per check; nothing raises, failures are reported.

Quadratic loops are exhaustive for the group orders where that is cheap
and fall back to seeded random samples beyond; the ``detail`` string
records which.  Two checks with no sampled form are reported as skipped
(``CheckResult.skipped``) above their size cap; a skip is not a pass.
"""

from __future__ import annotations

import random
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable, Sequence

from . import klcache, serialize
from .blocks import (
    BlockDesc,
    bott_samelson_decomposition,
    decomposition_matrix,
    graded_cartan_matrix,
    graded_length_report,
    inverse_decomposition_matrix,
    make_block,
    parabolic_case_decomposition,
    projective_verma_flag,
    singular_case_decomposition,
    standard_block,
    standard_weight,
    translation_composite,
    ungraded_specialization,
    vp_center,
    vp_graded_dimension,
)
from .hecke import HeckeAlgebra, HeckeElem
from .laurent import LaurentPoly
from .linalg import rank as matrix_rank
from .ratpoly import NonDivisibleError, RatPoly, divide_by_linear
from .schubert import CoinvariantAlgebra
from .weyl import WeylElem, WeylGroup, weyl_group_of_kind

__all__ = [
    "CheckResult",
    "kl_bar_solve",
    "bruhat_closure_leq",
    "double_quotient_weight_oracle",
    "run_all_checks",
]

# Exhaustive all-pairs loops up to this group order, samples beyond.
_PAIR_CAP = 48
_PRODUCT_CAP = 24
_SAMPLE = 48
_DUALITY_SEED = 7


@dataclass
class CheckResult:
    """Outcome of one check; ``passed`` is false only for a violation."""

    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False

    def line(self) -> str:
        flag = "skip" if self.skipped else "ok" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{flag:4s} {self.name}{tail}"


# -- independent oracles ---------------------------------------------


def kl_bar_solve(hecke: HeckeAlgebra, w: WeylElem) -> HeckeElem:
    """Canonical basis element of w from the bar-invariance linear system.

    Solves a = bar(a) with unit leading coefficient and strictly negative
    exponents below, by descending triangular elimination.  Independent of
    the multiplication recursion used by ``kl_element``.
    """
    group = hecke.group
    below = [y for y in group.elements if group.bruhat_leq(y, w)]
    below.sort(key=lambda y: (y.length, y.index), reverse=True)
    coeffs: dict[WeylElem, LaurentPoly] = {w: LaurentPoly.one()}
    for y in below:
        if y is w:
            continue
        known = LaurentPoly.zero()
        for z, a_z in coeffs.items():
            if z is not y:
                known = known + a_z.bar() * hecke.bar_t(z).coefficient(y)
        # a_y - bar(a_y) = known forces a_y = negative-exponent part
        a_y = LaurentPoly({e: c for e, c in known.items() if e < 0})
        if a_y - a_y.bar() != known:
            raise ArithmeticError(f"no bar-invariant solution at {y!r}")
        coeffs[y] = a_y
    return hecke.element({y: a for y, a in coeffs.items() if a != LaurentPoly.zero()})


def bruhat_closure_leq(group: WeylGroup) -> set[tuple[int, int]]:
    """All Bruhat-comparable index pairs, by transitive closure.

    Edges are x -> x t over all reflections t that raise the length; the
    reachability closure is the order.  Independent of the subword
    recursion used by ``bruhat_leq``.
    """
    nroots = len(group.datum.pos_roots)
    edges: dict[int, list[int]] = {w.index: [] for w in group.elements}
    for x in group.elements:
        for t in range(nroots):
            y = x * group.reflection(t)
            if y.length > x.length:
                edges[x.index].append(y.index)
    closed: set[tuple[int, int]] = set()
    for x in group.elements:
        seen = {x.index}
        queue = [x.index]
        while queue:
            cur = queue.pop()
            for nxt in edges[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        closed.update((x.index, other) for other in seen)
    return closed


def double_quotient_weight_oracle(
    group: WeylGroup, I: Iterable[int], J: Iterable[int]
) -> list[WeylElem]:
    """Double-quotient members read off from weight positivity.

    w is kept when it is minimal in both cosets and w_I w (lam + rho) is
    strictly positive on I, for the standard antidominant lam singular
    exactly on J.  Independent of the descent conditions used by
    ``double_quotient``.
    """
    I = frozenset(I)
    J = frozenset(J)
    shifted = tuple(c + 1 for c in standard_weight(group.rank, J))
    w_i = group.parabolic_longest(I)
    left = set(group.min_coset_reps_right(I))
    out = []
    for w in group.min_coset_reps(J):
        if w not in left:
            continue
        moved = w_i.act(w.act(shifted))
        if all(moved[i - 1] > 0 for i in I):
            out.append(w)
    return out


# -- random data helpers ---------------------------------------------


def _rand_laurent(rng: random.Random, span: int = 4) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[rng.randint(-span, span)] = rng.randint(-6, 6)
    return LaurentPoly({e: c for e, c in terms.items() if c})


def _rand_poly(rng: random.Random, nvars: int, maxdeg: int = 3) -> RatPoly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 6)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            mono[rng.randrange(nvars)] += 1
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(-5, 5))
    return RatPoly(nvars, {m: c for m, c in terms.items() if c})


def _rand_homogeneous(rng: random.Random, nvars: int, deg: int) -> RatPoly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 5)):
        mono = [0] * nvars
        for _ in range(deg):
            mono[rng.randrange(nvars)] += 1
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(-4, 4))
    return RatPoly(nvars, {m: c for m, c in terms.items() if c})


def _subset_list(rank: int) -> list[frozenset[int]]:
    return [
        frozenset(sub)
        for size in range(rank + 1)
        for sub in combinations(range(1, rank + 1), size)
    ]


def _pairs(elems: Sequence, rng: random.Random, cap: int) -> tuple[list, str]:
    if len(elems) <= cap:
        return [(x, y) for x in elems for y in elems], "exhaustive"
    sample = [(rng.choice(elems), rng.choice(elems)) for _ in range(_SAMPLE)]
    return sample, f"sampled {len(sample)} pairs"


# -- the catalogue ---------------------------------------------------


class _Suite:
    def __init__(self, kind: str):
        self.kind = kind
        self.group = weyl_group_of_kind(kind)
        self.hecke = HeckeAlgebra(self.group)
        self.coinv = CoinvariantAlgebra(self.group)
        self.rng = random.Random(20240 + len(kind))
        self.subsets = _subset_list(self.group.rank)
        self.regular = make_block(
            self.group, (-2,) * self.group.rank, (-2,) * self.group.rank
        )
        self._dmatrix = None

    def regular_dmatrix(self):
        if self._dmatrix is None:
            self._dmatrix = decomposition_matrix(self.regular, self.hecke)
        return self._dmatrix

    def quiet_block(self, I, J):
        """Block for a subset pair; empty index sets are expected here."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return standard_block(self.group, I, J)

    # -- exact scalar layers -----------------------------------------

    def check_laurent_ring(self) -> CheckResult:
        rng = self.rng
        for _ in range(120):
            a, b, c = (_rand_laurent(rng) for _ in range(3))
            if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
                return CheckResult("laurent ring axioms", False, "distributivity")
            if a * b != b * a or (a + b).bar() != a.bar() + b.bar():
                return CheckResult("laurent ring axioms", False, "commutativity/bar")
            if (a * b).bar() != a.bar() * b.bar() or a.bar().bar() != a:
                return CheckResult("laurent ring axioms", False, "bar involution")
        return CheckResult("laurent ring axioms", True, "120 random triples")

    def check_laurent_text(self) -> CheckResult:
        rng = self.rng
        for _ in range(150):
            a = _rand_laurent(rng)
            for var in ("v", "q"):
                if LaurentPoly.parse(a.render(var), var) != a:
                    return CheckResult(
                        "laurent text round-trip", False, repr(a.render(var))
                    )
        return CheckResult("laurent text round-trip", True, "150 random polynomials")

    def check_poly_ring(self) -> CheckResult:
        rng = self.rng
        n = self.group.rank
        for _ in range(60):
            a, b, c = (_rand_poly(rng, n) for _ in range(3))
            if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
                return CheckResult("polynomial ring axioms", False, "")
        return CheckResult("polynomial ring axioms", True, "60 random triples")

    def check_poly_division(self) -> CheckResult:
        rng = self.rng
        coinv = self.coinv
        nroots = len(self.group.datum.pos_roots)
        for trial in range(40):
            root = coinv.root_poly(rng.randrange(nroots))
            f = _rand_homogeneous(rng, self.group.rank, rng.randint(1, 3))
            if f == RatPoly.zero(self.group.rank):
                continue
            if divide_by_linear(f * root, root) != f:
                return CheckResult("exact linear division", False, f"trial {trial}")
        probe = coinv.weight_poly(1) * coinv.weight_poly(1)
        try:
            divide_by_linear(probe + RatPoly.one(self.group.rank), coinv.alpha_poly(1))
        except NonDivisibleError:
            return CheckResult("exact linear division", True, "40 exact + 1 rejected")
        return CheckResult("exact linear division", False, "inexact division accepted")

    # -- roots and Weyl combinatorics --------------------------------

    def check_root_permutation(self) -> CheckResult:
        datum = self.group.datum
        omega_roots = [tuple(r) for r in datum.pos_roots_omega]
        positives = set(omega_roots)
        for i in range(1, self.group.rank + 1):
            s = self.group.simple(i)
            alpha = omega_roots[datum.simple_root_index(i)]
            if s.act(alpha) != tuple(-c for c in alpha):
                return CheckResult(
                    "simple reflection permutes other positives", False, f"s_{i} alpha"
                )
            images = {s.act(beta) for beta in omega_roots if beta != alpha}
            if images != positives - {alpha}:
                return CheckResult(
                    "simple reflection permutes other positives", False, f"s_{i}"
                )
        return CheckResult(
            "simple reflection permutes other positives", True,
            f"{len(omega_roots)} roots",
        )

    def check_length_identities(self) -> CheckResult:
        group = self.group
        w0 = group.w0
        for w in group.elements:
            if w.inverse().length != w.length:
                return CheckResult("length identities", False, f"inverse at {w!r}")
            if (w0 * w).length != w0.length - w.length:
                return CheckResult("length identities", False, f"w0 shift at {w!r}")
            if len(w.word) != w.length:
                return CheckResult("length identities", False, f"word at {w!r}")
        return CheckResult("length identities", True, f"all {len(group.elements)}")

    def check_descents(self) -> CheckResult:
        group = self.group
        for w in group.elements:
            for i in range(1, group.rank + 1):
                right = (w * group.simple(i)).length < w.length
                left = (group.simple(i) * w).length < w.length
                if right != (i in group.right_descents(w)):
                    return CheckResult("descent consistency", False, f"right {w!r}")
                if left != (i in group.left_descents(w)):
                    return CheckResult("descent consistency", False, f"left {w!r}")
        return CheckResult("descent consistency", True, "")

    def check_bruhat_closure(self) -> CheckResult:
        group = self.group
        if len(group.elements) > 400:
            return CheckResult("bruhat order closure oracle", True,
                               f"large group: |W| = {len(group.elements)} > 400", skipped=True)
        closed = bruhat_closure_leq(group)
        for x in group.elements:
            for y in group.elements:
                if group.bruhat_leq(x, y) != ((x.index, y.index) in closed):
                    return CheckResult(
                        "bruhat order closure oracle", False, f"{x!r} vs {y!r}"
                    )
        return CheckResult(
            "bruhat order closure oracle", True, f"{len(group.elements)}^2 pairs"
        )

    def check_coset_factorization(self) -> CheckResult:
        group = self.group
        for J in self.subsets:
            reps = group.min_coset_reps(J)
            inside = group.parabolic_elements(J)
            if len(reps) * len(inside) != len(group.elements):
                return CheckResult("coset factorization", False, f"count at {sorted(J)}")
            for w in group.elements:
                d, u = group.coset_factorize(w, J)
                if d * u != w or d.length + u.length != w.length:
                    return CheckResult("coset factorization", False, f"{w!r}")
                if d not in reps or u not in inside:
                    return CheckResult("coset factorization", False, f"{w!r}")
        return CheckResult("coset factorization", True, f"{len(self.subsets)} subsets")

    def check_double_quotient(self) -> CheckResult:
        group = self.group
        count = 0
        for I in self.subsets:
            for J in self.subsets:
                defn = group.double_quotient(I, J)
                oracle = double_quotient_weight_oracle(group, I, J)
                if list(defn) != list(oracle):
                    return CheckResult(
                        "double quotient weight oracle",
                        False,
                        f"I={sorted(I)} J={sorted(J)}",
                    )
                count += 1
        return CheckResult("double quotient weight oracle", True, f"{count} pairs")

    def check_dot_action(self) -> CheckResult:
        group = self.group
        rng = self.rng
        pairs, scope = _pairs(group.elements, rng, _PAIR_CAP)
        for w, u in pairs:
            lam = tuple(rng.randint(-4, 3) for _ in range(group.rank))
            if w.dot(u.dot(lam)) != (w * u).dot(lam):
                return CheckResult("dot action composition", False, f"{w!r},{u!r}")
        return CheckResult("dot action composition", True, scope)

    def check_antidominant_rep(self) -> CheckResult:
        group = self.group
        rng = self.rng
        for _ in range(15):
            lam = tuple(rng.randint(-4, 2) for _ in range(group.rank))
            mu = group.antidominant_representative(lam)
            orbit_min = {
                w.dot(lam) for w in group.elements
                if group.is_antidominant(w.dot(lam))
            }
            if orbit_min != {mu}:
                return CheckResult("antidominant orbit representative", False, f"{lam}")
            stab = group.dot_stabilizer(mu)
            para = group.parabolic_elements(group.singularity_subset(mu))
            if set(stab) != set(para):
                return CheckResult(
                    "antidominant orbit representative", False, f"stabilizer {mu}"
                )
        return CheckResult("antidominant orbit representative", True, "15 random weights")

    # -- Hecke algebra ------------------------------------------------

    def check_quadratic_relation(self) -> CheckResult:
        h = self.hecke
        v = LaurentPoly.gen(1)
        vinv = LaurentPoly.gen(-1)
        for i in range(1, self.group.rank + 1):
            ts = h.t(self.group.simple(i))
            if ts * ts != ts.scale(v - vinv) + h.one:
                return CheckResult("quadratic hecke relation", False, f"s_{i}")
        return CheckResult("quadratic hecke relation", True, "")

    def check_length_additive_products(self) -> CheckResult:
        group = self.group
        h = self.hecke
        rng = self.rng
        if len(group.elements) <= _PAIR_CAP:
            splits = [(w, k) for w in group.elements for k in range(w.length + 1)]
            scope = f"all {len(splits)} word splits"
        else:
            splits = []
            for _ in range(_SAMPLE):
                w = rng.choice(group.elements)
                splits.append((w, rng.randint(0, w.length)))
            scope = f"{len(splits)} sampled splits"
        for w, k in splits:
            x = group.word_elem(w.word[:k])
            y = group.word_elem(w.word[k:])
            if h.t(x) * h.t(y) != h.t(w):
                return CheckResult("length-additive products", False, f"{w!r} at {k}")
        return CheckResult("length-additive products", True, scope)

    def check_bar_involution(self) -> CheckResult:
        group = self.group
        h = self.hecke
        rng = self.rng
        for _ in range(25):
            a = h.element({
                rng.choice(group.elements): _rand_laurent(rng) for _ in range(3)
            })
            b = h.element({
                rng.choice(group.elements): _rand_laurent(rng) for _ in range(2)
            })
            if h.bar(h.bar(a)) != a:
                return CheckResult("bar involution", False, "not involutive")
            if h.bar(a * b) != h.bar(a) * h.bar(b):
                return CheckResult("bar involution", False, "not multiplicative")
        return CheckResult("bar involution", True, "25 random pairs")

    def check_kl_axioms(self) -> CheckResult:
        group = self.group
        h = self.hecke
        for w in group.elements:
            c = h.kl_element(w)
            if h.bar(c) != c:
                return CheckResult("kl basis axioms", False, f"bar at {w!r}")
            for y, coeff in c.items():
                if y is w:
                    if coeff != LaurentPoly.one():
                        return CheckResult("kl basis axioms", False, f"lead at {w!r}")
                    continue
                if not group.bruhat_leq(y, w):
                    return CheckResult("kl basis axioms", False, f"support {y!r},{w!r}")
                if any(e >= 0 for e, _ in coeff.items()):
                    return CheckResult("kl basis axioms", False, f"degree {y!r},{w!r}")
                p = h.kl_polynomial(y, w)
                if not p.has_nonnegative_coeffs() or p.coefficient(0) != 1:
                    return CheckResult("kl basis axioms", False, f"P at {y!r},{w!r}")
                bound = (w.length - y.length - 1) // 2
                if p.max_exp() > bound:
                    return CheckResult("kl basis axioms", False, f"bound {y!r},{w!r}")
        return CheckResult("kl basis axioms", True, f"all {len(group.elements)} columns")

    def check_kl_oracle(self) -> CheckResult:
        group = self.group
        h = self.hecke
        if len(group.elements) <= _PRODUCT_CAP:
            todo = list(group.elements)
            scope = "all elements"
        else:
            todo = [w for w in group.elements if w.length <= 4]
            scope = f"{len(todo)} elements of length <= 4"
        for w in todo:
            if h.kl_element(w) != kl_bar_solve(h, w):
                return CheckResult("kl bar-solve oracle", False, f"{w!r}")
        return CheckResult("kl bar-solve oracle", True, scope)

    def check_kl_products(self) -> CheckResult:
        group = self.group
        h = self.hecke
        rng = self.rng
        pairs, scope = _pairs(group.elements, rng, _PRODUCT_CAP)
        for x, y in pairs:
            expansion = h.expand_in_kl_basis(h.kl_element(x) * h.kl_element(y))
            for w, coeff in expansion.items():
                if not coeff.has_nonnegative_coeffs() or coeff.bar() != coeff:
                    return CheckResult("kl product positivity", False, f"{x!r} {y!r}")
        return CheckResult("kl product positivity", True, scope)

    def check_descent_rule(self) -> CheckResult:
        group = self.group
        if len(group.elements) > _PAIR_CAP:
            return CheckResult("descent rule independence", True,
                               f"large group: |W| = {len(group.elements)} > {_PAIR_CAP}",
                               skipped=True)
        other = HeckeAlgebra(group, descent_rule="max")
        for w in group.elements:
            if other.kl_element(w) != self.hecke.kl_element(w):
                return CheckResult("descent rule independence", False, f"{w!r}")
        return CheckResult("descent rule independence", True, "min vs max, all columns")

    # -- coinvariant algebra -----------------------------------------

    def check_projection_roundtrip(self) -> CheckResult:
        coinv = self.coinv
        for w in self.group.elements:
            cls = coinv.schubert_class(w)
            if coinv.poly_to_schubert(coinv.schubert_rep(w)) != cls:
                return CheckResult("schubert projection round-trip", False, f"{w!r}")
        return CheckResult("schubert projection round-trip", True, "all classes")

    def _invariant_positive_part(self) -> RatPoly:
        rng = self.rng
        group = self.group
        coinv = self.coinv
        while True:
            f = _rand_homogeneous(rng, group.rank, rng.randint(1, 2))
            total = RatPoly.zero(group.rank)
            for w in group.elements:
                total = total + coinv.act(w, f)
            if total != RatPoly.zero(group.rank):
                return total

    def check_invariant_vanishing(self) -> CheckResult:
        coinv = self.coinv
        rng = self.rng
        for _ in range(6):
            inv = self._invariant_positive_part()
            g = _rand_poly(rng, self.group.rank, 2)
            if not coinv.poly_to_schubert(inv * g).is_zero():
                return CheckResult("invariant ideal vanishing", False, "")
        return CheckResult("invariant ideal vanishing", True, "6 orbit sums")

    def check_quotient_multiplicative(self) -> CheckResult:
        coinv = self.coinv
        rng = self.rng
        for _ in range(8):
            f = _rand_poly(rng, self.group.rank, 2)
            g = _rand_poly(rng, self.group.rank, 2)
            left = coinv.poly_to_schubert(f * g)
            right = coinv.multiply(coinv.poly_to_schubert(f), coinv.poly_to_schubert(g))
            if left != right:
                return CheckResult("quotient map multiplicativity", False, "")
        return CheckResult("quotient map multiplicativity", True, "8 random pairs")

    def check_chevalley(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        for i in range(1, group.rank + 1):
            x_i = coinv.schubert_class(group.simple(i))
            for w in group.elements:
                cls = coinv.schubert_class(w)
                if coinv.chevalley_multiply(i, cls) != coinv.multiply(x_i, cls):
                    return CheckResult("chevalley rule agreement", False, f"i={i} {w!r}")
        return CheckResult(
            "chevalley rule agreement", True, f"{group.rank} x {len(group.elements)}"
        )

    def check_structure_constants(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        rng = self.rng
        pairs, scope = _pairs(group.elements, rng, _PRODUCT_CAP)
        for x, y in pairs:
            prod = coinv.multiply(coinv.schubert_class(x), coinv.schubert_class(y))
            for w, coeff in prod.items():
                if coeff.denominator != 1 or coeff < 0:
                    return CheckResult("schubert structure constants", False, f"{x!r} {y!r}")
                if w.length != x.length + y.length:
                    return CheckResult("schubert structure constants", False, "degree")
        return CheckResult("schubert structure constants", True, scope)

    def check_poincare_duality(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        w0 = group.w0
        if len(group.elements) <= _PRODUCT_CAP:
            pairs = [
                (x, y) for x in group.elements for y in group.elements
                if x.length + y.length == w0.length
            ]
            scope = "all complementary pairs"
        else:
            # A local stream keeps self.rng, and so every later check, unchanged.
            rng = random.Random(_DUALITY_SEED)
            pairs = []
            for _ in range(_SAMPLE // 2):
                x = rng.choice(group.elements)
                others = [y for y in group.elements
                          if x.length + y.length == w0.length]
                pairs += [(x, w0 * x), (x, rng.choice(others))]
            scope = f"sampled {len(pairs)} complementary pairs"
        for x, y in pairs:
            tr = coinv.trace(coinv.multiply(
                coinv.schubert_class(x), coinv.schubert_class(y)
            ))
            if tr != Fraction(int(y == w0 * x)):
                return CheckResult("poincare duality", False, f"{x!r} {y!r}")
        return CheckResult("poincare duality", True, scope)

    def check_gram(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        w0 = group.w0
        for J in self.subsets:
            reps, gram = coinv.gram_matrix(J)
            if matrix_rank([list(row) for row in gram]) != len(reps):
                return CheckResult("gram nondegeneracy", False, f"J={sorted(J)}")
            if not J:
                for a, x in enumerate(reps):
                    for b, y in enumerate(reps):
                        if gram[a][b] != Fraction(int(y == w0 * x)):
                            return CheckResult(
                                "gram nondegeneracy", False, "empty-set form"
                            )
        return CheckResult("gram nondegeneracy", True, f"{len(self.subsets)} subsets")

    def check_parabolic_basis(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        for J in self.subsets:
            basis = coinv.parabolic_basis(J)
            if len(basis) != len(group.min_coset_reps(J)):
                return CheckResult("parabolic invariant basis", False, f"J={sorted(J)}")
        return CheckResult("parabolic invariant basis", True, f"{len(self.subsets)} subsets")

    def check_freeness(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        if len(group.elements) > _PRODUCT_CAP:
            todo = [frozenset(), frozenset({1}), frozenset(range(1, group.rank + 1))]
            scope = "empty, {1}, full"
        else:
            todo = self.subsets
            scope = f"{len(self.subsets)} subsets"
        for J in todo:
            report = coinv.free_basis_over_parabolic(J)
            if report.expansion_rank != len(group.elements):
                return CheckResult("parabolic freeness certificate", False, f"J={sorted(J)}")
            w_elems = group.parabolic_elements(J)
            for a in range(len(w_elems)):
                for b in range(len(w_elems)):
                    want = Fraction(int(a == b))
                    if coinv.dual_pairing(J, report, a, b) != want:
                        return CheckResult(
                            "parabolic freeness certificate", False,
                            f"pairing J={sorted(J)}",
                        )
        return CheckResult("parabolic freeness certificate", True, scope)

    def check_demazure_words(self) -> CheckResult:
        group = self.group
        coinv = self.coinv
        cap = min(group.w0.length, 5)

        def max_descent_word(w):
            word = []
            while w.length:
                i = max(group.left_descents(w))
                word.append(i)
                w = group.simple(i) * w
            return tuple(word)

        monomials = [RatPoly.one(group.rank)]
        for deg in range(1, cap + 1):
            for combo in combinations_with_replacement(range(1, group.rank + 1), deg):
                mono = RatPoly.one(group.rank)
                for i in combo:
                    mono = mono * coinv.weight_poly(i)
                monomials.append(mono)
        for w in group.elements:
            alt = max_descent_word(w)
            if alt == w.word:
                continue
            for f in monomials:
                g = f
                for i in reversed(alt):
                    g = coinv.demazure_simple(i, g)
                if g != coinv.demazure(w, f):
                    return CheckResult("demazure word independence", False, f"{w!r}")
        return CheckResult(
            "demazure word independence", True, f"degree cap {cap}"
        )

    def check_demazure_composition(self) -> CheckResult:
        group = self.group
        rng = self.rng
        if len(group.elements) <= 12:
            pairs = [(w, u) for w in group.elements for u in group.elements]
            scope = "exhaustive"
        else:
            pairs = [
                (rng.choice(group.elements), rng.choice(group.elements))
                for _ in range(24)
            ]
            scope = "24 sampled pairs"
        for w, u in pairs:
            if not self.coinv.demazure_compose_check(w, u):
                return CheckResult("demazure composition rule", False, f"{w!r} {u!r}")
        return CheckResult("demazure composition rule", True, scope)

    def check_cellular(self) -> CheckResult:
        coinv = self.coinv
        if len(self.group.elements) > _PRODUCT_CAP:
            todo = [frozenset(), frozenset(range(1, self.group.rank + 1))]
            scope = "empty and full subsets"
        else:
            todo = self.subsets
            scope = f"{len(self.subsets)} subsets"
        for J in todo:
            datum = coinv.cellular_datum(J)
            if not datum.chain_verified:
                return CheckResult("cellular chain filtration", False, f"J={sorted(J)}")
            lengths = [entry[2] for entry in datum.entries]
            if lengths != sorted(lengths):
                return CheckResult("cellular chain filtration", False, "degree order")
        return CheckResult("cellular chain filtration", True, scope)

    # -- graded block matrices ---------------------------------------

    def _block_pairs(self):
        if 4 ** self.group.rank <= 256:
            for I in self.subsets:
                for J in self.subsets:
                    yield I, J
        else:
            small = [frozenset(), frozenset({1}), frozenset(range(1, self.group.rank + 1))]
            for I in small:
                for J in small:
                    yield I, J

    def check_inverse_pair(self) -> CheckResult:
        group = self.group
        h = self.hecke
        count = 0
        for I, J in self._block_pairs():
            block = self.quiet_block(I, J)
            if not block.index_set:
                continue
            d = decomposition_matrix(block, h)
            e = inverse_decomposition_matrix(block, h)
            if not (d @ e).is_identity():
                return CheckResult(
                    "graded inverse pair", False, f"I={sorted(I)} J={sorted(J)}"
                )
            for a, x in enumerate(d.rows):
                for b, y in enumerate(d.cols):
                    entry = d.entries[a][b]
                    if x is y and entry != LaurentPoly.one():
                        return CheckResult("graded inverse pair", False, "diagonal")
                    if not entry.has_nonnegative_coeffs():
                        return CheckResult("graded inverse pair", False, "negativity")
                    if entry != LaurentPoly.zero() and entry.min_exp() < 0:
                        return CheckResult("graded inverse pair", False, "grading")
            count += 1
        return CheckResult("graded inverse pair", True, f"{count} nonempty blocks")

    def check_cartan_symmetry(self) -> CheckResult:
        group = self.group
        h = self.hecke
        for I, J in self._block_pairs():
            block = self.quiet_block(I, J)
            if not block.index_set:
                continue
            c = graded_cartan_matrix(block, h)
            if c != c.transpose():
                return CheckResult(
                    "cartan symmetry", False, f"I={sorted(I)} J={sorted(J)}"
                )
            d = decomposition_matrix(block, h)
            if projective_verma_flag(block, h) != d.transpose():
                return CheckResult("cartan symmetry", False, "flag transpose")
        return CheckResult("cartan symmetry", True, "")

    def check_special_routes(self) -> CheckResult:
        group = self.group
        h = self.hecke
        for J in self.subsets:
            block = standard_block(group, (), J)
            if singular_case_decomposition(block, h) != decomposition_matrix(block, h):
                return CheckResult("specialized route agreement", False, f"J={sorted(J)}")
            pblock = standard_block(group, J, ())
            if not pblock.index_set:
                continue
            if parabolic_case_decomposition(pblock, h) != decomposition_matrix(pblock, h):
                return CheckResult("specialized route agreement", False, f"I={sorted(J)}")
        return CheckResult(
            "specialized route agreement", True, f"{len(self.subsets)} each side"
        )

    def check_graded_lengths(self) -> CheckResult:
        group = self.group
        h = self.hecke
        for J in self.subsets:
            block = standard_block(group, (), J)
            for row in graded_length_report(block, h):
                if not row.ok:
                    return CheckResult(
                        "graded length bounds", False, f"J={sorted(J)} x={row.x!r}"
                    )
        return CheckResult("graded length bounds", True, f"{len(self.subsets)} blocks")

    def check_palindromic(self) -> CheckResult:
        group = self.group
        h = self.hecke
        for J in self.subsets:
            block = standard_block(group, (), J)
            d = decomposition_matrix(block, h)
            center = vp_center(block)
            for x in block.index_set:
                vp = vp_graded_dimension(block, h, x, d)
                if not vp.is_palindromic(center):
                    return CheckResult(
                        "graded dimension palindromicity", False,
                        f"J={sorted(J)} x={x!r}",
                    )
        return CheckResult(
            "graded dimension palindromicity", True, f"{len(self.subsets)} blocks"
        )

    def check_bott_samelson(self) -> CheckResult:
        group = self.group
        h = self.hecke
        d = self.regular_dmatrix()
        for x in group.elements:
            report = bott_samelson_decomposition(self.regular, h, x.word, d)
            if not (report.dimension_identity_ok and report.top_multiplicity_ok
                    and report.support_ok and report.natural_coeffs_ok):
                return CheckResult("bott-samelson reports", False, f"{x!r}")
            if report.shift != group.w0.length - x.length:
                return CheckResult("bott-samelson reports", False, f"shift {x!r}")
        return CheckResult(
            "bott-samelson reports", True, f"one word per element, {len(group.elements)}"
        )

    def check_translation(self) -> CheckResult:
        group = self.group
        h = self.hecke
        for J in self.subsets:
            sing = standard_block(group, (), J)
            target = h.kl_element(group.parabolic_longest(J))
            for x in group.min_coset_reps(J):
                comp = translation_composite(self.regular, sing, x)
                want = dict((h.t(x) * target).items())
                if comp != want:
                    return CheckResult(
                        "translation composite", False, f"J={sorted(J)} x={x!r}"
                    )
        return CheckResult("translation composite", True, f"{len(self.subsets)} walls")

    def check_ungraded(self) -> CheckResult:
        h = self.hecke
        d1, e1 = ungraded_specialization(self.regular, h)
        size = len(d1)
        prod = [
            [sum(d1[a][k] * e1[k][b] for k in range(size)) for b in range(size)]
            for a in range(size)
        ]
        if prod != [[int(a == b) for b in range(size)] for a in range(size)]:
            return CheckResult("ungraded specialization", False, "not inverse at v=1")
        if any(entry < 0 for row in d1 for entry in row):
            return CheckResult("ungraded specialization", False, "negative multiplicity")
        return CheckResult("ungraded specialization", True, f"{size}x{size} at v=1")

    # -- persistence --------------------------------------------------

    def check_serialization(self) -> CheckResult:
        group = self.group
        d = self.regular_dmatrix()
        via_json = serialize.matrix_from_json(serialize.matrix_to_json(d), group)
        via_csv = serialize.matrix_from_csv(serialize.matrix_to_csv(d), group)
        if via_json != d or via_csv != d:
            return CheckResult("matrix serialization round-trip", False, "")
        if serialize.matrix_to_json(via_json) != serialize.matrix_to_json(d):
            return CheckResult("matrix serialization round-trip", False, "determinism")
        return CheckResult("matrix serialization round-trip", True, "json and csv")

    def check_kl_cache(self) -> CheckResult:
        group = self.group
        h = self.hecke
        h.kl_basis_elements()
        with tempfile.TemporaryDirectory() as directory:
            path = klcache.cache_path(directory, self.kind)
            wrote = klcache.save_kl_table(h.kl_table, path)
            fresh = HeckeAlgebra(group)
            read = klcache.load_kl_table(path, fresh)
            if wrote != read:
                return CheckResult("kl cache round-trip", False, f"{wrote} vs {read}")
            for (y, w), poly in h.kl_table.entries.items():
                if fresh.kl_table.get(y, w) != poly:
                    return CheckResult("kl cache round-trip", False, f"{y!r},{w!r}")
            if fresh.kl_element(group.w0) != h.kl_element(group.w0):
                return CheckResult("kl cache round-trip", False, "rebuild")
        return CheckResult("kl cache round-trip", True, f"{wrote} records")


def run_all_checks(
    kind: str, progress: Callable[[CheckResult], None] | None = None
) -> list[CheckResult]:
    """Run the full cross-validation catalogue for one type."""
    suite = _Suite(kind)
    catalogue = [
        suite.check_laurent_ring,
        suite.check_laurent_text,
        suite.check_poly_ring,
        suite.check_poly_division,
        suite.check_root_permutation,
        suite.check_length_identities,
        suite.check_descents,
        suite.check_bruhat_closure,
        suite.check_coset_factorization,
        suite.check_double_quotient,
        suite.check_dot_action,
        suite.check_antidominant_rep,
        suite.check_quadratic_relation,
        suite.check_length_additive_products,
        suite.check_bar_involution,
        suite.check_kl_axioms,
        suite.check_kl_oracle,
        suite.check_kl_products,
        suite.check_descent_rule,
        suite.check_projection_roundtrip,
        suite.check_invariant_vanishing,
        suite.check_quotient_multiplicative,
        suite.check_chevalley,
        suite.check_structure_constants,
        suite.check_poincare_duality,
        suite.check_gram,
        suite.check_parabolic_basis,
        suite.check_freeness,
        suite.check_demazure_words,
        suite.check_demazure_composition,
        suite.check_cellular,
        suite.check_inverse_pair,
        suite.check_cartan_symmetry,
        suite.check_special_routes,
        suite.check_graded_lengths,
        suite.check_palindromic,
        suite.check_bott_samelson,
        suite.check_translation,
        suite.check_ungraded,
        suite.check_serialization,
        suite.check_kl_cache,
    ]
    results = []
    for fn in catalogue:
        try:
            result = fn()
        except Exception as exc:  # a crash is a failed check, not a crash of the suite
            name = fn.__name__.removeprefix("check_").replace("_", " ")
            result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
        results.append(result)
        if progress is not None:
            progress(result)
    return results
