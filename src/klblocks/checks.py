"""Cross-validation suite: every result recomputed along a second route.

Each check pits the production code against an independent oracle (a
brute-force definition, a linear-system solve, a closure computation) or
against an identity that the implementation does not use internally.
The oracles are public: ``kl_bar_solve``, ``bruhat_closure_leq``,
``double_quotient_weight_oracle`` and ``decomposition_by_lookup``, the
per-entry KL lookup that every block's decomposition matrix is checked
against.
``run_all_checks`` runs the whole catalogue for a type and returns one
``CheckResult`` per check; nothing raises, failures are reported.

A check is a ``_Suite`` method declared with ``@_check(name)``, which
files it in the catalogue, in definition order, under that name.  Its
body returns the detail of a pass, raises ``_Fail(detail)`` on a
violation and ``_Skip(reason)`` where it has no form at this size; any
other exception is reported as a failure of the same check.  The suite
builds each block it reads once, when it is made, and keeps them in one
dict keyed by (I, J).

Quadratic loops are exhaustive for the group orders where that is cheap
and fall back to seeded random samples beyond; the ``detail`` string
records which.  Two checks with no sampled form are reported as skipped
(``CheckResult.skipped``) above their size cap; a skip is not a pass.
"""

from __future__ import annotations

import functools
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable, Sequence

from . import klcache, serialize
from .blocks import (
    BlockDesc,
    GradedMatrix,
    bott_samelson_decomposition,
    decomposition_matrix,
    graded_cartan_matrix,
    graded_length_report,
    inverse_decomposition_matrix,
    standard_block,
    standard_weight,
    translation_composite,
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
    "decomposition_by_lookup",
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


class _Fail(Exception):
    """A check found a violation; the argument is the detail."""


class _Skip(Exception):
    """A check has no form at this size; the argument is the reason."""


# (name, check) in definition order; filled by ``_check``.
_CATALOGUE: list[tuple[str, Callable[[_Suite], CheckResult]]] = []


def _check(name: str):
    """Declare a ``_Suite`` method as the check ``name``."""
    def declare(body: Callable[[_Suite], str]) -> Callable[[_Suite], CheckResult]:
        @functools.wraps(body)
        def run(suite: _Suite) -> CheckResult:
            try:
                return CheckResult(name, True, body(suite))
            except _Fail as exc:
                return CheckResult(name, False, str(exc))
            except _Skip as exc:
                return CheckResult(name, True, str(exc), skipped=True)
            # A crash is a failed check, not a crash of the suite.
            except Exception as exc:
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")

        _CATALOGUE.append((name, run))
        return run

    return declare


# -- independent oracles ---------------------------------------------


def kl_bar_solve(hecke: HeckeAlgebra, w: WeylElem) -> HeckeElem:
    """Canonical basis element of w from the bar-invariance linear system.

    Solves a = bar(a) with unit leading coefficient and strictly negative
    exponents below, by descending triangular elimination.  Independent of
    the column recursion in q behind ``kl_column``; reads no KL table.
    """
    group = hecke.group
    below = [y for y in group.elements if group.bruhat_leq(y, w)]
    below.sort(key=lambda y: (y.length, y.index), reverse=True)
    bar_t = {z: hecke.bar_t(z) for z in below}
    coeffs: dict[WeylElem, LaurentPoly] = {w: LaurentPoly.one()}
    for y in below:
        if y is w:
            continue
        known = LaurentPoly.zero()
        for z, a_z in coeffs.items():
            if z is not y:
                known = known + a_z.bar() * bar_t[z].coefficient(y)
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


def decomposition_by_lookup(block: BlockDesc, hecke: HeckeAlgebra) -> GradedMatrix:
    """The decomposition matrix d, one KL lookup per term.

    d_{x,y} = sum over z in W_I of (-1)^{l(z)} v^{l(x)-l(y)}
    P_{z w_I x w0, w_I y w0}(v^-2), each P read by ``kl_polynomial``.
    Independent of the column sums behind ``decomposition_matrix``.
    """
    w0 = block.group.w0
    z_elems = block.group.parabolic_elements(block.I)
    rows = []
    for x in block.index_set:
        row = []
        for y in block.index_set:
            total = LaurentPoly.zero()
            for z in z_elems:
                p = hecke.kl_polynomial(z * block.w_I * x * w0, block.w_I * y * w0)
                p = p.substitute_power(-2)
                total = total + (-p if z.length % 2 else p)
            row.append(total.shift(x.length - y.length))
        rows.append(tuple(row))
    return GradedMatrix(block.index_set, block.index_set, tuple(rows))


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


class _MaxDescentHecke(HeckeAlgebra):
    """Runs the C_w recursion through the largest left descent, not the smallest."""

    def _pick_descent(self, w: WeylElem) -> int:
        return self.group.left_descents(w)[-1]


# -- the catalogue ---------------------------------------------------


class _Suite:
    def __init__(self, kind: str):
        self.group = weyl_group_of_kind(kind)
        self.hecke = HeckeAlgebra(self.group)
        self.coinv = CoinvariantAlgebra(self.group)
        self.rng = random.Random(f"checks:{self.group.kind}")
        self.subsets = _subset_list(self.group.rank)
        # Each block a check reads, built once and keyed by (I, J): every
        # pair of subsets up to rank 4 (empty, {1} and the full set beyond),
        # then the singular blocks (empty, J) and the parabolic blocks (J, empty).
        if 4 ** self.group.rank <= 256:
            sides = self.subsets
        else:
            sides = [frozenset(), frozenset({1}), frozenset(range(1, self.group.rank + 1))]
        pairs = [(I, J) for I in sides for J in sides]
        none = frozenset()
        keys = pairs + [(none, J) for J in self.subsets] + [(J, none) for J in self.subsets]
        self.blocks = {key: standard_block(self.group, *key) for key in dict.fromkeys(keys)}
        # The nonempty paired blocks, in pair order: what the inverse-pair
        # and Cartan checks read.
        self.paired = [self.blocks[key] for key in pairs if self.blocks[key].index_set]
        self.regular = self.blocks[none, none]

    # -- exact scalar layers -----------------------------------------

    @_check("laurent ring axioms")
    def check_laurent_ring(self) -> str:
        rng = self.rng
        for _ in range(120):
            a, b, c = (_rand_laurent(rng) for _ in range(3))
            if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
                raise _Fail("distributivity")
            if a * b != b * a or (a + b).bar() != a.bar() + b.bar():
                raise _Fail("commutativity/bar")
            if (a * b).bar() != a.bar() * b.bar() or a.bar().bar() != a:
                raise _Fail("bar involution")
        return "120 random triples"

    @_check("laurent text round-trip")
    def check_laurent_text(self) -> str:
        rng = self.rng
        for _ in range(150):
            a = _rand_laurent(rng)
            for var in ("v", "q"):
                if LaurentPoly.parse(a.render(var), var) != a:
                    raise _Fail(repr(a.render(var)))
        return "150 random polynomials"

    @_check("polynomial ring axioms")
    def check_poly_ring(self) -> str:
        rng = self.rng
        n = self.group.rank
        for _ in range(60):
            a, b, c = (_rand_poly(rng, n) for _ in range(3))
            if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
                raise _Fail("")
        return "60 random triples"

    @_check("exact linear division")
    def check_poly_division(self) -> str:
        rng = self.rng
        coinv = self.coinv
        nroots = len(self.group.datum.pos_roots)
        zero = RatPoly.zero(self.group.rank)
        for trial in range(40):
            root = coinv.root_poly(rng.randrange(nroots))
            f = zero
            while f == zero:
                f = _rand_homogeneous(rng, self.group.rank, rng.randint(1, 3))
            if divide_by_linear(f * root, root) != f:
                raise _Fail(f"trial {trial}")
        probe = coinv.weight_poly(1) * coinv.weight_poly(1)
        try:
            divide_by_linear(probe + RatPoly.one(self.group.rank), coinv.alpha_poly(1))
        except NonDivisibleError:
            return "40 exact + 1 rejected"
        raise _Fail("inexact division accepted")

    # -- roots and Weyl combinatorics --------------------------------

    @_check("simple reflection permutes other positives")
    def check_root_permutation(self) -> str:
        datum = self.group.datum
        omega_roots = [tuple(r) for r in datum.pos_roots_omega]
        positives = set(omega_roots)
        for i in range(1, self.group.rank + 1):
            s = self.group.simple(i)
            alpha = omega_roots[datum.simple_root_index(i)]
            if s.act(alpha) != tuple(-c for c in alpha):
                raise _Fail(f"s_{i} alpha")
            images = {s.act(beta) for beta in omega_roots if beta != alpha}
            if images != positives - {alpha}:
                raise _Fail(f"s_{i}")
        return f"{len(omega_roots)} roots"

    @_check("length identities")
    def check_length_identities(self) -> str:
        group = self.group
        w0 = group.w0
        for w in group.elements:
            if w.inverse().length != w.length:
                raise _Fail(f"inverse at {w!r}")
            if (w0 * w).length != w0.length - w.length:
                raise _Fail(f"w0 shift at {w!r}")
            if len(w.word) != w.length:
                raise _Fail(f"word at {w!r}")
        return f"all {len(group.elements)}"

    @_check("descent consistency")
    def check_descents(self) -> str:
        group = self.group
        for w in group.elements:
            for i in range(1, group.rank + 1):
                right = (w * group.simple(i)).length < w.length
                left = (group.simple(i) * w).length < w.length
                if right != (i in group.right_descents(w)):
                    raise _Fail(f"right {w!r}")
                if left != (i in group.left_descents(w)):
                    raise _Fail(f"left {w!r}")
        return ""

    @_check("bruhat order closure oracle")
    def check_bruhat_closure(self) -> str:
        group = self.group
        if len(group.elements) > 400:
            raise _Skip(f"large group: |W| = {len(group.elements)} > 400")
        closed = bruhat_closure_leq(group)
        for x in group.elements:
            for y in group.elements:
                if group.bruhat_leq(x, y) != ((x.index, y.index) in closed):
                    raise _Fail(f"{x!r} vs {y!r}")
        return f"{len(group.elements)}^2 pairs"

    @_check("coset factorization")
    def check_coset_factorization(self) -> str:
        group = self.group
        for J in self.subsets:
            reps = group.min_coset_reps(J)
            inside = group.parabolic_elements(J)
            if len(reps) * len(inside) != len(group.elements):
                raise _Fail(f"count at {sorted(J)}")
            for w in group.elements:
                d, u = group.coset_factorize(w, J)
                if d * u != w or d.length + u.length != w.length:
                    raise _Fail(f"{w!r}")
                if d not in reps or u not in inside:
                    raise _Fail(f"{w!r}")
        return f"{len(self.subsets)} subsets"

    @_check("double quotient weight oracle")
    def check_double_quotient(self) -> str:
        group = self.group
        count = 0
        for I in self.subsets:
            for J in self.subsets:
                defn = group.double_quotient(I, J)
                oracle = double_quotient_weight_oracle(group, I, J)
                if list(defn) != list(oracle):
                    raise _Fail(f"I={sorted(I)} J={sorted(J)}")
                count += 1
        return f"{count} pairs"

    @_check("dot action composition")
    def check_dot_action(self) -> str:
        group = self.group
        rng = self.rng
        pairs, scope = _pairs(group.elements, rng, _PAIR_CAP)
        for w, u in pairs:
            lam = tuple(rng.randint(-4, 3) for _ in range(group.rank))
            if w.dot(u.dot(lam)) != (w * u).dot(lam):
                raise _Fail(f"{w!r},{u!r}")
        return scope

    @_check("antidominant orbit representative")
    def check_antidominant_rep(self) -> str:
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
                raise _Fail(f"{lam}")
            stab = group.dot_stabilizer(mu)
            para = group.parabolic_elements(group.singularity_subset(mu))
            if set(stab) != set(para):
                raise _Fail(f"stabilizer {mu}")
        return "15 random weights"

    # -- Hecke algebra ------------------------------------------------

    @_check("quadratic hecke relation")
    def check_quadratic_relation(self) -> str:
        h = self.hecke
        v = LaurentPoly.gen(1)
        vinv = LaurentPoly.gen(-1)
        for i in range(1, self.group.rank + 1):
            ts = h.t(self.group.simple(i))
            if ts * ts != ts.scale(v - vinv) + h.one:
                raise _Fail(f"s_{i}")
        return ""

    @_check("length-additive products")
    def check_length_additive_products(self) -> str:
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
                raise _Fail(f"{w!r} at {k}")
        return scope

    @_check("bar involution")
    def check_bar_involution(self) -> str:
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
                raise _Fail("not involutive")
            if h.bar(a * b) != h.bar(a) * h.bar(b):
                raise _Fail("not multiplicative")
        return "25 random pairs"

    @_check("kl basis axioms")
    def check_kl_axioms(self) -> str:
        group = self.group
        h = self.hecke
        for w in group.elements:
            c = h.kl_element(w)
            if h.bar(c) != c:
                raise _Fail(f"bar at {w!r}")
            for y, coeff in c.items():
                if y is w:
                    if coeff != LaurentPoly.one():
                        raise _Fail(f"lead at {w!r}")
                    continue
                if not group.bruhat_leq(y, w):
                    raise _Fail(f"support {y!r},{w!r}")
                if any(e >= 0 for e, _ in coeff.items()):
                    raise _Fail(f"degree {y!r},{w!r}")
                p = h.kl_polynomial(y, w)
                if not p.has_nonnegative_coeffs() or p.coefficient(0) != 1:
                    raise _Fail(f"P at {y!r},{w!r}")
                bound = (w.length - y.length - 1) // 2
                if p.max_exp() > bound:
                    raise _Fail(f"bound {y!r},{w!r}")
        return f"all {len(group.elements)} columns"

    @_check("kl bar-solve oracle")
    def check_kl_oracle(self) -> str:
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
                raise _Fail(f"{w!r}")
        return scope

    @_check("kl product positivity")
    def check_kl_products(self) -> str:
        group = self.group
        h = self.hecke
        rng = self.rng
        pairs, scope = _pairs(group.elements, rng, _PRODUCT_CAP)
        for x, y in pairs:
            expansion = h.expand_in_kl_basis(h.kl_element(x) * h.kl_element(y))
            for w, coeff in expansion.items():
                if not coeff.has_nonnegative_coeffs() or coeff.bar() != coeff:
                    raise _Fail(f"{x!r} {y!r}")
        return scope

    @_check("descent rule independence")
    def check_descent_rule(self) -> str:
        group = self.group
        if len(group.elements) > _PAIR_CAP:
            raise _Skip(f"large group: |W| = {len(group.elements)} > {_PAIR_CAP}")
        other = _MaxDescentHecke(group)
        for w in group.elements:
            if other.kl_element(w) != self.hecke.kl_element(w):
                raise _Fail(f"{w!r}")
        return "min vs max, all columns"

    # -- coinvariant algebra -----------------------------------------

    @_check("schubert projection round-trip")
    def check_projection_roundtrip(self) -> str:
        coinv = self.coinv
        for w in self.group.elements:
            cls = coinv.schubert_class(w)
            if coinv.poly_to_schubert(coinv.schubert_rep(w)) != cls:
                raise _Fail(f"{w!r}")
        return "all classes"

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

    @_check("invariant ideal vanishing")
    def check_invariant_vanishing(self) -> str:
        coinv = self.coinv
        rng = self.rng
        for _ in range(6):
            inv = self._invariant_positive_part()
            g = _rand_poly(rng, self.group.rank, 2)
            if not coinv.poly_to_schubert(inv * g).is_zero():
                raise _Fail("")
        return "6 orbit sums"

    @_check("quotient map multiplicativity")
    def check_quotient_multiplicative(self) -> str:
        coinv = self.coinv
        rng = self.rng
        for _ in range(8):
            f = _rand_poly(rng, self.group.rank, 2)
            g = _rand_poly(rng, self.group.rank, 2)
            left = coinv.poly_to_schubert(f * g)
            right = coinv.multiply(coinv.poly_to_schubert(f), coinv.poly_to_schubert(g))
            if left != right:
                raise _Fail("")
        return "8 random pairs"

    @_check("chevalley rule agreement")
    def check_chevalley(self) -> str:
        group = self.group
        coinv = self.coinv
        for i in range(1, group.rank + 1):
            x_i = coinv.schubert_class(group.simple(i))
            for w in group.elements:
                cls = coinv.schubert_class(w)
                if coinv.chevalley_multiply(i, cls) != coinv.multiply(x_i, cls):
                    raise _Fail(f"i={i} {w!r}")
        return f"{group.rank} x {len(group.elements)}"

    @_check("schubert structure constants")
    def check_structure_constants(self) -> str:
        group = self.group
        coinv = self.coinv
        rng = self.rng
        pairs, scope = _pairs(group.elements, rng, _PRODUCT_CAP)
        for x, y in pairs:
            prod = coinv.multiply(coinv.schubert_class(x), coinv.schubert_class(y))
            for w, coeff in prod.items():
                if coeff.denominator != 1 or coeff < 0:
                    raise _Fail(f"{x!r} {y!r}")
                if w.length != x.length + y.length:
                    raise _Fail("degree")
        return scope

    @_check("poincare duality")
    def check_poincare_duality(self) -> str:
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
                raise _Fail(f"{x!r} {y!r}")
        return scope

    @_check("gram nondegeneracy")
    def check_gram(self) -> str:
        group = self.group
        coinv = self.coinv
        w0 = group.w0
        for J in self.subsets:
            reps, gram = coinv.gram_matrix(J)
            if matrix_rank([list(row) for row in gram]) != len(reps):
                raise _Fail(f"J={sorted(J)}")
            if not J:
                for a, x in enumerate(reps):
                    for b, y in enumerate(reps):
                        if gram[a][b] != Fraction(int(y == w0 * x)):
                            raise _Fail("empty-set form")
        return f"{len(self.subsets)} subsets"

    @_check("parabolic invariant basis")
    def check_parabolic_basis(self) -> str:
        group = self.group
        coinv = self.coinv
        for J in self.subsets:
            basis = coinv.parabolic_basis(J)
            if len(basis) != len(group.min_coset_reps(J)):
                raise _Fail(f"J={sorted(J)}")
        return f"{len(self.subsets)} subsets"

    @_check("parabolic freeness certificate")
    def check_freeness(self) -> str:
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
                raise _Fail(f"J={sorted(J)}")
            w_elems = group.parabolic_elements(J)
            for a in range(len(w_elems)):
                for b in range(len(w_elems)):
                    want = Fraction(int(a == b))
                    if coinv.dual_pairing(report, a, b) != want:
                        raise _Fail(f"pairing J={sorted(J)}")
        return scope

    @_check("demazure word independence")
    def check_demazure_words(self) -> str:
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
                    raise _Fail(f"{w!r}")
        return f"degree cap {cap}"

    @_check("demazure composition rule")
    def check_demazure_composition(self) -> str:
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
        failed = self.coinv.demazure_compose_check(pairs)
        if failed:
            w, u = failed[0]
            raise _Fail(f"{w!r} {u!r}")
        return scope

    @_check("cellular chain filtration")
    def check_cellular(self) -> str:
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
                raise _Fail(f"J={sorted(J)}")
            lengths = [entry[2] for entry in datum.entries]
            if lengths != sorted(lengths):
                raise _Fail("degree order")
        return scope

    # -- graded block matrices ---------------------------------------

    @_check("graded inverse pair")
    def check_inverse_pair(self) -> str:
        h = self.hecke
        for block in self.paired:
            d = decomposition_matrix(block, h)
            e = inverse_decomposition_matrix(block, h)
            if not (d @ e).is_identity():
                raise _Fail(f"I={sorted(block.I)} J={sorted(block.J)}")
            for a, x in enumerate(d.rows):
                for b, y in enumerate(d.cols):
                    entry = d.entries[a][b]
                    if x is y and entry != LaurentPoly.one():
                        raise _Fail("diagonal")
                    if not entry.has_nonnegative_coeffs():
                        raise _Fail("negativity")
                    if entry != LaurentPoly.zero() and entry.min_exp() < 0:
                        raise _Fail("grading")
        return f"{len(self.paired)} nonempty blocks"

    @_check("cartan symmetry")
    def check_cartan_symmetry(self) -> str:
        h = self.hecke
        for block in self.paired:
            c = graded_cartan_matrix(block, h)
            if c != c.transpose():
                raise _Fail(f"I={sorted(block.I)} J={sorted(block.J)}")
        return ""

    @_check("specialized route agreement")
    def check_special_routes(self) -> str:
        h = self.hecke
        for J in self.subsets:
            block = self.blocks[frozenset(), J]
            if decomposition_by_lookup(block, h) != decomposition_matrix(block, h):
                raise _Fail(f"J={sorted(J)}")
            pblock = self.blocks[J, frozenset()]
            if decomposition_by_lookup(pblock, h) != decomposition_matrix(pblock, h):
                raise _Fail(f"I={sorted(J)}")
        return f"{len(self.subsets)} each side"

    @_check("graded length bounds")
    def check_graded_lengths(self) -> str:
        h = self.hecke
        for J in self.subsets:
            for row in graded_length_report(self.blocks[frozenset(), J], h):
                if not row.ok:
                    raise _Fail(f"J={sorted(J)} x={row.x!r}")
        return f"{len(self.subsets)} blocks"

    @_check("graded dimension palindromicity")
    def check_palindromic(self) -> str:
        h = self.hecke
        for J in self.subsets:
            block = self.blocks[frozenset(), J]
            center = vp_center(block)
            for x in block.index_set:
                vp = vp_graded_dimension(block, h, x)
                if not vp.is_palindromic(center):
                    raise _Fail(f"J={sorted(J)} x={x!r}")
        return f"{len(self.subsets)} blocks"

    @_check("bott-samelson reports")
    def check_bott_samelson(self) -> str:
        group = self.group
        h = self.hecke
        for x in group.elements:
            report = bott_samelson_decomposition(h, x.word)
            if not (report.dimension_identity_ok and report.top_multiplicity_ok
                    and report.support_ok and report.natural_coeffs_ok):
                raise _Fail(f"{x!r}")
            if report.shift != group.w0.length - x.length:
                raise _Fail(f"shift {x!r}")
        return f"one word per element, {len(group.elements)}"

    @_check("translation composite")
    def check_translation(self) -> str:
        group = self.group
        h = self.hecke
        for J in self.subsets:
            sing = self.blocks[frozenset(), J]
            target = h.kl_element(group.parabolic_longest(J))
            for x in group.min_coset_reps(J):
                comp = translation_composite(sing, x)
                want = dict((h.t(x) * target).items())
                if comp != want:
                    raise _Fail(f"J={sorted(J)} x={x!r}")
        return f"{len(self.subsets)} walls"

    @_check("ungraded specialization")
    def check_ungraded(self) -> str:
        h = self.hecke
        d1 = decomposition_matrix(self.regular, h).eval_at_one()
        e1 = inverse_decomposition_matrix(self.regular, h).eval_at_one()
        size = len(d1)
        prod = [
            [sum(d1[a][k] * e1[k][b] for k in range(size)) for b in range(size)]
            for a in range(size)
        ]
        if prod != [[int(a == b) for b in range(size)] for a in range(size)]:
            raise _Fail("not inverse at v=1")
        if any(entry < 0 for row in d1 for entry in row):
            raise _Fail("negative multiplicity")
        return f"{size}x{size} at v=1"

    # -- persistence --------------------------------------------------

    @_check("matrix serialization round-trip")
    def check_serialization(self) -> str:
        group = self.group
        d = decomposition_matrix(self.regular, self.hecke)
        via_json = serialize.matrix_from_json(serialize.matrix_to_json(d), group)
        via_csv = serialize.matrix_from_csv(serialize.matrix_to_csv(d), group)
        if via_json != d or via_csv != d:
            raise _Fail("")
        if serialize.matrix_to_json(via_json) != serialize.matrix_to_json(d):
            raise _Fail("determinism")
        return "json and csv"

    @_check("kl cache round-trip")
    def check_kl_cache(self) -> str:
        group = self.group
        h = self.hecke
        h.kl_basis_elements()
        with tempfile.TemporaryDirectory() as directory:
            path = klcache.cache_path(directory, group.kind)
            wrote = klcache.save_kl_table(h.kl_table, path)
            fresh = HeckeAlgebra(group)
            read = klcache.load_kl_table(path, fresh)
            if wrote != read:
                raise _Fail(f"{wrote} vs {read}")
            loaded = dict(fresh.kl_table.columns())
            for w, column in h.kl_table.columns():
                if loaded.get(w) != column:
                    raise _Fail(f"column {w!r}")
            if fresh.kl_element(group.w0) != h.kl_element(group.w0):
                raise _Fail("rebuild")
        return f"{wrote} records"


def run_all_checks(
    kind: str, progress: Callable[[CheckResult], None] | None = None
) -> list[CheckResult]:
    """Run the full cross-validation catalogue for one type."""
    suite = _Suite(kind)
    results = []
    for _, check in _CATALOGUE:
        result = check(suite)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
