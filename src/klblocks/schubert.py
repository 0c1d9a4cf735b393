"""Coinvariant algebra of a Weyl group with its Schubert basis.

The coinvariant algebra is Q[w_1..w_n] modulo the ideal generated by
invariants of positive degree; variables are fundamental weights of
graded degree 2.  Instead of working with ideal cosets, every class
is expanded over the Schubert basis {X_w}: the class X_w is
represented by the polynomial D_w = Delta_{w^-1 w_0}(D), where D is
the normalized product of the positive roots, and a polynomial f is
projected to the basis by reading off degree-0 parts of Delta_w(f).
Each Delta_i is applied in closed form, monomial by monomial, to the
integer numerators of a polynomial; the representatives are integer
polynomials over one denominator that divides |W|.  s_i acts the same
way, from a table of (s_i w_i)^k grown as that of Delta_i(w_i^k) is.

Delta_x does not depend on the reduced word, so one walk up the left
weak order serves every caller that needs Delta_x for many x: with i
the first letter of x's canonical word, Delta_x = Delta_i Delta_{s_i x},
one Delta_i step per element of ``WeylGroup.suffix_closure`` from the
image of s_i x, which comes earlier in index order (see the ``weyl``
module docstring).  The walk lives for one call.  It gives the
representatives D_w from D, the projection of each degree component
over the elements of that length, the generators Delta_w(mu_J) over
W_J, and the per-degree tables of the composition check
Delta_w Delta_u = Delta_{wu} on monomials.  ``demazure`` applies one
Delta_x along its word and is the reference the walk is tested against.

Products are computed through polynomial representatives followed by
projection; the Chevalley rule is a separate route used to
cross-check them.  The freeness certificate builds one pairing matrix
per degree, shared by the duals of that degree; the cellular chain
check multiplies each pair u, w != e once, as products commute and
X_e = 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .linalg import rank as matrix_rank
from .linalg import solve as linear_solve
# divide_by_linear is not called here any more; the name stays importable
# from this module for code that looks it up here.
from .ratpoly import RatPoly, divide_by_linear  # noqa: F401
from .weyl import Combination, WeylElem, WeylGroup

__all__ = [
    "NotInParabolicError",
    "NotFreeError",
    "SchubertElem",
    "CoinvariantAlgebra",
    "FreeBasisReport",
    "CellularDatum",
]


class NotInParabolicError(ValueError):
    """Support of an element leaves the requested coset quotient."""


class NotFreeError(ValueError):
    """Freeness over a parabolic invariant ring failed to certify."""


class SchubertElem(Combination):
    """Rational combination of Schubert classes X_w."""

    __slots__ = ()
    _zero = Fraction(0)
    _ring = "coinvariant algebra"

    def graded_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({2 * w.length for w in self._c}))

    def _term(self, w: WeylElem, c: Fraction) -> str:
        name = ".".join(map(str, w.word)) if w.length else "e"
        return f"{c}*X[{name}]"


class FreeBasisReport(NamedTuple):
    """Certificate that the algebra is free over a parabolic piece."""

    subset: frozenset[int]
    basis_elements: tuple[WeylElem, ...]
    generators: tuple[SchubertElem, ...]
    generator_degrees: tuple[int, ...]
    duals: tuple[SchubertElem, ...]
    expansion_rank: int


class CellularDatum(NamedTuple):
    """Ordered basis of a coset quotient with degrees and chain check."""

    subset: frozenset[int]
    entries: tuple[tuple[WeylElem, SchubertElem, int], ...]
    chain_verified: bool


class CoinvariantAlgebra:
    """Schubert-basis calculus for one Weyl group; caches representatives."""

    def __init__(self, group: WeylGroup):
        self.group = group
        n = group.rank
        self.nvars = n
        cartan = group.datum.cartan
        self._alpha = tuple(
            RatPoly.linear(n, [cartan[k][i] for k in range(n)]) for i in range(n)
        )
        self._si_image = tuple(
            RatPoly.variable(n, i) - self._alpha[i] for i in range(n)
        )
        self._si_powers: list[list[RatPoly]] = [[RatPoly.one(n)] for _ in range(n)]
        # _divided[i-1][k] is Delta_i(w_i^k), grown on demand
        self._divided: list[list[RatPoly]] = [[RatPoly.zero(n)] for _ in range(n)]
        self._reps: dict[WeylElem, RatPoly] = {}
        # group.elements ascend with length
        self._length_bucket: dict[int, tuple[WeylElem, ...]] = {
            length: tuple(bucket)
            for length, bucket in itertools.groupby(group.elements, key=lambda w: w.length)
        }

    # -- polynomial building blocks ----------------------------------

    def alpha_poly(self, i: int) -> RatPoly:
        """Simple root alpha_i (1-based) as a linear polynomial."""
        return self._alpha[i - 1]

    def root_poly(self, root_index: int) -> RatPoly:
        coords = self.group.datum.pos_roots_omega[root_index]
        return RatPoly.linear(self.nvars, coords)

    def weight_poly(self, i: int) -> RatPoly:
        """Fundamental weight w_i (1-based) as a variable."""
        return RatPoly.variable(self.nvars, i - 1)

    def act(self, w: WeylElem, f: RatPoly) -> RatPoly:
        """Weyl group action, simple reflections along the word of w."""
        self.group.check_elements(w)
        for i in reversed(w.word):
            f = self.act_simple(i, f)
        return f

    def _slot(self, i: int) -> int:
        """The 0-based slot of the simple index i; ValueError off 1..rank."""
        if not 1 <= i <= self.group.rank:
            raise ValueError(f"simple index {i} out of range")
        return i - 1

    def act_simple(self, i: int, f: RatPoly) -> RatPoly:
        """s_i f: each power w_i^k becomes (s_i w_i)^k, built once per (i, k)."""
        j = self._slot(i)
        powers = self._si_powers[j]
        for _ in range(len(powers), f.degree_in(j) + 1):
            powers.append(powers[-1] * self._si_image[j])
        return f.substitute_powers(j, powers)

    # -- Demazure operators ------------------------------------------

    def demazure_simple(self, i: int, f: RatPoly) -> RatPoly:
        """(f - s_i f) / alpha_i, in closed form on monomials.

        Every w_j with j != i is s_i-fixed, so Delta_i only expands the
        powers of w_i: Delta_i(w_i^k) = sum_{a+b=k-1} w_i^a (s_i w_i)^b,
        built once per (i, k).  No division; integer input gives integer
        output.
        """
        j = self._slot(i)
        table = self._divided[j]
        for k in range(len(table), f.degree_in(j) + 1):
            power = RatPoly.variable(self.nvars, j) ** (k - 1)
            table.append(power + self._si_image[j] * table[k - 1])
        return f.substitute_powers(j, table)

    def demazure(self, w: WeylElem, f: RatPoly) -> RatPoly:
        """Composite along the canonical reduced word of w."""
        self.group.check_elements(w)
        for i in reversed(w.word):
            f = self.demazure_simple(i, f)
        return f

    def _demazure_images(
        self, fs: list[RatPoly], targets: Iterable[WeylElem]
    ) -> dict[WeylElem, list[RatPoly]]:
        """{x: [Delta_x(f) for f in fs]} in one walk up the weak order.

        The keys are ``WeylGroup.suffix_closure`` of the targets,
        visited in index order, and each image is the one step
        Delta_i Delta_{s_i x}(f) that ``demazure(x, f)`` takes there;
        a zero image passes through.
        """
        elems, left = self.group.elements, self.group.left
        closure = self.group.suffix_closure(x.index for x in targets)
        images: dict[WeylElem, list[RatPoly]] = {elems[0]: list(fs)}
        for k in closure[1:]:
            i = elems[k].word[0]
            images[elems[k]] = [
                f if f.is_zero() else self.demazure_simple(i, f)
                for f in images[elems[left[i - 1][k]]]
            ]
        return images

    def _demazure_tables(self, elements: Sequence[WeylElem]):
        """Per total degree d = 0..l(w0): the monomials of degree d and
        the images of ``_demazure_images`` on them over the elements.
        """
        n = self.nvars
        for d in range(self.group.w0.length + 1):
            monomials = []
            for combo in itertools.combinations_with_replacement(range(n), d):
                mono = [0] * n
                for j in combo:
                    mono[j] += 1
                monomials.append(tuple(mono))
            fs = [RatPoly(n, {m: 1}) for m in monomials]
            yield monomials, self._demazure_images(fs, elements)

    def demazure_compose_check(
        self, pairs: Iterable[tuple[WeylElem, WeylElem]]
    ) -> list[tuple[WeylElem, WeylElem]]:
        """The pairs, in order, where Delta_w Delta_u != Delta_{wu} (or 0).

        Tested on every monomial m of degree 0..l(w0), from the per-degree
        tables of ``_demazure_tables``.  Delta_w Delta_u(m) follows by
        linearity from the images under Delta_w of the monomials of
        Delta_u(m), which have degree at most deg m, so the rows of the
        outer elements w are kept over the degrees; the rest of each
        table is dropped before the next degree.
        """
        # (w, u, wu), with None for wu when Delta_w Delta_u must be 0
        triples = []
        for w, u in pairs:
            wu = w * u
            triples.append((w, u, wu if wu.length == w.length + u.length else None))
        outer: dict[WeylElem, dict[tuple[int, ...], RatPoly]] = {
            w: {} for w, _, _ in triples
        }
        inner = [x for _, u, wu in triples for x in (u, wu) if x is not None]
        zeros = itertools.repeat(RatPoly.zero(self.nvars))
        failed = [False] * len(triples)
        for monomials, table in self._demazure_tables([*outer, *inner]):
            for w, images in outer.items():
                images.update(zip(monomials, table[w]))
            for k, (w, u, wu) in enumerate(triples):
                if failed[k]:
                    continue
                images = outer[w]
                failed[k] = any(
                    f.substitute_monomials(images) != g
                    for f, g in zip(table[u], zeros if wu is None else table[wu])
                )
        return [(w, u) for (w, u, _), bad in zip(triples, failed) if bad]

    # -- Schubert representatives ------------------------------------

    def staircase_poly(self) -> RatPoly:
        """Product of the positive roots over the group order; the first
        call stores every representative D_w."""
        group = self.group
        top = self._reps.get(group.w0)
        if top is None:
            top = self.parabolic_root_product(range(1, self.nvars + 1))
            top = top * Fraction(1, group.order)
            images = self._demazure_images([top], group.elements)
            for w in group.elements:
                self._reps[w] = images[w.inverse() * group.w0][0]
        return top

    def schubert_rep(self, w: WeylElem) -> RatPoly:
        """The polynomial representing X_w (homogeneous, degree 2 l(w))."""
        self.group.check_elements(w)
        if w not in self._reps:
            self.staircase_poly()
        return self._reps[w]

    def elem_rep(self, a: SchubertElem) -> RatPoly:
        SchubertElem.check_group(self.group, a)
        f = RatPoly.zero(self.nvars)
        for w, c in a.items():
            f = f + self.schubert_rep(w) * c
        return f

    # -- projection and products -------------------------------------

    def poly_to_schubert(self, f: RatPoly) -> SchubertElem:
        """Expand the class of a polynomial over the Schubert basis."""
        coeffs: dict[WeylElem, Fraction] = {}
        for degree, comp in f.graded_components().items():
            bucket = self._length_bucket.get(degree // 2, ())
            images = self._demazure_images([comp], bucket)
            for w in bucket:
                c = images[w][0].constant_term()
                if c:
                    coeffs[w] = c
        return SchubertElem(self, coeffs)

    def schubert_class(self, w: WeylElem) -> SchubertElem:
        self.group.check_elements(w)
        return SchubertElem(self, {w: Fraction(1)})

    def multiply(self, a: SchubertElem, b: SchubertElem) -> SchubertElem:
        return self.poly_to_schubert(self.elem_rep(a) * self.elem_rep(b))

    def chevalley_multiply(self, i: int, a: SchubertElem) -> SchubertElem:
        """X_{s_i} * a by the Chevalley rule over lengthening reflections."""
        SchubertElem.check_group(self.group, a)
        j = self._slot(i)
        datum = self.group.datum
        coeffs: dict[WeylElem, Fraction] = {}
        for w, c in a.items():
            for t in range(datum.num_positive_roots):
                pairing = datum.pos_coroots[t][j]
                if not pairing:
                    continue
                wt = w * self.group.reflection(t)
                if wt.length == w.length + 1:
                    coeffs[wt] = coeffs.get(wt, Fraction(0)) + c * pairing
        return SchubertElem(self, coeffs)

    # -- symmetrizing forms ------------------------------------------

    def trace(self, a: SchubertElem) -> Fraction:
        """Coefficient of the top class X_{w0}."""
        SchubertElem.check_group(self.group, a)
        return a.coefficient(self.group.w0)

    def gram_matrix(
        self, subset: Iterable[int]
    ) -> tuple[tuple[WeylElem, ...], list[list[Fraction]]]:
        """Gram matrix of (a, b) -> tr_J(ab) on the X_d basis of C^J."""
        J = frozenset(subset)
        group = self.group
        reps = group.min_coset_reps(J)
        d_j = group.w0 * group.parabolic_longest(J).inverse()
        target = d_j.length
        rows = []
        for x in reps:
            row = []
            for y in reps:
                if x.length + y.length != target:
                    row.append(Fraction(0))
                else:
                    prod = self.schubert_rep(x) * self.schubert_rep(y)
                    row.append(self.demazure(d_j, prod).constant_term())
            rows.append(row)
        return reps, rows

    def parabolic_basis(self, subset: Iterable[int]) -> tuple[SchubertElem, ...]:
        """The classes X_d, d in W^J, each checked W_J-invariant."""
        J = frozenset(subset)
        out = []
        for d in self.group.min_coset_reps(J):
            rep = self.schubert_rep(d)
            for j in J:
                reproj = self.poly_to_schubert(self.act_simple(j, rep))
                if reproj != self.schubert_class(d):
                    raise NotInParabolicError(
                        f"X_{d!r} failed W_J-invariance for J={sorted(J)}"
                    )
            out.append(self.schubert_class(d))
        return tuple(out)

    # -- freeness over a parabolic piece -----------------------------

    def parabolic_root_product(self, subset: Iterable[int]) -> RatPoly:
        """Product of the positive roots supported on the subset."""
        f = RatPoly.one(self.nvars)
        for t in self.group.datum.parabolic_root_indices(frozenset(subset)):
            f = f * self.root_poly(t)
        return f

    def free_basis_over_parabolic(self, subset: Iterable[int]) -> FreeBasisReport:
        """Free C^J-module basis from Demazure images of the root product.

        The generators are the classes of Delta_w(mu_J), w in W_J; the
        certificate solves the |W| x |W| system expressing every X_x in
        the products X_d * c_w, then computes a dual family under the
        degree-0 part of Delta_{w_J}(c_w * b_u), from one pairing matrix
        per length l: c_w against X_z, l(w) = l(z) = l.
        """
        J = frozenset(subset)
        group = self.group
        w_elems = group.parabolic_elements(J)
        w_j = w_elems[-1]
        mu = self.parabolic_root_product(J)
        images = self._demazure_images([mu], w_elems)
        gen_polys = [images[w][0] for w in w_elems]
        gens = [self.poly_to_schubert(p) for p in gen_polys]
        degrees = []
        for g in gens:
            degs = g.graded_degrees()
            if len(degs) != 1:
                raise NotFreeError("generator is not homogeneous")
            degrees.append(degs[0])

        reps = group.min_coset_reps(J)
        columns = []
        for d in reps:
            rep_d = self.schubert_rep(d)
            for p in gen_polys:
                prod = self.poly_to_schubert(rep_d * p)
                columns.append([prod.coefficient(z) for z in group.elements])
        matrix = [[col[r] for col in columns] for r in range(group.order)]
        r = matrix_rank(matrix)
        if r != group.order:
            raise NotFreeError(
                f"expansion system has rank {r} < {group.order} for J={sorted(J)}"
            )

        rows: dict[int, list[list[Fraction]]] = {}
        for w, p in zip(w_elems, gen_polys):
            rows.setdefault(w.length, []).append([
                self.demazure(w_j, p * self.schubert_rep(z)).constant_term()
                for z in self._length_bucket[w.length]
            ])
        duals = []
        for u in w_elems:
            bucket = self._length_bucket[u.length]
            rhs = [Fraction(int(w == u)) for w in w_elems if w.length == u.length]
            beta = linear_solve(rows[u.length], rhs)
            if beta is None:
                raise NotFreeError(f"no dual element for {u!r}, J={sorted(J)}")
            duals.append(SchubertElem(self, dict(zip(bucket, beta))))

        return FreeBasisReport(
            subset=J,
            basis_elements=w_elems,
            generators=tuple(gens),
            generator_degrees=tuple(degrees),
            duals=tuple(duals),
            expansion_rank=r,
        )

    def dual_pairing(self, report: FreeBasisReport, w_index: int, u_index: int) -> Fraction:
        """Degree-0 part of Delta_{w_J}(c_w * b_u) for report entries."""
        w_j = report.basis_elements[-1]
        c_w = report.generators[w_index]
        b_u = report.duals[u_index]
        deg_c = report.generator_degrees[w_index]
        deg_b = 2 * report.basis_elements[u_index].length
        if deg_c + deg_b != 2 * w_j.length:
            return Fraction(0)  # homogeneity: no degree-0 part
        prod = self.elem_rep(c_w) * self.elem_rep(b_u)
        return self.demazure(w_j, prod).constant_term()

    # -- cellular-style datum ----------------------------------------

    def cellular_datum(self, subset: Iterable[int]) -> CellularDatum:
        """Length-ordered basis of C^J with the multiplication chain check."""
        J = frozenset(subset)
        group = self.group
        reps = group.min_coset_reps(J)
        rep_set = set(reps)
        entries = tuple((w, self.schubert_class(w), 2 * w.length) for w in reps)
        verified = True
        for k, u in enumerate(reps[1:], 1):
            for w in reps[k:]:
                prod = self.multiply(self.schubert_class(u), self.schubert_class(w))
                if any(z not in rep_set for z in prod.support()):
                    verified = False
        return CellularDatum(subset=J, entries=entries, chain_verified=verified)
