"""Graded multiplicity matrices for blocks of highest-weight categories.

A block is indexed by a pair of antidominant integral weights: lam
fixes the singularity subset J (its dot stabilizer is W_J) and mu
fixes the parabolic subset I.  Simple and standard objects in the
block are labelled w_I x . lam with x running over the double
quotient ^IW^J, and all matrices here are indexed by those x in the
canonical element order.

Entries come from finite alternating sums of Kazhdan-Lusztig
polynomials evaluated at v^-2 and shifted by length differences;
everything stays in Z[v, v^-1] and is exact.

Each matrix has one builder: d, e = d^-1 and c = d^T d.  The projective
Verma flag d^T (BGG reciprocity) and the multiplicities d(1), e(1) at
v = 1 need none, and the reference routes live in ``checks``.
Bott-Samelson reports and translations start from the group's regular
block, so no argument names it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .hecke import HeckeAlgebra
from .laurent import LaurentPoly
from .weyl import WeylElem, WeylGroup

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "NotAntidominantError",
    "NotReducedError",
    "UnsupportedBlockError",
    "BlockDesc",
    "GradedMatrix",
    "BSReport",
    "make_block",
    "standard_weight",
    "standard_block",
    "decomposition_matrix",
    "inverse_decomposition_matrix",
    "graded_cartan_matrix",
    "graded_length_report",
    "vp_graded_dimension",
    "vp_center",
    "bott_samelson_decomposition",
    "translate_onto_wall",
    "translate_out_of_wall",
    "translation_composite",
]

K0Vector = dict[WeylElem, LaurentPoly]


class NotAntidominantError(ValueError):
    """A weight required to be antidominant is not."""


class NotReducedError(ValueError):
    """A word fails to be a reduced expression."""


class UnsupportedBlockError(ValueError):
    """The requested report is only defined for I = empty blocks."""


class BlockDesc(NamedTuple):
    """A block description: weights, subsets and the index set ^IW^J."""

    group: WeylGroup
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    I: frozenset[int]
    J: frozenset[int]
    w_I: WeylElem
    index_set: tuple[WeylElem, ...]


def make_block(group: WeylGroup, lam: Sequence[int], mu: Sequence[int]) -> BlockDesc:
    """Build the block of the pair (lam, mu); both must be antidominant.

    An empty ^IW^J gives a block whose matrices are 0x0.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    for name, weight in (("lam", lam), ("mu", mu)):
        if len(weight) != group.rank:
            raise ValueError(f"{name} has rank {len(weight)}, expected {group.rank}")
        if not group.is_antidominant(weight):
            raise NotAntidominantError(f"{name}={weight} is not antidominant")
    J = group.singularity_subset(lam)
    I = group.singularity_subset(mu)
    index = group.double_quotient(I, J)
    return BlockDesc(group, lam, mu, I, J, group.parabolic_longest(I), index)


def standard_weight(rank: int, subset: Iterable[int]) -> tuple[int, ...]:
    """The antidominant weight with singularity exactly on the subset."""
    J = frozenset(subset)
    for i in sorted(J):
        if not 1 <= i <= rank:
            raise ValueError(f"simple index {i} out of range 1..{rank}")
    return tuple(-1 if i + 1 in J else -2 for i in range(rank))


def standard_block(group: WeylGroup, parabolic: Iterable[int],
                   singular: Iterable[int]) -> BlockDesc:
    """Block from subsets alone, with canonical weight choices."""
    return make_block(
        group,
        standard_weight(group.rank, singular),
        standard_weight(group.rank, parabolic),
    )


class GradedMatrix(NamedTuple):
    """Matrix of Laurent polynomials with element-labelled axes."""

    rows: tuple[WeylElem, ...]
    cols: tuple[WeylElem, ...]
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def entry(self, x: WeylElem, y: WeylElem) -> LaurentPoly:
        return self.entries[self.rows.index(x)][self.cols.index(y)]

    def transpose(self) -> "GradedMatrix":
        return GradedMatrix(
            self.cols,
            self.rows,
            tuple(
                tuple(self.entries[r][c] for r in range(len(self.rows)))
                for c in range(len(self.cols))
            ),
        )

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Matrix product; zero entries of either factor are never multiplied."""
        if self.cols != other.rows:
            raise ValueError("axis mismatch in matrix product")
        other_terms = [
            [(c, b) for c, b in enumerate(row) if not b.is_zero()]
            for row in other.entries
        ]
        out = []
        for row in self.entries:
            acc = [LaurentPoly.zero()] * len(other.cols)
            for a, terms in zip(row, other_terms):
                if not a.is_zero():
                    for c, b in terms:
                        acc[c] = acc[c] + a * b
            out.append(tuple(acc))
        return GradedMatrix(self.rows, other.cols, tuple(out))

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            e == (LaurentPoly.one() if r == c else LaurentPoly.zero())
            for r, row in enumerate(self.entries)
            for c, e in enumerate(row)
        )

    def evaluate(self, point: int) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(e.evaluate(point) for e in row) for row in self.entries)

    def eval_at_one(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(e.eval_at_one() for e in row) for row in self.entries)


def _column_sums(
    hecke: HeckeAlgebra,
    targets: Sequence[WeylElem],
    sources: Iterable[tuple[WeylElem, int, int]],
) -> Iterator[list[LaurentPoly]]:
    """Yield, for each target t, slots r holding the sums of (-1)^l P_{u,t}(v^-2)
    over the sources (u, r, l), read off the stored entries of t's KL column."""
    slots: dict[WeylElem, tuple[int, int]] = {}
    for u, r, parity in sources:
        if u in slots:
            raise ArithmeticError(f"{u!r} has two coset factorizations")
        slots[u] = (r, parity % 2)
    for t in targets:
        sums = [LaurentPoly.zero()] * len(targets)
        for u, p in hecke.kl_column(t).items():
            slot = slots.get(u)
            if slot is not None:
                r, odd = slot
                p = p.substitute_power(-2)
                sums[r] = sums[r] + (-p if odd else p)
        yield sums


def decomposition_matrix(block: BlockDesc, hecke: HeckeAlgebra) -> GradedMatrix:
    """Graded Verma-to-simple multiplicities d_{x,y}.

    d_{x,y} = sum over z in W_I of (-1)^{l(z)} v^{l(x)-l(y)}
    P_{z w_I x w0, w_I y w0}(v^-2).
    """
    w0 = block.group.w0
    index = block.index_set
    sums = _column_sums(
        hecke,
        [block.w_I * y * w0 for y in index],
        ((z * block.w_I * x * w0, r, z.length)
         for z in block.group.parabolic_elements(block.I) for r, x in enumerate(index)),
    )
    cols = [
        [p.shift(x.length - y.length) for p, x in zip(col, index)]
        for col, y in zip(sums, index)
    ]
    return GradedMatrix(index, index, tuple(zip(*cols)))


def inverse_decomposition_matrix(block: BlockDesc, hecke: HeckeAlgebra) -> GradedMatrix:
    """Simple-to-Verma coefficients e_{y,x}, the inverse of d.

    e_{y,x} = sum over z in W_J of (-1)^{l(y)+l(z)-l(x)} v^{l(y)-l(x)}
    P_{w_I x z, w_I y}(v^-2).
    """
    index = block.index_set
    sums = _column_sums(
        hecke,
        [block.w_I * y for y in index],
        ((block.w_I * x * z, r, z.length)
         for z in block.group.parabolic_elements(block.J) for r, x in enumerate(index)),
    )
    rows = tuple(
        tuple((-p if (y.length - x.length) % 2 else p).shift(y.length - x.length)
              for p, x in zip(row, index))
        for row, y in zip(sums, index)
    )
    return GradedMatrix(index, index, rows)


def graded_cartan_matrix(block: BlockDesc, hecke: HeckeAlgebra) -> GradedMatrix:
    """c_{x,y} = sum_z d_{z,x} d_{z,y}; symmetric with 1 + ... diagonal."""
    d = decomposition_matrix(block, hecke)
    return d.transpose() @ d


class GradedLengthRow(NamedTuple):
    x: WeylElem
    verma_top: int
    verma_expected: int
    projective_top: int
    projective_expected: int

    @property
    def ok(self) -> bool:
        return (self.verma_top == self.verma_expected
                and self.projective_top == self.projective_expected)


def graded_length_report(block: BlockDesc, hecke: HeckeAlgebra) -> list[GradedLengthRow]:
    """Top grading degrees of Verma rows and Cartan columns (I = empty)."""
    if block.I:
        raise UnsupportedBlockError("graded length report requires I = empty")
    proj_top = 2 * vp_center(block)
    d = decomposition_matrix(block, hecke)
    cartan = d.transpose() @ d
    out = []
    for r, x in enumerate(block.index_set):
        verma_deg = max(
            (e.max_exp() for e in d.entries[r] if not e.is_zero()), default=0
        )
        proj_deg = max(
            (e.max_exp() for e in cartan.entries[r] if not e.is_zero()), default=0
        )
        out.append(GradedLengthRow(
            x=x,
            verma_top=verma_deg,
            verma_expected=x.length,
            projective_top=proj_deg,
            projective_expected=proj_top - x.length,
        ))
    return out


def vp_center(block: BlockDesc) -> int:
    """Palindromic center of big-projective graded dimensions."""
    group = block.group
    return group.w0.length - group.parabolic_longest(block.J).length


def vp_graded_dimension(block: BlockDesc, hecke: HeckeAlgebra, x: WeylElem) -> LaurentPoly:
    """Graded dimension of the x-weight piece functor value on P(x . lam):
    the Cartan entry c_{x, e} (I must be empty).

    With I empty, d_{z,e} = v^{l(z)} since P_{u,w0} = 1 for every u, so
    c_{x,e} = sum_z v^{l(z)} d_{z,x} = sum_z v^{2l(z)-l(x)} P_{z w0, x w0}(v^-2)
    over z in the index set: one weighted read of the KL column of x w0.
    """
    if block.I:
        raise UnsupportedBlockError("graded dimensions require I = empty")
    index = set(block.index_set)
    if x not in index:
        raise ValueError(f"{x!r} is not in the block index set")
    w0 = block.group.w0
    total = LaurentPoly.zero()
    for u, p in hecke.kl_column(x * w0).items():
        z = u * w0
        if z in index:
            total = total + p.substitute_power(-2).shift(2 * z.length - x.length)
    return total


class BSReport(NamedTuple):
    """Decomposition data of one Bott-Samelson word in a regular block."""

    word: tuple[int, ...]
    x: WeylElem
    multiplicities: dict[WeylElem, LaurentPoly]
    shift: int | None
    dimension_identity_ok: bool
    top_multiplicity_ok: bool
    support_ok: bool
    natural_coeffs_ok: bool


def bott_samelson_decomposition(hecke: HeckeAlgebra, word: Sequence[int]) -> BSReport:
    """Indecomposable multiplicities of a Bott-Samelson product.

    The product C_{s_{j1}} ... C_{s_{jk}} is expanded in the KL basis;
    multiplicities land on y <= x with m_x = 1.  The graded dimension
    identity against (1+v^2)^{l(x)} holds after one monomial shift v^s,
    recorded in the report (s = l(w0) - l(x) with these normalizations).
    """
    group = hecke.group
    word = tuple(word)
    x = group.word_elem(word)
    if x.length != len(word):
        raise NotReducedError(f"{list(word)} is not reduced in {group.kind}")
    prod = hecke.one
    for i in word:
        prod = prod * hecke.kl_element(group.simple(i))
    mults = hecke.expand_in_kl_basis(prod)

    top_ok = mults.get(x) == LaurentPoly.one()
    support_ok = all(group.bruhat_leq(y, x) for y in mults)
    natural_ok = all(m.has_nonnegative_coeffs() for m in mults.values())

    regular = standard_block(group, (), ())
    w0 = group.w0
    total = LaurentPoly.zero()
    for y, m in mults.items():
        total = total + m * vp_graded_dimension(regular, hecke, y * w0)
    target = (LaurentPoly.one() + LaurentPoly.gen(2)) ** len(word)
    shift = None
    identity_ok = False
    if not total.is_zero():
        candidate = total.min_exp()
        if total == target.shift(candidate):
            shift = candidate
            identity_ok = True
    return BSReport(
        word=word,
        x=x,
        multiplicities=mults,
        shift=shift,
        dimension_identity_ok=identity_ok,
        top_multiplicity_ok=top_ok,
        support_ok=support_ok,
        natural_coeffs_ok=natural_ok,
    )


def _check_wall(wall: BlockDesc, vec: Mapping[WeylElem, LaurentPoly]) -> None:
    if wall.I:
        raise ValueError("wall-crossing is for ordinary blocks (I = empty)")
    wall.group.check_elements(*vec)


def translate_onto_wall(wall: BlockDesc, vec: Mapping[WeylElem, LaurentPoly]) -> K0Vector:
    """Translation from the regular block onto the wall, on Verma classes.

    [Verma(du . 0)] with d in W^J, u in W_J maps to v^{-l(u)} [Verma(d . lam)].
    """
    _check_wall(wall, vec)
    out: K0Vector = {}
    for w, p in vec.items():
        d, u = wall.group.coset_factorize(w, wall.J)
        out[d] = out.get(d, LaurentPoly.zero()) + p.shift(-u.length)
    return {w: p for w, p in out.items() if not p.is_zero()}


def translate_out_of_wall(wall: BlockDesc, vec: Mapping[WeylElem, LaurentPoly]) -> K0Vector:
    """Translation out of the wall to the regular block, on Verma classes.

    [Verma(d . lam)] maps to sum over u in W_J of
    v^{l(u) - l(w_J)} [Verma(du . 0)].
    """
    _check_wall(wall, vec)
    w_elems = wall.group.parabolic_elements(wall.J)
    top = w_elems[-1].length
    out: K0Vector = {}
    for d, p in vec.items():
        for u in w_elems:
            w = d * u
            out[w] = out.get(w, LaurentPoly.zero()) + p.shift(u.length - top)
    return {w: p for w, p in out.items() if not p.is_zero()}


def translation_composite(wall: BlockDesc, x: WeylElem) -> K0Vector:
    """Out-of-wall following onto-wall applied to the class of Verma(x . 0)."""
    return translate_out_of_wall(wall, translate_onto_wall(wall, {x: LaurentPoly.one()}))
