"""Weyl group elements, Bruhat order, cosets and the dot action.

A group enumerates itself on construction (``weyl_group_of_kind``
refuses more than ``MAX_GROUP_ORDER`` elements) and numbers its elements
in canonical order.  W acts simply transitively on the orbit of rho, so
the enumeration is a search over the points w(rho), one length at a
time, s_1 first; each step is a simple reflection s_i lambda = lambda -
lambda_i alpha_i, and no element carries a matrix.  It records per s_i
the tables ``left[i - 1][x] = index of s_i w_x`` and
``right[i - 1][x] = index of w_x s_i``, after the per-generator shift
tables of du Cloux's Coxeter program, and a table of inverses.
Products and reduced words read these tables; the actions on weights
apply simple reflections along a word.  Each element is interned:
there is one object per group element, equality is identity and the
hash is the canonical index.

Indices ascend with length and l(s_i w) = l(w) +- 1, so s_i w < w
exactly when ``left[i - 1][w.index] < w.index`` (``right`` for w s_i):
descents, coset representatives, double quotients and coset
factorizations are that one comparison.  The Bruhat order is Deodhar's
property Z, a loop of at most l(y) steps (see ``bruhat_leq``).

Reduced words use 1-based simple indices and are computed by stripping
the smallest left descent, the first negative coordinate of w(rho),
which fixes a canonical word per element.
Elements sort by (length, canonical word); all listings follow that
order.  Canonical words are suffix-closed: the word of x is a letter i,
then the word of s_i x.  So every set of elements closes under
x -> s_i x into one tree of words rooted at e, and ``suffix_closure``
lists it in index order, each s_i x before x: a walk over that list
applies one generator step per node to serve a whole set of words.
The Hecke product and bar involution, the Demazure images of the
Schubert layer and the Bruhat intervals [e, x] of ``lower_intervals``
are such walks.

``Combination`` is a finite sum of coefficients times group elements,
sum_w c_w b_w: the one type behind Hecke elements (Laurent polynomials
on T_w) and Schubert classes (fractions on X_w).
"""

from __future__ import annotations

from math import factorial
from typing import Any, Iterable, Mapping, Sequence

from .roots import RootDatum, Weight, build_root_system, parse_kind

__all__ = ["Combination", "NotCanonicalError", "WeylElem", "WeylGroup"]

# WeylGroup.left or .right: row i - 1 is the shift table of s_i
_Table = tuple[tuple[int, ...], ...]

# Largest |W| that weyl_group_of_kind enumerates.  E6 (51 840 elements)
# builds in about 0.5 s and 50 MB; E7, E8, A8, B7, C7 and D7 are refused
# before any work is done.
MAX_GROUP_ORDER = 100_000

_FAMILY_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

class NotCanonicalError(ValueError):
    """Raised when a weight is neither dominant nor antidominant."""


class WeylElem:
    """One interned group element: equal elements are the same object."""

    __slots__ = ("group", "length", "index", "word")

    def __init__(self, group: "WeylGroup", index: int, word: tuple[int, ...]):
        self.group = group
        self.index = index  # position in canonical order
        self.word = word  # canonical reduced word
        self.length = len(word)

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        """Walk the word of the shorter factor through the shift tables."""
        group = self.group
        if other.group is not group:
            group.check_elements(other)
        if other.length <= self.length:
            x = self.index
            for i in other.word:
                x = group.right[i - 1][x]
        else:
            x = other.index
            for i in reversed(self.word):
                x = group.left[i - 1][x]
        return group.elements[x]

    def inverse(self) -> "WeylElem":
        return self.group.inverse(self)

    def act(self, weight: Sequence[int]) -> Weight:
        """Linear action on fundamental-weight coordinates."""
        weight = tuple(weight)
        for i in reversed(self.word):
            weight = self.group._reflect(i - 1, weight)
        return weight

    def dot(self, weight: Sequence[int]) -> Weight:
        """Dot action w . lambda = w(lambda + rho) - rho."""
        return tuple(x - 1 for x in self.act(tuple(x + 1 for x in weight)))

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        name = ".".join(map(str, self.word)) if self.length else "e"
        return f"<{self.group.kind} {name}>"


class Combination:
    """A finite sum of coefficients times elements of one Weyl group.

    A subclass sets ``_zero``, the coefficient off the support, and
    ``_ring``, its algebra's name in the error for mixed groups, and
    formats one term in ``_term``.  ``algebra`` supplies ``group`` and
    ``multiply``.  Zero coefficients are dropped on construction, so
    equal sums have equal coefficient dicts.  ``*`` takes two sums of
    one kind; ``scale`` is the one way to multiply by a coefficient.
    """

    __slots__ = ("algebra", "_c")
    _zero: Any
    _ring: str

    def __init__(self, algebra: Any, coeffs: Mapping[WeylElem, Any]):
        self.algebra = algebra
        self._c = {w: c for w, c in coeffs.items() if c}

    @staticmethod
    def check_group(group: "WeylGroup", *operands: "Combination") -> None:
        """Raise ValueError for an operand over another group."""
        for a in operands:
            if a.algebra.group is not group:
                raise ValueError(
                    f"element of the {a._ring} of {a.algebra.group.kind} "
                    f"used in that of {group.kind}"
                )

    def items(self) -> tuple[tuple[WeylElem, Any], ...]:
        return tuple(sorted(self._c.items(), key=lambda wc: wc[0].index))

    def coefficient(self, w: WeylElem) -> Any:
        return self._c.get(w, self._zero)

    def support(self) -> tuple[WeylElem, ...]:
        return tuple(w for w, _ in self.items())

    def is_zero(self) -> bool:
        return not self._c

    def __add__(self, other: "Combination") -> "Combination":
        self.check_group(self.algebra.group, other)
        c = dict(self._c)
        for w, x in other._c.items():
            y = c.get(w)
            c[w] = x if y is None else y + x
        return type(self)(self.algebra, c)

    def __neg__(self) -> "Combination":
        return type(self)(self.algebra, {w: -x for w, x in self._c.items()})

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    def __mul__(self, other) -> "Combination":
        if not isinstance(other, Combination):
            return NotImplemented
        return self.algebra.multiply(self, other)

    def scale(self, c) -> "Combination":
        return type(self)(self.algebra, {w: x * c for w, x in self._c.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __repr__(self) -> str:
        return " + ".join(self._term(w, c) for w, c in self.items()) or "0"


class WeylGroup:
    """The finite Weyl group of a root datum, fully enumerated."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.rank = n = datum.rank
        # _alpha[i] is alpha_{i+1} in fundamental-weight coordinates
        self._alpha = tuple(tuple(row[i] for row in datum.cartan) for i in range(n))

        # The orbit of rho, one length at a time; the point w(rho) names
        # w.  s_i u is longer than u exactly when u(rho)_i > 0, and x is
        # first met as s_i u with i its smallest left descent, u = s_i x a
        # level down.  So, s_1 first in the outer loop, each level comes in
        # canonical order (first letter, then rank of the rest).
        points = [(1,) * n]
        found = {points[0]: 0}
        left: list[list[int]] = [[0] for _ in range(n)]
        level, new = [0], []
        while level:
            for i, row in enumerate(left):
                for u in level:
                    if points[u][i] > 0:
                        p = self._reflect(i, points[u])
                        x = found.setdefault(p, len(points))
                        if x == len(points):
                            points.append(p)
                            new.append(x)
                            for r in left:
                                r.append(0)
                        row[u], row[x] = x, u
            level, new = new, []
        self.left: _Table = tuple(map(tuple, left))
        left = self.left  # drops the lists before right is built
        # x = s_j u with j the first negative coordinate of x(rho) and u
        # earlier: x s_i = s_j (u s_i) and x^-1 = u^-1 s_j.
        elements = [WeylElem(self, 0, ())]
        right: list[list[int]] = [[row[0]] for row in left]
        inverse = [0]
        for x in range(1, len(points)):
            j = next(i for i, c in enumerate(points[x]) if c < 0)
            u = left[j][x]
            elements.append(WeylElem(self, x, (j + 1,) + elements[u].word))
            for i in range(n):
                right[i].append(left[j][right[i][u]])
            inverse.append(right[j][inverse[u]])
        self.right: _Table = tuple(map(tuple, right))
        self._inverse = tuple(inverse)
        self.elements: tuple[WeylElem, ...] = tuple(elements)
        # s_beta is the element whose point is rho - <rho, beta^vee> beta.
        self._reflections = tuple(
            self.elements[found[tuple(1 - sum(d) * b for b in beta)]]
            for beta, d in zip(datum.pos_roots_omega, datum.pos_coroots)
        )
        self.identity = self.elements[0]
        self.w0 = self.elements[-1]

    def _reflect(self, i: int, weight: Weight) -> Weight:
        """s_{i+1} weight = weight - weight[i] * alpha_{i+1}, 0-based i."""
        c = weight[i]
        return tuple(x - c * a for x, a in zip(weight, self._alpha[i]))

    @property
    def kind(self) -> str:
        return self.datum.kind

    @property
    def order(self) -> int:
        return len(self.elements)

    def simple(self, i: int) -> WeylElem:
        """The simple reflection s_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range")
        return self.elements[self.right[i - 1][0]]

    def reflection(self, root_index: int) -> WeylElem:
        """The reflection in the positive root numbered root_index."""
        return self._reflections[root_index]

    def word_elem(self, word: Iterable[int]) -> WeylElem:
        """The product of the word's simple reflections; any word is accepted."""
        x = 0
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"simple index {i} out of range")
            x = self.right[i - 1][x]
        return self.elements[x]

    def inverse(self, w: WeylElem) -> WeylElem:
        return self.elements[self._inverse[w.index]]

    def check_elements(self, *elems: WeylElem) -> None:
        """Raise ValueError for an element of another group."""
        for w in elems:
            if w.group is not self:
                raise ValueError(
                    f"element of the Weyl group of {w.group.kind} used in that of {self.kind}"
                )

    def suffix_closure(self, indices: Iterable[int]) -> list[int]:
        """The indices with every x -> s_i x down from them, in index order.

        i is the first letter of x's canonical word, so the walk from x
        reaches e along the suffixes of that word; e is always listed.
        """
        left, elems = self.left, self.elements
        seen = {0}
        for x in indices:
            while x not in seen:
                seen.add(x)
                x = left[elems[x].word[0] - 1][x]
        return sorted(seen)

    # -- descents and Bruhat order -----------------------------------

    def _descents(self, table: _Table, w: WeylElem) -> tuple[int, ...]:
        """The i with s_i w < w (table left) or w s_i < w (table right)."""
        x = w.index
        return tuple(i for i, row in enumerate(table, 1) if row[x] < x)

    def left_descents(self, w: WeylElem) -> tuple[int, ...]:
        return self._descents(self.left, w)

    def right_descents(self, w: WeylElem) -> tuple[int, ...]:
        return self._descents(self.right, w)

    def bruhat_leq(self, x: WeylElem, y: WeylElem) -> bool:
        """Property Z on the first letter s of y's word, so sy < y.

        x <= y iff sx <= sy when sx < x, and iff x <= sy otherwise.  The
        loop stops at x = e or x = y, both true, or at x past y in index,
        so l(x) >= l(y) with x != y: false.
        """
        self.check_elements(x, y)
        left, elems = self.left, self.elements
        x, y = x.index, y.index
        while 0 < x < y:
            row = left[elems[y].word[0] - 1]
            if row[x] < x:
                x = row[x]
            y = row[y]
        return x <= y

    def lower_intervals(self, indices: Iterable[int]) -> dict[int, frozenset[int]]:
        """{x: the indices of [e, x]} over ``suffix_closure(indices)``.

        One walk up the tree of canonical words: with s the first letter of
        x's word and v = s x < x, the lifting property gives
        [e, x] = [e, v] | s [e, v] (V. Deodhar, Invent. Math. 39 (1977)).
        """
        left, elems = self.left, self.elements
        intervals = {0: frozenset((0,))}
        for x in self.suffix_closure(indices)[1:]:
            row = left[elems[x].word[0] - 1]
            below = intervals[row[x]]
            intervals[x] = below.union([row[y] for y in below])
        return intervals

    # -- parabolic structure -----------------------------------------

    def _check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        J = frozenset(subset)
        if not all(isinstance(i, int) and 1 <= i <= self.rank for i in J):
            raise ValueError(f"bad simple-root subset {sorted(J)}")
        return J

    def parabolic_elements(self, subset: Iterable[int]) -> tuple[WeylElem, ...]:
        """W_J: elements whose reduced word uses only letters in J."""
        J = self._check_subset(subset)
        return tuple(w for w in self.elements if set(w.word) <= J)

    def parabolic_longest(self, subset: Iterable[int]) -> WeylElem:
        return self.parabolic_elements(subset)[-1]

    def _ascending(self, table: _Table, subset: Iterable[int]) -> tuple[WeylElem, ...]:
        """The elements with no descent in the subset on the side of table."""
        rows = [table[i - 1] for i in self._check_subset(subset)]
        return tuple(w for w in self.elements if all(row[w.index] > w.index for row in rows))

    def min_coset_reps(self, subset: Iterable[int]) -> tuple[WeylElem, ...]:
        """W^J: minimal length representatives of the cosets w W_J."""
        return self._ascending(self.right, subset)

    def min_coset_reps_right(self, subset: Iterable[int]) -> tuple[WeylElem, ...]:
        """^IW: minimal length representatives of the cosets W_I w."""
        return self._ascending(self.left, subset)

    def double_quotient(
        self, left: Iterable[int], right: Iterable[int]
    ) -> tuple[WeylElem, ...]:
        """^IW^J: the w in ^IW with w s_j longer and still in ^IW, all j in J."""
        rows = [self.right[j - 1] for j in self._check_subset(right)]
        reps = self.min_coset_reps_right(left)
        in_reps = {w.index for w in reps}
        return tuple(
            w for w in reps
            if all(row[w.index] > w.index and row[w.index] in in_reps for row in rows)
        )

    def coset_factorize(
        self, w: WeylElem, subset: Iterable[int]
    ) -> tuple[WeylElem, WeylElem]:
        """Split w = d * u with d in W^J, u in W_J."""
        self.check_elements(w)
        J = self._check_subset(subset)
        d, u = w.index, 0
        # move right descents in J from d onto u until d has none
        while j := next((j for j in J if self.right[j - 1][d] < d), 0):
            d, u = self.right[j - 1][d], self.left[j - 1][u]
        return self.elements[d], self.elements[u]

    # -- weights -----------------------------------------------------

    def is_dominant(self, weight: Sequence[int]) -> bool:
        return all(x + 1 >= 0 for x in weight)

    def is_antidominant(self, weight: Sequence[int]) -> bool:
        return all(x + 1 <= 0 for x in weight)

    def singularity_subset(self, weight: Sequence[int]) -> frozenset[int]:
        """Simple indices where <weight + rho, alpha_i^vee> = 0."""
        if not (self.is_dominant(weight) or self.is_antidominant(weight)):
            raise NotCanonicalError(f"{tuple(weight)} is not canonical in its orbit")
        return frozenset(i + 1 for i, x in enumerate(weight) if x + 1 == 0)

    def antidominant_representative(self, weight: Sequence[int]) -> Weight:
        """The unique antidominant weight in the dot orbit."""
        lam = tuple(weight)
        changed = True
        while changed:
            changed = False
            for i in range(1, self.rank + 1):
                if lam[i - 1] + 1 > 0:
                    lam = self.simple(i).dot(lam)
                    changed = True
        return lam

    def dot_stabilizer(self, weight: Sequence[int]) -> tuple[WeylElem, ...]:
        return tuple(w for w in self.elements if w.dot(weight) == tuple(weight))

    def __repr__(self) -> str:
        return f"WeylGroup({self.kind}, order {self.order})"


def weyl_group_order(kind: str) -> int:
    """|W| for a type string, from the family's order formula."""
    family, n = parse_kind(kind)
    return _FAMILY_ORDER[family](n)


def weyl_group_of_kind(kind: str) -> WeylGroup:
    """Convenience constructor from a type string like 'B3'.

    Raises ValueError, before enumerating, for a group of more than
    MAX_GROUP_ORDER elements.
    """
    order = weyl_group_order(kind)
    if order > MAX_GROUP_ORDER:
        family, n = parse_kind(kind)
        raise ValueError(
            f"{family}{n} has |W| = {order}, above the cap of "
            f"{MAX_GROUP_ORDER} elements"
        )
    return WeylGroup(build_root_system(kind))
