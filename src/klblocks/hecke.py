"""Iwahori-Hecke algebra and the Kazhdan-Lusztig basis.

Normalization: T_x T_y = T_{xy} whenever lengths add, and
T_s^2 = (v - v^-1) T_s + 1, so T_s^-1 = T_s - (v - v^-1).  The bar
involution sends v to v^-1 and T_w to T_{w^-1}^-1.  In this picture

    C_w = T_w + sum_{y < w} v^{l(y)-l(w)} P_{y,w}(v^2) T_y

with P_{y,w} the classical Kazhdan-Lusztig polynomial in q = v^2, and
C_s = T_s + v^-1.

multiply and bar are one walk on packed coefficients (LaurentPoly.pack):
each coefficient becomes one Python int, its value at v = 2^B times a
power of 2^B, exact for any B.  a * b right-multiplies a by T_s along
the word of each term of b; bar(a) multiplies 1 by T_s^-1 = T_s - v + v^-1
along the word of each term of a.  The walk folds all terms down the
tree of canonical words of ``WeylGroup.suffix_closure``, one step per
node (see the ``weyl`` module docstring).  Each step at most triples
the L1 norm, so every output coefficient k has |k| <= M with
M = |a|_1 sum_y |b_y|_1 3^l(y) for a * b, M = sum_w |a_w|_1 3^l(w) for
bar(a), and unpack reads it back at B = bit_length(M) + 1.  A shift of
max l(y) (or max l(w)) keeps every exponent >= 1 before each step, so
its division by v is exact.

The KLTable is the only store of KL data: columns {w: {y: P_{y,w}}} in
q = v^2, each stored whole or not at all.  A stored column holds
P_{y,w} for exactly the y <= w: the recursion computes it so, and
``klcache``'s loader and ``KLTable.store`` refuse any other column, so a
reloaded table is used without recursion and a saved one needs no y.
Each column is kept packed, {y.index: P_{y,w}(2^B)} with B = _WIDTH
read back in balanced digits, and one pool per table maps each packed
value to its one ``LaurentPoly``: the recursion is int additions and
shifts, and equal polynomials are one object.  With M_u the largest
coefficient magnitude in the column of u, every coefficient the step to
w meets is at most 2 M_v + sum |mu(y, v)| M_y, so a sum of 2^(B-1) or
more raises ArithmeticError before the column is stored.  A column's
read-only view and C_w are built off the packed column of w when asked
for; nothing keeps views or C_w.  Tables are safe to share across
threads only because columns are deterministic; confine a table to one
thread if that bothers you.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .laurent import LaurentPoly
from .weyl import Combination, WeylElem, WeylGroup

__all__ = ["HeckeElem", "HeckeAlgebra", "KLTable"]

# Digit width of packed KL entries.  Pool keys depend on it, so it is one
# width for every table, not a parameter.
_WIDTH = 64
_EMPTY: Mapping = MappingProxyType({})


class KLTable:
    """The store of Kazhdan-Lusztig polynomials P_{y,w} of one group, by column, in q."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.kind = group.kind
        self._packed: dict[int, dict[int, int]] = {}  # w.index -> {y.index: P_{y,w}(2^B)}
        self._max: dict[int, int] = {}  # w.index -> M_w, largest |coefficient| in the column
        self._pool: dict[int, LaurentPoly] = {}  # packed value -> its one polynomial
        self._sizes: dict[int, int] = {}  # packed value -> largest |coefficient|

    def store(self, columns: Mapping[WeylElem, Mapping[WeylElem, LaurentPoly]]) -> None:
        """Store each column {y: P_{y,w}} of {w: column} whole, in place of any stored one.

        Raises ValueError, storing nothing, for an element of another group,
        a negative exponent, a coefficient outside [-2^(B-1), 2^(B-1)) or a
        column whose y are not exactly the Bruhat interval [e, w].
        """
        half, packed = 1 << (_WIDTH - 1), {}
        for w, column in columns.items():
            self.group.check_elements(w, *column)
            for p in column.values():
                if p and (p.min_exp() < 0 or any(not -half <= k < half for _, k in p.items())):
                    raise ValueError(f"{p} in the column of {w!r} does not pack at width {_WIDTH}")
            packed[w.index] = {y.index: p.pack(0, _WIDTH) for y, p in column.items()}
        intervals = self.group.lower_intervals(packed)
        for w, column in columns.items():
            if packed[w.index].keys() != intervals[w.index]:
                raise ValueError(f"the column of w = {w!r} is not indexed by [e, w]")
        self._store_packed(packed)

    def _store_packed(self, columns: dict[int, dict[int, int]]) -> None:
        """The one write: keep each packed column {y.index: P_{y,w}(2^B)} of {w.index: column}."""
        pool, sizes = self._pool, self._sizes
        for w, column in columns.items():
            values = set(column.values())
            for n in values - pool.keys():
                p = pool[n] = LaurentPoly.unpack(n, 0, _WIDTH)
                sizes[n] = max((abs(k) for _, k in p.items()), default=0)
            self._max[w] = max(map(sizes.__getitem__, values), default=0)
            self._packed[w] = column

    def column_complete(self, w: WeylElem) -> bool:
        """Whether w has a stored column."""
        return w.group is self.group and w.index in self._packed

    def column(self, w: WeylElem) -> Mapping[WeylElem, LaurentPoly]:
        """Read-only view of the stored column {y: P_{y,w}}; empty if there is none."""
        if not self.column_complete(w):
            return _EMPTY
        elems, pool = self.group.elements, self._pool
        return MappingProxyType({elems[y]: pool[n] for y, n in self._packed[w.index].items()})

    def columns(self) -> Iterator[tuple[WeylElem, Mapping[WeylElem, LaurentPoly]]]:
        """Each stored column as (w, read-only {y: P_{y,w}}), in index order of w."""
        for w in sorted(self._packed):
            w = self.group.elements[w]
            yield w, self.column(w)

    def __len__(self) -> int:
        return sum(map(len, self._packed.values()))


class HeckeElem(Combination):
    """Element in the T basis: a finite sum of LaurentPoly * T_w."""

    __slots__ = ()
    _zero = LaurentPoly.zero()
    _ring = "Hecke algebra"

    def _term(self, w: WeylElem, p: LaurentPoly) -> str:
        return f"({p})T[{w!r}]"


class HeckeAlgebra:
    """Hecke algebra of a Weyl group, with its KL columns in kl_table."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.kl_table = KLTable(group)
        # (P_{y,w}(2^B), l(w) - l(y)) -> the coefficient of T_y in C_w
        self._in_v: dict[tuple[int, int], LaurentPoly] = {}

    # -- construction ------------------------------------------------

    def element(self, coeffs: Mapping[WeylElem, LaurentPoly]) -> HeckeElem:
        self.group.check_elements(*coeffs)
        return HeckeElem(self, coeffs)

    def t(self, w: WeylElem) -> HeckeElem:
        self.group.check_elements(w)
        return HeckeElem(self, {w: LaurentPoly.one()})

    @property
    def one(self) -> HeckeElem:
        return self.t(self.group.identity)

    # -- multiplication ----------------------------------------------

    def multiply(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        """a * b = sum over y of b_y (a T_y), on packed coefficients."""
        HeckeElem.check_group(self.group, a, b)
        if a.is_zero() or b.is_zero():
            return HeckeElem(self, {})
        bound = _norm(a) * sum(_norm1(p) * 3 ** y.length for y, p in b._c.items())
        width = bound.bit_length() + 1
        # R_u has taken at most top - l(u) steps, top = max l(y): its exponents
        # are >= l(u) >= 1 before the step out of u.
        shift_a = max(y.length for y in b._c) + max(0, -_min_exp(a))
        shift_b = max(0, -_min_exp(b))
        start = {w.index: p.pack(shift_a, width) for w, p in a._c.items()}
        coeffs = {y.index: p.pack(shift_b, width) for y, p in b._c.items()}
        return self._unpacked(self._walk(start, coeffs, width), shift_a + shift_b, width)

    def bar_t(self, w: WeylElem) -> HeckeElem:
        """Image of T_w under the bar involution."""
        return self.bar(self.t(w))

    def bar(self, a: HeckeElem) -> HeckeElem:
        """bar(a) = sum over w of bar(a_w) bar(T_w), on packed coefficients."""
        HeckeElem.check_group(self.group, a)
        if a.is_zero():
            return HeckeElem(self, {})
        # bar(T_w) is the product of the l(w) factors T_s - v + v^-1 along w's
        # word: its exponents are >= -l(w), and each factor at most triples L1.
        bound = sum(_norm1(p) * 3 ** w.length for w, p in a._c.items())
        width = bound.bit_length() + 1
        shift_a = max(0, max(p.max_exp() for p in a._c.values()))
        shift_t = max(w.length for w in a._c)
        coeffs = {w.index: p.bar().pack(shift_a, width) for w, p in a._c.items()}
        total = self._walk({0: 1 << width * shift_t}, coeffs, width, inverse=True)
        return self._unpacked(total, shift_a + shift_t, width)

    def _walk(self, start: dict[int, int], coeffs: dict[int, int], width: int,
              inverse: bool = False) -> dict[int, int]:
        """Sum over u of coeffs[u] * start * Y_i1 ... Y_ik, packed at width.

        (i1, ..., ik) is u's canonical word; Y_i is T_{s_i}, or T_{s_i}^-1
        if inverse.  R_u, what is still to be multiplied along u's word, is
        coeffs[u] * start plus R_x Y_j over the x = s_j u whose first letter
        is j; R_e is the sum.
        """
        left, right, elems = self.group.left, self.group.right, self.group.elements
        closure = self.group.suffix_closure(coeffs)
        sums: dict[int, dict[int, int]] = {u: {} for u in closure}
        total = sums[0]
        # Children come before parents in reverse index order.
        for u in reversed(closure):
            cur = sums.pop(u)
            m = coeffs.get(u)
            if m:
                for x, n in start.items():
                    cur[x] = cur.get(x, 0) + n * m
            if not u:
                break
            i = elems[u].word[0] - 1
            row, nxt = right[i], sums[left[i][u]]
            for x, n in cur.items():
                xs = row[x]
                nxt[xs] = nxt.get(xs, 0) + n
                # T_x T_s = T_xs, plus (v - v^-1) T_x when l(xs) < l(x);
                # T_x T_s^-1 = T_xs, minus (v - v^-1) T_x when l(xs) > l(x).
                if (xs < x) != inverse:
                    d = (n << width) - (n >> width)
                    nxt[x] = nxt.get(x, 0) + (-d if inverse else d)
        return total

    def _unpacked(self, packed: dict[int, int], shift: int, width: int) -> HeckeElem:
        elems = self.group.elements
        return HeckeElem(self, {
            elems[x]: LaurentPoly.unpack(n, shift, width) for x, n in packed.items() if n
        })

    # -- Kazhdan-Lusztig basis ---------------------------------------

    def _pick_descent(self, w: WeylElem) -> int:
        """The left descent that drives the C_w recursion: the smallest."""
        return self.group.left_descents(w)[0]

    def kl_element(self, w: WeylElem) -> HeckeElem:
        """The self-dual basis element C_w, read off the KL column of w."""
        self.group.check_elements(w)
        elems, pool, in_v, coeffs = self.group.elements, self.kl_table._pool, self._in_v, {}
        for y, n in self._complete_column(w).items():
            y = elems[y]
            key = (n, w.length - y.length)
            c = in_v.get(key)
            if c is None:
                c = in_v[key] = LaurentPoly({2 * e - key[1]: k for e, k in pool[n].items()})
            coeffs[y] = c
        return HeckeElem(self, coeffs)

    def _complete_column(self, w: WeylElem) -> dict[int, int]:
        """Compute the packed column {y.index: P_{y,w}(2^B)} into the table
        if it is not stored, and return it; never modify the result.

        With s a left descent of w and v = sw, C_w = (T_s + v^-1) C_v minus
        mu(y, v) C_y over the y < v with sy < y (Kazhdan-Lusztig 1979,
        (2.2.c)): P_{y,v} adds to P_{sy,w} and to P_{y,w}, times q when
        sy < y, and mu(y, v) q^((l(w) - l(y))/2) P_{z,y} is taken from P_{z,w}.
        """
        table = self.kl_table
        column = table._packed.get(w.index)
        if column is not None:
            return column
        if w.length == 0:
            table._store_packed({0: {0: 1}})
            return table._packed[0]
        shift, elems = self.group.left[self._pick_descent(w) - 1], self.group.elements
        v = elems[shift[w.index]]
        col_v, pool, top = self._complete_column(v), table._pool, table._max
        bound, acc = 2 * top[v.index], {}
        for y, n in col_v.items():
            sy = shift[y]
            if sy < y:
                # mu(y, v) is the q^((l(v) - l(y) - 1)/2) coefficient of P_{y,v}.
                gap = v.length - elems[y].length
                m = pool[n].coefficient((gap - 1) // 2) if gap % 2 else 0
                if m:
                    digits = (gap + 1) // 2 * _WIDTH
                    for z, c in self._complete_column(elems[y]).items():
                        acc[z] = acc.get(z, 0) - (m * c << digits)
                    bound += abs(m) * top[y]
                n <<= _WIDTH
            acc[sy] = acc.get(sy, 0) + n
            acc[y] = acc.get(y, 0) + n
        if bound >> (_WIDTH - 1):
            raise ArithmeticError(f"a coefficient of the KL column of {w!r} may reach {bound}, "
                                  f"which {_WIDTH}-bit digits cannot hold")
        if acc.get(w.index) != 1:
            raise ArithmeticError(f"C_{w!r} is not unitriangular")
        table._store_packed({w.index: {y: n for y, n in acc.items() if n}})
        return table._packed[w.index]

    def kl_polynomial(self, y: WeylElem, w: WeylElem) -> LaurentPoly:
        """P_{y,w} as a polynomial in q; zero when y is not below w."""
        self.group.check_elements(y, w)
        n = self._complete_column(w).get(y.index)
        return LaurentPoly.zero() if n is None else self.kl_table._pool[n]

    def kl_column(self, w: WeylElem) -> Mapping[WeylElem, LaurentPoly]:
        """Read-only {y: P_{y,w}} over the y <= w: exactly the nonzero P_{y,w}."""
        self.group.check_elements(w)
        self._complete_column(w)
        return self.kl_table.column(w)

    def mu(self, y: WeylElem, w: WeylElem) -> int:
        """Top-degree coefficient of P_{y,w}; needs y < w strictly.

        The column of w holds P_{y,w} for exactly the y <= w, so a zero
        P_{y,w} says y is not below w.
        """
        self.group.check_elements(y, w)
        if y.length >= w.length or (p := self.kl_polynomial(y, w)).is_zero():
            raise ValueError("mu requires y strictly below w in Bruhat order")
        gap = w.length - y.length
        return p.coefficient((gap - 1) // 2) if gap % 2 else 0

    def expand_in_kl_basis(self, a: HeckeElem) -> dict[WeylElem, LaurentPoly]:
        """Coefficients of a in the C basis, by triangular elimination."""
        HeckeElem.check_group(self.group, a)
        rest = dict(a._c)
        out: dict[WeylElem, LaurentPoly] = {}
        while rest:
            w = max(rest, key=lambda u: u.index)
            m = rest[w]
            out[w] = m
            cw = self.kl_element(w)
            for y, p in cw._c.items():
                rest[y] = rest.get(y, LaurentPoly.zero()) - m * p
                if rest[y].is_zero():
                    del rest[y]
        return out

    def kl_basis_elements(self, elems: Iterable[WeylElem] | None = None) -> None:
        """Complete the KL column of each given (default every) element."""
        elems = self.group.elements if elems is None else tuple(elems)
        self.group.check_elements(*elems)
        for w in elems:
            self._complete_column(w)


def _norm1(p: LaurentPoly) -> int:
    return sum(abs(k) for _, k in p.items())


def _norm(a: HeckeElem) -> int:
    """L1 norm of all the coefficients of a."""
    return sum(_norm1(p) for p in a._c.values())


def _min_exp(a: HeckeElem) -> int:
    return min(p.min_exp() for p in a._c.values())

