"""Polynomials over Q in the fundamental-weight variables.

A monomial is an exponent tuple with one slot per simple root; the
variable in slot i is the fundamental weight w_{i+1}.  Each variable
carries graded degree 2, so a monomial of total exponent m has graded
degree 2m.  Arithmetic is exact: a polynomial is stored as integer
numerators over one positive common denominator in lowest terms, and
the accessors hand its coefficients out as Fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add, attrgetter

__all__ = ["RatPoly", "NonDivisibleError", "divide_by_linear"]

Monomial = tuple[int, ...]


class NonDivisibleError(ValueError):
    """Raised when an exact polynomial division leaves a remainder."""


_DEN = attrgetter("_den")


def _grlex_key(m: Monomial) -> tuple[int, Monomial]:
    return (sum(m), m)


class RatPoly:
    """Sparse polynomial over Q in a fixed variable count.

    Stored as {monomial: integer numerator} over one denominator ``_den``.
    Arithmetic and equality take a ``RatPoly`` in as many variables; the
    one scalar operand is an int or Fraction as the right factor of
    ``*``.
    """

    __slots__ = ("nvars", "_t", "_den")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = (),
    ):
        self.nvars = nvars
        items = terms.items() if isinstance(terms, Mapping) else terms
        t: dict[Monomial, Fraction] = {}
        for m, c in items:
            if len(m) != nvars:
                raise ValueError(f"monomial {m} has wrong arity for {nvars} variables")
            c = Fraction(c)
            if c:
                c += t.get(m, 0)
                if c:
                    t[m] = c
                else:
                    del t[m]
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is already in lowest terms.
        den = lcm(*(c.denominator for c in t.values()))
        self._t = {m: c.numerator * (den // c.denominator) for m, c in t.items()}
        self._den = den

    @classmethod
    def _normalized(cls, nvars: int, t: dict[Monomial, int], den: int = 1) -> "RatPoly":
        """Wrap nonzero integer numerators over den > 0, without a copy.

        Only a factor common to den and every numerator is divided out.
        """
        if den != 1:
            g = gcd(den, *t.values())
            if g != 1:
                t = {m: c // g for m, c in t.items()}
                den //= g
        p = object.__new__(cls)
        p.nvars = nvars
        p._t = t
        p._den = den
        return p

    @classmethod
    def zero(cls, nvars: int) -> "RatPoly":
        return cls._normalized(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "RatPoly":
        return cls._normalized(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "RatPoly":
        """The j-th variable (0-based slot)."""
        if not 0 <= j < nvars:
            raise ValueError(f"variable slot {j} out of range for {nvars} variables")
        m = tuple(1 if i == j else 0 for i in range(nvars))
        return cls._normalized(nvars, {m: 1})

    @classmethod
    def linear(cls, nvars: int, coeffs: Sequence) -> "RatPoly":
        """The linear form sum_j coeffs[j] * w_{j+1}."""
        return cls(
            nvars,
            {
                tuple(1 if i == j else 0 for i in range(nvars)): c
                for j, c in enumerate(coeffs)
                if c
            },
        )

    def _fraction(self, c: int) -> Fraction:
        return Fraction(c, self._den) if self._den != 1 else Fraction(c)

    def items(self) -> tuple[tuple[Monomial, Fraction], ...]:
        return tuple(
            (m, self._fraction(c))
            for m, c in sorted(self._t.items(), key=lambda mc: _grlex_key(mc[0]))
        )

    def coefficient(self, m: Monomial) -> Fraction:
        return self._fraction(self._t.get(tuple(m), 0))

    def constant_term(self) -> Fraction:
        return self._fraction(self._t.get((0,) * self.nvars, 0))

    def is_zero(self) -> bool:
        return not self._t

    def __len__(self) -> int:
        return len(self._t)

    def degree_in(self, j: int) -> int:
        """Highest power of the variable in slot j (0 for the zero polynomial)."""
        return max((m[j] for m in self._t), default=0)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "RatPoly | None":
        if not isinstance(other, RatPoly):
            return None
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        return other

    def _plus(self, o: "RatPoly", sign: int) -> "RatPoly":
        """self + sign * o over the common denominator."""
        den = lcm(self._den, o._den)
        a = den // self._den
        b = sign * (den // o._den)
        t = {m: c * a for m, c in self._t.items()} if a != 1 else dict(self._t)
        for m, c in o._t.items():
            c = t.get(m, 0) + c * b
            if c:
                t[m] = c
            else:
                del t[m]
        return RatPoly._normalized(self.nvars, t, den)

    def __add__(self, other) -> "RatPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    def __neg__(self) -> "RatPoly":
        return RatPoly._normalized(
            self.nvars, {m: -c for m, c in self._t.items()}, self._den
        )

    def __sub__(self, other) -> "RatPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return RatPoly.zero(self.nvars)
            k = c0.numerator
            return RatPoly._normalized(
                self.nvars,
                {m: c * k for m, c in self._t.items()},
                self._den * c0.denominator,
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t: dict[Monomial, int] = {}
        for m1, c1 in self._t.items():
            for m2, c2 in o._t.items():
                m = tuple(map(add, m1, m2))
                t[m] = t.get(m, 0) + c1 * c2
        return RatPoly._normalized(
            self.nvars, {m: c for m, c in t.items() if c}, self._den * o._den
        )

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative power")
        out = RatPoly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._t == o._t

    __hash__ = None  # mutable-adjacent container; not used as a key

    # -- grading -----------------------------------------------------

    def graded_components(self) -> dict[int, "RatPoly"]:
        """Split by graded degree (2 * total exponent)."""
        parts: dict[int, dict[Monomial, int]] = {}
        for m, c in self._t.items():
            parts.setdefault(2 * sum(m), {})[m] = c
        return {
            d: RatPoly._normalized(self.nvars, t, self._den)
            for d, t in sorted(parts.items())
        }

    def graded_degree(self) -> int | None:
        """Graded degree of a homogeneous polynomial; None for zero."""
        degrees = {sum(m) for m in self._t}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("not homogeneous")
        return 2 * degrees.pop()

    # -- substitution ------------------------------------------------

    def substitute_powers(self, j: int, images: Sequence["RatPoly"]) -> "RatPoly":
        """Replace each power w_j^k by images[k], leaving the other variables alone.

        One pass over the terms into one accumulator; images must reach
        the highest power of w_j present (see ``degree_in``).
        """
        den = lcm(*map(_DEN, images))
        t: dict[Monomial, int] = {}
        for m, c in self._t.items():
            image = images[m[j]]
            c *= den // image._den
            rest = m[:j] + (0,) + m[j + 1:]
            for mi, ci in image._t.items():
                key = tuple(map(add, rest, mi))
                t[key] = t.get(key, 0) + c * ci
        return RatPoly._normalized(
            self.nvars, {m: c for m, c in t.items() if c}, self._den * den
        )

    def substitute_monomials(self, images: Mapping[Monomial, "RatPoly"]) -> "RatPoly":
        """The linear map that sends each monomial m to images[m].

        images must hold every monomial present.
        """
        den = lcm(*(images[m]._den for m in self._t))
        t: dict[Monomial, int] = {}
        for m, c in self._t.items():
            image = images[m]
            c *= den // image._den
            for mi, ci in image._t.items():
                t[mi] = t.get(mi, 0) + c * ci
        return RatPoly._normalized(
            self.nvars, {m: c for m, c in t.items() if c}, self._den * den
        )

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Largest monomial in graded-lex order with its coefficient."""
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._t, key=_grlex_key)
        return m, self._fraction(self._t[m])

    # -- rendering ---------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        if not self._t:
            return "0"
        if names is None:
            names = [f"w{i + 1}" for i in range(self.nvars)]
        out = []
        for m, c in reversed(self.items()):
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            vars_part = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e
            )
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            out.append(sign + body)
        return "".join(out)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RatPoly({self.render()})"


def divide_by_linear(f: RatPoly, linear: RatPoly) -> RatPoly:
    """Exact quotient f / linear for a degree-2 homogeneous divisor.

    Works by graded-lex leading-term elimination; raises
    NonDivisibleError when the division leaves a remainder.  The
    Demazure operators do not use it: it is the independent route that
    the checks compare them against.
    """
    if linear.is_zero() or linear.graded_degree() != 2:
        raise ValueError("divisor must be homogeneous of graded degree 2")
    lead_m, lead_c = linear.leading_term()
    k = lead_m.index(1)
    quotient = RatPoly.zero(f.nvars)
    rest = f
    while not rest.is_zero():
        m, c = rest.leading_term()
        if m[k] == 0:
            raise NonDivisibleError(f"{linear!r} does not divide {f!r}")
        qm = tuple(e - 1 if i == k else e for i, e in enumerate(m))
        t = RatPoly(f.nvars, {qm: c / lead_c})
        quotient = quotient + t
        rest = rest - t * linear
    return quotient
