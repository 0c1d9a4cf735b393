"""Integer Laurent polynomials in one variable.

The variable is written ``v`` by default.  The same type doubles as
ordinary polynomials in ``q`` (only nonnegative exponents) when used
for Kazhdan-Lusztig coefficients; rendering picks the variable name.
Arithmetic and equality take ``LaurentPoly`` operands only: ``p + 1``
and ``2 * p`` raise TypeError, and ``p == 1`` is False.

>>> p = LaurentPoly.one() + LaurentPoly.gen() ** 2
>>> str(p)
'1+v^2'
>>> p.bar() == LaurentPoly.parse('1+v^-2')
True
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["LaurentPoly"]

_TERM_RE = re.compile(r"^([+-]?)(\d+)?(?:V(?:\^(-?\d+))?)?$")


class LaurentPoly:
    """Element of Z[v, v^-1], stored sparsely as {exponent: coefficient}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
        c: dict[int, int] = {}
        for e, k in items:
            if k:
                c[e] = c.get(e, 0) + k
                if not c[e]:
                    del c[e]
        self._c = c

    @classmethod
    def _normalized(cls, c: dict[int, int]) -> "LaurentPoly":
        """Wrap a dict that already holds no zero coefficient, without a copy."""
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def gen(cls, exp: int = 1) -> "LaurentPoly":
        """The monomial v^exp."""
        return cls({exp: 1})

    @classmethod
    def term(cls, coef: int, exp: int) -> "LaurentPoly":
        return cls({exp: coef})

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return tuple(sorted(self._c.items()))

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    def max_exp(self) -> int | None:
        return max(self._c) if self._c else None

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, k in other._c.items():
            k += c.get(e, 0)
            if k:
                c[e] = k
            else:
                del c[e]
        return LaurentPoly._normalized(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._normalized({e: -k for e, k in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for e1, k1 in self._c.items():
            for e2, k2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + k1 * k2
        return LaurentPoly._normalized({e: k for e, k in c.items() if k})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self.items())

    # -- Kronecker packing -------------------------------------------

    def pack(self, shift: int, width: int) -> int:
        """The value at v = 2^width times 2^(width*shift): sum of k*2^(width*(e+shift)).

        Every e + shift must be >= 0.  Sums and products of packed
        values are the packed sums and products, exactly, whatever the
        width; unpack reads the result back only if every coefficient
        k satisfies |k| < 2^(width-1).
        """
        return sum(k << width * (e + shift) for e, k in self._c.items())

    @classmethod
    def unpack(cls, n: int, shift: int, width: int) -> "LaurentPoly":
        """Inverse of pack, reading balanced digits in [-2^(width-1), 2^(width-1)).

        >>> p = LaurentPoly.parse('-3v^-2+7+v')
        >>> LaurentPoly.unpack(p.pack(2, 5), 2, 5) == p
        True
        """
        if width < 2:
            raise ValueError(f"a digit of width {width} has no balanced range")
        if not n:
            return cls()
        low = ((n & -n).bit_length() - 1) // width  # zero digits at the bottom
        n >>= low * width
        mask, half = (1 << width) - 1, 1 << (width - 1)
        c: dict[int, int] = {}
        e = low - shift
        while n:
            k = n & mask
            n >>= width
            if k >= half:
                k -= 1 << width
                n += 1
            if k:
                c[e] = k
            e += 1
        return cls._normalized(c)

    # -- structure ---------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return LaurentPoly._normalized({-e: k for e, k in self._c.items()})

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by v^exp."""
        return LaurentPoly._normalized({e + exp: k for e, k in self._c.items()})

    def substitute_power(self, n: int) -> "LaurentPoly":
        """Substitute v -> v^n (n nonzero)."""
        if n == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * n: k for e, k in self._c.items()})

    def evaluate(self, x: int) -> Fraction:
        """Value at v = x; exact, so negative exponents give fractions."""
        from fractions import Fraction

        if x == 0:
            raise ValueError("cannot evaluate at v = 0")
        total = Fraction(0)
        for e, k in self._c.items():
            total += k * Fraction(x) ** e
        return total

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    def is_palindromic(self, center: int) -> bool:
        """True iff the coefficient at center+k equals the one at center-k."""
        return all(k == self._c.get(2 * center - e, 0) for e, k in self._c.items())

    def has_nonnegative_coeffs(self) -> bool:
        return all(k >= 0 for k in self._c.values())

    # -- rendering ---------------------------------------------------

    def render(self, var: str = "v") -> str:
        if not self._c:
            return "0"
        out = []
        for e, k in self.items():
            sign = "-" if k < 0 else ("+" if out else "")
            mag = abs(k)
            if e == 0:
                body = str(mag)
            else:
                coef = "" if mag == 1 else str(mag)
                power = var if e == 1 else f"{var}^{e}"
                body = coef + power
            out.append(sign + body)
        return "".join(out)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"

    @classmethod
    def parse(cls, text: str, var: str = "v") -> "LaurentPoly":
        """Inverse of render; accepts strings like '1+v^2', '-v', '2v^-1'."""
        s = text.strip().replace(" ", "")
        if s in ("", "0"):
            return cls.zero()
        s = s.replace(var, "V")
        chunks: list[str] = []
        start = 0
        for i in range(1, len(s)):
            if s[i] in "+-" and s[i - 1] != "^":
                chunks.append(s[start:i])
                start = i
        chunks.append(s[start:])
        terms: list[tuple[int, int]] = []
        for chunk in chunks:
            m = _TERM_RE.match(chunk)
            if not m or chunk in ("", "+", "-"):
                raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
            sign, coef, exp = m.groups()
            if coef is None and "V" not in chunk:
                raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
            k = int(coef) if coef is not None else 1
            if sign == "-":
                k = -k
            if "V" not in chunk:
                e = 0
            elif exp is None:
                e = 1
            else:
                e = int(exp)
            terms.append((e, k))
        return cls(terms)
