"""Exact univariate polynomial arithmetic in the variable q.

:class:`IntPoly` is a dense polynomial with ``int`` coefficients (index =
power, no trailing zeros).  The counting engine works in it from start to
finish: every local factor, Poincare polynomial and Mobius sum has integer
coefficients, and the master formula's only denominators are known
in advance -- a power of q, a power of (q - 1) and the integer |W|^m.  So
the engine divides by them exactly at the end (``IntPoly.divmod`` by a
monic polynomial, then an integer division per coefficient), and a nonzero
remainder is a failed polynomiality or integrality *check*.  Post-processing
(``IntPoly.factored_str``) is integer arithmetic too.

:class:`Poly` (``fractions.Fraction`` coefficients) and :class:`RationalPoly`
(a reduced fraction num/den of two such polynomials with a monic
denominator, so equality is plain coefficient equality) are the public
boundary: ``CountReport.polynomial`` is a ``RationalPoly``, and Poincare
polynomials are ``Poly`` values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _strip(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _format(coeffs: Sequence[Scalar]) -> str:
    """Display form, highest power first: ``3*q^3 - 2*q + 1``."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "q" if i == 1 else f"q^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class Poly:
    """Dense polynomial over the rationals; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple[Fraction, ...] = _strip([Fraction(c) for c in coeffs])

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([Fraction(c)])

    @staticmethod
    def q() -> "Poly":
        return Poly([0, 1])

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        return Poly([c * x for x in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("Poly does not support negative powers; use RationalPoly")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq, dd = len(rem) - 1, other.degree()
        lead = other.leading()
        quot = [Fraction(0)] * max(dq - dd + 1, 0)
        for i in range(dq, dd - 1, -1):
            if rem and len(rem) - 1 == i and rem[-1] != 0:
                f = rem[-1] / lead
                quot[i - dd] = f
                for j, c in enumerate(other.coeffs):
                    rem[i - dd + j] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display ------------------------------------------------------
    def __str__(self) -> str:
        return _format(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"


class IntPoly:
    """Dense polynomial with integer coefficients; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs: tuple[int, ...] = _strip(list(coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("IntPoly does not support negative powers")
        result, base = IntPoly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """The product with q^k, for k >= 0."""
        return IntPoly([0] * k + list(self.coeffs)) if self.coeffs else self

    def divmod(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and remainder on division by a monic polynomial.

        Both are integer polynomials because the divisor is monic.
        """
        d = divisor.coeffs
        if not d or d[-1] != 1:
            raise ValueError("IntPoly divides only by monic polynomials")
        k = len(d) - 1
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - k, 0)
        for i in range(len(quot) - 1, -1, -1):
            f = rem[i + k]
            if f:
                quot[i] = f
                for j in range(k):
                    rem[i + j] -= f * d[j]
        return IntPoly(quot), IntPoly(rem[:k])

    def ord_at_one(self) -> int:
        """Multiplicity of the root q = 1; 0 for the zero polynomial."""
        order, poly, qm1 = 0, self, IntPoly([-1, 1])
        while not poly.is_zero():
            poly, remainder = poly.divmod(qm1)
            if not remainder.is_zero():
                break
            order += 1
        return order

    def __str__(self) -> str:
        return _format(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self})"

    def factored_str(self, unit: Scalar = 1) -> str:
        """Human-readable factorization of ``unit`` times this polynomial.

        Pulls out the content (sign normalized to the leading coefficient),
        the power of q, and cyclotomic factors by trial division; whatever
        remains is printed expanded.  Intended for eyeballing counting
        polynomials, whose factors are overwhelmingly of this shape.
        """
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        val = 0
        while coeffs[val] == 0:
            val += 1
        content = math.gcd(*coeffs)
        if coeffs[-1] < 0:
            content = -content
        body = IntPoly([c // content for c in coeffs[val:]])
        content = content * unit
        factors: list[tuple[str, int]] = []
        table: dict[int, IntPoly] = {}
        d = 1
        while body.degree() > 0 and d <= body.degree():
            phi = _cyclotomic(d, table)
            if phi.degree() > body.degree():
                d += 1
                continue
            quot, rem = body.divmod(phi)
            if rem.is_zero():
                if factors and factors[-1][0] == str(phi):
                    factors[-1] = (factors[-1][0], factors[-1][1] + 1)
                else:
                    factors.append((str(phi), 1))
                body = quot
            else:
                d += 1
        one = IntPoly([1])
        parts = []
        if content != 1 or (val == 0 and not factors and body == one):
            parts.append(str(content))
        if val:
            parts.append("q" if val == 1 else f"q^{val}")
        for text, mult in factors:
            parts.append(f"({text})" + (f"^{mult}" if mult > 1 else ""))
        if body != one:
            parts.append(f"({body})")
        return " * ".join(parts) if parts else "1"


def _cyclotomic(n: int, table: dict[int, IntPoly]) -> IntPoly:
    """Phi_n: q^n - 1 divided by Phi_d for each proper divisor d of n.

    ``table`` holds the Phi_d already built; the caller owns it.
    """
    phi = table.get(n)
    if phi is None:
        phi = IntPoly([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                phi = phi.divmod(_cyclotomic(d, table))[0]
        table[n] = phi
    return phi


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, via exact division of q^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    return Poly(_cyclotomic(n, {}).coeffs)


def _coerce(x: Union["RationalPoly", Poly, Scalar]) -> "RationalPoly":
    if isinstance(x, RationalPoly):
        return x
    if isinstance(x, Poly):
        return RationalPoly(x)
    if isinstance(x, (int, Fraction)):
        return RationalPoly(Poly.const(x))
    raise TypeError(f"cannot coerce {type(x)!r} to RationalPoly")


class RationalPoly:
    """Quotient num/den of exact polynomials in q, kept fully reduced.

    Canonical form: gcd(num, den) = 1 and den monic, so two equal rational
    functions have identical coefficient tuples.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:  # a polynomial over 1 is already reduced
            self.num, self.den = num, Poly.const(1)
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.const(1)
            return
        g = num.gcd(den)
        num, r1 = num.divmod(g)
        den, r2 = den.divmod(g)
        assert r1.is_zero() and r2.is_zero()
        lead = den.leading()
        self.num = num.scale(1 / lead)
        self.den = den.scale(1 / lead)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(c: Scalar) -> "RationalPoly":
        return RationalPoly(Poly.const(c))

    @staticmethod
    def q() -> "RationalPoly":
        return RationalPoly(Poly.q())

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar]) -> "RationalPoly":
        return RationalPoly(Poly(coeffs))

    # -- predicates / extraction --------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Poly.const(1)

    def polynomial_coeffs(self) -> tuple[Fraction, ...]:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: ({self.num})/({self.den})")
        return self.num.coeffs

    def degree(self) -> int:
        """Degree of a polynomial value; -1 for zero."""
        self.polynomial_coeffs()
        return self.num.degree()

    def leading_coefficient(self) -> Fraction:
        self.polynomial_coeffs()
        return self.num.leading()

    def evaluate(self, x: Scalar) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={x}")
        return self.num.evaluate(x) / d

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "RationalPoly":
        o = _coerce(other)
        return RationalPoly(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(-self.num, self.den)

    def __sub__(self, other) -> "RationalPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "RationalPoly":
        o = _coerce(other)
        return RationalPoly(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalPoly":
        o = _coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalPoly(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RationalPoly":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "RationalPoly":
        if n >= 0:
            return RationalPoly(self.num ** n, self.den ** n)
        if self.is_zero():
            raise ZeroDivisionError("zero to a negative power")
        return RationalPoly(self.den ** (-n), self.num ** (-n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RationalPoly, Poly, int, Fraction)):
            o = _coerce(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- display ------------------------------------------------------
    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalPoly({self})"

    def factored_str(self) -> str:
        """``IntPoly.factored_str`` of a polynomial value with rational coefficients.

        The coefficients are scaled to integers by the lcm of their
        denominators, which the content then divides back out.
        """
        coeffs = self.polynomial_coeffs()
        scale = math.lcm(*(c.denominator for c in coeffs))
        return IntPoly([int(c * scale) for c in coeffs]).factored_str(
            Fraction(1, scale)
        )

ZERO = RationalPoly(Poly())
ONE = RationalPoly.from_int(1)
Q = RationalPoly.q()


def q_minus(c: Scalar) -> RationalPoly:
    """The linear polynomial q - c."""
    return RationalPoly(Poly([-c, 1]))
