"""Exact univariate polynomial arithmetic in the variable q.

:class:`Poly` is a dense polynomial (index = power, no trailing zeros)
that keeps its coefficients as they come in: ``int`` arithmetic stays
``int``, and a ``Fraction`` appears only from a rational input or from
dividing by a leading coefficient other than 1.  The counting engine works
in it with integer coefficients from start to finish: every local factor,
Poincare polynomial and Mobius sum is an integer polynomial, and the
master formula's only denominators are known in advance -- a power of q, a
power of (q - 1) and the integer |W|^m.  So the engine divides by them
exactly at the end (``Poly.divmod`` by a monic polynomial, then an integer
division per coefficient), and a nonzero remainder is a failed
polynomiality or integrality *check*.  ``CountReport.polynomial`` is that
integer ``Poly``.  Post-processing (``Poly.factored_str``,
``Poly.ord_at_one``) is integer arithmetic too.

:class:`RationalPoly` (a reduced fraction num/den of two polynomials with
a monic denominator, so equality is plain coefficient equality) is not
on the count path.  The literal reference computations in ``tests/`` sum
the master formula in it, and ``perfbench/tracer.py`` times its methods.
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
    """Dense polynomial with ``int`` or ``Fraction`` coefficients; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple[Scalar, ...] = _strip(list(coeffs))

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def q() -> "Poly":
        return Poly([0, 1])

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Scalar:
        return self.coeffs[-1] if self.coeffs else 0

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

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("Poly does not support negative powers")
        result, base = Poly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "Poly":
        """The product with q^k, for k >= 0."""
        return Poly([0] * k + list(self.coeffs)) if self.coeffs else self

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder.

        Each quotient coefficient is divided by the divisor's leading
        coefficient only when that is not 1, so division by a monic
        polynomial keeps integer coefficients integer.
        """
        d = divisor.coeffs
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        k, lead = len(d) - 1, d[-1]
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - k, 0)
        for i in range(len(quot) - 1, -1, -1):
            f = rem[i + k]
            if f:
                if lead != 1:
                    f = Fraction(f) / lead
                quot[i] = f
                for j in range(k):
                    rem[i + j] -= f * d[j]
        return Poly(quot), Poly(rem[:k])

    def monic(self) -> "Poly":
        lead = self.leading()
        if lead in (0, 1):
            return self
        return self * Fraction(1, lead)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def ord_at_one(self) -> int:
        """Multiplicity of the root q = 1; 0 for the zero polynomial."""
        order, poly, qm1 = 0, self, Poly([-1, 1])
        while not poly.is_zero():
            poly, remainder = poly.divmod(qm1)
            if not remainder.is_zero():
                break
            order += 1
        return order

    # -- display ------------------------------------------------------
    def __str__(self) -> str:
        return _format(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def factored_str(self) -> str:
        """Human-readable factorization.

        Pulls out the content (sign normalized to the leading coefficient;
        a ``Fraction`` when a coefficient is one), the power of q, and
        cyclotomic factors by trial division; whatever remains is printed
        expanded.  The factoring itself is integer arithmetic: the
        coefficients are scaled by the lcm of their denominators first.
        Intended for eyeballing counting polynomials, whose factors are
        overwhelmingly of this shape.
        """
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        val = 0
        while coeffs[val] == 0:
            val += 1
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs[val:]]
        content = math.gcd(*ints)
        if ints[-1] < 0:
            content = -content
        body = Poly([c // content for c in ints])
        if scale != 1:
            content = Fraction(content, scale)
        factors: list[tuple[str, int]] = []
        table: dict[int, Poly] = {}
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
        one = Poly([1])
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


def _cyclotomic(n: int, table: dict[int, Poly]) -> Poly:
    """Phi_n: q^n - 1 divided by Phi_d for each proper divisor d of n.

    ``table`` holds the Phi_d already built; the caller owns it.
    """
    phi = table.get(n)
    if phi is None:
        phi = Poly([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                phi = phi.divmod(_cyclotomic(d, table))[0]
        table[n] = phi
    return phi


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, via exact division of q^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    return _cyclotomic(n, {})


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
        if lead != 1:
            num, den = num * Fraction(1, lead), den * Fraction(1, lead)
        self.num, self.den = num, den

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

    def polynomial_coeffs(self) -> tuple[Scalar, ...]:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: ({self.num})/({self.den})")
        return self.num.coeffs

    def degree(self) -> int:
        """Degree of a polynomial value; -1 for zero."""
        self.polynomial_coeffs()
        return self.num.degree()

    def leading_coefficient(self) -> Scalar:
        self.polynomial_coeffs()
        return self.num.leading()

    def evaluate(self, x: Scalar) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={x}")
        return Fraction(self.num.evaluate(x), d)

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
        """``Poly.factored_str`` of a polynomial value; raises on a proper fraction."""
        self.polynomial_coeffs()
        return self.num.factored_str()
