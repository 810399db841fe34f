"""Exact univariate polynomial arithmetic in the variable q.

:class:`Poly` is a dense polynomial (index = power, no trailing zeros)
that keeps its coefficients as they come in: ``int`` arithmetic stays
``int``, and a ``Fraction`` appears only from a rational input or from
dividing by a leading coefficient other than 1 (so ``fractions`` is
imported only in the branches that can make one).  The counting engine works
in it with integer coefficients from start to finish: every local factor,
Poincare polynomial and Mobius sum is an integer polynomial, and the
master formula's only denominators are known in advance -- a power of q, a
power of (q - 1) and the integer |W|^m.  So the engine divides by them
exactly at the end (``Poly.divmod`` by a monic polynomial, then an integer
division per coefficient), and a nonzero remainder is a failed
polynomiality or integrality *check*.  ``CountReport.polynomial`` is that
integer ``Poly``.  Post-processing (``Poly.factored_str``,
``Poly.ord_at_one``) is integer arithmetic too, and close to linear in the
degree: the powers of q - 1 and q + 1 come from one pass of running sums
per factor (``Poly.unit_roots``), and a cyclotomic Phi_d with d >= 3 is
divided out only where a residue mod a prime p = 1 (mod d) allows it.

:class:`RationalPoly` (a reduced fraction num/den of two polynomials with
a monic denominator, so equality is plain coefficient equality) is not
on the count path.  The literal reference computations in ``tests/`` sum
the master formula in it, and ``perfbench/tracer.py`` times its methods.
"""

from __future__ import annotations

import math
from itertools import accumulate, count
from typing import TYPE_CHECKING, Iterable, Sequence

from .abelian import is_prime, prime_factors

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = int | Fraction

# least prime of the filter in ``factored_str``: a body that Phi_d does not
# divide passes the residue test with chance about 1 / p
_FILTER_PRIME_FLOOR = 1 << 16


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

    # ``_split`` holds ``unit_roots()`` once computed
    __slots__ = ("coeffs", "_split")

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
        if isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == _strip([other])

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
        if not isinstance(other, Poly):
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
                    from fractions import Fraction

                    f = Fraction(f) / lead
                quot[i] = f
                for j in range(k):
                    rem[i + j] -= f * d[j]
        return Poly(quot), Poly(rem[:k])

    def monic(self) -> "Poly":
        lead = self.leading()
        if lead in (0, 1):
            return self
        from fractions import Fraction

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

    def unit_roots(self) -> tuple[int, int, int, tuple]:
        """(v, a, b, rest) with self = q^v (q - 1)^a (q + 1)^b Poly(rest).

        ``rest`` does not vanish at 0, 1 or -1; the zero polynomial gives
        (0, 0, 0, ()).  Each factor q - 1 or q + 1 is taken out by one pass
        of running sums (``_peel``).  The result is kept on the value, so
        the vanishing order, the factored display and the error text of a
        count read one computation.
        """
        try:
            return self._split
        except AttributeError:
            pass
        coeffs = self.coeffs
        v = next((i for i, c in enumerate(coeffs) if c), 0)
        a, rest = _peel(coeffs[v:], 1)
        b, rest = _peel(rest, -1)
        self._split = (v, a, b, tuple(rest))
        return self._split

    def ord_at_one(self) -> int:
        """Multiplicity of the root q = 1; 0 for the zero polynomial."""
        return self.unit_roots()[1]

    # -- display ------------------------------------------------------
    def __str__(self) -> str:
        return _format(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def factored_str(self) -> str:
        """Human-readable factorization.

        Pulls out the content (sign normalized to the leading coefficient;
        a ``Fraction`` when a coefficient is one), the power of q, and
        cyclotomic factors Phi_d in increasing d, each only while d is at
        most the degree left; whatever remains is printed expanded.  The
        powers of Phi_1 = q - 1 and Phi_2 = q + 1 come from
        ``unit_roots``.  For d >= 3 the body is first evaluated mod a prime
        p = 1 (mod d) at an element of order d (``_may_vanish``): a nonzero
        residue proves that Phi_d does not divide it, and only the d that
        pass are tried by division.  The factoring is integer arithmetic:
        the coefficients are scaled by the lcm of their denominators first.
        Intended for eyeballing counting polynomials, whose factors are
        overwhelmingly of this shape.
        """
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        val, ones, minus_ones, rest = self.unit_roots()
        # q - 1 and q + 1 are monic, so rest carries all of the content
        scale = math.lcm(*(c.denominator for c in rest))
        ints = [int(c * scale) for c in rest]
        content = math.gcd(*ints)
        if ints[-1] < 0:
            content = -content
        body = [c // content for c in ints]
        if scale != 1:
            from fractions import Fraction

            content = Fraction(content, scale)
        factors: list[tuple[str, int]] = []
        if ones:
            factors.append(("q - 1", ones))
        if minus_ones and len(body) == 1:
            # the body is (q + 1)^b: Phi_2 is taken out only down to degree 2
            minus_ones, body = minus_ones - 1, [1, 1]
        if minus_ones:
            factors.append(("q + 1", minus_ones))
        left = Poly(body)
        table: dict[int, Poly] = {}
        d = 3
        while d <= left.degree():
            if _may_vanish(left.coeffs, d):
                phi, mult = _cyclotomic(d, table), 0
                while d <= left.degree():
                    quot, rem = left.divmod(phi)
                    if rem.coeffs:
                        break
                    left, mult = quot, mult + 1
                if mult:
                    factors.append((str(phi), mult))
            d += 1
        parts = []
        if content != 1 or (val == 0 and not factors and left.coeffs == (1,)):
            parts.append(str(content))
        if val:
            parts.append("q" if val == 1 else f"q^{val}")
        for text, mult in factors:
            parts.append(f"({text})" + (f"^{mult}" if mult > 1 else ""))
        if left.coeffs != (1,):
            parts.append(f"({left})")
        return " * ".join(parts) if parts else "1"


def _peel(coeffs: Sequence[Scalar], root: int) -> tuple[int, list]:
    """(e, quotient) with coeffs = (q - root)^e quotient, quotient(root) != 0.

    ``root`` is 1 or -1 and ``coeffs`` lists a polynomial lowest power
    first.  Synthetic division by q - 1 is a running sum from the top
    coefficient down: the partial sums are the quotient and the last one,
    the value at 1, is the remainder.  For root -1 the signs of the odd
    powers are flipped (q -> -q) before and after.
    """
    work = list(coeffs)
    if root == -1:
        work[1::2] = [-c for c in work[1::2]]
    work.reverse()
    e = 0
    while len(work) > 1:
        sums = list(accumulate(work))
        if sums.pop():
            break
        work, e = sums, e + 1
    work.reverse()
    if root == -1:
        # P(-q) = (q - 1)^e R(q) gives P(q) = (q + 1)^e (-1)^e R(-q)
        flip = slice((e + 1) % 2, None, 2)
        work[flip] = [-c for c in work[flip]]
    return e, work


def _may_vanish(coeffs: Sequence[int], d: int) -> bool:
    """False when Phi_d certainly does not divide the integer polynomial.

    Horner's rule mod a prime p = 1 (mod d) at an element w of order d:
    Phi_d(w) = 0 in F_p, so a multiple of Phi_d vanishes at w.
    """
    p, w = _root_of_unity(d)
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * w + c) % p
    return not acc


def _root_of_unity(d: int) -> tuple[int, int]:
    """A prime p = 1 (mod d) above ``_FILTER_PRIME_FLOOR`` and w of order d in F_p."""
    primes = prime_factors(d)
    step = math.lcm(2, d)
    p = (_FILTER_PRIME_FLOOR // step + 1) * step + 1
    while not is_prime(p):
        p += step
    for g in count(2):
        w = pow(g, (p - 1) // d, p)
        if all(pow(w, d // r, p) != 1 for r in primes):
            return p, w


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


def _coerce(x: RationalPoly | Poly | Scalar) -> RationalPoly:
    from fractions import Fraction

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
    functions have identical coefficient tuples.  Not on the count path, so
    its methods import ``Fraction`` where they use it.
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
            from fractions import Fraction

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
        from fractions import Fraction

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
        from fractions import Fraction

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
