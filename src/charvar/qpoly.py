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
degree; its code is in ``factor``, which the package registers lazily, so
only a process that factors a count compiles it.

``RationalPoly``, a reduced fraction of two polynomials in which the
reference computations in ``tests/`` sum the master formula, and
``cyclotomic`` live in ``reference``, which no command compiles; this
module serves them from there through ``__getattr__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from . import factor, reference

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = int | Fraction


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
        if hasattr(other, "den"):  # a ``RationalPoly`` compares itself
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

    def evaluate(self, x: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def unit_roots(self) -> tuple[int, int, int, tuple]:
        """(v, a, b, rest) with self = q^v (q - 1)^a (q + 1)^b Poly(rest).

        Computed by ``factor.unit_roots`` and kept on the value, so the
        vanishing order, the factored display and the error text of a
        count read one computation.
        """
        try:
            return self._split
        except AttributeError:
            self._split = factor.unit_roots(self.coeffs)
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
        """Human-readable factorization (``factor.factored_str``)."""
        return factor.factored_str(self)


def __getattr__(name: str):
    if name in ("RationalPoly", "cyclotomic"):
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
