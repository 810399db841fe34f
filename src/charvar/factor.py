"""The factored display of a ``Poly`` and its roots at q = 0, 1 and -1.

Only a count report factors its polynomial, so the package registers
this module lazily: ``Poly.unit_roots`` and ``Poly.factored_str`` call it,
and a process that never counts never compiles it.  Both are integer
arithmetic and close to linear in the degree: the powers of q - 1 and
q + 1 come from one pass of running sums per factor (``unit_roots``), and
a cyclotomic Phi_d with d >= 3 is divided out only where a residue mod a
prime p = 1 (mod d) allows it.
"""

from __future__ import annotations

import math
from itertools import accumulate, count
from typing import TYPE_CHECKING, Sequence

from .abelian import is_prime, prime_factors
from .qpoly import Poly

if TYPE_CHECKING:
    from .qpoly import Scalar

# least prime of the filter in ``factored_str``: a body that Phi_d does not
# divide passes the residue test with chance about 1 / p
_FILTER_PRIME_FLOOR = 1 << 16


def unit_roots(coeffs: Sequence[Scalar]) -> tuple[int, int, int, tuple]:
    """(v, a, b, rest) with coeffs = q^v (q - 1)^a (q + 1)^b rest.

    ``coeffs`` and ``rest`` list polynomials lowest power first; ``rest``
    does not vanish at 0, 1 or -1, and the zero polynomial gives
    (0, 0, 0, ()).  Each factor q - 1 or q + 1 is taken out by one pass of
    running sums (``_peel``).
    """
    v = next((i for i, c in enumerate(coeffs) if c), 0)
    a, rest = _peel(coeffs[v:], 1)
    b, rest = _peel(rest, -1)
    return v, a, b, tuple(rest)


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


def factored_str(poly: Poly) -> str:
    """Human-readable factorization of ``poly``.

    Pulls out the content (sign normalized to the leading coefficient;
    a ``Fraction`` when a coefficient is one), the power of q, and
    cyclotomic factors Phi_d in increasing d, each only while d is at
    most the degree left; whatever remains is printed expanded.  The
    powers of Phi_1 = q - 1 and Phi_2 = q + 1 come from
    ``Poly.unit_roots``.  For d >= 3 the body is first evaluated mod a prime
    p = 1 (mod d) at an element of order d (``_may_vanish``): a nonzero
    residue proves that Phi_d does not divide it, and only the d that
    pass are tried by division.  The factoring is integer arithmetic:
    the coefficients are scaled by the lcm of their denominators first.
    Intended for eyeballing counting polynomials, whose factors are
    overwhelmingly of this shape.
    """
    if not poly.coeffs:
        return "0"
    val, ones, minus_ones, rest = poly.unit_roots()
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
            phi, mult = cyclotomic_from(d, table), 0
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


def cyclotomic_from(n: int, table: dict[int, Poly]) -> Poly:
    """Phi_n: q^n - 1 divided by Phi_d for each proper divisor d of n.

    ``table`` holds the Phi_d already built; the caller owns it.
    """
    phi = table.get(n)
    if phi is None:
        phi = Poly([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                phi = phi.divmod(cyclotomic_from(d, table))[0]
        table[n] = phi
    return phi
