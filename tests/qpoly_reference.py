"""Slow, literal reference for the counting engine's polynomial arithmetic.

``charvar.count`` assembles the master formula on integer polynomials over
one common denominator and factors the result with integer arithmetic.
This module does the same work the direct way, on ``RationalPoly`` values
(``Q``, ``ONE``, ``ZERO`` and ``q_minus`` build the common ones):
each summand carries its own 1/|W(Psi)|^(m-1), the global constant is a
rational function, and every operation reduces by a polynomial gcd.  Its
factoring and vanishing order run ``Poly.divmod`` on ``Fraction``
coefficients, with its own cyclotomic polynomials.  It shares with the
engine only the poset and the emptiness verdict; its pass counts come
from the per-node join in ``translate_reference``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from charvar.charsum import node_map
from charvar.count import ProblemSpec, emptiness
from charvar.qpoly import Poly, RationalPoly, Scalar
from charvar.rootdata import enumerate_weyl
from charvar.subsystems import build_poset
from translate_reference import node_pass_counts


def q_minus(c: Scalar) -> RationalPoly:
    """The linear polynomial q - c."""
    return RationalPoly(Poly([-c, 1]))


ZERO = RationalPoly(Poly())
ONE = RationalPoly.from_int(1)
Q = RationalPoly.q()


def _z_prefactor(rd, m: int, n: int, chi: int) -> RationalPoly:
    """z_factor * |B|^chi: the global constant of the master formula."""
    d = rd.rank
    z = rd.center_invariants.free_rank
    r = rd.semisimple_rank
    qm1 = q_minus(1)
    q = RationalPoly.q()
    z_factor = qm1 ** (z - m * d + z * (m - n)) * q ** (r * (m - n))
    b_chi = q ** (rd.num_positive * chi) * qm1 ** (d * chi)
    return z_factor * b_chi


def reference_polynomial(spec: ProblemSpec) -> RationalPoly:
    """The master formula's value for ``spec``, summed in ``RationalPoly``.

    Zero when the surface is outside the theorem or the verdict is empty.
    The value is returned unchecked: polynomiality and integrality are the
    caller's to test.
    """
    rd = spec.rd
    m, n, chi = spec.m, spec.punctures, spec.chi_exponent
    zero = RationalPoly.from_int(0)
    if spec.genus == 0 and n == 2:
        return zero
    poset = build_poset(rd)
    verdict = emptiness(spec, poset)
    if not verdict.nonempty:
        return zero
    group = spec.eigenvalues.group
    maps = [node_map(poset.quotient(i), group) for i in range(poset.num_nodes)]
    weyl_order = len(enumerate_weyl(rd))
    d_values = []
    for j, passing in enumerate(node_pass_counts(spec, maps)):
        if j in verdict.overrides:
            passing = weyl_order ** m if verdict.overrides[j] else 0
        inv = poset.quotient(j)
        d_values.append(
            q_minus(1) ** inv.free_rank
            * RationalPoly.from_int(inv.torsion_order * passing)
        )
    total = zero
    for i in range(poset.num_nodes):
        inner = zero
        for j, mu in poset.mobius_row(i).items():
            inner = inner + d_values[j] * RationalPoly.from_int(mu)
        if inner.is_zero():
            continue
        weight = RationalPoly.from_int(
            Fraction(1, poset.weyl_order(i) ** (m - 1))
        )
        total = total + weight * RationalPoly(poset.poincare(i)) ** chi * inner
    prefactor = _z_prefactor(rd, m, n, chi) * RationalPoly.from_int(
        Fraction(1, weyl_order)
    )
    return prefactor * total


def cyclotomic(n: int, table: dict[int, Poly]) -> Poly:
    """Phi_n over the rationals, by division of q^n - 1; ``table`` memoizes."""
    if n not in table:
        num = Poly(map(Fraction, [-1] + [0] * (n - 1) + [1]))
        for d in range(1, n):
            if n % d == 0:
                num, rem = num.divmod(cyclotomic(d, table))
                assert rem.is_zero()
        table[n] = num
    return table[n]


def factored_str(poly: Poly) -> str:
    """Content, power of q and cyclotomic factors by ``Fraction`` trial division."""
    coeffs = poly.coeffs
    if not coeffs:
        return "0"
    val = 0
    while coeffs[val] == 0:
        val += 1
    body = Poly(map(Fraction, coeffs[val:]))
    denoms = [c.denominator for c in body.coeffs if c]
    numers = [c.numerator for c in body.coeffs if c]
    content = Fraction(
        gcd(*numers) if len(numers) > 1 else abs(numers[0]),
        lcm(*denoms) if len(denoms) > 1 else denoms[0],
    )
    if body.leading() < 0:
        content = -content
    body = body * (1 / content)
    factors: list[tuple[str, int]] = []
    table: dict[int, Poly] = {}
    d = 1
    while body.degree() > 0 and d <= body.degree():
        phi = cyclotomic(d, table)
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
    parts = []
    if content != 1 or (val == 0 and not factors and body == Poly.const(1)):
        parts.append(str(content))
    if val:
        parts.append("q" if val == 1 else f"q^{val}")
    for text, mult in factors:
        parts.append(f"({text})" + (f"^{mult}" if mult > 1 else ""))
    if body != Poly.const(1):
        parts.append(f"({body})")
    return " * ".join(parts) if parts else "1"


def ord_at_one(poly: Poly) -> int:
    """Multiplicity of the root q = 1, by repeated ``Fraction`` division."""
    order = 0
    qm1 = Poly([Fraction(-1), Fraction(1)])
    while not poly.is_zero():
        quotient, remainder = poly.divmod(qm1)
        if not remainder.is_zero():
            break
        order += 1
        poly = quotient
    return order
