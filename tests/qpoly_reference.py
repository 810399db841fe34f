"""Slow, literal reference for the counting engine's polynomial arithmetic.

``charvar.count`` assembles the master formula on integer polynomials over
one common denominator and factors the result with integer arithmetic.
This module does the same work the direct way, on ``RationalPoly`` values
(``Q``, ``ONE``, ``ZERO`` and ``q_minus`` build the common ones):
each summand carries its own 1/|W(Psi)|^(m-1), the global constant is a
rational function, and every operation reduces by a polynomial gcd.  It
shares with the engine only the poset and the emptiness verdict; its pass
counts come from the per-node join in ``translate_reference``.

Its factoring and vanishing order are the engine's former ones: trial
division by every cyclotomic polynomial Phi_d up to the degree, and
repeated division by q - 1, each by ``Poly.divmod`` with its own
cyclotomic polynomials.  The engine now filters the Phi_d by a residue
mod a prime and takes out q - 1 and q + 1 by running sums; it must print
the same bytes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from charvar.charsum import node_map
from charvar.count import Engine, ProblemSpec
from charvar.qpoly import Poly
from charvar.reference import RationalPoly, enumerate_weyl
from charvar.subsystems import build_poset
from translate_reference import node_pass_counts


def q_minus(c: int | Fraction) -> RationalPoly:
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
    verdict = Engine(spec)
    if not verdict.nonempty:
        return zero
    group = spec.eigenvalues.group
    maps = [node_map(poset.quotient(i), group) for i in range(poset.num_nodes)]
    weyl_order = len(enumerate_weyl(rd))
    d_values = []
    for j, passing in enumerate(node_pass_counts(spec, maps)):
        if poset.orbit_of(j) in verdict.overrides:
            passing = weyl_order ** m if verdict.overrides[poset.orbit_of(j)] else 0
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
    """Phi_n: q^n - 1 divided by Phi_d for each proper divisor d of n.

    ``table`` holds the Phi_d already built; the caller owns it.
    """
    phi = table.get(n)
    if phi is None:
        phi = Poly([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                phi, rem = phi.divmod(cyclotomic(d, table))
                assert rem.is_zero()
        table[n] = phi
    return phi


def factored_str(poly: Poly) -> str:
    """Content, power of q and cyclotomic factors by trial division.

    Every Phi_d with d at most the degree left is tried by ``divmod``, in
    increasing d; what is left is printed expanded.  Coefficients are
    scaled to integers by the lcm of their denominators first.
    """
    coeffs = poly.coeffs
    if not coeffs:
        return "0"
    val = 0
    while coeffs[val] == 0:
        val += 1
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs[val:]]
    content = gcd(*ints)
    if ints[-1] < 0:
        content = -content
    body = Poly([c // content for c in ints])
    if scale != 1:
        content = Fraction(content, scale)
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


def ord_at_one(poly: Poly) -> int:
    """Multiplicity of the root q = 1, by repeated division by q - 1."""
    order, qm1 = 0, Poly([-1, 1])
    while not poly.is_zero():
        poly, remainder = poly.divmod(qm1)
        if not remainder.is_zero():
            break
        order += 1
    return order
