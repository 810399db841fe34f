"""Exact polynomial/rational-function arithmetic, cross-checked against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.qpoly import Poly, RationalPoly, cyclotomic
from charvar.reference import monic, poly_gcd
from qpoly_reference import ONE, Q, ZERO, q_minus

qs = sympy.Symbol("q")


def to_sympy(p: Poly):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in p.coeffs])) or [0], qs)


coeff = st.integers(min_value=-9, max_value=9)
poly_coeffs = st.lists(coeff, min_size=0, max_size=6)


@given(poly_coeffs, poly_coeffs)
def test_ring_ops_match_sympy(a, b):
    pa, pb = Poly(a), Poly(b)
    assert to_sympy(pa + pb) == to_sympy(pa) + to_sympy(pb)
    assert to_sympy(pa - pb) == to_sympy(pa) - to_sympy(pb)
    assert to_sympy(pa * pb) == to_sympy(pa) * to_sympy(pb)
    assert to_sympy(pa ** 3) == to_sympy(pa) ** 3


@given(poly_coeffs, poly_coeffs)
def test_divmod_is_exact_division_with_remainder(a, b):
    pa, pb = Poly(a), Poly(b)
    if pb.is_zero():
        with pytest.raises(ZeroDivisionError):
            pa.divmod(pb)
        return
    quot, rem = pa.divmod(pb)
    assert quot * pb + rem == pa
    assert rem.degree() < pb.degree() or rem.is_zero()


@given(poly_coeffs, poly_coeffs)
def test_int_divmod_by_monic_divisor(a, b):
    dividend, divisor = Poly(a), Poly(b + [1])
    quot, rem = dividend.divmod(divisor)
    assert quot * divisor + rem == dividend
    assert rem.degree() < divisor.degree()
    assert all(type(c) is int for c in quot.coeffs + rem.coeffs)
    # a non-monic divisor gives an exact rational quotient
    divisor = Poly(b + [2])
    quot, rem = dividend.divmod(divisor)
    assert quot * divisor + rem == dividend
    assert rem.degree() < divisor.degree()
    assert all(type(c) in (int, Fraction) for c in quot.coeffs + rem.coeffs)


def _types(*polys: Poly) -> set[type]:
    return {type(c) for p in polys for c in p.coeffs}


@given(poly_coeffs, poly_coeffs, st.integers(-9, 9), st.integers(0, 4))
def test_int_arithmetic_stays_int(a, b, c, k):
    pa, pb, monic = Poly(a), Poly(b), Poly(b + [1])
    results = [pa + pb, pa - pb, pa * pb, pa * c, pa ** k, pa.shift(k)]
    results += pa.divmod(monic)
    assert _types(*results) <= {int}
    assert type(pa.ord_at_one()) is int
    assert "/" not in pa.factored_str()


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
mixed_coeffs = st.lists(st.one_of(coeff, fractions), max_size=6)


@given(mixed_coeffs, mixed_coeffs, st.one_of(coeff, fractions), st.integers(0, 3))
def test_mixed_arithmetic_never_floats(a, b, c, k):
    pa, pb = Poly(a), Poly(b)
    results = [pa + pb, pa - pb, pa * pb, pa * c, pa ** k, pa.shift(k), monic(pa)]
    if not pb.is_zero():
        results += pa.divmod(pb)
        results.append(poly_gcd(pa, pb))
        r = RationalPoly(pa, pb)
        results += [r.num, r.den]
    assert _types(*results) <= {int, Fraction}
    assert type(pa.evaluate(c)) in (int, Fraction)


@given(poly_coeffs, poly_coeffs)
def test_gcd_divides_both(a, b):
    pa, pb = Poly(a), Poly(b)
    g = poly_gcd(pa, pb)
    if g.is_zero():
        assert pa.is_zero() and pb.is_zero()
        return
    assert pa.divmod(g)[1].is_zero()
    assert pb.divmod(g)[1].is_zero()
    assert g.leading() == 1


@given(poly_coeffs, st.integers(min_value=-20, max_value=20))
def test_evaluate_matches_sympy(a, x):
    p = Poly(a)
    assert p.evaluate(x) == sympy.Rational(to_sympy(p).eval(x))


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(3) == Poly([1, 1, 1])
    assert cyclotomic(4) == Poly([1, 0, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    # product over divisors reassembles q^n - 1
    for n in (1, 2, 3, 4, 6, 12):
        prod = Poly.const(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == Poly([-1] + [0] * (n - 1) + [1])


@given(poly_coeffs, poly_coeffs, poly_coeffs)
@settings(max_examples=60)
def test_rational_reduction_is_canonical(a, b, c):
    # (a*c)/(b*c) must normalize to the same representation as a/b
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    if pb.is_zero() or pc.is_zero():
        return
    r1 = RationalPoly(pa, pb)
    r2 = RationalPoly(pa * pc, pb * pc)
    assert r1 == r2
    assert r1.num.coeffs == r2.num.coeffs and r1.den.coeffs == r2.den.coeffs
    assert r1.den.leading() == 1


def test_rational_arithmetic_and_power():
    q = Q
    zeta = (q - 1) ** (-3) * (q ** 2 - q)  # (q^2-q)/(q-1)^3 = q/(q-1)^2
    assert zeta == RationalPoly(Poly([0, 1]), Poly([1, -2, 1]))
    assert not zeta.is_polynomial()
    # multiplying back by (q-1)^2 recovers the polynomial q
    assert (zeta * (q - 1) ** 2) == q
    assert (zeta * (q - 1) ** 2).polynomial_coeffs() == (Fraction(0), Fraction(1))
    assert (q ** 0) == ONE
    assert ZERO + q == q
    assert q / q == ONE
    with pytest.raises(ValueError):
        zeta.polynomial_coeffs()


def test_negative_powers_and_scalar_mixing():
    q = Q
    expr = 2 * (q - 1) ** (-1) * (q ** 2 - 1) - (q + 1)
    assert expr == q + 1
    assert expr.degree() == 1
    assert expr.leading_coefficient() == 1
    assert expr.evaluate(7) == 8


def test_factored_str_pulls_cyclotomic_factors():
    q = Q
    p = 2 * q ** 2 * (q - 1) ** 3 * (q + 1) * (q ** 2 + q + 1)
    s = p.factored_str()
    assert s == "2 * q^2 * (q - 1)^3 * (q + 1) * (q^2 + q + 1)"
    # non-cyclotomic remainder is printed expanded
    assert (q * (q + 3)).factored_str() == "q * (q + 3)"
    assert ZERO.factored_str() == "0"
    assert ONE.factored_str() == "1"
    assert RationalPoly.from_int(-6).factored_str() == "-6"


def test_display():
    assert str(Poly([1, -2, 0, 3])) == "3*q^3 - 2*q + 1"
    assert str(Poly()) == "0"
    assert str(q_minus(1)) == "q - 1"
    assert str((Q - 1) ** (-1) * 2) == "(2)/(q - 1)"
