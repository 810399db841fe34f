"""The integer polynomial path against its literal reference.

``qpoly_reference`` keeps the direct ``RationalPoly`` assembly of the
master formula, and the factoring and vanishing order by trial division.
The engine's versions (a residue filter before each division by Phi_d,
running sums for q - 1 and q + 1) must print the same bytes and find the
same order: on random products c * q^k * prod Phi_d^e * (residual), on
products of Phi_d up to d = 300, on random integer polynomials, and on
the count of every curated config (the benchmark's problems are checked in
``test_benchmark_digests.py``), where the report's polynomial must be a
``Poly`` on ``int`` coefficients.  The engine's error text for a count that
is not an integer polynomial must print the reduced ``RationalPoly``.
"""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpoly_reference as ref
from charvar import count
from charvar.cli import build_problem, load_config
from charvar.count import count_polynomial
from charvar.qpoly import Poly, RationalPoly

# sl2_invalid.json has a disconnected center: the engine rejects it
CONFIGS = [
    path
    for path in sorted(
        (pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.json")
    )
    if path.stem != "sl2_invalid"
]


@st.composite
def factored_shapes(draw) -> Poly:
    """c * q^k * a product of cyclotomic factors * a small residual."""
    table: dict[int, Poly] = {}
    poly = Poly([draw(st.integers(-40, 40))]).shift(draw(st.integers(0, 4)))
    for d in draw(st.lists(st.integers(1, 15), max_size=6)):
        poly = poly * Poly(map(int, ref.cyclotomic(d, table).coeffs))
    residual = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    return poly * Poly(residual)


@settings(max_examples=300, deadline=None)
@given(factored_shapes(), st.integers(1, 12))
def test_integer_factoring_matches_fraction_reference(poly, denominator):
    assert {type(c) for c in poly.coeffs} <= {int}
    assert_matches_reference(poly)
    fractional = Poly(map(Fraction, poly.coeffs))
    assert fractional.factored_str() == ref.factored_str(poly)
    assert fractional.ord_at_one() == ref.ord_at_one(poly)
    scaled = Poly(Fraction(c, denominator) for c in poly.coeffs)
    assert scaled.factored_str() == ref.factored_str(scaled)


@st.composite
def cyclotomic_products(draw) -> Poly:
    """+-c * q^k * a product of Phi_d^e with d <= 300, of degree at most 320."""
    table: dict[int, Poly] = {}
    sign = draw(st.sampled_from([-1, 1]))
    poly = Poly([sign * draw(st.integers(1, 60))]).shift(draw(st.integers(0, 5)))
    indices = st.one_of(st.integers(1, 12), st.integers(1, 300))
    for d in draw(st.lists(indices, max_size=6)):
        phi = ref.cyclotomic(d, table)
        for _ in range(draw(st.integers(1, 3))):
            if poly.degree() + phi.degree() <= 320:
                poly = poly * phi
    return poly


def assert_matches_reference(poly: Poly) -> None:
    """Fresh values each time: ``unit_roots`` is kept on the value."""
    assert Poly(poly.coeffs).factored_str() == ref.factored_str(poly)
    assert Poly(poly.coeffs).ord_at_one() == ref.ord_at_one(poly)


@settings(max_examples=30, deadline=None)
@given(cyclotomic_products())
def test_factoring_matches_trial_division_on_cyclotomic_products(poly):
    assert_matches_reference(poly)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=40),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_factoring_matches_trial_division_on_random_polynomials(coeffs, a, b):
    poly = Poly(coeffs) * Poly([-1, 1]) ** a * Poly([1, 1]) ** b
    assert_matches_reference(poly)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from([1, 2, 6, 24, 120]),
)
def test_error_text_matches_rational_reduction(coeffs, ones, low, a, b, denominator):
    """The non-polynomial/non-integral message prints the reduced fraction."""
    total = (Poly(coeffs) * Poly([-1, 1]) ** ones).shift(low)
    value = RationalPoly(total) * ref.q_minus(1) ** a * ref.Q ** b / denominator
    assert count._rational(total, a, b, denominator) == str(value)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_count_matches_fraction_reference_on_configs(path):
    spec = build_problem(load_config(str(path)))
    report = count_polynomial(spec)
    assert report.polynomial == ref.reference_polynomial(spec)
    assert report.factored == ref.factored_str(report.polynomial)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_report_polynomial_is_an_integer_poly(path):
    """Every curated count is a ``Poly`` on ``int`` coefficients, valued in ``int``."""
    report = count_polynomial(build_problem(load_config(str(path))))
    assert type(report.polynomial) is Poly
    assert all(type(c) is int for c in report.polynomial.coeffs)
    for q in (2, 3, 5, 7, 11):
        assert type(report.polynomial.evaluate(q)) is int
