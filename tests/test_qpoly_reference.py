"""The integer polynomial path against its ``Fraction`` reference.

``qpoly_reference`` keeps the direct ``RationalPoly`` assembly of the
master formula and the ``Fraction`` factoring and vanishing order.  The
engine's ``int``-coefficient versions must agree with it: on random products
c * q^k * prod Phi_d^e * (residual), and on the count of every curated
config (the benchmark's problems are checked in
``test_benchmark_digests.py``).
"""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpoly_reference as ref
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
    fractional = Poly(map(Fraction, poly.coeffs))
    assert poly.factored_str() == ref.factored_str(RationalPoly(fractional))
    assert poly.ord_at_one() == ref.ord_at_one(fractional)
    scaled = RationalPoly(Poly(Fraction(c, denominator) for c in poly.coeffs))
    assert scaled.factored_str() == ref.factored_str(scaled)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_count_matches_fraction_reference_on_configs(path):
    spec = build_problem(load_config(str(path)))
    report = count_polynomial(spec)
    assert report.polynomial == ref.reference_polynomial(spec)
    assert report.factored == ref.factored_str(report.polynomial)
