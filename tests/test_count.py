"""Tests for the counting engine.

Expected polynomials come from three independent sources, all frozen here:

* rank-1 and GL cases worked out by hand through Mobius inversion on the
  two- and five-node posets (pencil arithmetic, performed before the
  engine existed);
* small-field brute-force counts (see test_oracle.py) pinning the values
  at specific q;
* the SO(5) and G2 closed-form displays, reproduced term by term with the
  indicator overrides that present them as formulas in free indicator
  values.
"""

import functools
import importlib.util
import json
import pathlib
import time
from collections import Counter

import pytest

import qpoly_reference
from charvar import charsum, cli, cli_count, count, rootdata
from charvar.abelian import AdditiveMap
from charvar.charsum import EigenvalueDatum, SymbolicTorusElement, node_map
from charvar.count import (
    CountReport,
    Engine,
    ProblemSpec,
    count_polynomial,
    expected_dimension,
)
from charvar.errors import (
    HypothesisError,
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from charvar.qpoly import Poly, RationalPoly
from charvar.rootdata import RootDatum, build_root_datum
from charvar.subsystems import SubsystemPoset, build_poset
from qpoly_reference import ONE, Q, q_minus
from translate_reference import node_pass_counts

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def make_spec(group, genus, punctures, symbols, relations, classes, overrides=()):
    datum = EigenvalueDatum(tuple(symbols), tuple(relations))
    return ProblemSpec(
        rd=build_root_datum(group),
        genus=genus,
        punctures=punctures,
        eigenvalues=datum,
        semisimple_classes=tuple(
            SymbolicTorusElement.from_words(datum, words) for words in classes
        ),
        overrides=tuple(overrides),
    )


# ---------------------------------------------------------------------------
# GL(2): all four surface shapes worked by hand on the two-node poset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("genus", [1, 2])
def test_gl2_genus_one_semisimple_one_unipotent(genus):
    spec = make_spec("GL(2)", genus, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]])
    report = count_polynomial(spec)
    g = genus
    expected = (
        Q ** (2 * g - 1) * q_minus(1) ** (4 * g - 1) * ((Q + 1) ** (2 * g) - 1)
    )
    assert report.polynomial == expected
    assert not report.is_empty
    assert report.euler_characteristic == 0
    assert report.num_components == 1
    assert report.leading_coefficient == 1
    assert report.degree == expected_dimension(spec)
    assert report.warnings == ()


def test_gl2_sphere_three_punctures_generic():
    spec = make_spec(
        "GL(2)", 0, 3,
        ["a", "b", "c", "d"], ["a*b*c*d = 1"],
        [["a", "b"], ["c", "d"]],
    )
    report = count_polynomial(spec)
    assert report.polynomial == ONE
    assert report.warnings == ()


def test_gl2_sphere_three_punctures_coincident_eigenvalues():
    # the second class is forced to be the inverse pair of the first
    spec = make_spec(
        "GL(2)", 0, 3,
        ["a", "b", "c", "d"], ["a*c = 1", "b*d = 1"],
        [["a", "b"], ["c", "d"]],
    )
    report = count_polynomial(spec)
    assert report.polynomial == RationalPoly.from_int(2)


def test_gl2_sphere_one_semisimple_two_unipotent():
    spec = make_spec("GL(2)", 0, 3, ["a", "b"], ["a*b = 1"], [["a", "b"]])
    report = count_polynomial(spec)
    assert report.polynomial == ONE


def test_gl2_sphere_four_punctures_three_semisimple():
    spec = make_spec(
        "GL(2)", 0, 4, ["a", "b"], ["a*b = 1"],
        [["a", "b"], ["a", "b"], ["a", "b"]],
    )
    report = count_polynomial(spec)
    assert report.polynomial == Q * (Q + 3)
    assert report.degree == expected_dimension(spec) == 2
    assert report.warnings == ()


def test_gl2_sphere_four_punctures_two_semisimple():
    spec = make_spec(
        "GL(2)", 0, 4,
        ["a", "b", "c", "d"], ["a*b*c*d = 1"],
        [["a", "b"], ["c", "d"]],
    )
    report = count_polynomial(spec)
    assert report.polynomial == Q ** 2 + 2 * Q - 1
    assert report.warnings == ()


# ---------------------------------------------------------------------------
# PGL(2): rigid three-punctured sphere, two semisimple classes
# ---------------------------------------------------------------------------


def test_pgl2_rigid_generic():
    # eigenvalue ratios a, b with ab a perfect square: two rigid points
    spec = make_spec(
        "PGL(2)", 0, 3, ["a", "b", "t"], ["a*b = t^2"], [["a"], ["b"]]
    )
    report = count_polynomial(spec)
    assert report.polynomial == RationalPoly.from_int(2)
    assert report.warnings == ()


def test_pgl2_rigid_inverse_pair():
    # b = 1/a adds a third point
    spec = make_spec("PGL(2)", 0, 3, ["a", "b"], ["a*b = 1"], [["a"], ["b"]])
    report = count_polynomial(spec)
    assert report.polynomial == RationalPoly.from_int(3)


# ---------------------------------------------------------------------------
# GL(3): the five-node partition poset, genus one and the sphere
# ---------------------------------------------------------------------------


def test_gl3_genus_one_generic():
    spec = make_spec(
        "GL(3)", 1, 2, ["a", "b", "c"], ["a*b*c = 1"], [["a", "b", "c"]]
    )
    report = count_polynomial(spec)
    bracket = (Q + 1) ** 2 * (Q ** 2 + Q + 1) ** 2 - 3 * (Q + 1) ** 2 + 2
    expected = Q ** 4 * q_minus(1) ** 4 * bracket
    assert report.polynomial == expected
    assert report.euler_characteristic == 0
    assert report.num_components == 1
    assert report.warnings == ()


def test_gl3_genus_one_unit_eigenvalue():
    # eigenvalues (a, 1/a, 1): two extra rank-one subsystems light up
    spec = make_spec(
        "GL(3)", 1, 2, ["a"], [], [["a", "a^-1", "1"]]
    )
    report = count_polynomial(spec)
    bracket = (
        (Q + 1) ** 2 * (Q ** 2 + Q + 1) ** 2
        - 3 * (Q + 1) ** 2
        + (Q - 1) * (Q + 1) ** 2
        - Q
        + 3
    )
    expected = Q ** 4 * q_minus(1) ** 4 * bracket
    assert report.polynomial == expected
    assert report.euler_characteristic == 0
    assert report.warnings == ()


def test_gl3_sphere_four_punctures_three_semisimple():
    # all three classes share determinant a primitive cube root of unity
    spec = make_spec(
        "GL(3)", 0, 4,
        ["a", "b", "c"], ["a^3*b^3*c^3 = 1"],
        [["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"]],
    )
    report = count_polynomial(spec)
    expected = Q ** 4 * (Q ** 4 + 6 * Q ** 3 + 19 * Q ** 2 + 42 * Q + 46)
    assert report.polynomial == expected
    assert report.warnings == ()


def test_gl3_sphere_four_punctures_two_semisimple():
    spec = make_spec(
        "GL(3)", 0, 4,
        ["a", "b", "c", "d", "e", "f"], ["a*b*c*d*e*f = 1"],
        [["a", "b", "c"], ["d", "e", "f"]],
    )
    report = count_polynomial(spec)
    bracket = (Q + 1) ** 2 * (Q ** 2 + Q + 1) ** 2 - 9 * (Q + 1) ** 2 + 12
    assert report.polynomial == Q ** 2 * bracket
    assert report.warnings == ()


def test_gl3_class_order_is_irrelevant():
    datum = EigenvalueDatum(("a", "b", "c", "d", "e", "f"), ("a*b*c*d*e*f = 1",))
    s1 = SymbolicTorusElement.from_words(datum, ["a", "b", "c"])
    s2 = SymbolicTorusElement.from_words(datum, ["d", "e", "f"])
    rd = build_root_datum("GL(3)")
    one_way = count_polynomial(
        ProblemSpec(rd, 0, 3, datum, (s1, s2))
    ).polynomial
    other = count_polynomial(
        ProblemSpec(rd, 0, 3, datum, (s2, s1))
    ).polynomial
    assert one_way == other


# ---------------------------------------------------------------------------
# Tori: no roots, the count is a pure power of (q - 1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,genus", [(1, 1), (1, 2), (2, 1), (3, 2)])
def test_torus_identity_classes(d, genus):
    spec = make_spec(
        f"T({d})", genus, 2, ["a"], [], [["1"] * d]
    )
    report = count_polynomial(spec)
    assert report.polynomial == q_minus(1) ** (2 * genus * d)
    assert report.num_components == 1
    assert report.warnings == ()


def test_torus_two_classes_multiplying_to_one():
    spec = make_spec("T(1)", 1, 3, ["a"], [], [["a"], ["a^-1"]])
    report = count_polynomial(spec)
    assert report.polynomial == q_minus(1) ** 2


def test_torus_nontrivial_product_is_empty():
    spec = make_spec("T(1)", 1, 2, ["a"], [], [["a"]])
    report = count_polynomial(spec)
    assert report.is_empty
    assert report.polynomial.is_zero()
    assert "commutator" in report.empty_reason


# ---------------------------------------------------------------------------
# SO(5) and G2: closed-form displays via indicator overrides
# ---------------------------------------------------------------------------

SO5_OVERRIDES = (("C2", True), ("A1xA1", True), ("A1", False), ("empty", False))


def test_so5_display_formula():
    spec = make_spec(
        "SO(5)", 1, 2, ["a", "b"], [], [["a", "b"]], overrides=SO5_OVERRIDES
    )
    report = count_polynomial(spec)
    p_c2 = (Q + 1) ** 2 * (Q ** 2 + 1)
    display = (
        2 * p_c2 ** 2
        + 2 * (Q + 1) ** 4
        - 12 * (Q + 1) ** 2
        + 8
    )
    assert report.polynomial == Q ** 6 * q_minus(1) ** 2 * display
    assert report.leading_coefficient == 2
    assert report.num_components == 2
    assert report.euler_characteristic == 0
    # the overrides deliberately contradict the relation-forced indicators
    assert any("C2" in w for w in report.warnings)
    assert any("A1xA1" in w for w in report.warnings)
    assert not any("A1-long" in w for w in report.warnings)


def test_so5_diagnostic_table():
    spec = make_spec(
        "SO(5)", 1, 2, ["a", "b"], [], [["a", "b"]], overrides=SO5_OVERRIDES
    )
    report = count_polynomial(spec)
    rows = {r.label: r for r in report.table}
    assert [r.label for r in report.table] == [
        "C2", "A1xA1", "A1-long", "A1-short", "empty"
    ]
    assert rows["C2"].orbit_size == 1
    assert rows["A1-long"].orbit_size == 2
    assert rows["A1-short"].orbit_size == 2
    assert (rows["C2"].delta, rows["C2"].alpha) == ("2", "2")
    assert (rows["A1xA1"].delta, rows["A1xA1"].alpha) == ("4", "2")
    assert (rows["A1-long"].delta, rows["A1-long"].alpha) == ("0", "-4")
    assert (rows["A1-short"].delta, rows["A1-short"].alpha) == ("0", "-2")
    assert (rows["empty"].delta, rows["empty"].alpha) == ("0", "8")
    assert all(r.overridden for r in report.table)


G2_OVERRIDES = (
    ("G2", True), ("A2", True), ("A1xA1", True), ("A1", False), ("empty", False)
)


def test_g2_display_formula():
    spec = make_spec(
        "G2", 1, 2, ["a", "b"], [], [["a", "b"]], overrides=G2_OVERRIDES
    )
    report = count_polynomial(spec)
    p_g2 = (Q + 1) * (Q ** 5 + Q ** 4 + Q ** 3 + Q ** 2 + Q + 1)
    p_a2 = (Q + 1) * (Q ** 2 + Q + 1)
    display = (
        p_g2 ** 2
        + 2 * p_a2 ** 2
        + 3 * (Q + 1) ** 4
        - 18 * (Q + 1) ** 2
        + 12
    )
    assert report.polynomial == Q ** 10 * q_minus(1) ** 2 * display
    assert report.leading_coefficient == 1
    assert report.num_components == 1
    assert report.degree == expected_dimension(spec) == 24
    assert report.warnings != ()


def test_g2_diagnostic_table():
    spec = make_spec(
        "G2", 1, 2, ["a", "b"], [], [["a", "b"]], overrides=G2_OVERRIDES
    )
    report = count_polynomial(spec)
    assert [(r.label, r.orbit_size) for r in report.table] == [
        ("G2", 1), ("A2", 1), ("A1xA1", 3),
        ("A1-long", 3), ("A1-short", 3), ("empty", 1),
    ]
    rows = {r.label: r for r in report.table}
    assert (rows["G2"].delta, rows["G2"].alpha) == ("1", "1")
    assert (rows["A2"].delta, rows["A2"].alpha) == ("3", "2")
    assert (rows["A1xA1"].delta, rows["A1xA1"].alpha) == ("2", "1")
    assert (rows["A1-long"].delta, rows["A1-long"].alpha) == ("0", "-4")
    assert (rows["A1-short"].delta, rows["A1-short"].alpha) == ("0", "-2")
    assert (rows["empty"].delta, rows["empty"].alpha) == ("0", "12")


@pytest.mark.parametrize("override, bad", [(True, 6), (False, 2)])
def test_override_mismatch_counts_translate_products(override, bad):
    # a*c*e = b*d*f = 1: of the 2^3 translate products exactly the two with
    # all classes swapped alike are trivial, so the empty-node indicator
    # holds for 2 of 8 products and an override disagrees with 6 or 2
    spec = make_spec(
        "GL(2)", 0, 4, list("abcdef"), ["a*c*e = 1", "b*d*f = 1"],
        [["a", "b"], ["c", "d"], ["e", "f"]],
        overrides=(("empty", override),),
    )
    report = count_polynomial(spec)
    assert report.warnings == (
        "override for empty: relation-forced indicator disagrees for "
        f"{bad} of 8 translate products (override wins)",
    )


@pytest.mark.parametrize("override", [True, False])
def test_override_mismatch_counts_every_orbit_member(override):
    """An override on GL(3)'s A1 orbit, three nodes, tallies the translate
    products of all three: 3 * 6^2 = 108 of them.  The disagreements are
    summed from the per-node reference join on per-node maps."""
    spec = make_spec(
        "GL(3)", 0, 3, list("abcdef"), ["a*d = 1", "b*e = 1", "c*f = 1"],
        [["a", "b", "c"], ["d", "e", "f"]],
        overrides=(("A1", override),),
    )
    poset = build_poset(spec.rd)
    group = spec.eigenvalues.group
    maps = [node_map(poset.quotient(i), group) for i in range(poset.num_nodes)]
    passing = node_pass_counts(spec, maps)
    members = [j for j in range(poset.num_nodes) if poset.type_label(j) == "A1"]
    assert len(members) == 3
    bad = sum(36 - passing[j] if override else passing[j] for j in members)
    assert bad % 3 == 0 and 0 < bad < 108
    report = count_polynomial(spec)
    assert report.warnings == (
        "override for A1: relation-forced indicator disagrees for "
        f"{bad} of 108 translate products (override wins)",
    )


# ---------------------------------------------------------------------------
# Emptiness, degenerate surfaces, and hypothesis failures
# ---------------------------------------------------------------------------


def test_empty_when_product_outside_commutator():
    # det S = ab is not constrained to 1, so the variety is empty
    spec = make_spec("GL(2)", 1, 2, ["a", "b"], [], [["a", "b"]])
    report = count_polynomial(spec)
    assert report.is_empty
    assert report.polynomial.is_zero()
    assert "commutator" in report.empty_reason
    assert report.table  # diagnostics still present


def test_sphere_with_two_punctures_is_nonhyperbolic():
    spec = make_spec("GL(2)", 0, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]])
    report = count_polynomial(spec)
    assert report.is_empty
    assert "nonhyperbolic" in report.empty_reason
    assert report.table == ()


def test_disconnected_center_rejected():
    datum = EigenvalueDatum(("a",), ())
    rd = build_root_datum("SL(2)")
    s = SymbolicTorusElement.from_words(datum, ["a"])
    with pytest.raises(HypothesisError) as err:
        count_polynomial(ProblemSpec(rd, 1, 2, datum, (s,)))
    assert err.value.code == "connected-center"


def test_strongly_regular_required():
    spec = make_spec("GL(2)", 1, 2, ["a"], [], [["a", "a"]])
    with pytest.raises(HypothesisError) as err:
        count_polynomial(spec)
    assert err.value.code == "strongly-regular"


def test_at_least_one_semisimple_class():
    datum = EigenvalueDatum(("a",), ())
    rd = build_root_datum("GL(2)")
    with pytest.raises(HypothesisError) as err:
        count_polynomial(ProblemSpec(rd, 1, 2, datum, ()))
    assert err.value.code == "class-counts"


def test_at_least_one_unipotent_puncture():
    spec = make_spec(
        "GL(2)", 1, 2,
        ["a", "b", "c", "d"], ["a*b*c*d = 1"],
        [["a", "b"], ["c", "d"]],
    )
    with pytest.raises(HypothesisError) as err:
        count_polynomial(spec)
    assert err.value.code == "class-counts"


def test_class_rank_mismatch():
    spec = make_spec("GL(2)", 1, 2, ["a"], [], [["a"]])
    with pytest.raises(InvalidInputError) as err:
        count_polynomial(spec)
    assert err.value.code == "torus-element"


def test_unknown_override_label():
    spec = make_spec(
        "GL(2)", 1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]],
        overrides=(("B7", True),),
    )
    with pytest.raises(InvalidInputError) as err:
        count_polynomial(spec)
    assert err.value.code == "override-label"
    assert "A1" in str(err.value)


def test_translate_budget_enforced():
    spec = make_spec(
        "GL(2)", 0, 3,
        ["a", "b", "c", "d"], ["a*b*c*d = 1"],
        [["a", "b"], ["c", "d"]],
    )
    with pytest.raises(ResourceLimitError) as err:
        count_polynomial(Engine(spec, 2))
    assert err.value.code == "translate-budget"


# The join builds |W|^floor((m-1)/2) + |W|^ceil((m-1)/2) histogram entries:
# the first class is never translated.
@pytest.mark.parametrize(
    "group, symbols, classes, entries, split",
    [
        ("GL(2)", ["a", "b"], [["a", "b"]], 2, "|W|^0 + |W|^0 with |W| = 2"),
        ("GL(2)", list("abcd"), [["a", "b"], ["c", "d"]], 3,
         "|W|^0 + |W|^1 with |W| = 2"),
        ("GL(3)", list("abcdefghi"), [["a", "b", "c"], ["d", "e", "f"],
                                      ["g", "h", "i"]], 12,
         "|W|^1 + |W|^1 with |W| = 6"),
    ],
    ids=["m1", "m2", "m3"],
)
def test_translate_budget_boundary(group, symbols, classes, entries, split):
    spec = make_spec(
        group, 0, len(classes) + 2, symbols, ["*".join(symbols) + " = 1"], classes
    )
    assert not count_polynomial(Engine(spec, entries)).is_empty
    with pytest.raises(ResourceLimitError) as err:
        count_polynomial(Engine(spec, entries - 1))
    assert (err.value.code, str(err.value)) == (
        "translate-budget",
        f"the translate histogram join builds up to {entries} entries ({split}), "
        f"exceeding the budget {entries - 1}; raise the budget to proceed",
    )


def gl_genus_one(n):
    """GL(n), genus 1, one semisimple class with eigenvalues of product 1."""
    symbols = [f"a{i}" for i in range(1, n + 1)]
    return make_spec(
        f"GL({n})", 1, 2, symbols, ["*".join(symbols) + " = 1"], [symbols]
    )


def test_one_class_needs_no_weyl_translate(monkeypatch):
    spec = gl_genus_one(5)
    expected = qpoly_reference.reference_polynomial(spec)

    def no_translate(*_):
        raise AssertionError("m = 1 counts must not translate a class")

    monkeypatch.setattr(count, "translate", no_translate)
    assert count_polynomial(spec).polynomial == expected


def test_one_class_enumerates_no_weyl_group(monkeypatch):
    """|W| is P_Phi(1) at the full node, and strong regularity needs no loop
    over W: it reads the root values on S and the reflection table."""
    spec = gl_genus_one(5)
    expected = qpoly_reference.reference_polynomial(spec)

    def refuse(rd):
        raise AssertionError("an m = 1 count must not enumerate W")

    monkeypatch.setattr(RootDatum, "weyl_group", property(refuse))
    report = count_polynomial(spec)
    assert report.polynomial == expected
    assert report.warnings == ()


def test_gl6_genus_one_is_fast_and_structural():
    # 0.2 s on a 2-core x86-64 machine with Python 3.11; translating the
    # class at every one of the 203 nodes took 3.2 s there
    start = time.perf_counter()
    report = count_polynomial(gl_genus_one(6))
    assert time.perf_counter() - start < 2.0
    assert report.degree == report.expected_dimension == 62
    assert report.leading_coefficient == report.num_components == 1
    assert report.euler_characteristic == 0
    assert report.warnings == ()


def _count_node_maps(monkeypatch) -> list:
    """Record every node map compiled from now on, by count or charsum."""
    compiled = []
    real = charsum.node_map

    def counting(inv, group):
        compiled.append(inv)
        return real(inv, group)

    monkeypatch.setattr(count, "node_map", counting)
    monkeypatch.setattr(charsum, "node_map", counting)
    return compiled


def test_gl7_count_compiles_one_node_map_per_orbit(monkeypatch):
    """Membership at every node, the emptiness verdict included, is read off
    one map per Weyl orbit: 15 on GL(7)'s 877 nodes."""
    spec = gl_genus_one(7)
    compiled = _count_node_maps(monkeypatch)
    report = count_polynomial(spec)
    assert len(build_poset(spec.rd).orbits()) == 15
    assert len(compiled) == 15
    assert report.degree == report.expected_dimension and report.warnings == ()


def test_gl7_check_compiles_at_most_one_node_map_per_orbit(monkeypatch, capsys):
    spec = gl_genus_one(7)
    monkeypatch.setattr(cli_count, "build_problem", lambda config: spec)
    compiled = _count_node_maps(monkeypatch)
    config = str(CONFIGS / "gl3_genus1_generic.json")
    assert cli.main(["check", "--config", config]) == 0
    assert "non-emptiness: ok" in capsys.readouterr().out
    assert 0 < len(compiled) <= len(build_poset(spec.rd).orbits()) == 15


def _per_orbit_sum(spec) -> Poly:
    """The master sum taken one orbit at a time, times |W|^(m-1).

    Each orbit's inner Mobius sum, weighted by |O| (|W| / |W(Psi)|)^(m-1),
    is multiplied by its own P_Psi^chi: the engine's former loop, written
    out from the poset and the orbit counts.
    """
    poset, m, chi = build_poset(spec.rd), spec.m, spec.chi_exponent
    engine = count.Engine(spec)
    passing = engine.pass_counts
    orbits = poset.orbits()
    d_values = [
        charsum.quotient_factor(poset.quotient(orbit[0])) * passing[k]
        for k, orbit in enumerate(orbits)
    ]
    order = poset.weyl_order(engine.full)
    total = Poly()
    for orbit in orbits:
        row = Counter()
        for j, mu in poset.mobius_row(orbit[0]).items():
            row[poset.orbit_of(j)] += mu
        weight = len(orbit) * (order // poset.weyl_order(orbit[0])) ** (m - 1)
        inner = count.mobius_sum(row, d_values) * weight
        total = total + poset.poincare(orbit[0]) ** chi * inner
    return total


@pytest.mark.parametrize("group,genus,types,orbits", [("G2", 20, 5, 6), ("F4", 9, 19, 24)])
def test_master_sum_multiplies_by_each_type_power_once(
    monkeypatch, group, genus, types, orbits
):
    """c_A gathers the orbits of type A, so each P_A^chi multiplies once,
    and the sum by type equals the sum by orbit."""
    symbols = [f"a{i}" for i in range(1, build_root_datum(group).rank + 1)]
    spec = make_spec(group, genus, 2, symbols, [], [symbols])
    poset = build_poset(spec.rd)
    labels = {poset.type_label(i) for i in range(poset.num_nodes)}
    assert (len(labels), len(poset.orbits())) == (types, orbits)
    poincares = {poset.poincare(i) for i in range(poset.num_nodes)}
    powers, products = [], []
    real_pow, real_mul = Poly.__pow__, Poly.__mul__

    def pow_(self, n):
        result = real_pow(self, n)
        if n == spec.chi_exponent and self in poincares:
            powers.append(result)
        return result

    def mul(self, other):
        if any(self is p or other is p for p in powers):
            products.append(self)
        return real_mul(self, other)

    monkeypatch.setattr(Poly, "__pow__", pow_)
    monkeypatch.setattr(Poly, "__mul__", mul)
    report = count_polynomial(spec)
    monkeypatch.undo()
    assert 0 < len(products) <= len(powers) <= types
    # (q-1)^a q^b total / |W|^m, with a, b >= 0 for these groups
    a, b = count._z_exponents(spec.rd, spec.m, spec.punctures, spec.chi_exponent)
    assert a >= 0 and b >= 0
    order = poset.weyl_order(poset.index_of[frozenset(range(spec.rd.num_roots))])
    expected = (_per_orbit_sum(spec) * Poly([-1, 1]) ** a).shift(b)
    assert report.polynomial * order ** spec.m == expected


def test_oracle_builds_one_engine_record(monkeypatch, capsys):
    """The count and the faithfulness test share one record: over A, its
    orbit maps (one node map per orbit) and its orbit counts are computed
    once per run (twice each when the oracle built a record of its own).
    Over <g>, each specialized problem's orbit counts come from a record
    of its own, with no maps compiled outside it."""
    calls = Counter()

    def counting(owner, name, over_a):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name, over_a(*args)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    over_a = tuple("abcd")  # the symbols of A; <g> has one
    counting(count.Engine, "__init__", lambda _, spec, *__: spec.eigenvalues.symbols == over_a)
    real_maps = count.Engine.maps.func

    def maps(engine):
        calls["maps", engine.spec.eigenvalues.symbols == over_a] += 1
        return real_maps(engine)

    filled = functools.cached_property(maps)
    filled.__set_name__(count.Engine, "maps")
    monkeypatch.setattr(count.Engine, "maps", filled)
    for owner in (count, charsum):
        counting(owner, "node_map", lambda inv, group: group.generator_count == 4)
    counting(
        count, "orbit_pass_counts", lambda engine: engine.spec.eigenvalues.symbols == over_a
    )
    config = str(CONFIGS / "gl2_sphere_generic.json")
    assert cli.main(["oracle", "--config", config, "--seed", "0", "--threads", "1"]) == 0
    assert "verdict: MATCH" in capsys.readouterr().out
    assert len(build_poset(build_root_datum("GL(2)")).orbits()) == 2
    # over <g>, at each of q = 5, 7: one record of the specialized problem,
    # whose maps (one per orbit) are filled once and orbits counted once
    assert calls == {
        ("__init__", True): 1, ("__init__", False): 2,
        ("maps", True): 1, ("maps", False): 2,
        ("node_map", True): 2, ("node_map", False): 4,
        ("orbit_pass_counts", True): 1, ("orbit_pass_counts", False): 2,
    }


def test_one_class_count_images_each_node_once(monkeypatch, capsys):
    """At m = 1 the orbit counts and Delta read one image per node; the
    other images are the strong-regularity test's and the full node's
    emptiness verdict.  ``check`` reads the verdict and images no node."""
    spec = gl_genus_one(7)
    poset = build_poset(spec.rd)
    images = []
    real = AdditiveMap.image

    def image(self, vector):
        images.append(vector)
        return real(self, vector)

    monkeypatch.setattr(AdditiveMap, "image", image)
    count.validate_problem(spec)
    regularity = len(images)
    images.clear()
    report = count_polynomial(spec)
    assert report.table and not report.is_empty
    assert (poset.num_nodes, len(poset.orbits())) == (877, 15)
    assert len(images) <= poset.num_nodes + regularity + 1

    engines = []
    real_init = count.Engine.__init__

    def init(self, *args, **kwargs):
        engines.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(count.Engine, "__init__", init)
    monkeypatch.setattr(cli_count, "build_problem", lambda config: spec)
    config = str(CONFIGS / "gl3_genus1_generic.json")
    assert cli.main(["check", "--config", config]) == 0
    assert "non-emptiness: ok" in capsys.readouterr().out
    assert len(engines) == 1
    assert "computed" in vars(engines[0]) and "images" not in vars(engines[0])


def test_one_class_count_carries_the_class_once(monkeypatch, capsys):
    """At m = 1 the class product is the class: Delta and D read one carry
    (``count --table`` on the benchmark's ``gl5_genus1``)."""
    spec = gl_genus_one(5)
    monkeypatch.setattr(cli_count, "build_problem", lambda config: spec)
    carried = []
    real = SubsystemPoset.carry

    def carry(self, vector):
        carried.append(vector)
        return real(self, vector)

    monkeypatch.setattr(SubsystemPoset, "carry", carry)
    config = str(CONFIGS / "gl3_genus1_generic.json")
    assert cli.main(["count", "--config", config, "--table"]) == 0
    assert "alpha" in capsys.readouterr().out
    assert len(carried) == 1


def test_root_system_is_classified_once_per_datum(monkeypatch, capsys):
    """Reports and ``check`` read the component types kept on the datum and
    on its dual: one classification of each root system, however often."""
    spec = gl_genus_one(3)
    rd = spec.rd
    classified = Counter()
    real = rootdata.classify_vectors

    def counting(vectors, form):
        if form.__func__ is RootDatum.root_form:
            classified[form.__self__.label] += 1
        return real(vectors, form)

    monkeypatch.setattr(rootdata, "classify_vectors", counting)
    monkeypatch.setattr(cli_count, "build_problem", lambda config: spec)
    config = str(CONFIGS / "gl3_genus1_generic.json")
    for command in ("count", "check", "count", "check"):
        assert cli.main([command, "--config", config]) == 0
    count_polynomial(spec)
    capsys.readouterr()
    assert classified == {rd.label: 1, rd.dual().label: 1}


# The master formula's polynomiality and integrality are hard errors.  The
# engine's inputs never break them, so each case feeds it inconsistent data:
# pass counts (one per Weyl orbit) that no set of translates gives, or a
# local factor stripped of its (q-1)^rank.  The messages print the offending
# rational value.
_PASS_COUNT_ERRORS = [
    (
        ("GL(2)", 0, 3, ["a", "b"], ["a*b"], [["a", "b"]]),
        [2, 0],
        "non-polynomial",
        "the master formula produced a non-polynomial count (q - 1)/(q); "
        "this indicates inconsistent overrides or an engine bug",
    ),
    (
        ("GL(2)", 1, 2, ["a", "b"], ["a*b"], [["a", "b"]]),
        [0, 1],
        "non-integral",
        "the master formula produced non-integer coefficients in "
        "1/2*q^6 - 1/2*q^5 - 3/2*q^4 + 5/2*q^3 - q^2",
    ),
    (
        ("GL(3)", 0, 3, list("abcdef"), ["a*b*c*d*e*f"],
         [["a", "b", "c"], ["d", "e", "f"]]),
        [0, 0, 1],
        "non-integral",
        "the master formula produced non-integer coefficients in "
        "1/36*q^2 + 1/9*q",
    ),
]


@pytest.mark.parametrize("args,counts,code,message", _PASS_COUNT_ERRORS)
def test_inconsistent_pass_counts_are_hard_errors(
    monkeypatch, args, counts, code, message
):
    monkeypatch.setattr(count, "orbit_pass_counts", lambda *_, **__: list(counts))
    with pytest.raises(InternalConsistencyError) as err:
        count_polynomial(make_spec(*args))
    assert (err.value.code, str(err.value)) == (code, message)


def test_local_factor_without_torus_power_is_non_polynomial(monkeypatch):
    real = count.quotient_factor
    monkeypatch.setattr(count, "quotient_factor", lambda inv: real(inv) ** 0)
    spec = make_spec(
        "GL(2)", 0, 3,
        ["a", "b", "c", "d"], ["a*b*c*d = 1"],
        [["a", "b"], ["c", "d"]],
    )
    with pytest.raises(InternalConsistencyError) as err:
        count_polynomial(spec)
    assert err.value.code == "non-polynomial"
    assert str(err.value) == (
        "the master formula produced a non-polynomial count (1)/(q - 1); "
        "this indicates inconsistent overrides or an engine bug"
    )


@pytest.mark.parametrize("overrides", [None, {"A1": True}])
def test_degree_off_the_dimension_exits_4_unless_overridden(
    monkeypatch, capsys, tmp_path, overrides
):
    """A count multiplied by q before ``_finish_report`` has degree 7 against
    GL(2)'s genus-1 dimension 6: ``degree-dimension`` (exit 4) without
    overrides; with an override, which agrees with the computed answer
    here, the count goes through with the mismatch as its only warning."""
    real = count._finish_report
    monkeypatch.setattr(
        count, "_finish_report",
        lambda spec, polynomial, **kw: real(spec, polynomial.shift(1), **kw),
    )
    config = json.loads((CONFIGS / "gl2_genus1.json").read_text(encoding="utf-8"))
    if overrides:
        config["overrides"] = overrides
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["count", "--config", str(path), "--json", str(out)])
    message = "count has degree 7 but the expected dimension is 6"
    if overrides:
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["warnings"] == [message]
    else:
        assert code == 4
        assert capsys.readouterr().err == f"error[degree-dimension]: {message}\n"


def test_negative_genus_rejected():
    spec = make_spec("GL(2)", -1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]])
    with pytest.raises(InvalidInputError) as err:
        count_polynomial(spec)
    assert err.value.code == "surface"


# ---------------------------------------------------------------------------
# Report metadata
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "group,genus,punctures,expected",
    [
        ("GL(2)", 0, 3, 0),
        ("GL(2)", 1, 2, 6),
        ("GL(2)", 0, 4, 2),
        ("GL(3)", 0, 4, 8),
        ("SO(5)", 1, 2, 16),
    ],
)
def test_expected_dimension_table(group, genus, punctures, expected):
    datum = EigenvalueDatum(("a",), ())
    rd = build_root_datum(group)
    s = SymbolicTorusElement.from_words(datum, ["1"] * rd.rank)
    spec = ProblemSpec(rd, genus, punctures, datum, (s,))
    assert expected_dimension(spec) == expected


def test_report_metadata_fields():
    spec = make_spec("SO(5)", 1, 2, ["a", "b"], [], [["a", "b"]],
                     overrides=SO5_OVERRIDES)
    report = count_polynomial(spec)
    assert isinstance(report, CountReport)
    assert report.group_label == "SO(5)"
    assert (report.genus, report.punctures, report.m) == (1, 2, 1)
    # validity congruence comes from the dual group (type C2 for SO(5))
    assert report.validity_modulus == 2
    assert report.diagnostic_exponent_lcm == 2
    assert report.excluded_primes == (2, 3)
    assert "q^6" in report.factored


def test_gl2_validity_and_primes():
    spec = make_spec("GL(2)", 1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]])
    report = count_polynomial(spec)
    assert report.validity_modulus == 1
    assert report.excluded_primes == (2,)


@pytest.mark.parametrize("genus,punctures", [(0, 3), (0, 4), (1, 2), (1, 3)])
def test_counts_are_integer_polynomials(genus, punctures):
    spec = make_spec("GL(2)", genus, punctures, ["a", "b"], ["a*b = 1"],
                     [["a", "b"]])
    report = count_polynomial(spec)
    coeffs = report.polynomial.coeffs
    assert all(type(c) is int for c in coeffs)
    if genus > 0:
        assert report.euler_characteristic == 0


# ---------------------------------------------------------------------------
# The product rule: over disjoint symbols, G1 x G2 counts the product
# ---------------------------------------------------------------------------
#
# The representation variety of G1 x G2 is the product of the factors'
# varieties, and (G1 x G2)/Z acts factorwise, so the count is the product of
# the counts.  This checks the product datum, its poset (pairs of nodes,
# multiplicative Mobius function), its orbits and its quotients against
# single-factor runs.


def product_spec(left: ProblemSpec, right: ProblemSpec) -> ProblemSpec:
    """G1 x G2 over both symbol sets; class k concatenates the factors' k-th."""
    datum = EigenvalueDatum(
        left.eigenvalues.symbols + right.eigenvalues.symbols,
        left.eigenvalues.relations + right.eigenvalues.relations,
    )
    n_left, n_right = len(left.eigenvalues.symbols), len(right.eigenvalues.symbols)
    classes = tuple(
        SymbolicTorusElement(
            datum,
            tuple(w + (0,) * n_right for w in a.coords)
            + tuple((0,) * n_left + w for w in b.coords),
        )
        for a, b in zip(left.semisimple_classes, right.semisimple_classes, strict=True)
    )
    return left._replace(
        rd=build_root_datum(f"{left.rd.label} x {right.rd.label}"),
        eigenvalues=datum,
        semisimple_classes=classes,
    )


def split_spec(spec: ProblemSpec, rank: int) -> tuple[ProblemSpec, ProblemSpec]:
    """The factor problems of a product problem whose first factor has ``rank``.

    A symbol belongs to the factor whose coordinates use it, or else to the
    factor of the relations that use it; no relation mixes the two.
    """
    names, rows = spec.eigenvalues.symbols, spec.eigenvalues.group.relations
    side: dict[int, bool] = {}
    for cls in spec.semisimple_classes:
        for i, word in enumerate(cls.coords):
            for s in (s for s, e in enumerate(word) if e):
                assert side.setdefault(s, i >= rank) == (i >= rank)
    row_sides = []
    for row in rows:
        support = [s for s, e in enumerate(row) if e]
        sides = {side[s] for s in support if s in side}
        assert len(sides) == 1, row
        row_sides.append(sides.pop())
        side.update(dict.fromkeys(support, row_sides[-1]))
    assert len(side) == len(names)
    factors = []
    for group, right, coords in zip(
        spec.rd.label.split(" x "), (False, True), (slice(rank), slice(rank, None))
    ):
        kept = [s for s in range(len(names)) if side[s] == right]
        words = EigenvalueDatum(tuple(names[s] for s in kept))
        datum = EigenvalueDatum(words.symbols, tuple(
            words.word_str([row[s] for s in kept])
            for row, row_side in zip(rows, row_sides) if row_side == right
        ))
        classes = tuple(
            SymbolicTorusElement(
                datum, tuple(tuple(w[s] for s in kept) for w in c.coords[coords])
            )
            for c in spec.semisimple_classes
        )
        factors.append(spec._replace(
            rd=build_root_datum(group), eigenvalues=datum, semisimple_classes=classes
        ))
    return tuple(factors)


def assert_product_rule(product: ProblemSpec, left: ProblemSpec, right: ProblemSpec):
    whole, a, b = (count_polynomial(s) for s in (product, left, right))
    assert whole.polynomial == a.polynomial * b.polynomial
    assert whole.is_empty == (a.is_empty or b.is_empty)
    return whole


@pytest.mark.parametrize(
    "left, right, degree",
    [
        # GL(2) x GL(3), genus 1, one class with determinant 1 in each factor
        (("GL(2)", 1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]]),
         ("GL(3)", 1, 2, ["c", "d", "e"], ["c*d*e = 1"], [["c", "d", "e"]]), 20),
        # G2 x PGL(2), genus 0, four punctures, two classes
        (("G2", 0, 4, ["a", "b", "c", "d"], [], [["a", "b"], ["c", "d"]]),
         ("PGL(2)", 0, 4, ["e", "f"], ["e*f = 1"], [["e"], ["f"]]), 22),
        # a torus factor with a trivial class multiplies by (q - 1)^(2g)
        (("GL(2)", 1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]]),
         ("T(1)", 1, 2, ["t"], ["t = 1"], [["t"]]), 8),
        # ... and with a free one both counts are empty
        (("GL(2)", 1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]]),
         ("T(1)", 1, 2, ["t"], [], [["t"]]), -1),
    ],
    ids=["GLxGL", "G2xPGL", "GLxT-trivial", "GLxT-free"],
)
def test_product_rule(left, right, degree):
    left, right = make_spec(*left), make_spec(*right)
    whole = assert_product_rule(product_spec(left, right), left, right)
    assert whole.degree == degree
    if right.rd.label == "T(1)" and degree > 0:
        assert count_polynomial(right).polynomial == Q * Q - 2 * Q + 1


@functools.cache
def _carry_config():
    """``carry_config`` of ``scripts/cli_diff.py``, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_diff.py"
    spec = importlib.util.spec_from_file_location("cli_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.carry_config


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_rule_on_the_carry_problems(m):
    """The cli_diff carry problem of SO(5) x GL(2) split into its factors."""
    spec = cli_count.build_problem(_carry_config()(build_root_datum("SO(5) x GL(2)"), m))
    left, right = split_spec(spec, 2)
    assert (left.rd.label, right.rd.label) == ("SO(5)", "GL(2)")
    assert_product_rule(spec, left, right)
