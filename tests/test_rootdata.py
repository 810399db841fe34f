"""Tests for root datum construction, validation, and derived invariants.

Oracle sources: Weyl group orders and root counts are classical; |GL_n(F_q)|
for tiny q is checked against literal enumeration of invertible matrices;
Poincare/Weyl/order identities (P(1) = |W|, |G| = |B| * P) are checked
structurally.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from charvar.charsum import EigenvalueDatum, SymbolicTorusElement
from charvar.count import ProblemSpec, validate_problem
from charvar.errors import HypothesisError, InvalidInputError, ResourceLimitError
from charvar import rootdata
from charvar.abelian import identity, quotient_invariants, smith_normal_form
from charvar.qpoly import Poly, RationalPoly
from charvar.rootdata import (
    RootDatum,
    admissible_primes,
    build_root_datum,
    cartan_matrix,
    classify_vectors,
    component_types,
    connected_center_check,
    cocenter_invariants,
    enumerate_weyl,
    fundamental_degrees,
    modulus,
    poincare_polynomial,
    subsystem_weyl_elements,
    validate_root_datum,
)
from charvar.subsystems import build_poset
from subsystem_reference import reference_reflection_matrix

DESCRIPTORS = [
    "GL(1)", "GL(2)", "GL(3)", "GL(4)",
    "SL(2)", "SL(3)", "PGL(2)", "PGL(3)",
    "SO(3)", "SO(5)", "SO(7)", "SO(8)",
    "Sp(2)", "Sp(4)", "Sp(6)",
    "T(1)", "T(2)",
    "A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4",
    "A2(ad)", "B2(ad)", "G2(ad)",
    "GL(2) x T(1)", "A1 x A1", "SL(2) x GL(2)",
]


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_constructions_satisfy_axioms(desc):
    rd = build_root_datum(desc)  # build_root_datum validates internally
    validate_root_datum(rd)  # and explicitly once more
    assert len(rd.roots) == 2 * len(rd.positive)
    # one rule for every builder: the first nonzero coordinate is positive
    assert rd.positive == tuple(
        i for i, v in enumerate(rd.roots) if [c for c in v if c][0] > 0
    )
    # a positive system of the roots, and of the coroots at the same indices
    for vectors, lookup in ((rd.roots, rd.root_lookup), (rd.coroots, rd.coroot_lookup)):
        for i, j in itertools.combinations(rd.positive, 2):
            k = lookup.get(tuple(a + b for a, b in zip(vectors[i], vectors[j])))
            assert k is None or rd.is_positive(k), (desc, vectors[i], vectors[j])


def test_root_counts():
    assert build_root_datum("GL(3)").num_roots == 6
    assert build_root_datum("SO(5)").num_roots == 8
    assert build_root_datum("G2").num_roots == 12
    assert build_root_datum("F4").num_roots == 48
    assert build_root_datum("D4").num_roots == 24
    assert build_root_datum("SO(8)").num_roots == 24
    assert build_root_datum("T(2)").num_roots == 0
    assert build_root_datum("E6").num_roots == 72


def test_weyl_orders():
    for desc, order in [
        ("A1", 2), ("A2", 6), ("GL(3)", 6), ("B2", 8), ("SO(5)", 8),
        ("G2", 12), ("D4", 192), ("F4", 1152), ("GL(2) x GL(2)", 4),
        ("T(3)", 1),
    ]:
        rd = build_root_datum(desc)
        assert len(enumerate_weyl(rd)) == order, desc


@pytest.mark.parametrize(
    "desc",
    ["GL(1)", "GL(4)", "SO(5)", "SO(8)", "Sp(6)", "G2", "F4", "B3(ad)",
     "SO(5) x GL(2)", "T(2)"],
)
def test_weyl_enumeration_starts_at_the_identity(desc):
    """The BFS from the identity lists it first, and only there."""
    rd = build_root_datum(desc)
    weyl = enumerate_weyl(rd)
    assert weyl[0] == identity(rd.rank)
    assert identity(rd.rank) not in weyl[1:]


def test_weyl_elements_permute_coroots():
    rd = build_root_datum("G2")
    coroot_set = set(rd.coroots)
    for m in enumerate_weyl(rd):
        images = {tuple(sum(m[r][c] * v[c] for c in range(rd.rank)) for r in range(rd.rank))
                  for v in rd.coroots}
        assert images == coroot_set


def test_weyl_enumeration_bound(monkeypatch):
    rd = build_root_datum("F4")
    monkeypatch.setattr(rootdata, "WEYL_ENUMERATION_BOUND", 100)
    with pytest.raises(ResourceLimitError):
        enumerate_weyl(rd)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@pytest.mark.parametrize("desc", ["GL(3)", "SO(5)", "Sp(6)", "G2", "D4"])
def test_forms_match_defining_sums(desc):
    rd = build_root_datum(desc)
    for x, y in itertools.product(rd.roots, repeat=2):
        assert rd.root_form(x, y) == sum(_dot(x, v) * _dot(y, v) for v in rd.coroots)
    for x, y in itertools.product(rd.coroots, repeat=2):
        assert rd.coroot_form(x, y) == sum(_dot(a, x) * _dot(a, y) for a in rd.roots)


def _enumerated_poincare(rd, indices):
    """Length generating polynomial of the enumerated W(Psi).

    The length of w counts the positive elements of Psi that w sends to
    negative coroots.
    """
    positive_in = [i for i in indices if rd.is_positive(i)]
    lookup = {v: i for i, v in enumerate(rd.coroots)}
    counts = [0] * (len(positive_in) + 1)
    for w in subsystem_weyl_elements(rd, frozenset(indices)):
        length = sum(
            1
            for i in positive_in
            if not rd.is_positive(lookup[tuple(_dot(row, rd.coroots[i]) for row in w)])
        )
        counts[length] += 1
    return Poly(counts)


@pytest.mark.parametrize("desc", ["GL(4)", "SO(5)", "SO(7)", "Sp(6)", "G2", "D4"])
def test_poincare_matches_length_enumeration(desc):
    rd = build_root_datum(desc)
    poset = build_poset(rd)
    for i, node in enumerate(poset.nodes):
        expected = _enumerated_poincare(rd, node)
        assert poset.poincare(i) == expected, (desc, poset.type_label(i))
        assert poincare_polynomial(rd, node) == expected, (desc, poset.type_label(i))


def test_poincare_f4_matches_length_enumeration():
    rd = build_root_datum("F4")
    assert poincare_polynomial(rd) == _enumerated_poincare(rd, range(rd.num_roots))


IRREDUCIBLE_TYPES = (
    [f"A{r}" for r in range(1, 8)]
    + [f"{x}{r}" for x in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
# |W| above 60,000 (322,560, 2,903,040 and 696,729,600): not enumerated
LARGE_WEYL = {"D7", "E7", "E8"}


@pytest.mark.parametrize("desc", IRREDUCIBLE_TYPES)
def test_fundamental_degrees(desc):
    rd = build_root_datum(desc)
    degrees = fundamental_degrees(desc[0], int(desc[1:]))
    assert len(degrees) == rd.semisimple_rank
    assert sum(d - 1 for d in degrees) == rd.num_positive
    if desc not in LARGE_WEYL:
        assert math.prod(degrees) == len(enumerate_weyl(rd))


def test_poincare_full_system_identities():
    for desc in ["GL(2)", "GL(3)", "SO(5)", "G2", "A3", "B3"]:
        rd = build_root_datum(desc)
        p = poincare_polynomial(rd)
        assert p.evaluate(1) == len(enumerate_weyl(rd)), desc
        assert p.degree() == rd.num_positive, desc


def test_poincare_known_polynomials():
    # frozen closed forms used in the worked rank-2 tables
    gl2 = poincare_polynomial(build_root_datum("GL(2)"))
    assert gl2 == Poly([1, 1])
    so5 = poincare_polynomial(build_root_datum("SO(5)"))
    assert so5 == Poly([1, 1]) * Poly([1, 0, 1]) * Poly([1, 1])  # (q+1)^2 (q^2+1)
    g2 = poincare_polynomial(build_root_datum("G2"))
    assert g2 == Poly([1, 1]) * Poly([1, 1, 1, 1, 1, 1])  # (q+1)(q^5+...+1)


def test_poincare_subsystem():
    rd = build_root_datum("GL(3)")
    # single root pair {alpha, -alpha} gives W = Z/2, P = 1 + q
    i = rd.simple_root_indices[0]
    pair = (i, rd.negative_of(i))
    assert poincare_polynomial(rd, pair) == Poly([1, 1])
    # empty subsystem: trivial group
    assert poincare_polynomial(rd, ()) == Poly([1])


def test_poincare_rejects_non_closed():
    rd = build_root_datum("SO(5)")
    # the two short simple coroots of C2^vee generate a non-closed pair set
    long_pair, short_pair = [], []
    for i in range(rd.num_roots):
        v = rd.coroots[i]
        if rd.coroot_form(v, v) == 24:
            long_pair.append(i)
        else:
            short_pair.append(i)
    with pytest.raises(InvalidInputError):
        poincare_polynomial(rd, tuple(short_pair))  # sums escape: not closed
    # asymmetric set
    i = rd.simple_root_indices[0]
    with pytest.raises(InvalidInputError):
        poincare_polynomial(rd, (i,))


def _brute_gl_order(n, q):
    """Count invertible n x n matrices over F_q by enumeration (tiny cases)."""
    entries = list(itertools.product(range(q), repeat=n * n))

    def det_mod(flat):
        m = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if n == 2:
            return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q
        det = 0
        for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]:
            det += sign * m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]]
        return det % q

    return sum(1 for flat in entries if det_mod(flat) != 0)


def _order_polynomials(rd):
    """|T|, |B|, |Z| and |G| = |B| P(q) over F_q, from the Poincare polynomial."""
    q = RationalPoly.q()
    t = (q - RationalPoly.from_int(1)) ** rd.rank
    b = q ** rd.num_positive * t
    z = (q - RationalPoly.from_int(1)) ** rd.center_invariants.free_rank
    return {"G": b * RationalPoly(poincare_polynomial(rd)), "B": b, "T": t, "Z": z}


def test_order_polynomials_gl2():
    rd = build_root_datum("GL(2)")
    orders = _order_polynomials(rd)
    q = RationalPoly.q()
    one = RationalPoly.from_int(1)
    assert orders["T"] == (q - one) ** 2
    assert orders["B"] == q * (q - one) ** 2
    assert orders["Z"] == q - one
    assert orders["G"] == q * (q - one) ** 2 * (q + one)
    assert orders["G"].evaluate(2) == _brute_gl_order(2, 2) == 6
    assert orders["G"].evaluate(3) == _brute_gl_order(2, 3) == 48


def test_order_polynomials_gl3_matches_enumeration():
    rd = build_root_datum("GL(3)")
    g = _order_polynomials(rd)["G"]
    assert g.evaluate(2) == _brute_gl_order(3, 2) == 168


def test_order_polynomials_need_connected_center():
    rd = build_root_datum("SL(2)")
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b",))
    spec = ProblemSpec(
        rd=rd,
        genus=1,
        punctures=2,
        eigenvalues=datum,
        semisimple_classes=(SymbolicTorusElement.from_words(datum, ["a"]),),
    )
    with pytest.raises(HypothesisError) as exc:
        validate_problem(spec)
    assert exc.value.code == "connected-center"
    assert "center" in str(exc.value)


def test_connected_center():
    expectations = {
        "GL(2)": True, "PGL(2)": True, "SO(5)": True, "G2": True,
        "SL(2)": False, "Sp(4)": False, "B2": False, "T(2)": True,
        "SL(2) x GL(2)": False,
    }
    for desc, expected in expectations.items():
        assert connected_center_check(build_root_datum(desc)) is expected, desc


def test_center_ranks():
    assert build_root_datum("GL(3)").center_invariants.free_rank == 1
    assert build_root_datum("T(2)").center_invariants.free_rank == 2
    assert build_root_datum("G2").center_invariants.free_rank == 0
    # fundamental group via the cocharacter side
    assert cocenter_invariants(build_root_datum("PGL(2)")).torsion == (2,)
    assert cocenter_invariants(build_root_datum("SL(2)")).torsion == ()


def root_type(rd):
    return classify_vectors(list(rd.roots), rd.root_form)


def coroot_type(rd):
    return classify_vectors(list(rd.coroots), rd.coroot_form)


def test_type_classification():
    assert root_type(build_root_datum("GL(3)")) == "A2"
    assert root_type(build_root_datum("SO(7)")) == "B3"
    assert root_type(build_root_datum("Sp(6)")) == "C3"
    assert coroot_type(build_root_datum("Sp(6)")) == "B3"
    assert coroot_type(build_root_datum("SO(5)")) == "C2"
    assert root_type(build_root_datum("G2")) == "G2"
    assert coroot_type(build_root_datum("G2")) == "G2"
    assert root_type(build_root_datum("D4")) == "D4"
    assert root_type(build_root_datum("F4")) == "F4"
    assert root_type(build_root_datum("E6")) == "E6"
    assert root_type(build_root_datum("GL(2) x GL(2)")) == "A1xA1"
    assert root_type(build_root_datum("T(2)")) == "empty"
    # rank-2 double-bond systems are reported as C2 (B2 and C2 coincide)
    assert root_type(build_root_datum("SO(5)")) == "C2"


def _highest_root_coefficients(rd):
    """Simple-root coefficients of the highest root of an irreducible system.

    Walks root strings: from each simple root, add one simple root at a time
    while the sum stays a root, recording coefficients along the way.
    """
    simples = rd.simple_root_indices
    roots = set(rd.roots)
    coefficients = {
        rd.roots[s]: tuple(int(t == s) for t in simples) for s in simples
    }
    frontier = dict(coefficients)
    while frontier:
        step = {}
        for v, c in frontier.items():
            for k, s in enumerate(simples):
                u = tuple(a + b for a, b in zip(v, rd.roots[s]))
                if u in roots and u not in coefficients:
                    step[u] = tuple(x + (j == k) for j, x in enumerate(c))
        coefficients.update(step)
        frontier = step
    return max(coefficients.values(), key=sum)


def test_highest_root_coefficients():
    assert sorted(_highest_root_coefficients(build_root_datum("G2"))) == [2, 3]
    assert _highest_root_coefficients(build_root_datum("A3")) == (1, 1, 1)
    assert sorted(_highest_root_coefficients(build_root_datum("SO(7)"))) == [1, 2, 2]
    # the modulus of an adjoint datum (X / root lattice trivial) is the lcm
    # from the type table
    for desc in ["A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]:
        rd = build_root_datum(f"{desc}(ad)")
        assert modulus(rd) == math.lcm(*_highest_root_coefficients(rd)), desc


def test_modulus_table():
    expectations = {
        "A1": 2, "A2": 3, "A3": 4, "A4": 5,
        "B2": 2, "B3": 2, "B4": 2,
        "C2": 2, "C3": 2, "C4": 2,
        "D4": 4, "G2": 6, "F4": 12,
        "E6": 6, "E7": 12, "E8": 60,
        "GL(2)": 1, "GL(3)": 1, "PGL(2)": 1,
        "SO(5)": 2, "Sp(4)": 2, "T(2)": 1,
        # products use the global torsion order (conservative): Z/3 x Z/3 -> 9
        "A2 x A2": 9, "A2 x A3": 12,
    }
    for desc, expected in expectations.items():
        assert modulus(build_root_datum(desc)) == expected, desc


def test_admissible_primes():
    expectations = {
        "GL(2)": (2,), "GL(3)": (2, 3), "GL(4)": (2,), "GL(5)": (2, 5),
        "SO(5)": (2, 3), "SO(7)": (2, 5), "Sp(6)": (2,),
        "G2": (2, 3), "F4": (2, 3), "E8": (2, 3, 5),
        "D4": (2, 3), "T(2)": (2,), "A4": (2, 5),
    }
    for desc, expected in expectations.items():
        ap = admissible_primes(build_root_datum(desc))
        assert ap == expected, desc


def test_dual_is_involution():
    for desc in ["GL(3)", "SO(5)", "Sp(4)", "G2", "SL(3)", "T(2)"]:
        rd = build_root_datum(desc)
        assert rd.dual().dual() == rd
        validate_root_datum(rd.dual())
    so5 = build_root_datum("SO(5)")
    assert so5.dual().roots == so5.coroots


def test_dual_and_cocenter_are_built_once(monkeypatch):
    rd = build_root_datum("SO(5)")
    assert rd.dual() is rd.dual()
    calls = []
    built = rootdata.quotient_invariants
    monkeypatch.setattr(
        rootdata, "quotient_invariants", lambda *args: calls.append(args) or built(*args)
    )
    cocenter = cocenter_invariants(rd)
    assert cocenter_invariants(rd) is cocenter
    assert rd.dual().center_invariants is cocenter
    assert calls == [(rd.rank, rd.coroots)]
    assert cocenter.torsion == (2,)


def test_duality_swaps_isogeny():
    # dual of SL(2) is PGL(2): connected center, fundamental group Z/2
    sl2 = build_root_datum("SL(2)")
    assert sl2.dual().center_invariants.torsion == ()
    assert cocenter_invariants(sl2.dual()).torsion == (2,)


def test_product_structure():
    rd = build_root_datum("GL(2) x T(1)")
    assert rd.rank == 3
    assert rd.num_roots == 2
    assert rd.center_invariants.free_rank == 2
    assert component_types(classify_vectors(list(rd.roots), rd.root_form)) == (
        ("A", 1),
    )
    rd2 = build_root_datum("A1 x A1")
    label = classify_vectors(list(rd2.roots), rd2.root_form)
    assert component_types(label) == (("A", 1), ("A", 1))


def test_validation_rejects_bad_pairing():
    with pytest.raises(InvalidInputError) as exc:
        validate_root_datum(RootDatum(1, ((1,), (-1,)), ((1,), (-1,)), (0,)))
    assert "pairing" in str(exc.value)


def test_validation_rejects_nonreduced():
    with pytest.raises(InvalidInputError) as exc:
        validate_root_datum(
            RootDatum(
                1, ((1,), (-1,), (2,), (-2,)), ((2,), (-2,), (1,), (-1,)), (0, 2)
            )
        )
    assert "reduced" in str(exc.value)


def test_validation_rejects_broken_reflection():
    with pytest.raises(InvalidInputError) as exc:
        validate_root_datum(
            RootDatum(
                2,
                ((1, 0), (-1, 0), (1, 1), (-1, -1)),
                ((2, 0), (-2, 0), (1, 1), (-1, -1)),
                (0, 2),
            )
        )
    assert "reflection" in str(exc.value)


def test_descriptor_must_be_a_string():
    with pytest.raises(InvalidInputError) as exc:
        build_root_datum({"d": 1, "roots": [[1], [-1]], "coroots": [[2], [-2]]})
    assert exc.value.code == "descriptor"
    assert str(exc.value) == "descriptor must be a string, got <class 'dict'>"


def test_descriptor_errors():
    for bad in ["Q5", "SO(2)", "Sp(3)", "", "GL(0)", "T(0)", "E5", "A2 y B2"]:
        with pytest.raises(InvalidInputError):
            build_root_datum(bad)


@pytest.mark.parametrize("descriptor,rank", [
    ("GL(11)", 11), ("GL(99999999)", 99999999), ("T(11)", 11),
    ("SO(23)", 11), ("Sp(22)", 11), ("SL(12)", 11), ("B11", 11),
    ("GL(6) x GL(5)", 11), ("E8 x GL(3)", 11),
    # the cap comes before a malformed factor's own error; an unparsable
    # factor adds nothing to the rank
    ("GL(11) x Q5", 11), ("SL(1) x GL(11)", 11), ("Sp(3) x B10", 11),
    ("E5 x T(11)", 16),
])
def test_descriptor_above_the_rank_cap(monkeypatch, descriptor, rank):
    """Refused with ``descriptor`` before any root is built."""
    def no_roots(*args):
        raise AssertionError("a root was built")

    for name in ("gl_datum", "torus_datum", "semisimple_datum", "so_odd_datum",
                 "sp_datum", "so_even_datum"):
        monkeypatch.setattr(rootdata, name, no_roots)
    with pytest.raises(InvalidInputError) as exc:
        build_root_datum(descriptor)
    assert exc.value.code == "descriptor"
    assert str(exc.value) == (
        f"group {descriptor!r} has lattice rank {rank}, above the cap 10"
    )


@pytest.mark.parametrize("descriptor", ["E6(adx)", "B2(ax)", "B2(xx)", "GL(2) x B2(xx)"])
def test_descriptor_splits_only_at_an_x_outside_parentheses(descriptor):
    """An x inside a factor's parentheses is part of the factor the message quotes."""
    factor = descriptor.split(" x ")[-1]
    with pytest.raises(InvalidInputError) as exc:
        build_root_datum(descriptor)
    assert exc.value.code == "descriptor"
    assert str(exc.value).startswith(f"cannot parse group descriptor {factor!r};")


def test_rank_cap_admits_rank_ten():
    assert rootdata.MAX_RANK == 10  # above E8 and GL(9)
    for descriptor in ("GL(10)", "GL(9) x T(1)", "T(10)"):
        assert build_root_datum(descriptor).rank == 10


def test_descriptor_numbers_have_at_most_nine_digits():
    with pytest.raises(InvalidInputError) as exc:
        build_root_datum("GL(" + "9" * 5000 + ")")
    assert exc.value.code == "descriptor"
    assert "cannot parse group descriptor" in str(exc.value)


def test_g2_coroot_table():
    """G2 in integer coordinates: frozen simple-root/coroot data."""
    rd = build_root_datum("G2")
    simples = rd.simple_root_indices
    assert len(simples) == 2
    # off-diagonal Cartan pairings of G2 are -3 (long root on short coroot)
    # and -1 (short root on long coroot)
    pairings = sorted(
        sum(a * b for a, b in zip(rd.roots[i], rd.coroots[j]))
        for i in simples
        for j in simples
        if i != j
    )
    assert pairings == [-3, -1]


def test_cartan_matrix_conventions():
    assert cartan_matrix("G", 2) == [[2, -3], [-1, 2]]
    assert cartan_matrix("A", 2) == [[2, -1], [-1, 2]]
    b3 = cartan_matrix("B", 3)
    assert b3[2][1] == -2 and b3[1][2] == -1
    c3 = cartan_matrix("C", 3)
    assert c3[1][2] == -2 and c3[2][1] == -1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DESCRIPTORS))
def test_structural_invariants(desc):
    rd = build_root_datum(desc)
    assert rd.semisimple_rank <= rd.rank
    assert rd.dual().dual() == rd
    assert modulus(rd) >= 1
    assert 2 in admissible_primes(rd)
    # simple roots: one per Dynkin node, i.e. semisimple rank many
    assert len(rd.simple_root_indices) == rd.semisimple_rank


# ---------------------------------------------------------------------------
# References: the direct derivations that the datum's invariants replaced
# ---------------------------------------------------------------------------

REFERENCE_DESCRIPTORS = (
    [f"GL({n})" for n in range(1, 5)]
    + [f"{g}({n})" for g in ("SL", "PGL") for n in range(2, 5)]
    + [f"SO({n})" for n in range(5, 9)]
    + ["Sp(4)", "Sp(6)", "Sp(8)"]
    + [
        f"{t}{iso}"
        for t in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                  "D4", "G2", "F4", "E6")
        for iso in ("", "(ad)")
    ]
    + ["SO(5) x GL(2)", "T(2)"]
)


def reference_semisimple_rank(rd):
    """Rank of the span of the roots, from their own Smith form."""
    if not rd.roots:
        return 0
    return len(smith_normal_form([list(v) for v in rd.roots]).divisors)


def reference_cocenter(rd):
    """X^vee / (coroot lattice), straight from the coroots."""
    return quotient_invariants(rd.rank, [list(v) for v in rd.coroots])


def reference_root_reflection(rd, index):
    """s_alpha on X: x -> x - <x, alpha^vee> alpha."""
    root, coroot = rd.roots[index], rd.coroots[index]
    return tuple(
        tuple((1 if r == c else 0) - root[r] * coroot[c] for c in range(rd.rank))
        for r in range(rd.rank)
    )


def reference_reflection_check(rd):
    """The reflection axiom checked with d x d matrices, as validation did
    before it used the pairing table: s_alpha on X^vee from its matrix, on
    X from its transpose, the same index bijection on both sides."""
    lookup, croot_lookup = rd.root_lookup, rd.coroot_lookup
    for i in range(len(rd.roots)):
        s_on_xv = reference_reflection_matrix(rd, i)
        s_on_x = tuple(zip(*s_on_xv))
        for j in range(len(rd.roots)):
            k = lookup.get(tuple(_dot(row, rd.roots[j]) for row in s_on_x))
            if k is None:
                raise InvalidInputError(
                    "root-datum-axiom",
                    f"reflection in root {rd.roots[i]} maps root {rd.roots[j]} "
                    f"outside the root set",
                )
            coimage = tuple(_dot(row, rd.coroots[j]) for row in s_on_xv)
            if croot_lookup.get(coimage) != k:
                raise InvalidInputError(
                    "root-datum-axiom",
                    f"reflection in root {rd.roots[i]} does not act compatibly "
                    f"on root/coroot pair {j}",
                )


def reference_bc_datum(r, family):
    """SO(2r+1) or Sp(2r), one loop per family: the factor 2 on +/-e_i goes
    to the coroots (SO) or to the roots (Sp)."""
    roots, coroots = [], []
    for i in range(r):
        for s in (1, -1):
            short = tuple(s if k == i else 0 for k in range(r))
            long = tuple(2 * s if k == i else 0 for k in range(r))
            roots.append(short if family == "SO" else long)
            coroots.append(long if family == "SO" else short)
    for i, j in itertools.combinations(range(r), 2):
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            v = tuple(si if k == i else sj if k == j else 0 for k in range(r))
            roots.append(v)
            coroots.append(v)
    return tuple(roots), tuple(coroots)


@pytest.mark.parametrize("desc", REFERENCE_DESCRIPTORS)
def test_invariants_match_direct_derivations(desc):
    rd = build_root_datum(desc)
    assert rd.semisimple_rank == reference_semisimple_rank(rd)
    expected = reference_cocenter(rd)
    got = cocenter_invariants(rd)
    assert (got.free_rank, got.torsion) == (expected.free_rank, expected.torsion)
    for i in range(rd.num_roots):
        transpose = tuple(zip(*reference_reflection_matrix(rd, i)))
        assert transpose == reference_root_reflection(rd, i)


@pytest.mark.parametrize("desc", REFERENCE_DESCRIPTORS)
def test_reflection_check_matches_matrix_loop(desc):
    rd = build_root_datum(desc)  # passes the pairing-table check
    reference_reflection_check(rd)
    validate_root_datum(rd.dual())
    reference_reflection_check(rd.dual())


@pytest.mark.parametrize(
    "roots,coroots",
    [
        # s_(1,0) maps (1,1) to (-1,1), not a root
        ([(1, 0), (-1, 0), (1, 1), (-1, -1)], [(2, 0), (-2, 0), (1, 1), (-1, -1)]),
        # roots stable, but s_(1,0) moves the coroot (1,2) of (0,1) to (-1,2)
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(2, 0), (-2, 0), (1, 2), (-1, -2)]),
    ],
)
def test_reflection_check_fails_like_matrix_loop(roots, coroots):
    rd = RootDatum(rank=2, roots=tuple(roots), coroots=tuple(coroots), positive=(0, 2))
    with pytest.raises(InvalidInputError) as fast:
        validate_root_datum(rd)
    with pytest.raises(InvalidInputError) as slow:
        reference_reflection_check(rd)
    assert "reflection in root (1, 0)" in str(fast.value)
    assert (fast.value.code, str(fast.value)) == (slow.value.code, str(slow.value))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_bc_data_match_per_family_loops(r):
    for rd, family, label in (
        (rootdata.so_odd_datum(r), "SO", f"SO({2 * r + 1})"),
        (rootdata.sp_datum(r), "Sp", f"Sp({2 * r})"),
    ):
        roots, coroots = reference_bc_datum(r, family)
        assert (rd.roots, rd.coroots, rd.label) == (roots, coroots, label)
        # positive: the first nonzero coordinate is positive
        assert rd.positive == tuple(
            i for i, v in enumerate(roots) if [c for c in v if c][0] > 0
        )
