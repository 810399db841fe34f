"""Tests for the brute-force finite-field oracle.

The point counts frozen here are the ground truth the polynomial engine
is checked against: they come from honest enumeration of matrix tuples,
with no shared code or conventions with the counting formula.  The
equality tests at the bottom are therefore the strongest correctness
statement in the suite.
"""

import dataclasses
import itertools
import random

import pytest

from charvar.charsum import EigenvalueDatum, SymbolicTorusElement
from charvar.count import ProblemSpec, count_polynomial
from charvar.errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from charvar.oracle import (
    NO_CLASS,
    FiniteGroupModel,
    _commutator_distribution,
    _det,
    brute_force_count,
    build_model,
    check_field,
    class_count,
    class_size,
    derived_order,
    group_order,
    regular_unipotent_class,
    semisimple_class,
)
from charvar.rootdata import build_root_datum
from charvar.subsystems import build_poset
import oracle_reference
from oracle_reference import listed_gl_elements, reference_count, rescaled_pgl_elements
from witnesses import (
    GL2_COINCIDENT_TRIPLES,
    GL2_GENERIC_TRIPLE,
    GL2_TWO_UNIPOTENT_TRIPLE,
    PGL2_RIGID_TRIPLES,
    tuples_conjugate,
    verify_witness,
    witness_matrices,
)


def model(family, size, q) -> FiniteGroupModel:
    return build_model(family, size, q)


# ---------------------------------------------------------------------------
# Group orders against the order polynomial q^{#positive roots} (q-1)^d P(q)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,size,q,descriptor",
    [
        ("GL", 2, 2, "GL(2)"),
        ("GL", 2, 3, "GL(2)"),
        ("GL", 2, 5, "GL(2)"),
        ("GL", 3, 2, "GL(3)"),
        ("GL", 3, 3, "GL(3)"),
        ("PGL", 2, 3, "PGL(2)"),
        ("PGL", 2, 5, "PGL(2)"),
        ("PGL", 2, 11, "PGL(2)"),
    ],
)
def test_group_order_matches_order_polynomial(family, size, q, descriptor):
    m = model(family, size, q)
    rd = build_root_datum(descriptor)
    poset = build_poset(rd)
    full = poset.index_of[frozenset(range(rd.num_roots))]
    poincare = poset.poincare(full)
    expected = q**rd.num_positive * (q - 1) ** rd.rank * poincare.evaluate(q)
    assert m.order == expected


def test_known_small_orders():
    assert model("GL", 2, 5).order == 480
    assert model("GL", 3, 2).order == 168
    assert model("GL", 3, 3).order == 11232
    assert model("PGL", 2, 5).order == 120
    assert model("PGL", 2, 11).order == 1320


# ---------------------------------------------------------------------------
# Class keys really are conjugation invariants that separate classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,size,q", [("GL", 2, 3), ("PGL", 2, 3), ("PGL", 2, 5)])
def test_class_keys_match_true_conjugacy_orbits(family, size, q):
    m = model(family, size, q)
    inverses = {x: m.inv(x) for x in m.elements}
    seen = set()
    for rep, _size in m.class_table().values():
        orbit = {m.mul(m.mul(g, rep), inverses[g]) for g in m.elements}
        key = m.class_key(rep)
        assert orbit == set(oracle_reference.members(m, key))
        assert key not in seen
        seen.add(key)
    assert sum(size for _rep, size in m.class_table().values()) == m.order


def test_class_sizes_strongly_regular_and_unipotent():
    gl = model("GL", 2, 5)
    assert semisimple_class(gl, (2, 3)).size == 480 // 16
    assert regular_unipotent_class(gl).size == 24  # q^2 - 1
    pgl = model("PGL", 2, 5)
    assert semisimple_class(pgl, (2,)).size == 120 // 4
    assert regular_unipotent_class(pgl).size == 24
    gl3 = model("GL", 3, 2)
    assert regular_unipotent_class(gl3).size == 168 // (1 * 4)  # |G|/((q-1)q^2)


def test_class_validation_errors():
    gl = model("GL", 2, 5)
    with pytest.raises(InvalidInputError) as exc:
        semisimple_class(gl, (2, 2))
    assert exc.value.code == "oracle-class"
    with pytest.raises(InvalidInputError):
        semisimple_class(gl, (0, 2))
    with pytest.raises(InvalidInputError):
        semisimple_class(gl, (1, 2, 3))
    pgl = model("PGL", 2, 5)
    with pytest.raises(InvalidInputError):
        semisimple_class(pgl, (4,))  # ratio -1 is not strongly regular
    with pytest.raises(InvalidInputError):
        semisimple_class(pgl, (1,))


def test_model_construction_guards():
    with pytest.raises(InvalidInputError) as exc:
        build_model("SL", 2, 5)
    assert exc.value.code == "oracle-group"
    with pytest.raises(InvalidInputError) as exc:
        build_model("GL", 2, 4)
    assert exc.value.code == "oracle-field"
    with pytest.raises(InvalidInputError):
        build_model("PGL", 2, 2)
    with pytest.raises(ResourceLimitError) as exc:
        build_model("GL", 2, 13)
    assert exc.value.code == "oracle-cap"
    with pytest.raises(ResourceLimitError):
        build_model("GL", 3, 7)  # 7^9 candidates exceed the enumeration guard


def test_field_cap_comes_before_primality():
    # the float square root of 10**400 + 7 overflows; 12 is composite
    for q in (10**400 + 7, 12):
        with pytest.raises(ResourceLimitError) as exc:
            check_field("GL", 2, q)
        assert exc.value.code == "oracle-cap", q


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_pgl_elements_match_rescaled_enumeration(q):
    assert build_model("PGL", 2, q).elements == rescaled_pgl_elements(q)


@pytest.mark.parametrize(
    "size,q", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)]
)
def test_gl_elements_match_listed_enumeration(size, q):
    assert build_model("GL", size, q).elements == listed_gl_elements(size, q)


@pytest.mark.parametrize(
    "family,size,q",
    [
        ("GL", 2, 2),
        ("GL", 2, 3),
        ("GL", 2, 5),
        ("PGL", 2, 3),
        ("PGL", 2, 5),
        ("PGL", 2, 7),
        ("GL", 3, 2),
        ("GL", 3, 3),
    ],
)
def test_kernels_match_generic_reference(family, size, q):
    """The fixed-size kernels agree with the generic matrix code.

    ``inv``, ``class_key`` and (on every invertible matrix) ``canonical``
    on every element; ``mul`` on every pair of a group of order at most
    200, else on 20,000 pairs drawn with a fixed seed.
    """
    ref = oracle_reference
    m = model(family, size, q)
    one = m.canonical(tuple(tuple(int(i == j) for j in range(size)) for i in range(size)))
    scalars = range(1, q) if family == "PGL" else (1,)
    for a in m.elements:
        assert m.class_key(a) == ref.class_key(family, q, a)
        assert m.inv(a) == ref.inv(family, q, a)
        assert m.mul(a, m.inv(a)) == one
        for s in scalars:
            scaled = tuple(tuple((x * s) % q for x in row) for row in a)
            assert m.canonical(scaled) == ref.canonical(family, q, scaled) == a
    if m.order <= 200:
        pairs = [(a, b) for a in m.elements for b in m.elements]
    else:
        rng = random.Random(0)
        pairs = [(rng.choice(m.elements), rng.choice(m.elements)) for _ in range(20_000)]
    for a, b in pairs:
        assert m.mul(a, b) == ref.mul(family, q, a, b)


@pytest.mark.parametrize(
    "family,size,q",
    [("GL", 2, 3), ("GL", 2, 5), ("PGL", 2, 3), ("PGL", 2, 5), ("PGL", 2, 7),
     ("GL", 3, 2)],
)
def test_class_index_covers_every_invertible_matrix(family, size, q):
    """The class index at every base-q code: the number of the class of the
    matrix (any scalar multiple of an element, for PGL(2)), or NO_CLASS on
    a singular one; each class's members as flat digit tuples; and
    ``products`` and ``mul`` agree with the index."""
    m = model(family, size, q)
    index, numbers, members, _table = m._classes
    for code, entries in enumerate(itertools.product(range(q), repeat=size * size)):
        a = tuple(entries[i : i + size] for i in range(0, size * size, size))
        if _det(a, q):
            assert index[code] == numbers[oracle_reference.class_key(family, q, a)]
        else:
            assert index[code] == NO_CLASS
    for key, number in numbers.items():
        assert members[number] == [
            sum(x, ()) for x in oracle_reference.members(m, key)
        ]
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.choice(m.elements), rng.choice(m.elements)
        [code] = m.products(sum(a, ()), [sum(b, ())])
        assert index[code] == m.class_number(m.mul(a, b))


@pytest.mark.parametrize(
    "family,size,q",
    [("GL", 2, 2), ("GL", 2, 3), ("GL", 2, 5), ("GL", 2, 7), ("GL", 2, 11),
     ("GL", 3, 2), ("GL", 3, 3),
     ("PGL", 2, 3), ("PGL", 2, 5), ("PGL", 2, 7), ("PGL", 2, 11)],
)
def test_commutators_cover_the_derived_subgroup(family, size, q):
    """Every element of [G, G] is a commutator: the commutator distribution
    vanishes exactly off [G, G], so the handles after the first convolve
    over ``derived_order`` elements, as ``check_enumeration`` counts."""
    m = model(family, size, q)
    sizes = [size for _rep, size in m.class_table().values()]
    v1 = _commutator_distribution(m)
    assert sum(size for size, v in zip(sizes, v1) if v) == derived_order(family, size, q)


def test_gl3_kernels_match_generic_reference_at_q5():
    """GL(3, F_5), too large to list here: every diagonal matrix (three
    distinct diagonal entries need q >= 5) and 5,000 drawn ones."""
    m = FiniteGroupModel("GL", 3, 5, (), "GL(3, F_5)")
    rng = random.Random(0)
    drawn = [
        tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
        for _ in range(5_000)
    ]
    diagonal = [
        tuple(tuple(d[i] if i == j else 0 for j in range(3)) for i in range(3))
        for d in itertools.product(range(1, 5), repeat=3)
    ]
    matrices = [a for a in drawn + diagonal if _det(a, 5)]
    for a, b in zip(matrices, reversed(matrices)):
        assert m.class_key(a) == oracle_reference.class_key("GL", 5, a)
        assert m.mul(a, b) == oracle_reference.mul("GL", 5, a, b)


# ---------------------------------------------------------------------------
# Frozen brute-force counts (the oracle values everything else leans on)
# ---------------------------------------------------------------------------


def test_gl2_sphere_three_punctures_counts_q5():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    generic = brute_force_count(
        m, 0, (semisimple_class(m, (1, 2)), semisimple_class(m, (2, 4)), unip)
    )
    assert generic == 1
    coincident = brute_force_count(
        m, 0, (semisimple_class(m, (1, 2)), semisimple_class(m, (1, 3)), unip)
    )
    assert coincident == 2
    two_unip = brute_force_count(
        m, 0, (semisimple_class(m, (2, 3)), unip, unip)
    )
    assert two_unip == 1


def test_gl2_sphere_three_punctures_counts_q7():
    m = model("GL", 2, 7)
    unip = regular_unipotent_class(m)
    assert brute_force_count(
        m, 0, (semisimple_class(m, (1, 2)), semisimple_class(m, (3, 6)), unip)
    ) == 1
    assert brute_force_count(
        m, 0, (semisimple_class(m, (1, 2)), semisimple_class(m, (1, 4)), unip)
    ) == 2
    assert brute_force_count(
        m, 0, (semisimple_class(m, (3, 5)), unip, unip)
    ) == 1


def test_gl2_obstructed_product_is_empty():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    cls = semisimple_class(m, (1, 2))
    # det of the product is 2*2*1 = 4 != 1, so no solutions at all.
    assert brute_force_count(m, 0, (cls, cls, unip)) == 0


def test_gl2_torus_counts():
    m5 = model("GL", 2, 5)
    u5 = regular_unipotent_class(m5)
    assert brute_force_count(m5, 1, (semisimple_class(m5, (2, 3)), u5)) == 11200
    m7 = model("GL", 2, 7)
    u7 = regular_unipotent_class(m7)
    assert brute_force_count(m7, 1, (semisimple_class(m7, (2, 4)), u7)) == 95256


def test_gl2_four_punctures_counts_q5():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    c23 = semisimple_class(m, (2, 3))
    assert brute_force_count(m, 0, (c23, c23, c23, unip)) == 40
    assert brute_force_count(
        m,
        0,
        (semisimple_class(m, (1, 2)), semisimple_class(m, (2, 4)), unip, unip),
    ) == 34


def test_gl2_genus_two():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    got = brute_force_count(m, 2, (semisimple_class(m, (2, 3)), unip))
    # (q-1)^7 q^3 ((q+1)^4 - 1) at q = 5
    assert got == 2652160000


def test_pgl2_counts():
    m5 = model("PGL", 2, 5)
    u5 = regular_unipotent_class(m5)
    coincident = brute_force_count(
        m5, 0, (semisimple_class(m5, (2,)), semisimple_class(m5, (3,)), u5)
    )
    assert coincident == 3  # the two ratios are inverse mod 5
    m11 = model("PGL", 2, 11)
    u11 = regular_unipotent_class(m11)
    generic = brute_force_count(
        m11, 0, (semisimple_class(m11, (2,)), semisimple_class(m11, (7,)), u11)
    )
    assert generic == 2
    # a*b = 14 = 3 mod 11 = 5^2 is a square but 2*7 != 1: the generic
    # projective count.


def test_threads_agree_with_sequential():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    classes = (
        semisimple_class(m, (1, 2)),
        semisimple_class(m, (2, 4)),
        unip,
        unip,
    )
    assert brute_force_count(m, 0, classes) == 34
    assert brute_force_count(m, 1, (semisimple_class(m, (2, 3)), unip)) == 11200


@pytest.mark.parametrize(
    "family, size, q",
    [("GL", 2, 3), ("GL", 2, 5), ("GL", 2, 7), ("GL", 3, 3),
     ("PGL", 2, 3), ("PGL", 2, 5), ("PGL", 2, 7), ("PGL", 2, 11)],
)
def test_closed_forms_match_model(family, size, q):
    m = model(family, size, q)
    assert group_order(family, size, q) == m.order
    assert class_count(family, size, q) == len(m.class_table())
    unipotent = regular_unipotent_class(m)
    assert class_size(family, size, q, "regular_unipotent") == unipotent.size
    # a strongly regular semisimple class needs `size` distinct units (GL)
    # or a ratio other than 0 and +-1 (PGL), which F_3 does not have
    if q > 3:
        values = (2,) if family == "PGL" else tuple(range(1, size + 1))
        cls = semisimple_class(m, values)
        assert class_size(family, size, q, "semisimple") == cls.size


def test_budget_guard():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    classes = (semisimple_class(m, (2, 3)), unip, unip)
    with pytest.raises(ResourceLimitError) as exc:
        brute_force_count(m, 0, classes, budget=10)
    assert exc.value.code == "oracle-budget"


def _concrete(m, spec):
    """Classes from a spec: a tuple of eigenvalues, or "u" for regular unipotent."""
    return tuple(
        regular_unipotent_class(m) if values == "u" else semisimple_class(m, values)
        for values in spec
    )


@pytest.mark.parametrize(
    "family, size, q, genus, spec, products",
    [
        # k = 24 classes, |G| = 480, |C| = 30 (semisimple), 24 (unipotent)
        ("GL", 2, 5, 0, ((2, 3), "u", "u"), 24 * 24),
        ("GL", 2, 5, 1, ((2, 3), "u"), 480 + 24 * 30),
        # the second handle skips the classes off SL(2): |[G, G]| = 120
        ("GL", 2, 5, 2, ((2, 3), "u"), 480 + 24 * 120 + 24 * 30),
        # k = 9 classes, |G| = 336, |C| = 56 (semisimple), 48 (unipotent)
        ("PGL", 2, 7, 0, ((2,), (3,), "u"), 9 * 56),
        ("PGL", 2, 7, 1, ((2,), "u"), 336 + 9 * 56),
    ],
)
def test_budget_is_the_number_of_group_products(
    monkeypatch, family, size, q, genus, spec, products
):
    """Every product goes through ``FiniteGroupModel.products``, one per
    right factor; ``check_enumeration`` predicts their number exactly."""
    m = model(family, size, q)
    classes = _concrete(m, spec)
    calls = 0
    routine = FiniteGroupModel.products

    def counting_products(self, a, xs):
        nonlocal calls
        codes = routine(self, a, xs)
        calls += len(codes)
        return codes

    monkeypatch.setattr(FiniteGroupModel, "products", counting_products)
    count = brute_force_count(m, genus, classes)
    assert calls == products
    assert brute_force_count(m, genus, classes, budget=products) == count
    with pytest.raises(ResourceLimitError) as exc:
        brute_force_count(m, genus, classes, budget=products - 1)
    assert exc.value.code == "oracle-budget"


def test_class_table_checks_keys_are_the_classes(monkeypatch):
    key = FiniteGroupModel.class_key

    def merged(self, m):
        # Dropping the determinant's square class merges the two order-2 classes.
        k = key(self, m)
        return k[:1] if k[0] == "pgl-order2" else k

    monkeypatch.setattr(FiniteGroupModel, "class_key", merged)
    with pytest.raises(InternalConsistencyError) as exc:
        model("PGL", 2, 5).class_table()
    assert exc.value.code == "class-table"


def _outcome(count, m, genus, classes):
    """The count, or the code of the internal error it raises."""
    try:
        return count(m, genus, classes)
    except InternalConsistencyError as exc:
        return exc.code


# Class tuples per group; the four-class tuples only at genus 0, where the
# reference's cost is one product per tuple of the first three classes.
# PGL(2) classes are their own inverses, and so are those of GL(2, F_3) and
# the unipotent ones; the GL(2, F_5) tuples ending in the class of
# diag(1, 2) are the ones that tell C_n from C_n^-1.
DIFFERENTIAL_CASES = [
    ((family, size, q), genus, spec)
    for (family, size, q), specs in [
        (("GL", 2, 3), [((1, 2), "u"), ((1, 2), (1, 2), "u"), ("u", "u"),
                        ("u", "u", "u")]),
        (("GL", 2, 5), [((2, 3), "u"), ((1, 2), (2, 4), "u"), ("u", "u"),
                        ((1, 2), (1, 3)), ((2, 4), "u", (1, 2))]),
        (("PGL", 2, 5), [((2,), "u"), ((2,), (3,), "u"), ((2,), (2,), "u"),
                         ("u", "u", "u")]),
        (("PGL", 2, 7), [((2,), "u"), ((2,), (4,), "u"), ((3,), (5,), "u"),
                         ("u", "u")]),
    ]
    for genus in (0, 1, 2)
    for spec in specs
] + [
    (("GL", 2, 5), 0, ((2, 3), (2, 3), (2, 3), "u")),
    (("GL", 2, 5), 0, ((1, 2), (2, 4), "u", "u")),
    (("PGL", 2, 7), 0, ((3,), (5,), "u", "u")),
    (("GL", 3, 3), 0, ("u", "u", "u")),
] + [
    # the fields where no class is strongly regular semisimple, GL(2, F_7),
    # and GL(3, F_3) with a handle
    ((family, size, q), genus, spec)
    for (family, size, q), genera, specs in [
        (("GL", 2, 2), (0, 1, 2), [("u", "u"), ("u", "u", "u")]),
        (("PGL", 2, 3), (0, 1, 2), [("u", "u"), ("u", "u", "u")]),
        (("GL", 3, 2), (0, 1, 2), [("u", "u"), ("u", "u", "u")]),
        (("GL", 2, 7), (0, 1, 2), [((2, 3), "u")]),
        (("GL", 2, 7), (0,), [((1, 2), (3, 6), "u")]),
        (("GL", 3, 3), (1,), [("u", "u")]),
    ]
    for genus in genera
    for spec in specs
]


def _case_id(case):
    (family, size, q), genus, spec = case
    classes = "-".join(
        "u" if values == "u" else "s" + "".join(map(str, values)) for values in spec
    )
    return f"{family}{size}_q{q}-g{genus}-{classes}"


@pytest.mark.parametrize(
    "group, genus, spec", DIFFERENTIAL_CASES, ids=map(_case_id, DIFFERENTIAL_CASES)
)
def test_class_function_count_matches_reference(group, genus, spec):
    m = model(*group)
    classes = _concrete(m, spec)
    expected = _outcome(reference_count, m, genus, classes)
    assert _outcome(brute_force_count, m, genus, classes) == expected


# ---------------------------------------------------------------------------
# Oracle equals the polynomial formula specialized at q
# ---------------------------------------------------------------------------


def formula_value(group, genus, punctures, symbols, relations, classes, q):
    datum = EigenvalueDatum(tuple(symbols), tuple(relations))
    spec = ProblemSpec(
        rd=build_root_datum(group),
        genus=genus,
        punctures=punctures,
        eigenvalues=datum,
        semisimple_classes=tuple(
            SymbolicTorusElement.from_words(datum, words) for words in classes
        ),
    )
    value = count_polynomial(spec).polynomial.evaluate(q)
    assert value.denominator == 1
    return int(value)


GL2_FORMULA_CASES = [
    # (genus, punctures, symbols, relations, class words, eigenvalue map)
    (0, 3, ["a", "b", "c", "d"], ["a*b*c*d = 1"], [["a", "b"], ["c", "d"]],
     {5: ((1, 2), (2, 4)), 7: ((1, 2), (3, 6))}),
    (0, 3, ["a", "b", "c", "d"], ["a*c = 1", "b*d = 1"], [["a", "b"], ["c", "d"]],
     {5: ((1, 2), (1, 3)), 7: ((1, 2), (1, 4))}),
    (0, 3, ["a"], [], [["a", "a^-1"]],
     {5: ((2, 3),), 7: ((3, 5),)}),
    (1, 2, ["a", "b"], ["a*b = 1"], [["a", "b"]],
     {5: ((2, 3),), 7: ((2, 4),)}),
]


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("case", GL2_FORMULA_CASES, ids=["generic", "coincident", "two-unipotent", "genus-one"])
def test_oracle_matches_formula_gl2(case, q):
    genus, punctures, symbols, relations, class_words, values = case
    m = model("GL", 2, q)
    unip = regular_unipotent_class(m)
    concrete = [semisimple_class(m, v) for v in values[q]]
    concrete += [unip] * (punctures - len(concrete))
    oracle = brute_force_count(m, genus, tuple(concrete))
    formula = formula_value(
        "GL(2)", genus, punctures, symbols, relations, class_words, q
    )
    assert oracle == formula


def test_oracle_matches_formula_gl2_four_punctures():
    m = model("GL", 2, 5)
    unip = regular_unipotent_class(m)
    c23 = semisimple_class(m, (2, 3))
    oracle = brute_force_count(m, 0, (c23, c23, c23, unip))
    formula = formula_value(
        "GL(2)", 0, 4, ["a", "b"], ["a*b = 1"],
        [["a", "b"], ["a", "b"], ["a", "b"]], 5,
    )
    assert oracle == formula == 40
    oracle2 = brute_force_count(
        m, 0,
        (semisimple_class(m, (1, 2)), semisimple_class(m, (2, 4)), unip, unip),
    )
    formula2 = formula_value(
        "GL(2)", 0, 4, ["a", "b", "c", "d"], ["a*b*c*d = 1"],
        [["a", "b"], ["c", "d"]], 5,
    )
    assert oracle2 == formula2 == 34


@pytest.mark.parametrize(
    "q,ratios,relations,expected",
    [
        (5, ((2,), (3,)), ["a*b = 1"], 3),
        (11, ((2,), (7,)), ["a*b = t^2"], 2),
    ],
)
def test_oracle_matches_formula_pgl2(q, ratios, relations, expected):
    m = model("PGL", 2, q)
    unip = regular_unipotent_class(m)
    concrete = tuple(semisimple_class(m, r) for r in ratios) + (unip,)
    oracle = brute_force_count(m, 0, concrete)
    symbols = ["a", "b", "t"] if "t" in relations[0] else ["a", "b"]
    formula = formula_value(
        "PGL(2)", 0, 3, symbols, relations, [["a"], ["b"]], q
    )
    assert oracle == formula == expected


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------


def test_generic_triple_witness_explicit_values():
    assert verify_witness(
        GL2_GENERIC_TRIPLE, 5, values={"a": 1, "b": 2, "c": 2, "d": 4}
    )


def test_generic_triple_witness_sampled():
    assert verify_witness(GL2_GENERIC_TRIPLE, 7, seed=3)


def test_coincident_witnesses_give_two_distinct_points():
    w1, w2 = GL2_COINCIDENT_TRIPLES
    assert verify_witness(w1, 5, values={"a": 2, "b": 3})
    assert verify_witness(w2, 5, values={"a": 2, "b": 3})
    m = model("GL", 2, 5)
    t1 = witness_matrices(w1, 5, {"a": 2, "b": 3})
    t2 = witness_matrices(w2, 5, {"a": 2, "b": 3})
    assert tuples_conjugate(m, t1, t1)
    assert not tuples_conjugate(m, t1, t2)


def test_two_unipotent_witness():
    assert verify_witness(GL2_TWO_UNIPOTENT_TRIPLE, 5, values={"a": 2})
    assert verify_witness(GL2_TWO_UNIPOTENT_TRIPLE, 7, seed=0)


def test_rigid_projective_pair_both_verify_and_are_not_conjugate():
    values = {"a": 2, "b": 8, "t": 4}  # 2*8 = 16 = 4^2 mod 11
    e1, e2 = PGL2_RIGID_TRIPLES
    assert verify_witness(e1, 11, values=values)
    assert verify_witness(e2, 11, values=values)
    m = model("PGL", 2, 11)
    t1 = witness_matrices(e1, 11, values)
    t2 = witness_matrices(e2, 11, values)
    assert tuples_conjugate(m, t1, t1)
    assert tuples_conjugate(m, t2, t2)
    assert not tuples_conjugate(m, t1, t2)


def test_rigid_pair_matches_projective_count():
    # The two rigid witnesses exhaust the brute-force count of 2.
    m = model("PGL", 2, 11)
    unip = regular_unipotent_class(m)
    values = {"a": 2, "b": 8, "t": 4}
    count = brute_force_count(
        m, 0,
        (semisimple_class(m, (2,)), semisimple_class(m, (8,)), unip),
    )
    assert count == 2
    assert verify_witness(PGL2_RIGID_TRIPLES[0], 11, values=values)
    assert verify_witness(PGL2_RIGID_TRIPLES[1], 11, values=values)


def test_perturbed_witness_fails():
    bad = dataclasses.replace(
        GL2_GENERIC_TRIPLE,
        matrices=(
            (("a", "1"), ("a*b*(c + d) - a - b", "b")),
        )
        + GL2_GENERIC_TRIPLE.matrices[1:],
    )
    assert not verify_witness(bad, 5, values={"a": 1, "b": 2, "c": 2, "d": 4})


def test_witness_values_must_be_admissible():
    with pytest.raises(InvalidInputError) as exc:
        verify_witness(
            GL2_GENERIC_TRIPLE, 5, values={"a": 1, "b": 2, "c": 2, "d": 3}
        )
    assert exc.value.code == "witness-values"


def test_witness_specialization_can_be_inconclusive():
    impossible = dataclasses.replace(
        GL2_GENERIC_TRIPLE, constraints=("a - a",)
    )
    with pytest.raises(ResourceLimitError) as exc:
        verify_witness(impossible, 5, seed=0)
    assert exc.value.code == "witness-specialization"
