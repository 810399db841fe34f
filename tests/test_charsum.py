"""Tests for symbolic torus elements, Weyl translation, and Delta/alpha.

Delta and alpha are the diagnostic table's: ``count.delta_values`` over
every node, and ``count.mobius_sum`` of those values for alpha.
Frozen values: the GL(2) pair delta(full) = q-1, delta(empty) = 0 for
eigenvalues with a*b = 1; the identity-element alternation
alpha(empty, 1) = (q-1)(q-2)...(q-n) for GL(n).  Structural oracles:
Mobius inversion (sum of alpha over all nodes = delta at the empty node),
Weyl equivariance of in_commutator, and monotonicity of the commutator
condition along inclusions.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from charvar import reference
from charvar.abelian import quotient_invariants
from charvar.charsum import (
    EigenvalueDatum,
    SymbolicTorusElement,
    evaluate_character,
    strongly_regular,
)
from charvar.count import Engine, ProblemSpec, delta_values, mobius_sum
from charvar.errors import InvalidInputError
from charvar.qpoly import Poly
from charvar.reference import (
    enumerate_weyl,
    in_commutator,
    product_translate,
    translate,
)
from charvar.rootdata import build_root_datum
from charvar.subsystems import build_poset
from subsystem_reference import leq, node_sets
import translate_reference


QM1 = Poly([-1, 1])


def _element(datum, *words):
    return SymbolicTorusElement.from_words(datum, words)


def _deltas(poset, s):
    """Delta(Psi, S) at every node of the poset, without overrides."""
    engine = Engine(ProblemSpec(poset.rd, 0, 2, s.datum, (s,)))
    assert engine.poset is poset
    return delta_values(engine)


# ---------------------------------------------------------------------------
# Parsing and evaluation
# ---------------------------------------------------------------------------


def test_word_parsing():
    datum = EigenvalueDatum(symbols=("a", "b", "t"))
    assert datum.parse_word("a*b^-2") == (1, -2, 0)
    assert datum.parse_word("1") == (0, 0, 0)
    assert datum.parse_word("t^3 * a") == (1, 0, 3)
    assert datum.parse_relation("a*b = t^2") == (1, 1, -2)
    assert datum.parse_relation("a*b") == (1, 1, 0)
    with pytest.raises(InvalidInputError):
        datum.parse_word("a+b")
    with pytest.raises(InvalidInputError):
        datum.parse_word("z")
    with pytest.raises(InvalidInputError):
        datum.parse_relation("a = b = t")


def test_word_str_roundtrip():
    datum = EigenvalueDatum(symbols=("a", "b"))
    for text in ["a*b^-2", "1", "b^3"]:
        word = datum.parse_word(text)
        assert datum.parse_word(datum.word_str(word)) == word


def test_evaluate_character():
    datum = EigenvalueDatum(symbols=("a", "b"))
    s = _element(datum, "a", "b")
    # the GL(2) root e1 - e2 evaluates to a * b^-1
    assert evaluate_character((1, -1), s) == (1, -1)
    assert evaluate_character((0, 0), s) == (0, 0)
    assert evaluate_character((2, 1), s) == (2, 1)


def test_group_relations_decide_identity():
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b",))
    g = datum.group
    assert quotient_invariants(g.generator_count, g.relations).free_rank == 1
    word = datum.parse_word("a*b")
    assert translate_reference.is_identity(g, word)
    assert not translate_reference.is_identity(g, datum.parse_word("a"))


# ---------------------------------------------------------------------------
# Weyl translation
# ---------------------------------------------------------------------------


def test_translate_permutes_gl3_coordinates():
    rd = build_root_datum("GL(3)")
    datum = EigenvalueDatum(symbols=("a", "b", "c"))
    s = _element(datum, "a", "b", "c")
    images = {translate(w, s).coords for w in enumerate_weyl(rd)}
    # W = S3 permutes the three coordinates freely here
    perms = {
        tuple(s.coords[i] for i in perm)
        for perm in itertools.permutations(range(3))
    }
    assert images == perms


def test_product_translate_sums_coordinates():
    rd = build_root_datum("GL(2)")
    datum = EigenvalueDatum(symbols=("a", "b", "c", "d"))
    s1 = _element(datum, "a", "b")
    s2 = _element(datum, "c", "d")
    identity = tuple(tuple(1 if i == j else 0 for j in range(2)) for i in range(2))
    swap = next(w for w in enumerate_weyl(rd) if w != identity)
    prod = product_translate([identity, swap], [s1, s2])
    # w2 swaps (c, d); the product multiplies coordinatewise
    assert prod.coords == (datum.parse_word("a*d"), datum.parse_word("b*c"))
    with pytest.raises(InvalidInputError):
        product_translate([identity], [s1, s2])


# ---------------------------------------------------------------------------
# Strong regularity
# ---------------------------------------------------------------------------


def test_strongly_regular_gl2():
    rd = build_root_datum("GL(2)")
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b",))
    assert strongly_regular(rd, _element(datum, "a", "b"))
    # equal coordinates: the root a/b collapses
    datum2 = EigenvalueDatum(symbols=("a",))
    assert not strongly_regular(rd, _element(datum2, "a", "a"))


def test_strongly_regular_needs_trivial_stabilizer():
    # a*b = 1 with a^2 = 1 makes S = (a, b) fixed by the swap: a != b is not
    # forced, since b = a^-1 = a
    rd = build_root_datum("GL(2)")
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b", "a^2"))
    s = _element(datum, "a", "b")
    assert not strongly_regular(rd, s)


def test_strongly_regular_pgl2_natural_pairing():
    # PGL(2) in the fundamental-coweight basis: S = (t) pairs with the root
    # to give t itself, so S is strongly regular whenever t is not forced
    # to 1 or to be fixed by inversion
    rd = build_root_datum("PGL(2)")
    datum = EigenvalueDatum(symbols=("t",))
    assert strongly_regular(rd, _element(datum, "t"))
    assert evaluate_character(rd.roots[rd.positive[0]], _element(datum, "t")) == (1,)
    datum2 = EigenvalueDatum(symbols=("t",), relations=("t^2",))
    assert not strongly_regular(rd, _element(datum2, "t"))


def test_strongly_regular_so5():
    rd = build_root_datum("SO(5)")
    datum = EigenvalueDatum(symbols=("a", "b"))
    assert strongly_regular(rd, _element(datum, "a", "b"))
    # a = b is fixed by the reflection swapping the two coordinates
    assert not strongly_regular(rd, _element(datum, "a", "a"))


def test_strongly_regular_wrong_rank():
    rd = build_root_datum("GL(2)")
    datum = EigenvalueDatum(symbols=("a",))
    with pytest.raises(InvalidInputError):
        strongly_regular(rd, _element(datum, "a"))


# B2(ad) is SO(5) (an adjoint group of type B2 = C2); PGL(n), SO(5), B2(ad),
# B3(ad) and D4(ad) have torsion in X^vee / Z Phi^vee
REGULARITY_GROUPS = (
    "GL(2)", "GL(3)", "GL(4)", "SO(5)", "Sp(4)", "G2", "PGL(2)", "B2(ad)",
    "PGL(3)", "B3(ad)", "D4(ad)", "SO(5) x GL(2)",
)
# the torsion of A, as the relations of ``_regularity_case`` give it
TORSION_KINDS = {"none": 0, "cyclic": 1, "non-cyclic": 2, "(Z/2)^3": 3}


def _regularity_case(rng, group: str, kind: str):
    """S over symbols a, b, c whose relations give A the torsion ``kind``:
    none (c eliminated), Z/e (a^e), (Z/e)^2 (a^e, b^e) or (Z/2)^3."""
    e = rng.randint(2, 4)
    relations = {
        "none": (f"c = a^{rng.randint(-2, 2)}*b^{rng.randint(-2, 2)}",),
        "cyclic": (f"a^{e}",),
        "non-cyclic": (f"a^{e}", f"b^{e}"),
        "(Z/2)^3": ("a^2", "b^2", "c^2"),
    }[kind]
    datum = EigenvalueDatum(symbols=("a", "b", "c"), relations=relations)
    words = [
        "*".join(f"{s}^{rng.randint(-2, 2)}" for s in "abc")
        for _ in range(build_root_datum(group).rank)
    ]
    return _element(datum, *words)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(REGULARITY_GROUPS),
    st.sampled_from(list(TORSION_KINDS)),
    st.randoms(use_true_random=False),
)
def test_strong_regularity_matches_the_loop_over_w(group, kind, rng):
    s = _regularity_case(rng, group, kind)
    rd = build_root_datum(group)
    torsion = quotient_invariants(3, s.datum.group.relations).torsion
    assert len(torsion) == TORSION_KINDS[kind]
    assert strongly_regular(rd, s) == translate_reference.strongly_regular(rd, s)


# the groups of REGULARITY_GROUPS and more: a larger rank, F4, products
# with a torus or an adjoint factor, and a torus alone
DIFFERENTIAL_GROUPS = REGULARITY_GROUPS + (
    "GL(5)", "SL(3)", "Sp(6)", "SO(7)", "C3(ad)", "F4", "G2 x PGL(2)",
    "GL(2) x PGL(2)", "T(2)",
)


def test_strong_regularity_agrees_with_the_loop_on_seeded_draws():
    """1,200 seeded draws over DIFFERENTIAL_GROUPS and every torsion kind
    agree with the loop over W.  At least 50 of them must be regular (no
    root is trivial on S) yet fixed by some w != 1, the case only the Weyl
    stabilizer decides; the draws hold 72.  The test takes about 1.5 s, most
    of it in the loop (2-core Xeon VM, CPython 3.11); it must stay under 10 s."""
    start = time.perf_counter()
    rng = random.Random(20261020)
    data = {group: build_root_datum(group) for group in DIFFERENTIAL_GROUPS}
    fixed = 0
    for _ in range(1200):
        group, kind = rng.choice(DIFFERENTIAL_GROUPS), rng.choice(list(TORSION_KINDS))
        rd, s = data[group], _regularity_case(rng, group, kind)
        got = strongly_regular(rd, s)
        assert got == translate_reference.strongly_regular(rd, s), (group, s)
        fixed += not got and not any(
            translate_reference.is_identity(s.datum.group, evaluate_character(root, s))
            for root in rd.roots
        )
    assert fixed >= 50
    assert time.perf_counter() - start < 10.0


def _refuse_weyl(*args):
    raise AssertionError("the Weyl group was enumerated")


@pytest.mark.parametrize("group", REGULARITY_GROUPS)
@pytest.mark.parametrize("kind", list(TORSION_KINDS))
def test_strong_regularity_never_enumerates_w(monkeypatch, group, kind):
    """With the Weyl group builder refusing, every group and torsion kind is
    decided as by the loop over W: S = (a1, .., ar) with no relation or
    a1^3 (strongly regular on the groups whose cocenter is torsion-free),
    and seeded draws of ``_regularity_case``."""
    rank = build_root_datum(group).rank
    symbols = tuple(f"a{i}" for i in range(1, rank + 1))
    cases = [
        _element(EigenvalueDatum(symbols=symbols, relations=relations), *symbols)
        for relations in ((), ("a1^3",))
    ]
    rng = random.Random(f"{group}/{kind}")
    cases += [_regularity_case(rng, group, kind) for _ in range(6)]
    expected = [
        translate_reference.strongly_regular(build_root_datum(group), s) for s in cases
    ]
    monkeypatch.setattr(reference, "_reflection_group", _refuse_weyl)
    rd = build_root_datum(group)
    assert [strongly_regular(rd, s) for s in cases] == expected
    if group in ("GL(2)", "GL(3)", "GL(4)", "Sp(4)", "G2"):
        assert expected[:2] == [True, True]


def test_loop_over_w_finds_a_fixed_regular_element(monkeypatch):
    """SO(5) at S = (a, b) with a^2 = b^2 = 1: no root is trivial, and -1 in
    W fixes S; the stabilizer test must find it without a loop over W."""
    monkeypatch.setattr(reference, "_reflection_group", _refuse_weyl)
    rd = build_root_datum("SO(5)")
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a^2", "b^2"))
    s = _element(datum, "a", "b")
    group = datum.group
    assert not any(
        translate_reference.is_identity(group, evaluate_character(rd.roots[i], s))
        for i in rd.positive
    )
    assert not strongly_regular(rd, s)


# ---------------------------------------------------------------------------
# in_commutator / delta / alpha
# ---------------------------------------------------------------------------


def test_gl2_delta_frozen():
    rd = build_root_datum("GL(2)")
    poset = build_poset(rd)
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b",))
    s = _element(datum, "a", "b")
    full = frozenset(range(rd.num_roots))
    deltas = _deltas(poset, s)
    assert in_commutator(rd, full, s)
    assert deltas[node_sets(poset.masks).index(full)] == QM1
    assert not in_commutator(rd, frozenset(), s)
    assert deltas[node_sets(poset.masks).index(frozenset())] == Poly()


def test_gl2_delta_generic_eigenvalues():
    rd = build_root_datum("GL(2)")
    poset = build_poset(rd)
    datum = EigenvalueDatum(symbols=("a", "b"))  # no relations: generic
    s = _element(datum, "a", "b")
    full = frozenset(range(rd.num_roots))
    # det S = a*b is not forced trivial
    assert not in_commutator(rd, full, s)
    assert _deltas(poset, s)[node_sets(poset.masks).index(full)] == Poly()


def test_delta_at_identity_counts_torus():
    for desc, d in [("GL(2)", 2), ("SO(5)", 2), ("G2", 2)]:
        rd = build_root_datum(desc)
        datum = EigenvalueDatum(symbols=("a",))
        one = SymbolicTorusElement.from_words(datum, ["1"] * rd.rank)
        poset = build_poset(rd)
        empty = node_sets(poset.masks).index(frozenset())
        assert _deltas(poset, one)[empty] == QM1 ** d


def test_so5_torsion_power_condition():
    """The A1xA1 node of SO(5) needs both 2e_i-coordinates to be squares."""
    rd = build_root_datum("SO(5)")
    poset = build_poset(rd)
    a1a1 = next(
        i for i in range(poset.num_nodes)
        if poset.type_label(i) == "A1xA1"
    )
    node = node_sets(poset.masks)[a1a1]
    # (a, b) with a = s^2, b = u^2: quotient conditions hold
    datum = EigenvalueDatum(symbols=("s", "u"))
    sq = SymbolicTorusElement(datum=datum, coords=((2, 0), (0, 2)))
    assert in_commutator(rd, node, sq)
    assert _deltas(poset, sq)[a1a1] == Poly([4])
    # generic (a, b): not forced to be squares
    datum2 = EigenvalueDatum(symbols=("a", "b"))
    gen = _element(datum2, "a", "b")
    assert not in_commutator(rd, node, gen)


def test_in_commutator_monotone():
    rd = build_root_datum("SO(5)")
    poset = build_poset(rd)
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b",))
    samples = [
        _element(datum, "a", "b"),
        _element(datum, "a", "a"),
        _element(datum, "1", "1"),
        SymbolicTorusElement(datum=datum, coords=((2, 0), (0, 0))),
    ]
    nodes = node_sets(poset.masks)
    for s in samples:
        for i in range(poset.num_nodes):
            for j in range(poset.num_nodes):
                if leq(poset, i, j) and in_commutator(rd, nodes[i], s):
                    assert in_commutator(rd, nodes[j], s)


def test_in_commutator_weyl_equivariant():
    rd = build_root_datum("SO(5)")
    poset = build_poset(rd)
    lookup = {v: i for i, v in enumerate(rd.coroots)}
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a^2*b",))
    s = _element(datum, "a", "b")
    for w in enumerate_weyl(rd):
        ws = translate(w, s)
        for node in node_sets(poset.masks):
            image = frozenset(
                lookup[tuple(sum(w[r][c] * rd.coroots[k][c] for c in range(rd.rank))
                             for r in range(rd.rank))]
                for k in node
            )
            assert in_commutator(rd, node, s) == in_commutator(rd, image, ws)


def test_alpha_telescopes_to_delta_at_empty():
    """Mobius inversion: sum over all nodes of alpha(node, S) = delta(empty, S)."""
    for desc, relations in [
        ("GL(2)", ("a*b",)),
        ("GL(3)", ()),
        ("SO(5)", ("a*b",)),
    ]:
        rd = build_root_datum(desc)
        poset = build_poset(rd)
        datum = EigenvalueDatum(
            symbols=tuple("ab"[: rd.rank]) or ("a",), relations=relations
        )
        words = ["a", "b", "1"][: rd.rank]
        s = _element(datum, *words)
        deltas = _deltas(poset, s)
        total = Poly()
        for i in range(poset.num_nodes):
            total = total + mobius_sum(poset.mobius_row(i), deltas)
        assert total == deltas[node_sets(poset.masks).index(frozenset())], desc


@pytest.mark.parametrize("n,expected_factors", [(2, 2), (3, 3), (4, 4)])
def test_alpha_empty_at_identity_gl(n, expected_factors):
    """alpha(empty, identity) = (q-1)(q-2)...(q-n) for GL(n)."""
    rd = build_root_datum(f"GL({n})")
    poset = build_poset(rd)
    datum = EigenvalueDatum(symbols=("a",))
    one = SymbolicTorusElement.from_words(datum, ["1"] * rd.rank)
    empty = node_sets(poset.masks).index(frozenset())
    expected = Poly([1])
    for i in range(1, n + 1):
        expected = expected * Poly([-i, 1])
    assert mobius_sum(poset.mobius_row(empty), _deltas(poset, one)) == expected


def test_canonical_key_identifies_equal_elements():
    datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b",))
    s1 = _element(datum, "a", "b")
    s2 = SymbolicTorusElement(datum=datum, coords=((1, 0), (-1, 0)))  # b = a^-1
    assert s1.coords != s2.coords
    assert s1.canonical_key() == s2.canonical_key()


@settings(max_examples=40, deadline=None)
@given(
    rel=st.sampled_from(["a*b", "a^2*b", "a*b^2", "a^3"]),
    coords=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=2
    ),
)
def test_delta_properties(rel, coords):
    rd = build_root_datum("SO(5)")
    poset = build_poset(rd)
    datum = EigenvalueDatum(symbols=("a", "b"), relations=(rel,))
    s = SymbolicTorusElement(datum=datum, coords=tuple(coords))
    full = frozenset(range(rd.num_roots))
    deltas = _deltas(poset, s)
    nodes = node_sets(poset.masks)
    d_full = deltas[nodes.index(full)]
    d_empty = deltas[nodes.index(frozenset())]
    # full-node delta is the constant |Tor| when the element is inside
    assert d_full.degree() <= 0
    if not d_empty.is_zero():
        # the identity is in every commutator subgroup image
        assert not d_full.is_zero()
