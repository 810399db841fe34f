"""Differential tests of the translate join against brute force and per node.

``count.orbit_pass_counts`` counts, per Weyl orbit of closed subsystems
Psi, the W^m-translate tuples of the semisimple classes whose product dies
in (X^vee / <Psi>) (x) A, by convolving per-class histograms of images
under one compiled node map per orbit, with the first class's translate
fixed and carried to each member.  Two references
check it.  The brute-force one enumerates all |W|^m tuples and decides
each product with the per-product Smith test the node map replaced: with
U C V = D the Smith form of the coroots of Psi, the word
b_j = sum_i V[i][j] S_i must be a d_j-th power along each torsion
direction and trivial along each free one, asked through the public
``is_dth_power`` and the reference's ``is_identity``.  The per-node one is the join the
orbit count replaced (``translate_reference``), run at every node with all
m classes translated.  Metamorphic tests check that the whole count is
unchanged when a class is replaced by a Weyl translate, the classes are
permuted, the eigenvalue generators change by a unimodular matrix (the
relations rewritten to match) or a redundant symbol is added with its
defining relation, and a floor on the share of drawn problems with a
non-empty count keeps these tests reaching the master sum.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.abelian import smith_normal_form
from charvar.cli_oracle import UnitSpecialization
from charvar.charsum import EigenvalueDatum, SymbolicTorusElement, node_map
from charvar.count import (
    Engine,
    ProblemSpec,
    count_polynomial,
    resolve_overrides,
)
from charvar.errors import CharvarError
from charvar.reference import enumerate_weyl, is_dth_power, product_translate, translate
from charvar.rootdata import build_root_datum
from charvar.subsystems import build_poset
from subsystem_reference import node_sets
from translate_reference import is_identity, node_pass_counts

# the largest m per group in the drawn problems that are counted
COUNTED_MAX_M = {"GL(2)": 3, "GL(3)": 3, "GL(4)": 2, "PGL(2)": 3, "SO(5)": 3, "G2": 2}
# the join tests run the engine without the count's hypotheses, so they
# also take B3, whose center is not connected, and groups on which the
# drawn classes are seldom strongly regular
MAX_M = dict(COUNTED_MAX_M, **{"PGL(3)": 3, "B3": 3, "B3(ad)": 3, "SO(5) x GL(2)": 3})
# the brute force keeps |W|^m <= 576 products (|W| = 48 for B3, 16 for SO(5) x GL(2))
BRUTE_FORCE_MAX_M = dict(MAX_M, B3=1, **{"B3(ad)": 1, "SO(5) x GL(2)": 2})
# the metamorphic tests run no brute force, so G2 goes to m = 3 there
METAMORPHIC_MAX_M = dict(COUNTED_MAX_M, G2=3)


def reference_pass_counts(spec: ProblemSpec, poset) -> list[int]:
    rd = spec.rd
    group = spec.eigenvalues.group
    width = group.generator_count
    smith = []
    for psi in node_sets(poset.masks):
        if psi:
            snf = smith_normal_form([list(rd.coroots[i]) for i in sorted(psi)])
            smith.append((snf.V, snf.divisors))
        else:
            smith.append((None, ()))
    counts = [0] * poset.num_nodes
    weyl = enumerate_weyl(rd)
    for ws in itertools.product(weyl, repeat=spec.m):
        prod = product_translate(ws, spec.semisimple_classes)
        for k, (v_mat, divisors) in enumerate(smith):
            if v_mat is None:
                dies = all(is_identity(group, w) for w in prod.coords)
            else:
                dies = True
                for j in range(rd.rank):
                    b_j = [
                        sum(v_mat[i][j] * prod.coords[i][t] for i in range(rd.rank))
                        for t in range(width)
                    ]
                    if j < len(divisors):
                        dies = is_dth_power(group, b_j, divisors[j])
                    else:
                        dies = is_identity(group, b_j)
                    if not dies:
                        break
            counts[k] += dies
    return counts


@st.composite
def problems(draw, max_m=COUNTED_MAX_M):
    """Random classes over a few shared symbols, so translate products often
    cancel, with up to three random monomial relations (torsion included).

    On about three draws in four the class product is made to die in the
    cocentre X^vee / <Phi^vee> (x) A, so that the variety can be non-empty:
    a relation b_j = 1 for each nontrivial direction j of the cocentre's
    Smith basis, b_j the product's word along it.  For GL(n) that is the
    relation "product of all determinants = 1"."""
    group = draw(st.sampled_from(sorted(max_m)))
    rd = build_root_datum(group)
    m = draw(st.integers(1, max_m[group]))
    symbols = ("a", "b", "c")[: draw(st.integers(1, 3))]
    words = st.lists(st.integers(-2, 2), min_size=len(symbols), max_size=len(symbols))
    relations = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=len(symbols), max_size=len(symbols)),
            max_size=3,
        )
    )
    coords = [tuple(tuple(draw(words)) for _ in range(rd.rank)) for _ in range(m)]
    if draw(st.integers(0, 3)):
        relations += _central_relations(rd, coords)
    datum = EigenvalueDatum(
        symbols, tuple(EigenvalueDatum(symbols).word_str(r) for r in relations)
    )
    return ProblemSpec(
        rd=rd, genus=0, punctures=m + 1, eigenvalues=datum,
        semisimple_classes=tuple(SymbolicTorusElement(datum, c) for c in coords),
    )


def _central_relations(rd, coords) -> list[list[int]]:
    """Exponent rows that kill the class product in X^vee / <Phi^vee>.

    With U C V = D the Smith form of the coroots, the product P maps to the
    words b_j = sum_i V[i][j] P_i along the directions with d_j != 1.
    """
    snf = smith_normal_form([list(v) for v in rd.coroots])
    divisors = snf.divisors + (0,) * (rd.rank - len(snf.divisors))
    product = [list(map(sum, zip(*(c[i] for c in coords)))) for i in range(rd.rank)]
    rows = [
        [sum(snf.V[i][j] * product[i][t] for i in range(rd.rank))
         for t in range(len(product[0]))]
        for j, d in enumerate(divisors) if d != 1
    ]
    return [row for row in rows if any(row)]


def engine_pass_counts(spec: ProblemSpec, poset) -> list[int]:
    """The orbit counts of every orbit, read back per node."""
    counts = Engine(spec).pass_counts
    return [counts[poset.orbit_of(j)] for j in range(poset.num_nodes)]


@settings(max_examples=100, deadline=10_000)
@given(problems(BRUTE_FORCE_MAX_M))
def test_join_matches_brute_force_enumeration(spec):
    poset = build_poset(spec.rd)
    assert engine_pass_counts(spec, poset) == reference_pass_counts(spec, poset)


@settings(max_examples=100, deadline=10_000)
@given(problems(MAX_M), st.data())
def test_orbit_counts_match_per_node_join(spec, data):
    """Orbit counts equal the per-node join, with and without overrides.

    Overrides are drawn by type label; the oracle's symbolic counts cover
    exactly the orbits they leave out, one count per orbit.
    """
    poset = build_poset(spec.rd)
    group = spec.eigenvalues.group
    maps = [node_map(poset.quotient(i), group) for i in range(poset.num_nodes)]
    per_node = node_pass_counts(spec, maps)
    assert engine_pass_counts(spec, poset) == per_node

    labels = sorted({poset.type_label(i) for i in range(poset.num_nodes)})
    overrides = data.draw(
        st.dictionaries(st.sampled_from(labels), st.booleans(), max_size=2)
    )
    spec = spec._replace(overrides=tuple(sorted(overrides.items())))
    overridden = resolve_overrides(poset, dict(spec.overrides))
    # labels are constant on orbits: an orbit is overridden exactly when
    # each of its members carries an overridden type label
    assert all(
        (poset.orbit_of(j) in overridden) == (poset.type_label(j) in overrides)
        for j in range(poset.num_nodes)
    )
    kept = {
        k: orbit for k, orbit in enumerate(poset.orbits()) if k not in overridden
    }
    engine = Engine(spec)
    assert engine.overrides == overridden
    symbolic = {k: n for k, n in engine.pass_counts.items() if k not in engine.overrides}
    assert symbolic == {k: per_node[orbit[0]] for k, orbit in kept.items()}
    # every orbit is counted, overridden or not, and the faithfulness test
    # compares the kept orbits alone: the problem is faithful to itself,
    # and a changed count on a kept orbit is caught
    assert engine.pass_counts == {k: per_node[o[0]] for k, o in enumerate(poset.orbits())}
    assert UnitSpecialization(spec, 5, symbolic).faithful(spec)
    for k in list(kept)[:1]:
        changed = {**symbolic, k: symbolic[k] + 1}
        assert not UnitSpecialization(spec, 5, changed).faithful(spec)


def _redraw_surface(spec: ProblemSpec, data) -> ProblemSpec:
    """``spec`` at genus 0 or 1 with one or two unipotent punctures."""
    return spec._replace(
        genus=data.draw(st.integers(0, 1)),
        punctures=spec.m + data.draw(st.integers(1, 2)),
    )


def _count_outcome(spec: ProblemSpec):
    """The count report, or the code of the error the count raises."""
    try:
        return count_polynomial(spec)
    except CharvarError as exc:
        return exc.code


@settings(max_examples=150, deadline=10_000)
@given(problems(), st.data())
def test_count_is_invariant_under_translates_and_class_order(spec, data):
    """The count sees each class only through its Weyl orbit, and the class
    product is commutative: (a) replacing one class by a Weyl translate
    keeps the polynomial, emptiness and warnings, (b) permuting the classes
    keeps the table too; where the count fails, all three fail alike."""
    spec = _redraw_surface(spec, data)
    classes = spec.semisimple_classes
    k = data.draw(st.integers(0, spec.m - 1))
    w = data.draw(st.sampled_from(enumerate_weyl(spec.rd)))
    moved = classes[:k] + (translate(w, classes[k]),) + classes[k + 1:]
    order = data.draw(st.permutations(range(spec.m)))
    base = _count_outcome(spec)
    translated = _count_outcome(spec._replace(semisimple_classes=moved))
    permuted = _count_outcome(
        spec._replace(semisimple_classes=tuple(classes[i] for i in order))
    )
    if isinstance(base, str):
        assert translated == permuted == base
        return
    for other in (translated, permuted):
        assert (other.polynomial, other.is_empty, other.warnings) == (
            base.polynomial, base.is_empty, base.warnings
        )
    assert permuted.table == base.table


def _rewrite(spec: ProblemSpec, datum: EigenvalueDatum, change) -> ProblemSpec:
    """``spec`` over ``datum``, each class word w becoming ``change(w)``."""
    return spec._replace(
        eigenvalues=datum,
        semisimple_classes=tuple(
            SymbolicTorusElement(datum, tuple(map(change, c.coords)))
            for c in spec.semisimple_classes
        ),
    )


def change_generators(spec: ProblemSpec, u) -> ProblemSpec:
    """(c) Old generator i becomes the word ``u[i]`` in new ones (u unimodular):
    a word w becomes w u, in the classes and in the relations alike."""
    def change(word):
        return tuple(sum(e * row[j] for e, row in zip(word, u)) for j in range(len(u)))

    words = EigenvalueDatum(spec.eigenvalues.symbols)
    relations = tuple(words.word_str(change(r)) for r in spec.eigenvalues.group.relations)
    return _rewrite(spec, EigenvalueDatum(words.symbols, relations), change)


def add_symbol(spec: ProblemSpec, word) -> ProblemSpec:
    """(d) A new symbol z with the defining relation z = ``word``."""
    old = spec.eigenvalues
    datum = EigenvalueDatum(
        old.symbols + ("z",), old.relations + (f"z = {old.word_str(word)}",)
    )
    return _rewrite(spec, datum, lambda w: w + (0,))


@st.composite
def unimodular(draw, n: int):
    """An n x n integer matrix of determinant +-1: elementary column moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.integers(-2, 2))
        for row in u:
            if i == j:
                row[i] = -row[i]
            else:
                row[i] += k * row[j]
    return u


@settings(max_examples=100, deadline=10_000)
@given(problems(METAMORPHIC_MAX_M), st.data())
def test_count_is_invariant_under_generator_changes(spec, data):
    """The count sees the symbols only through the group A they present:
    (c) a unimodular change of generators, the relations rewritten to match,
    and (d) a redundant symbol with its defining relation keep the
    polynomial, emptiness, warnings and table; failures fail alike."""
    spec = _redraw_surface(spec, data)
    n = len(spec.eigenvalues.symbols)
    changed = change_generators(spec, data.draw(unimodular(n)))
    word = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    added = add_symbol(spec, tuple(word))
    base = _count_outcome(spec)
    for other in (_count_outcome(changed), _count_outcome(added)):
        if isinstance(base, str):
            assert other == base
        else:
            assert (other.polynomial, other.is_empty, other.warnings, other.table) == (
                base.polynomial, base.is_empty, base.warnings, base.table
            )


def test_generator_changes_on_a_gl3_sphere():
    """GL(3), genus 0, four punctures, two classes with a*b*c*d*e*f = 1 and
    a^2*d = f^3: a non-empty count of degree 8, kept by a -> x*y, b -> y
    (the relations rewritten to match) and by a symbol z = a*b^2."""
    datum = EigenvalueDatum(tuple("abcdef"), ("a*b*c*d*e*f = 1", "a^2*d = f^3"))
    spec = ProblemSpec(
        rd=build_root_datum("GL(3)"), genus=0, punctures=4, eigenvalues=datum,
        semisimple_classes=(
            SymbolicTorusElement.from_words(datum, ["a", "b", "c"]),
            SymbolicTorusElement.from_words(datum, ["d", "e", "f"]),
        ),
    )
    base = count_polynomial(spec)
    assert (base.is_empty, base.degree) == (False, 8)
    # a -> x*y, b -> y, written out by hand
    renamed = EigenvalueDatum(
        tuple("xycdef"), ("x*y^2*c*d*e*f = 1", "x^2*y^2*d = f^3")
    )
    by_hand = ProblemSpec(
        rd=spec.rd, genus=0, punctures=4, eigenvalues=renamed,
        semisimple_classes=(
            SymbolicTorusElement.from_words(renamed, ["x*y", "y", "c"]),
            SymbolicTorusElement.from_words(renamed, ["d", "e", "f"]),
        ),
    )
    u = [[int(i == j or (i, j) == (0, 1)) for j in range(6)] for i in range(6)]
    changed = change_generators(spec, u)
    assert [c.coords for c in changed.semisimple_classes] == [
        c.coords for c in by_hand.semisimple_classes
    ]
    for other in (count_polynomial(by_hand), count_polynomial(changed)):
        assert (other.polynomial, other.warnings, other.table) == (
            base.polynomial, base.warnings, base.table
        )
    assert count_polynomial(add_symbol(spec, (1, 2, 0, 0, 0, 0))).polynomial == base.polynomial


def test_problems_often_reach_the_master_sum():
    """Of 200 fixed draws, surfaces as in the metamorphic test, at least 15%
    count a non-empty variety (12% before the cocentre relations: 24 of
    200, none of them GL(n); 42 of 200 with them)."""
    outcomes = []

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(problems(), st.data())
    def draw(spec, data):
        outcomes.append(_count_outcome(_redraw_surface(spec, data)))

    draw()
    nonempty = [o for o in outcomes if not isinstance(o, str) and not o.is_empty]
    assert len(outcomes) >= 100
    assert len(nonempty) >= 0.15 * len(outcomes), (len(nonempty), len(outcomes))
    assert any(o.group_label.startswith("GL") for o in nonempty)
