"""Tests for the closed-subsystem poset and its Mobius function.

Main oracle: for GL(n) the closed subsystems are in bijection with set
partitions of n points (connect i ~ j when e_i - e_j is in the subsystem),
and the Mobius function of the partition lattice has the classical product
formula mu(pi, sigma) = prod over blocks B of sigma of (-1)^(k_B - 1)
(k_B - 1)! where k_B counts the pi-blocks inside B.  The rank-2 posets are
checked against fully hand-frozen node/Mobius tables.
"""

import ast
import functools
import itertools
from pathlib import Path
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from charvar import abelian
from charvar.charsum import EigenvalueDatum, SymbolicTorusElement, node_map
from charvar.count import (
    ProblemSpec,
    count_polynomial,
    resolve_overrides,
    validate_problem,
)
from charvar.errors import InvalidInputError, ResourceLimitError
from charvar.qpoly import Poly
from charvar.rootdata import (
    build_root_datum,
    classify_vectors,
    cocenter_invariants,
    component_types,
    poincare_polynomial,
)
from charvar.subsystems import (
    MAX_POSITIVE_ROOTS,
    SubsystemPoset,
    build_poset,
    closure,
    enumerate_closed_subsystems,
)
from subsystem_reference import (
    leq,
    reference_classify_vectors,
    reference_closure,
    reference_enumeration,
    reference_mobius,
    reference_mobius_row,
    reference_node_permutations,
    reference_orbits,
    reference_quotients,
    reference_reflection_matrix,
    reference_walk,
)


def _node_by_vectors(poset, vectors):
    """Find the poset node whose coroot set equals the given vectors."""
    want = {tuple(v) for v in vectors}
    for i in range(poset.num_nodes):
        if {tuple(v) for v in poset.coroot_vectors(i)} == want:
            return i
    raise AssertionError(f"no node with coroots {want}")


# ---------------------------------------------------------------------------
# C2 poset (coroot system of SO(5)): 7 nodes, frozen data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def so5_poset():
    return build_poset(build_root_datum("SO(5)"))


def test_so5_node_count(so5_poset):
    assert so5_poset.num_nodes == 7


def test_so5_labels(so5_poset):
    labels = sorted(so5_poset.type_label(i) for i in range(7))
    assert labels == ["A1", "A1", "A1", "A1", "A1xA1", "C2", "empty"]
    display = {so5_poset.display_label(i) for i in range(7)}
    assert display == {"empty", "A1-long", "A1-short", "A1xA1", "C2"}


def test_so5_orbits(so5_poset):
    sizes = sorted(len(o) for o in so5_poset.orbits())
    assert sizes == [1, 1, 1, 2, 2]


def test_so5_quotients(so5_poset):
    p = so5_poset
    full = _node_by_vectors(p, [(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, -1), (1, -1), (-1, 1)])
    a1a1 = _node_by_vectors(p, [(2, 0), (-2, 0), (0, 2), (0, -2)])
    long1 = _node_by_vectors(p, [(2, 0), (-2, 0)])
    short1 = _node_by_vectors(p, [(1, 1), (-1, -1)])
    empty = _node_by_vectors(p, [])
    assert p.quotient(full).free_rank == 0 and p.quotient(full).torsion == (2,)
    assert p.quotient(a1a1).torsion_order == 4 and p.quotient(a1a1).free_rank == 0
    assert p.quotient(long1).free_rank == 1 and p.quotient(long1).torsion == (2,)
    assert p.quotient(short1).free_rank == 1 and p.quotient(short1).torsion == ()
    assert p.quotient(empty).free_rank == 2 and p.quotient(empty).torsion == ()


def test_so5_poincare_and_weyl(so5_poset):
    p = so5_poset
    full = next(i for i in range(7) if p.type_label(i) == "C2")
    a1a1 = next(i for i in range(7) if p.type_label(i) == "A1xA1")
    empty = next(i for i in range(7) if p.type_label(i) == "empty")
    qp1 = Poly([1, 1])
    assert p.poincare(full) == qp1 * qp1 * Poly([1, 0, 1])
    assert p.poincare(a1a1) == qp1 * qp1
    assert p.poincare(empty) == Poly([1])
    assert p.weyl_order(full) == 8
    assert p.weyl_order(a1a1) == 4
    assert p.weyl_order(empty) == 1


def test_so5_mobius_frozen(so5_poset):
    p = so5_poset
    full = _node_by_vectors(p, [(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, -1), (1, -1), (-1, 1)])
    a1a1 = _node_by_vectors(p, [(2, 0), (-2, 0), (0, 2), (0, -2)])
    long1 = _node_by_vectors(p, [(2, 0), (-2, 0)])
    long2 = _node_by_vectors(p, [(0, 2), (0, -2)])
    short1 = _node_by_vectors(p, [(1, 1), (-1, -1)])
    short2 = _node_by_vectors(p, [(1, -1), (-1, 1)])
    empty = _node_by_vectors(p, [])
    assert p.mobius(a1a1, full) == -1
    assert p.mobius(long1, full) == 0 and p.mobius(long2, full) == 0
    assert p.mobius(long1, a1a1) == -1 and p.mobius(long2, a1a1) == -1
    assert p.mobius(short1, full) == -1 and p.mobius(short2, full) == -1
    assert p.mobius(short1, a1a1) == 0
    assert p.mobius(empty, full) == 2
    assert p.mobius(empty, a1a1) == 1
    for node in (long1, long2, short1, short2):
        assert p.mobius(empty, node) == -1
    assert p.mobius(full, a1a1) == 0  # incomparable direction
    assert p.mobius(full, full) == 1


# ---------------------------------------------------------------------------
# G2 poset: 12 nodes, frozen data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def g2_poset():
    return build_poset(build_root_datum("G2"))


def test_g2_node_count_and_labels(g2_poset):
    p = g2_poset
    assert p.num_nodes == 12
    counts = {}
    for i in range(12):
        counts[p.type_label(i)] = counts.get(p.type_label(i), 0) + 1
    assert counts == {"G2": 1, "A2": 1, "A1xA1": 3, "A1": 6, "empty": 1}
    orbit_sizes = sorted(len(o) for o in p.orbits())
    assert orbit_sizes == [1, 1, 1, 3, 3, 3]


def test_g2_quotients(g2_poset):
    p = g2_poset
    for i in range(12):
        label = p.type_label(i)
        q = p.quotient(i)
        if label == "G2":
            assert q.free_rank == 0 and q.torsion == ()
        elif label == "A2":
            assert q.free_rank == 0 and q.torsion == (3,)
        elif label == "A1xA1":
            assert q.free_rank == 0 and q.torsion == (2,)
        elif label == "A1":
            assert q.free_rank == 1 and q.torsion == ()
        else:
            assert q.free_rank == 2 and q.torsion == ()


def test_g2_long_a1_sit_below_a2(g2_poset):
    p = g2_poset
    a2 = next(i for i in range(12) if p.type_label(i) == "A2")
    long_nodes = [i for i in range(12) if p.display_label(i) == "A1-long"]
    short_nodes = [i for i in range(12) if p.display_label(i) == "A1-short"]
    assert len(long_nodes) == 3 and len(short_nodes) == 3
    assert all(leq(p, i, a2) for i in long_nodes)
    assert not any(leq(p, i, a2) for i in short_nodes)
    # each rank-1 node lies below exactly one A1xA1 node
    a1a1 = [i for i in range(12) if p.type_label(i) == "A1xA1"]
    for i in long_nodes + short_nodes:
        assert sum(1 for j in a1a1 if leq(p, i, j)) == 1


def test_g2_mobius_frozen(g2_poset):
    p = g2_poset
    full = next(i for i in range(12) if p.type_label(i) == "G2")
    a2 = next(i for i in range(12) if p.type_label(i) == "A2")
    empty = next(i for i in range(12) if p.type_label(i) == "empty")
    a1a1 = [i for i in range(12) if p.type_label(i) == "A1xA1"]
    long_nodes = [i for i in range(12) if p.display_label(i) == "A1-long"]
    short_nodes = [i for i in range(12) if p.display_label(i) == "A1-short"]

    assert p.mobius(a2, full) == -1
    assert all(p.mobius(j, full) == -1 for j in a1a1)
    assert all(p.mobius(i, full) == 1 for i in long_nodes)
    assert all(p.mobius(i, full) == 0 for i in short_nodes)
    assert all(p.mobius(i, a2) == -1 for i in long_nodes)
    for i in long_nodes + short_nodes:
        j = next(j for j in a1a1 if leq(p, i, j))
        assert p.mobius(i, j) == -1
    assert p.mobius(empty, full) == 0
    assert p.mobius(empty, a2) == 2
    assert all(p.mobius(empty, j) == 1 for j in a1a1)
    assert all(p.mobius(empty, i) == -1 for i in long_nodes + short_nodes)


# ---------------------------------------------------------------------------
# Partition-lattice oracle for GL(n)
# ---------------------------------------------------------------------------


def _bell(n):
    bell = [[0] * (n + 1) for _ in range(n + 1)]
    bell[0][0] = 1
    for i in range(1, n + 1):
        bell[i][0] = bell[i - 1][i - 1]
        for j in range(1, i + 1):
            bell[i][j] = bell[i][j - 1] + bell[i - 1][j - 1]
    return bell[n][0]


def _partition_of_node(rd, n, node):
    """Set partition of range(n) induced by a closed subsystem of GL(n)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k in node:
        v = rd.roots[k]
        i = v.index(1)
        j = v.index(-1)
        parent[find(i)] = find(j)
    blocks = {}
    for a in range(n):
        blocks.setdefault(find(a), set()).add(a)
    return frozenset(frozenset(b) for b in blocks.values())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gl_poset_is_partition_lattice(n):
    rd = build_root_datum(f"GL({n})")
    poset = SubsystemPoset(rd)
    partitions = [_partition_of_node(rd, n, node) for node in poset.nodes]
    assert len(set(partitions)) == len(partitions) == _bell(n)

    # Mobius oracle: classical product formula on the partition lattice
    def mobius_formula(pi, sigma):
        total = 1
        for block in sigma:
            k = sum(1 for b in pi if b <= block)
            total *= (-1) ** (k - 1) * factorial(k - 1)
        return total

    for i in range(poset.num_nodes):
        for j in range(poset.num_nodes):
            if leq(poset, i, j):
                expected = mobius_formula(partitions[i], partitions[j])
                assert poset.mobius(i, j) == expected, (i, j)


def test_gl_bottom_to_top_mobius():
    for n, expected in [(2, -1), (3, 2), (4, -6), (5, 24)]:
        poset = SubsystemPoset(build_root_datum(f"GL({n})"))
        empty = poset.index_of[frozenset()]
        full = poset.index_of[frozenset(range(poset.rd.num_roots))]
        assert poset.mobius(empty, full) == expected


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def test_mobius_convolution_identity(so5_poset, g2_poset):
    """sum over c in [i, j] of mu(c, j) must be the delta function."""
    for poset in (so5_poset, g2_poset):
        for i in range(poset.num_nodes):
            for j in range(poset.num_nodes):
                if leq(poset, i, j):
                    total = sum(
                        poset.mobius(c, j)
                        for c in range(poset.num_nodes)
                        if leq(poset, i, c) and leq(poset, c, j)
                    )
                    assert total == (1 if i == j else 0)


@settings(max_examples=60, deadline=None)
@given(
    desc=st.sampled_from(["GL(3)", "SO(5)", "G2", "Sp(4)"]),
    data=st.data(),
)
def test_closure_laws(desc, data):
    rd = build_root_datum(desc)
    indices = data.draw(
        st.sets(st.integers(min_value=0, max_value=rd.num_roots - 1), max_size=4)
    )
    c = closure(rd, indices)
    assert indices <= c
    assert closure(rd, c) == c  # idempotent
    # symmetric
    assert all(rd.negative_of(i) in c for i in c)
    # closed: sums of members that are coroots stay inside
    lookup = {v: i for i, v in enumerate(rd.coroots)}
    for i, j in itertools.combinations(sorted(c), 2):
        s = tuple(a + b for a, b in zip(rd.coroots[i], rd.coroots[j]))
        k = lookup.get(s)
        if k is not None:
            assert k in c
    # monotone
    sub = set(itertools.islice(sorted(indices), 2))
    assert closure(rd, sub) <= c


def test_nodes_are_weyl_stable(g2_poset):
    p = g2_poset
    rd = p.rd
    lookup = {v: i for i, v in enumerate(rd.coroots)}
    for node in p.nodes:
        for s in rd.simple_root_indices:
            mat = reference_reflection_matrix(rd, s)
            image = frozenset(
                lookup[tuple(sum(mat[r][c] * rd.coroots[k][c] for c in range(rd.rank))
                             for r in range(rd.rank))]
                for k in node
            )
            assert image in p.index_of


@pytest.mark.parametrize("desc", ["A2", "A3", "B2", "B3", "C3", "G2", "D4"])
def test_proper_subsystems_drop_at_least_two_rank(desc):
    """For irreducible systems, |Phi| - |Psi| >= 2 * rank for proper closed Psi."""
    rd = build_root_datum(desc)
    poset = build_poset(rd)
    rank = rd.semisimple_rank
    total = rd.num_roots
    for node in poset.nodes:
        if len(node) != total:
            assert total - len(node) >= 2 * rank, (desc, len(node))


def test_enumeration_bound():
    rd = build_root_datum("E6")  # 36 positive roots, above MAX_POSITIVE_ROOTS
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_closed_subsystems(rd)
    assert exc.value.code == "poset-bound"


def test_f4_enumeration_runs():
    rd = build_root_datum("F4")
    poset = build_poset(rd)
    # all four rank-2 double-bond coincidences should show up among labels
    labels = {poset.type_label(i) for i in range(poset.num_nodes)}
    assert "F4" in labels and "empty" in labels
    assert poset.num_nodes > 50
    # rootslemma bound holds for F4 too
    for node in poset.nodes:
        if len(node) != rd.num_roots:
            assert rd.num_roots - len(node) >= 2 * 4


@pytest.mark.parametrize("desc", ["B4", "C4", "D4", "F4", "G2", "GL(5)"])
def test_orbit_labels_match_per_node_classification(desc):
    # labels are classified once per Weyl orbit and copied to its members
    rd = build_root_datum(desc)
    poset = SubsystemPoset(rd)
    for i in range(poset.num_nodes):
        expected = classify_vectors(poset.coroot_vectors(i), rd.coroot_form)
        assert poset.type_label(i) == expected, (desc, i)


def test_override_label_resolution(so5_poset):
    p = so5_poset

    def orbits(label):
        """The orbit indices of the nodes with this display label."""
        return {p.orbit_of(i) for i in range(7) if p.display_label(i) == label}

    long, short = orbits("A1-long"), orbits("A1-short")
    assert len(long) == len(short) == 1
    # a bare label covers both A1 orbits, 4 nodes in all
    assert resolve_overrides(p, {"A1": True}) == dict.fromkeys(long | short, True)
    assert sum(len(p.orbits()[k]) for k in resolve_overrides(p, {"A1": True})) == 4
    assert resolve_overrides(p, {"A1-long": True}) == dict.fromkeys(long, True)
    assert resolve_overrides(p, {"C2": True}) == dict.fromkeys(orbits("C2"), True)
    # display labels beat bare labels, whichever comes first
    for overrides in ({"A1": True, "A1-long": False}, {"A1-long": False, "A1": True}):
        assert resolve_overrides(p, overrides) == {
            **dict.fromkeys(long, False), **dict.fromkeys(short, True)
        }
    with pytest.raises(InvalidInputError) as exc:
        resolve_overrides(p, {"B7": True})
    assert exc.value.code == "override-label"


# ---------------------------------------------------------------------------
# Differential tests against the pair-scan references
# ---------------------------------------------------------------------------

CLOSURE_DATA = {
    desc: build_root_datum(desc)
    for desc in ("GL(4)", "SO(5)", "Sp(6)", "G2", "D4", "F4")
}
REFERENCE_POSETS = ("G2", "SO(5)", "GL(4)", "B3")


@settings(max_examples=150, deadline=None)
@given(desc=st.sampled_from(sorted(CLOSURE_DATA)), data=st.data())
def test_closure_matches_pair_scan_reference(desc, data):
    rd = CLOSURE_DATA[desc]
    indices = data.draw(
        st.sets(st.integers(min_value=0, max_value=rd.num_roots - 1), max_size=6)
    )
    assert closure(rd, indices) == reference_closure(rd, indices)


@pytest.mark.parametrize("desc", REFERENCE_POSETS)
def test_enumeration_matches_reference_bfs(desc):
    rd = build_root_datum(desc)
    assert tuple(enumerate_closed_subsystems(rd)) == reference_enumeration(rd)


@pytest.mark.parametrize("desc", REFERENCE_POSETS)
def test_mobius_rows_match_pairwise_recursion(desc):
    poset = SubsystemPoset(build_root_datum(desc))
    expected = reference_mobius(poset.nodes)
    for i in range(poset.num_nodes):
        row = poset.mobius_row(i)
        assert list(row) == sorted(row)
        assert row == {j: mu for (low, j), mu in expected.items() if low == i and mu}
        for j in range(poset.num_nodes):
            assert leq(poset, i, j) == ((i, j) in expected)
            assert poset.mobius(i, j) == expected.get((i, j), 0)
        upper = tuple(j for j in range(poset.num_nodes) if (i, j) in expected)
        assert poset.upper_set(i) == upper


# ---------------------------------------------------------------------------
# The orbit walk, the quotients and the carry against the per-node references
# ---------------------------------------------------------------------------

ORBIT_POSETS = (
    "B4", "C4", "D4", "F4", "G2", "GL(5)", "GL(6)", "PGL(3)", "SO(5) x GL(2)", "T(2)",
)


@functools.cache
def _orbit_case(desc):
    """A fresh poset of ``desc`` with every node's quotient, served and reference."""
    poset = SubsystemPoset(build_root_datum(desc))
    served = [poset.quotient(i) for i in range(poset.num_nodes)]
    return poset, served, reference_quotients(poset)


@pytest.mark.parametrize("desc", ORBIT_POSETS)
def test_orbits_match_reference_walk(desc):
    poset, _, _ = _orbit_case(desc)
    assert poset.orbits() == reference_orbits(poset)
    assert all(
        poset.orbit_of(i) == k for k, orbit in enumerate(poset.orbits()) for i in orbit
    )


@pytest.mark.parametrize("desc", ORBIT_POSETS)
def test_enumeration_moves_are_simple_reflections(desc):
    """Each node other than its orbit's first is s_a of its recorded parent."""
    rd = build_root_datum(desc)
    lookup = rd.coroot_lookup
    firsts = set()
    for node, move in enumerate_closed_subsystems(rd).items():
        if move is None:
            firsts.add(node)
            continue
        parent, a = move
        assert a in rd.simple_root_indices
        mat = reference_reflection_matrix(rd, a)
        image = frozenset(
            lookup[tuple(sum(x * y for x, y in zip(row, rd.coroots[k])) for row in mat)]
            for k in parent
        )
        assert image == node
    poset, _, _ = _orbit_case(desc)
    assert firsts == {poset.nodes[orbit[0]] for orbit in poset.orbits()}


@pytest.mark.parametrize("desc", ORBIT_POSETS)
def test_carried_quotients_match_smith_forms(desc):
    """Every node's quotient is its own Smith form, basis included."""
    poset, served, direct = _orbit_case(desc)
    for i in range(poset.num_nodes):
        assert (served[i].free_rank, served[i].torsion) == (
            direct[i].free_rank, direct[i].torsion
        ), (desc, i)
        assert served[i].basis == direct[i].basis, (desc, i)


# orbits of several nodes; all but G2 have torsion in X^vee / Z Phi^vee
CARRY_POSETS = ("PGL(3)", "SO(5)", "G2", "B3(ad)", "SO(5) x GL(2)")


@settings(max_examples=60, deadline=None)
@given(desc=st.sampled_from(CARRY_POSETS), data=st.data())
def test_carried_node_maps_agree_on_kernel(desc, data):
    """The carried element at an orbit's first node decides "S dies in
    X^vee/<Psi> (x) A" as the node's own map does, at every node, for
    random S over a group with torsion."""
    poset = build_poset(build_root_datum(desc))
    symbols = ("a", "b")
    order = data.draw(st.sampled_from((2, 3, 4, 6)))
    relations = [(order, 0)] + data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=1)
    )
    datum = EigenvalueDatum(
        symbols, tuple(EigenvalueDatum(symbols).word_str(r) for r in relations)
    )
    word = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(tuple)
    s = SymbolicTorusElement(
        datum, tuple(data.draw(word) for _ in range(poset.rd.rank))
    )
    carried = poset.carry(s.flat())
    for orbit in poset.orbits():
        first = node_map(poset.quotient(orbit[0]), datum.group)
        for i in orbit:
            expected = node_map(poset.quotient(i), datum.group).in_kernel(s.flat())
            assert first.in_kernel(carried[i]) == expected, (desc, i)


def test_b4_poset_takes_one_smith_form_per_orbit(monkeypatch):
    """A B4 count reads X^vee/<Psi> at the first node of each orbit only."""
    # a^-1 c is a square, so the class product dies at the full node
    datum = EigenvalueDatum(("a", "b", "c", "d", "t"), ("c = a*t^2",))
    spec = ProblemSpec(
        rd=build_root_datum("B4(ad)"), genus=1, punctures=2, eigenvalues=datum,
        semisimple_classes=(SymbolicTorusElement.from_words(datum, "abcd"),),
    )
    # the (co)center's Smith forms are those of all (co)roots, as at the full node
    validate_problem(spec)
    cocenter_invariants(spec.rd)
    poset = build_poset(spec.rd)
    nodes = {
        tuple(map(tuple, poset.coroot_vectors(i))): i for i in range(1, poset.num_nodes)
    }
    calls = []
    smith = abelian.smith_normal_form
    monkeypatch.setattr(
        abelian, "smith_normal_form", lambda m: calls.append(m) or smith(m)
    )
    assert not count_polynomial(spec).is_empty
    quotients = [nodes[m] for m in map(tuple, calls) if m in nodes]
    # the empty node's quotient is the whole lattice and needs no Smith form
    assert sorted(quotients) == sorted(orbit[0] for orbit in poset.orbits()[1:])
    assert len(quotients) == 19


# ---------------------------------------------------------------------------
# Per-orbit data: carried Mobius rows, orbit invariants read at one node
# ---------------------------------------------------------------------------

# several orbits per type (#k and -long/-short labels) in the ad and product cases
ROW_POSETS = (
    "B3(ad)", "B4", "C4", "D4", "D4(ad)", "F4", "G2", "GL(5)", "SO(5) x SO(5)",
    "G2 x G2",
)


@pytest.mark.parametrize("desc", ROW_POSETS)
def test_carried_mobius_rows_match_downward_recursion(desc):
    """Rows other than an orbit's first are carried along simple reflections;
    each equals the node's own recursion, entries in the same order."""
    poset = SubsystemPoset(build_root_datum(desc))
    assert any(len(orbit) > 1 for orbit in poset.orbits())
    for i in range(poset.num_nodes):
        expected = reference_mobius_row(poset, i)
        assert list(poset.mobius_row(i).items()) == list(expected.items()), (desc, i)


@pytest.mark.parametrize("desc", ROW_POSETS)
def test_orbit_invariants_match_per_node_values(desc):
    """X^vee/<w Psi> and P_{w Psi} are those of Psi, so one node per orbit serves."""
    poset = SubsystemPoset(build_root_datum(desc))
    direct = reference_quotients(poset)
    for orbit in poset.orbits():
        first = poset.quotient(orbit[0])
        poincare = poset.poincare(orbit[0])
        for i in orbit:
            assert (direct[i].free_rank, direct[i].torsion) == (
                first.free_rank, first.torsion
            ), (desc, i)
            assert poincare_polynomial(poset.rd, poset.nodes[i]) == poincare, (desc, i)
            assert poset.poincare(i) == poincare


# ---------------------------------------------------------------------------
# The enumeration's kept masks and images and the elimination classifier,
# against the walk, node permutations and Smith-form classifier they replaced
# ---------------------------------------------------------------------------


def _cli_diff_poset_groups() -> tuple[str, ...]:
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_diff.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "POSET_GROUPS"
    )


CLI_DIFF_POSETS = [
    desc for desc in _cli_diff_poset_groups()
    if build_root_datum(desc).num_positive <= MAX_POSITIVE_ROOTS
]

# descriptor -> lattice rank: simply connected and adjoint Dynkin types,
# classical groups and a torus
FACTORS = {
    **{f"{t}{r}{iso}": r for t, r in (("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                      ("B", 2), ("B", 3), ("B", 4), ("C", 3),
                                      ("C", 4), ("D", 4), ("G", 2), ("F", 4))
       for iso in ("", "(ad)")},
    "GL(2)": 2, "GL(3)": 3, "GL(4)": 4, "SL(3)": 2, "PGL(4)": 3, "SO(5)": 2,
    "SO(7)": 3, "SO(8)": 4, "Sp(4)": 2, "Sp(6)": 3, "T(1)": 1,
}


@st.composite
def products(draw) -> str:
    """A product of factors of lattice rank at most 4 in all."""
    factors, rank = [], 0
    while not factors or (rank < 4 and draw(st.booleans())):
        name = draw(st.sampled_from([f for f, r in FACTORS.items() if rank + r <= 4]))
        factors.append(name)
        rank += FACTORS[name]
    return " x ".join(factors)


def assert_kernels_match_references(desc: str) -> None:
    rd = build_root_datum(desc)
    walk = enumerate_closed_subsystems(rd)
    assert list(walk.items()) == list(reference_walk(rd).items()), desc
    poset = SubsystemPoset(rd)
    assert poset.nodes == tuple(walk)
    assert poset.orbits() == reference_orbits(poset), desc
    assert poset._node_permutations == reference_node_permutations(poset), desc
    labels = [
        reference_classify_vectors(poset.coroot_vectors(i), rd.coroot_form)
        for i in range(poset.num_nodes)
    ]
    assert [poset.type_label(i) for i in range(poset.num_nodes)] == labels, desc
    reference = reference_classify_vectors(list(rd.roots), rd.root_form)
    assert rd.root_types == component_types(reference), desc


@settings(max_examples=60, deadline=None)
@given(desc=products())
def test_drawn_posets_match_reference_kernels(desc):
    assert_kernels_match_references(desc)


@pytest.mark.parametrize("desc", CLI_DIFF_POSETS)
def test_cli_diff_posets_match_reference_kernels(desc):
    assert_kernels_match_references(desc)
