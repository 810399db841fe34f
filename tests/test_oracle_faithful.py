"""Differential test of the oracle's faithfulness check against a per-product one.

``cli_oracle.UnitSpecialization`` decides whether concrete eigenvalues in F_q^x
specialize the same counting problem as the symbolic ones by running the
counting engine's node maps on F_q^x = <g | g^(q-1)> and comparing pass
counts per closed subsystem.  The reference below is the check it
replaced: enumerate every distinct product of one Weyl translate per
class, and test each one per node without an override, symbolically with
``in_commutator`` and concretely in F_q^x itself -- with U C V = D the
Smith form of the coroots of Psi, the unit b_j = prod_i S_i^V[i][j] must be
a d_j-th power along each torsion direction and 1 along each free one.

Values are drawn from 1..q-1, as the oracle's sampler draws them; an
explicit value 0 is rejected before any of this (see ``test_cli``).
"""

import itertools
import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.abelian import smith_normal_form
from charvar.charsum import (
    EigenvalueDatum,
    SymbolicTorusElement,
    in_commutator,
    product_translate,
)
from charvar.cli_oracle import UnitSpecialization
from charvar.count import Engine, ProblemSpec, resolve_overrides
from charvar.rootdata import build_root_datum, enumerate_weyl
from charvar.subsystems import build_poset

FAMILIES = {"GL(2)": "GL", "GL(3)": "GL", "PGL(2)": "PGL"}


def unit(datum: EigenvalueDatum, word, values: dict, q: int) -> int:
    out = 1
    for symbol, exponent in zip(datum.symbols, word):
        out = out * pow(values[symbol], exponent % (q - 1), q) % q
    return out


def reference_admissible(spec: ProblemSpec, values: dict, q: int, family: str) -> bool:
    datum = spec.eigenvalues
    for relation in datum.relations:
        if unit(datum, datum.parse_relation(relation), values, q) != 1:
            return False
    for element in spec.semisimple_classes:
        concrete = [unit(datum, w, values, q) for w in element.coords]
        if family == "GL":
            if 0 in concrete or len(set(concrete)) != len(concrete):
                return False
        elif concrete[0] in (0, 1, q - 1):
            return False
    return True


def concrete_dies(datum, prod, v_mat, divisors, values: dict, q: int) -> bool:
    units = [unit(datum, w, values, q) for w in prod.coords]
    if v_mat is None:  # empty subsystem: the element itself must be trivial
        return all(u == 1 for u in units)
    for j in range(len(units)):
        b = 1
        for i, u in enumerate(units):
            b = b * pow(u, v_mat[i][j] % (q - 1), q) % q
        if j < len(divisors):
            if pow(b, (q - 1) // math.gcd(divisors[j], q - 1), q) != 1:
                return False
        elif b != 1:
            return False
    return True


def reference_faithful(spec: ProblemSpec, values: dict, q: int) -> bool:
    rd = spec.rd
    poset = build_poset(rd)
    overridden = resolve_overrides(poset, dict(spec.overrides))
    products = {}
    for ws in itertools.product(enumerate_weyl(rd), repeat=spec.m):
        prod = product_translate(ws, spec.semisimple_classes)
        products.setdefault(prod.canonical_key(), prod)
    for j, psi in enumerate(poset.nodes):
        if poset.orbit_of(j) in overridden:
            continue
        if psi:
            snf = smith_normal_form([list(rd.coroots[i]) for i in sorted(psi)])
            v_mat, divisors = snf.V, snf.divisors
        else:
            v_mat, divisors = None, ()
        for prod in products.values():
            symbolic = in_commutator(rd, psi, prod)
            if symbolic != concrete_dies(
                spec.eigenvalues, prod, v_mat, divisors, values, q
            ):
                return False
    return True


@st.composite
def cases(draw):
    """A random problem with 1-3 monomial relations and values at a prime.

    Most relations are made to hold at the drawn values (the relator is
    multiplied by the order of its value), so that many cases get past the
    relation check and the faithfulness question is asked; half the cases
    with two or more symbols force a coincidence among the values, which
    the relations usually do not declare.
    """
    group = draw(st.sampled_from(sorted(FAMILIES)))
    rd = build_root_datum(group)
    poset = build_poset(rd)
    q = draw(st.sampled_from([5, 7, 11, 13]))
    m = draw(st.integers(1, 3))
    symbols = ("a", "b", "c")[: draw(st.integers(1, 3))]
    values = {s: draw(st.integers(1, q - 1)) for s in symbols}
    if len(symbols) > 1 and draw(st.booleans()):
        # a coincidence among the values, usually left undeclared
        values[symbols[-1]] = pow(values[symbols[0]], draw(st.sampled_from([-1, 2])), q)
    g = next(
        g for g in range(1, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1
    )
    logs = {pow(g, k, q): k for k in range(q - 1)}
    exponents = st.lists(
        st.integers(-3, 3), min_size=len(symbols), max_size=len(symbols)
    )
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        relator = draw(exponents)
        if draw(st.integers(0, 7)):
            value = sum(e * logs[values[s]] for s, e in zip(symbols, relator))
            order = (q - 1) // math.gcd(value, q - 1)
            relator = [order * e for e in relator]
        relations.append(EigenvalueDatum(symbols).word_str(relator))
    datum = EigenvalueDatum(symbols, tuple(relations))
    words = st.lists(st.integers(-3, 3), min_size=len(symbols), max_size=len(symbols))
    classes = tuple(
        SymbolicTorusElement(datum, tuple(tuple(draw(words)) for _ in range(rd.rank)))
        for _ in range(m)
    )
    labels = sorted({poset.display_label(i) for i in range(poset.num_nodes)})
    overrides = draw(
        st.dictionaries(st.sampled_from(labels), st.booleans(), max_size=2)
    )
    spec = ProblemSpec(
        rd=rd, genus=0, punctures=m + 1, eigenvalues=datum,
        semisimple_classes=classes, overrides=tuple(sorted(overrides.items())),
    )
    return spec, FAMILIES[group], q, values


def test_node_map_check_matches_per_product_reference():
    verdicts = Counter()

    @settings(max_examples=400, deadline=10_000, derandomize=True)
    @given(cases())
    def check(case):
        spec, family, q, values = case
        engine = Engine(spec)
        symbolic = {k: n for k, n in engine.pass_counts.items() if k not in engine.overrides}
        units = UnitSpecialization(spec, q, symbolic)
        concrete = units.specialize(values)
        admissible = reference_admissible(spec, values, q, family)
        assert (concrete is not None) == admissible
        if admissible:
            faithful = reference_faithful(spec, values, q)
            assert units.faithful(concrete) == faithful
            verdicts[faithful] += 1

    check()
    # both verdicts must be exercised, or the agreement says little
    assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts
