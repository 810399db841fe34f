"""Differential test of the translate histogram join against brute force.

``count.pass_counts`` counts, per closed subsystem Psi, the W^m-translate
tuples of the semisimple classes whose product dies in
(X^vee / <Psi>) (x) A, by convolving per-class histograms of compiled node
map images.  The reference below enumerates all |W|^m tuples and decides
each product with the per-product Smith test the node map replaced: with
U C V = D the Smith form of the coroots of Psi, the word
b_j = sum_i V[i][j] S_i must be a d_j-th power along each torsion
direction and trivial along each free one, asked through the public
``is_dth_power`` and ``is_identity``.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.abelian import is_dth_power, is_identity, smith_normal_form
from charvar.charsum import (
    EigenvalueDatum,
    SymbolicTorusElement,
    node_map,
    product_translate,
)
from charvar.count import ProblemSpec, pass_counts
from charvar.rootdata import build_root_datum, enumerate_weyl
from charvar.subsystems import build_poset

# the largest m per group keeps |W|^m <= 576 brute-force products
MAX_M = {"GL(2)": 3, "GL(3)": 3, "GL(4)": 2, "PGL(2)": 3, "SO(5)": 3, "G2": 2}


def reference_pass_counts(spec: ProblemSpec, poset) -> list[int]:
    rd = spec.rd
    group = spec.eigenvalues.group
    width = group.generator_count
    smith = []
    for psi in poset.nodes:
        if psi:
            snf = smith_normal_form([list(rd.coroots[i]) for i in sorted(psi)])
            smith.append((snf.V, snf.divisors))
        else:
            smith.append((None, ()))
    counts = [0] * poset.num_nodes
    weyl = enumerate_weyl(rd).elements
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
def problems(draw):
    """Random classes over a few shared symbols, so translate products often
    cancel, with up to three random monomial relations (torsion included)."""
    group = draw(st.sampled_from(sorted(MAX_M)))
    rd = build_root_datum(group)
    m = draw(st.integers(1, MAX_M[group]))
    symbols = ("a", "b", "c")[: draw(st.integers(1, 3))]
    words = st.lists(st.integers(-2, 2), min_size=len(symbols), max_size=len(symbols))
    relations = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=len(symbols), max_size=len(symbols)),
            max_size=3,
        )
    )
    datum = EigenvalueDatum(
        symbols, tuple(EigenvalueDatum(symbols).word_str(r) for r in relations)
    )
    classes = tuple(
        SymbolicTorusElement(
            datum, tuple(tuple(draw(words)) for _ in range(rd.rank))
        )
        for _ in range(m)
    )
    return ProblemSpec(
        rd=rd, genus=0, punctures=m + 1, eigenvalues=datum,
        semisimple_classes=classes,
    )


@settings(max_examples=100, deadline=10_000)
@given(problems())
def test_join_matches_brute_force_enumeration(spec):
    poset = build_poset(spec.rd)
    group = spec.eigenvalues.group
    maps = [node_map(poset.quotient(i), group) for i in range(poset.num_nodes)]
    assert pass_counts(spec, maps) == reference_pass_counts(spec, poset)
