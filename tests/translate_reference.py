"""Per-node reference for the counting engine's translate join.

``charvar.count.orbit_pass_counts`` counts the dying W^m-translate tuples
once per Weyl orbit of closed subsystems, with the first class's
translate fixed.  This module keeps the join it replaced: at every node,
the histograms of all m classes' |W| translate images, convolved in two
halves and joined by one lookup per left entry.  It shares with the engine
only the node maps and the Weyl group.

It also keeps the strong-regularity test as a loop over W: every
nontrivial Weyl element is tried on S, with the word problem of A
(``is_identity``) deciding each coordinate of w.S / S.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from charvar.abelian import AdditiveMap, FPAbelianGroup, canonical_coordinates
from charvar.charsum import SymbolicTorusElement, evaluate_character
from charvar.count import ProblemSpec
from charvar.reference import enumerate_weyl, translate
from charvar.rootdata import RootDatum


def node_pass_counts(spec: ProblemSpec, maps: list[AdditiveMap]) -> list[int]:
    """Per node map, the number of W^m-translate tuples whose product dies."""
    weyl = enumerate_weyl(spec.rd)
    classes = spec.semisimple_classes
    half = len(classes) // 2
    translates = [[translate(w, s).flat() for w in weyl] for s in classes]
    counts = []
    for nmap in maps:
        left = _sum_histogram(nmap, translates[:half])
        right = _sum_histogram(nmap, translates[half:])
        counts.append(
            sum(mult * right.get(nmap.negate(x), 0) for x, mult in left.items())
        )
    return counts


def _sum_histogram(
    nmap: AdditiveMap, classes: list[list[tuple[int, ...]]]
) -> dict[tuple[int, ...], int]:
    """Multiplicities of the image sums of one translate per class."""
    sums = {(0,) * len(nmap.moduli): 1}
    for translates in classes:
        images = Counter(nmap.image(t) for t in translates)
        convolved: dict[tuple[int, ...], int] = {}
        for x, a in sums.items():
            for y, b in images.items():
                z = nmap.add(x, y)
                convolved[z] = convolved.get(z, 0) + a * b
        sums = convolved
    return sums


def is_identity(group: FPAbelianGroup, word: Sequence[int]) -> bool:
    """The word problem in A: is the word forced to 1 by the relations?"""
    return canonical_coordinates(group).in_kernel(group._check(word))


def strongly_regular(rd: RootDatum, element: SymbolicTorusElement) -> bool:
    """No root is forced to 1 on S, and no nontrivial w in W fixes S."""
    group = element.datum.group
    for i in rd.positive:
        if is_identity(group, evaluate_character(rd.roots[i], element)):
            return False
    identity = tuple(
        tuple(1 if r == c else 0 for c in range(rd.rank)) for r in range(rd.rank)
    )
    for w in enumerate_weyl(rd):
        if w == identity:
            continue
        moved = translate(w, element)
        if all(
            is_identity(group, tuple(a - b for a, b in zip(mc, ec)))
            for mc, ec in zip(moved.coords, element.coords)
        ):
            return False
    return True
