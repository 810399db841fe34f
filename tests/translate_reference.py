"""Per-node reference for the counting engine's translate join.

``charvar.count.orbit_pass_counts`` counts the dying W^m-translate tuples
once per Weyl orbit of closed subsystems, with the first class's
translate fixed.  This module keeps the join it replaced: at every node,
the histograms of all m classes' |W| translate images, convolved in two
halves and joined by one lookup per left entry.  It shares with the engine
only the node maps and the Weyl group.
"""

from __future__ import annotations

from collections import Counter

from charvar.abelian import AdditiveMap
from charvar.charsum import translate
from charvar.count import ProblemSpec
from charvar.rootdata import enumerate_weyl


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
