"""Slow, direct references for the closed-subsystem poset's tests.

``reference_closure`` re-scans every pair of members until nothing new
appears, ``reference_enumeration`` is a breadth-first walk that closes each
extension from scratch, and ``reference_mobius`` is the pairwise downward
recursion over frozensets.  None of them shares code with
``charvar.subsystems``, which works on bitmasks, a sum-pair table and one
Mobius row per node.
"""

from __future__ import annotations

import itertools
from collections import deque


def reference_closure(rd, indices) -> frozenset[int]:
    """Smallest closed symmetric subset of the coroot system containing indices."""
    lookup = {v: i for i, v in enumerate(rd.coroots)}
    current: set[int] = set()
    for i in indices:
        current.add(i)
        current.add(rd.negative_of(i))
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(sorted(current), 2):
            k = lookup.get(tuple(a + b for a, b in zip(rd.coroots[i], rd.coroots[j])))
            if k is not None and k not in current:
                current.add(k)
                current.add(rd.negative_of(k))
                changed = True
    return frozenset(current)


def reference_enumeration(rd) -> tuple[frozenset[int], ...]:
    """Every closed subsystem, sorted by (size, sorted indices)."""
    empty: frozenset[int] = frozenset()
    seen = {empty}
    queue = deque([empty])
    while queue:
        node = queue.popleft()
        for p in rd.positive:
            if p not in node:
                bigger = reference_closure(rd, node | {p})
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    return tuple(sorted(seen, key=lambda n: (len(n), tuple(sorted(n)))))


def reference_mobius(nodes) -> dict[tuple[int, int], int]:
    """mu(i, j) of the inclusion order on ``nodes``, for every pair i <= j."""
    memo: dict[tuple[int, int], int] = {}

    def mu(i: int, j: int) -> int:
        if (i, j) not in memo:
            memo[i, j] = 1 if i == j else -sum(
                mu(i, c)
                for c in range(len(nodes))
                if c != j and nodes[i] <= nodes[c] <= nodes[j]
            )
        return memo[i, j]

    return {
        (i, j): mu(i, j)
        for i, j in itertools.product(range(len(nodes)), repeat=2)
        if nodes[i] <= nodes[j]
    }
