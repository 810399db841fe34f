"""Slow, direct references for the closed-subsystem poset's tests.

``leq`` is the inclusion order on the poset's frozenset nodes,
``reference_closure`` re-scans every pair of members until nothing new
appears, ``reference_enumeration`` is a breadth-first walk that closes each
extension from scratch, and ``reference_mobius`` is the pairwise downward
recursion over frozensets.  ``reference_orbits`` closes each node under
the simple reflections as d x d matrices, and ``reference_quotients``
computes X^vee / <Psi> from the Smith form of every node.  None of them
shares code with ``charvar.subsystems``, which works on bitmasks, a
sum-pair table, one Mobius row per node, orbits found during the
enumeration and one Smith form per orbit.
"""

from __future__ import annotations

import itertools
from collections import deque

from charvar.abelian import quotient_invariants


def leq(poset, i: int, j: int) -> bool:
    """Is node i contained in node j?"""
    return poset.nodes[i] <= poset.nodes[j]


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


def reference_reflection_matrix(rd, index):
    """Matrix of s_alpha acting on X^vee: v -> v - <alpha, v> alpha^vee."""
    root, coroot = rd.roots[index], rd.coroots[index]
    return tuple(
        tuple((1 if r == c else 0) - coroot[r] * root[c] for c in range(rd.rank))
        for r in range(rd.rank)
    )


def reference_orbits(poset) -> tuple[tuple[int, ...], ...]:
    """Weyl orbits of the poset's nodes, ordered by their smallest member."""
    rd, lookup = poset.rd, poset.rd.coroot_lookup
    # each simple reflection as a permutation of coroot indices
    perms = [
        [lookup[tuple(sum(a * b for a, b in zip(row, v)) for row in mat)]
         for v in rd.coroots]
        for mat in (reference_reflection_matrix(rd, s) for s in rd.simple_root_indices)
    ]
    orbit_list: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in range(poset.num_nodes):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            node = poset.nodes[frontier.pop()]
            for perm in perms:
                idx = poset.index_of[frozenset(perm[k] for k in node)]
                if idx not in orbit:
                    orbit.add(idx)
                    frontier.append(idx)
        seen |= orbit
        orbit_list.append(tuple(sorted(orbit)))
    return tuple(orbit_list)


def reference_quotients(poset) -> list:
    """X^vee / <Psi> with its Smith basis, from each node's own Smith form."""
    return [
        quotient_invariants(poset.rd.rank, poset.coroot_vectors(i))
        for i in range(poset.num_nodes)
    ]
