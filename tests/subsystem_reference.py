"""Slow, direct references for the closed-subsystem poset's tests.

``leq`` is the inclusion order on the poset's frozenset nodes,
``reference_closure`` re-scans every pair of members until nothing new
appears, ``reference_enumeration`` is a breadth-first walk that closes each
extension from scratch, ``reference_mobius`` is the pairwise downward
recursion over frozensets and ``reference_mobius_row`` the downward
recursion of one row, run at every node.  ``reference_orbits`` closes each
node under the simple reflections as d x d matrices, and
``reference_quotients`` computes X^vee / <Psi> from the Smith form of
every node.  None of them
shares code with ``charvar.subsystems``, which works on bitmasks, a
sum-pair table, one Mobius recursion and one Smith form per orbit (carried
to the other members along simple reflections) and orbits found during
the enumeration.

Three references keep earlier forms of the package's own kernels, for
differential tests: ``reference_walk`` is the orbit walk with a
one-coroot-at-a-time closure that recomputes each node's indices and
throws its reflection images away, ``reference_node_permutations``
images every node under every simple reflection a second time, and
``reference_classify_vectors`` takes each component's rank from a Smith
normal form.
"""

from __future__ import annotations

import itertools
from collections import deque

from charvar.abelian import quotient_invariants, smith_normal_form


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


def reference_mobius_row(poset, i: int) -> dict[int, int]:
    """The nonzero mu(i, j) by ascending j, by the downward recursion at node i.

    mu(i, j) = -sum of mu(i, c) over the nodes c with i <= c < j, on the
    frozenset nodes; every node is computed from its own recursion, with no
    row carried from another node.
    """
    nodes = poset.nodes
    row = {i: 1}
    for j in range(i + 1, len(nodes)):
        if nodes[i] <= nodes[j]:
            mu = -sum(v for c, v in row.items() if nodes[c] <= nodes[j])
            if mu:
                row[j] = mu
    return row


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _reference_reflection_bits(rd) -> list[tuple[int, tuple[int, ...]]]:
    return [(a, tuple(1 << k for k in rd.reflections[a])) for a in rd.simple_root_indices]


def reference_walk(rd) -> dict:
    """``enumerate_closed_subsystems`` as a worklist closure and a two-pass orbit tree."""
    lookup = rd.coroot_lookup
    pairs = [
        [(1 << j, k) for j, w in enumerate(rd.coroots)
         if (k := lookup.get(tuple(a + b for a, b in zip(v, w)))) is not None]
        for v in rd.coroots
    ]
    reflections = _reference_reflection_bits(rd)

    def adjoin(mask: int, p: int) -> int:
        todo = [p, rd.negative_of(p)]
        while todo:
            i = todo.pop()
            if not mask >> i & 1:
                mask |= 1 << i
                todo += [k for bit, k in pairs[i] if mask & bit]
        return mask

    def orbit_tree(mask: int) -> dict:
        images, seen, frontier = {}, {mask}, [mask]
        for member in frontier:
            images[member] = row = [
                sum(bits[k] for k in _bits(member)) for _, bits in reflections
            ]
            for image in row:
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        first = min(frontier, key=_bits)
        tree, frontier = {first: None}, [first]
        for member in frontier:
            for (a, _), image in zip(reflections, images[member]):
                if image not in tree:
                    tree[image] = (member, a)
                    frontier.append(image)
        return tree

    moves, queue = {0: None}, [0]
    while queue:
        mask = queue.pop()
        for p in rd.positive:
            if not mask >> p & 1:
                bigger = adjoin(mask, p)
                if bigger not in moves:
                    moves.update(orbit_tree(bigger))
                    queue.append(bigger)
    node = {mask: frozenset(_bits(mask)) for mask in moves}
    return {
        node[mask]: moves[mask] and (node[moves[mask][0]], moves[mask][1])
        for mask in sorted(moves, key=lambda mask: (len(node[mask]), _bits(mask)))
    }


def reference_node_permutations(poset) -> dict[int, tuple[int, ...]]:
    """Per simple root a, node j -> the node s_a(j), imaging every node again."""
    masks = [sum(1 << k for k in node) for node in poset.nodes]
    node_of = {mask: j for j, mask in enumerate(masks)}
    return {
        a: tuple(node_of[sum(bits[k] for k in _bits(mask))] for mask in masks)
        for a, bits in _reference_reflection_bits(poset.rd)
    }


def reference_classify_vectors(vectors, form) -> str:
    """``classify_vectors`` with each component's rank from its Smith form."""
    if not vectors:
        return "empty"
    remaining, labels = set(range(len(vectors))), []
    while remaining:
        comp, frontier = {min(remaining)}, [min(remaining)]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if form(vectors[i], vectors[j]) != 0:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        labels.append(_reference_component([vectors[i] for i in sorted(comp)], form))
    return "x".join(sorted(labels))


def _reference_component(vectors, form) -> str:
    count = len(vectors)
    r = len(smith_normal_form([list(v) for v in vectors]).divisors)
    lengths = sorted({form(v, v) for v in vectors})
    n_short = sum(1 for v in vectors if form(v, v) == lengths[0])
    n_long = count - n_short
    if len(lengths) == 1:
        if count == r * (r + 1):
            return f"A{r}"
        if count == 2 * r * (r - 1) and r >= 4:
            return f"D{r}"
        if (r, count) in {(6, 72), (7, 126), (8, 240)}:
            return f"E{r}"
    elif len(lengths) == 2 and lengths[1] == 2 * lengths[0]:
        if (r, count) == (4, 48):
            return "F4"
        if r == 2 and count == 8:
            return "C2"
        if n_short == 2 * r and n_long == 2 * r * (r - 1):
            return f"B{r}"
        if n_long == 2 * r and n_short == 2 * r * (r - 1):
            return f"C{r}"
    elif len(lengths) == 2 and lengths[1] == 3 * lengths[0] and (r, count) == (2, 12):
        return "G2"
    return "unknown"
