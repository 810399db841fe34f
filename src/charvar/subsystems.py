"""Closed subsystems of the coroot system, as a poset with Mobius function.

A subset Psi of the coroot system is closed when it is symmetric (closed
under negation) and summation-closed: whenever two of its elements add up
to a coroot, that coroot also lies in Psi.  These subsets, ordered by
inclusion, form the lattice the counting formula sums over.

Subsystems are sets of root/coroot indices of the ambient ``RootDatum``,
held internally as integer bitmasks (bit k for coroot k) and exposed as
frozensets.  A sum-pair table, built once per enumeration, lists for each
coroot i the pairs (j, k) with alpha_i^vee + alpha_j^vee = alpha_k^vee.
Closing a set runs in rounds over that table on whole bitmasks: each
round adds the sums made by the coroots new in the round before.
Enumeration walks the lattice from the empty set: repeatedly adjoin one
positive coroot to a closed mask and close up.  Every closed subsystem is
reached this way, because it is the closure of its own simple system,
which can be adjoined one element at a time.  The walk runs one Weyl
orbit at a time: only the first subsystem found in an orbit is extended,
and each new one is closed under the simple reflections, acting on
bitmasks as permutations of the coroot indices; each member records the
simple reflection that reaches it, and the poset reads its node
permutations off the images the walk keeps.

``SubsystemPoset`` precomputes the node list and serves per-node data:
type labels (one classification per Weyl orbit, with long/short
disambiguation where needed), Poincare polynomials (one per type label,
read from its fundamental degrees) and Weyl orbits, each built for all
nodes on first use; and, one node at a time, the quotient X^vee / <Psi>
with its Smith basis and the Mobius row mu(i, .).  A Mobius row is
computed at the first node of each orbit only (the downward recursion
over the nodes above it) and carried to the other members through the
recorded reflection's permutation of the nodes, a poset automorphism.
Torus elements are carried the other way (``carry``): S dies at w(Psi)
exactly when w^-1 S dies at Psi, so one membership test per orbit, at
its first node, decides every member.  A root datum builds its poset
once and keeps it (``build_poset``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
from functools import cached_property
from types import MappingProxyType

from . import reference
from .abelian import QuotientInvariants, quotient_invariants
from .errors import ResourceLimitError
from .qpoly import Poly
from .rootdata import RootDatum, Vector, classify_vectors, type_poincare

MAX_POSITIVE_ROOTS = 24


def _sum_pairs(rd: RootDatum) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per coroot i, the bits (1 << j, 1 << k) with alpha_i^vee + alpha_j^vee = alpha_k^vee."""
    lookup, add = rd.coroot_lookup, operator.add
    return tuple(
        tuple(
            (1 << j, 1 << k)
            for j, w in enumerate(rd.coroots)
            if (k := lookup.get(tuple(map(add, v, w)))) is not None
        )
        for v in rd.coroots
    )


def _adjoin(rd: RootDatum, pairs, mask: int, p: int) -> int:
    """Closure of the closed mask ``mask`` with coroot ``p`` adjoined.

    One round at a time on whole bitmasks: a round adds the sums, read off
    the sum-pair table ``pairs``, of each coroot new in the round before
    with each member, until a round adds nothing (sums of two older members
    are in already).  Symmetry needs no extra step: both signs of p go in
    first, and whenever i + j = k goes in, so do -i and -j, and with them -k.
    """
    new = 1 << p | 1 << rd.negative_of(p)
    while new := new & ~mask:
        mask |= new
        sums = 0
        while new:
            low = new & -new
            new ^= low
            for bit, k_bit in pairs[low.bit_length() - 1]:
                if mask & bit:
                    sums |= k_bit
        new = sums
    return mask


def _indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: the lowest one is taken off each turn."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _orbit_tree(mask: int, reflections, members: dict, images: dict) -> dict:
    """Weyl orbit of ``mask`` as a tree: member -> (parent, a), None at the root.

    The root is the orbit's first member (least ``_indices``).  A walk from
    ``mask`` finds the members, and records each one's indices in
    ``members`` and its images under the simple reflections in ``images``;
    a breadth-first walk over those images from the root builds the tree.
    """
    members[mask], frontier = _indices(mask), [mask]
    for member in frontier:
        indices = members[member]
        images[member] = row = [sum(map(bits.__getitem__, indices)) for _, bits in reflections]
        for image in row:
            if image not in members:
                members[image] = _indices(image)
                frontier.append(image)
    first = min(frontier, key=members.__getitem__)
    tree, frontier = {first: None}, [first]
    for member in frontier:
        for (a, _), image in zip(reflections, images[member]):
            if image not in tree:
                tree[image] = (member, a)
                frontier.append(image)
    return tree


def check_poset_bound(rd: RootDatum) -> None:
    """Raise ``poset-bound`` if the poset of ``rd`` is too big to enumerate."""
    if rd.num_positive > MAX_POSITIVE_ROOTS:
        raise ResourceLimitError(
            "poset-bound",
            f"coroot system has {rd.num_positive} positive roots, above the "
            f"enumeration bound {MAX_POSITIVE_ROOTS}",
        )


class ClosedSubsystems(dict):
    """The closed subsystems, node -> move, with two things the walk found:
    ``masks[i]``, node i as a bitmask, and ``images[i]``, the bitmasks of its
    images under the simple reflections (``RootDatum.simple_root_indices``)."""

    __slots__ = ("masks", "images")


def enumerate_closed_subsystems(rd: RootDatum) -> ClosedSubsystems:
    """All closed symmetric subsystems of the coroot system, smallest first.

    Each maps to None if it is the first (smallest) of its Weyl orbit, else
    to (parent, a) with it = s_a(parent) for a simple root a.  Only the first
    subsystem found in an orbit is extended, as adjoin(w Psi, beta) =
    w adjoin(Psi, +-w^-1 beta).  Raises ResourceLimitError when the ambient
    system has more than ``MAX_POSITIVE_ROOTS`` positive roots.
    """
    check_poset_bound(rd)
    pairs = _sum_pairs(rd)
    # (a, bits) per simple root a: s_a(beta_k^vee) is the coroot with bit bits[k]
    reflections = [
        (a, tuple(1 << k for k in rd.reflections[a])) for a in rd.simple_root_indices
    ]
    members: dict[int, tuple[int, ...]] = {}
    images: dict[int, list[int]] = {}
    moves = _orbit_tree(0, reflections, members, images)
    queue = [0]
    while queue:
        mask = queue.pop()
        for p in rd.positive:
            if not mask >> p & 1:
                bigger = _adjoin(rd, pairs, mask, p)
                if bigger not in moves:
                    moves.update(_orbit_tree(bigger, reflections, members, images))
                    queue.append(bigger)
    masks = sorted(moves, key=lambda mask: (len(members[mask]), members[mask]))
    node = {mask: frozenset(members[mask]) for mask in masks}
    walk = ClosedSubsystems(
        (node[mask], moves[mask] and (node[moves[mask][0]], moves[mask][1]))
        for mask in masks
    )
    walk.masks, walk.images = tuple(masks), tuple(map(images.__getitem__, masks))
    return walk


class SubsystemPoset:
    """The inclusion poset of closed coroot subsystems of one root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        walk = enumerate_closed_subsystems(rd)
        # per node: (parent node, simple root), None at its orbit's first node
        self._moves = walk
        self.nodes: tuple[frozenset[int], ...] = tuple(walk)
        self.index_of: dict[frozenset[int], int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.masks, self._images = walk.masks, walk.images
        self._mobius_rows: dict[int, Mapping[int, int]] = {}
        self._quotients: dict[int, QuotientInvariants] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def upper_set(self, i: int) -> tuple[int, ...]:
        """Indices of all nodes containing node i (including i; none before i)."""
        mask = self.masks[i]
        return tuple(
            j for j in range(i, self.num_nodes) if not mask & ~self.masks[j]
        )

    def mobius_row(self, i: int) -> Mapping[int, int]:
        """The nonzero mu(i, j), by ascending j, as a read-only mapping.

        At the first node of an orbit, the downward recursion mu(i, j) =
        -sum of mu(i, c) over i <= c < j: the nodes c strictly inside j are
        smaller, so their values come first.  A node s_a(Psi) maps the row of
        Psi through the node permutation of s_a, an automorphism of the
        poset: mu(s i, s j) = mu(i, j).
        """
        row = self._mobius_rows.get(i)
        if row is None:
            move = self._moves[self.nodes[i]]
            if move is None:
                row = {i: 1}
                masks = self.masks
                for j in self.upper_set(i)[1:]:
                    outside = ~masks[j]
                    mu = -sum(v for c, v in row.items() if not masks[c] & outside)
                    if mu:
                        row[j] = mu
            else:
                perm = self._node_permutations[move[1]]
                parent = self.mobius_row(self.index_of[move[0]])
                row = dict(sorted((perm[j], v) for j, v in parent.items()))
            row = self._mobius_rows[i] = MappingProxyType(row)
        return row

    @cached_property
    def _node_permutations(self) -> dict[int, tuple[int, ...]]:
        """Per simple root a, node j -> the node s_a(j), read off the enumeration."""
        node_of = {mask: j for j, mask in enumerate(self.masks)}
        return {
            a: tuple(node_of[row[r]] for row in self._images)
            for r, a in enumerate(self.rd.simple_root_indices)
        }

    def mobius(self, i: int, j: int) -> int:
        """Mobius function of the inclusion poset: mu(i, j)."""
        return self.mobius_row(i).get(j, 0)

    # -- per-node data -----------------------------------------------------

    def coroot_vectors(self, i: int) -> list[Vector]:
        return [self.rd.coroots[k] for k in sorted(self.nodes[i])]

    def quotient(self, i: int) -> QuotientInvariants:
        """Invariants of X^vee / <Psi> for node i, with its Smith basis."""
        if i not in self._quotients:
            self._quotients[i] = quotient_invariants(self.rd.rank, self.coroot_vectors(i))
        return self._quotients[i]

    def carry(self, vector: Sequence[int]) -> list[tuple[int, ...]]:
        """Per node w(Psi_0), Psi_0 its orbit's first node, w^-1 S for S = ``vector``.

        S (as ``S.flat()``) dies in (X^vee/<w Psi_0>) (x) A exactly when w^-1 S
        dies in (X^vee/<Psi_0>) (x) A.  A node s_a(p), p = w_p(Psi_0), reflects
        p's element once: w^-1 = w_p^-1 s_a = s_b w_p^-1 for alpha_b =
        w_p^-1 alpha_a, and s_b S = S - alpha_b(S) alpha_b^vee.
        """
        rd = self.rd
        # node -> (w^-1 S, the root index of w^-1 alpha_k at k)
        done = {o[0]: (tuple(vector), range(rd.num_roots)) for o in self.orbits()}

        def carried(i: int) -> tuple:
            if i not in done:
                parent, a = self._moves[self.nodes[i]]
                v, inverse = carried(self.index_of[parent])
                done[i] = rd.reflect(inverse[a], v), tuple(
                    map(inverse.__getitem__, rd.reflections[a])
                )
            return done[i]

        return [carried(i)[0] for i in range(self.num_nodes)]

    def torsion_exponent_lcm(self) -> int:
        """lcm over all nodes of the torsion exponent of X^vee / <Psi>."""
        return math.lcm(
            *(self.quotient(orbit[0]).torsion_exponent for orbit in self.orbits())
        )

    @cached_property
    def _poincare(self) -> tuple[Poly, ...]:
        # labels in node order, so an unclassifiable one fails where it used to
        labels = tuple(map(self.type_label, range(self.num_nodes)))
        by_label = {label: type_poincare(label) for label in dict.fromkeys(labels)}
        return tuple(map(by_label.__getitem__, labels))

    def poincare(self, i: int) -> Poly:
        return self._poincare[i]

    def weyl_order(self, i: int) -> int:
        """|W(Psi)| = P_Psi(1)."""
        return sum(self.poincare(i).coeffs)

    @cached_property
    def _type_labels(self) -> tuple[str, ...]:
        # one classification per Weyl orbit: the coroot form is W-invariant
        labels = [""] * self.num_nodes
        form = self.rd.coroot_form
        for orbit in self.orbits():
            label = classify_vectors(self.coroot_vectors(orbit[0]), form)
            for i in orbit:
                labels[i] = label
        return tuple(labels)

    def type_label(self, i: int) -> str:
        return self._type_labels[i]

    # -- Weyl orbits ---------------------------------------------------------

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        # moves lead each node back to its orbit's first node, the smallest
        members: dict[frozenset[int], list[int]] = {}
        for i, node in enumerate(self.nodes):
            while self._moves[node] is not None:
                node = self._moves[node][0]
            members.setdefault(node, []).append(i)
        return tuple(map(tuple, members.values()))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Partition of node indices into Weyl-group orbits."""
        return self._orbits

    @cached_property
    def _orbit_index(self) -> dict[int, int]:
        return {i: k for k, orbit in enumerate(self.orbits()) for i in orbit}

    def orbit_of(self, i: int) -> int:
        return self._orbit_index[i]

    # -- display labels -----------------------------------------------------

    def display_label(self, i: int) -> str:
        """Type label, disambiguated when one type splits into several orbits.

        Rank-one nodes are suffixed ``-long``/``-short`` by coroot length;
        other ambiguous types get ``#k`` numbered by orbit.
        """
        return self._display_labels[i]

    @cached_property
    def _display_labels(self) -> tuple[str, ...]:
        by_label: dict[str, set[int]] = {}
        for i in range(self.num_nodes):
            by_label.setdefault(self.type_label(i), set()).add(i)
        labels = [""] * self.num_nodes
        form = self.rd.coroot_form
        norms = [form(v, v) for v in self.rd.coroots]
        max_norm = max(norms) if norms else 0
        min_norm = min(norms) if norms else 0
        for label, members in by_label.items():
            member_orbits = sorted({self.orbit_of(i) for i in members})
            if len(member_orbits) == 1:
                for i in members:
                    labels[i] = label
                continue
            rank_one = all(len(self.nodes[i]) == 2 for i in members)
            if rank_one and max_norm != min_norm:
                for i in members:
                    v = self.coroot_vectors(i)[0]
                    suffix = "-long" if form(v, v) == max_norm else "-short"
                    labels[i] = label + suffix
                # fall through to #k only if suffixing failed to split orbits
                suffixed = {labels[i] for i in members}
                if len(suffixed) == len(member_orbits):
                    continue
            for i in members:
                k = member_orbits.index(self.orbit_of(i)) + 1
                labels[i] = f"{label}#{k}"
        return tuple(labels)


def build_poset(rd: RootDatum) -> SubsystemPoset:
    """The closed-subsystem poset of ``rd``, built on first request and kept on it."""
    return rd.poset


def __getattr__(name: str):
    if name == "closure":  # from ``reference``
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
