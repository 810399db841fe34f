"""Closed subsystems of the coroot system, as a poset with Mobius function.

A subset Psi of the coroot system is closed when it is symmetric (closed
under negation) and summation-closed: whenever two of its elements add up
to a coroot, that coroot also lies in Psi.  These subsets, ordered by
inclusion, form the lattice the counting formula sums over.

Subsystems are sets of root/coroot indices of the ambient ``RootDatum``,
held internally as integer bitmasks (bit k for coroot k) and exposed as
frozensets.  A sum-pair table, built once per enumeration, lists for each
coroot i the pairs (j, k) with alpha_i^vee + alpha_j^vee = alpha_k^vee.
Closing a set is a worklist over that table: each coroot newly added is
checked only against the pairs it takes part in.  Enumeration walks the
lattice from the empty set: repeatedly adjoin one positive coroot to a
closed mask and close up.  Every closed subsystem is reached this way,
because it is the closure of its own simple system, which can be adjoined
one element at a time.  The walk runs one Weyl orbit at a time: only the
first subsystem found in an orbit is extended, and each new one is closed
under the simple reflections, acting on bitmasks as permutations of the
coroot indices; each member records the simple reflection that reaches it.

``SubsystemPoset`` precomputes the node list and serves per-node data:
type labels (one classification per Weyl orbit, with long/short
disambiguation where needed), Poincare polynomials (one per type label,
read from its fundamental degrees) and Weyl orbits, each built for all
nodes on first use; and, one node at a time, the quotient X^vee / <Psi>
with its Smith basis and the Mobius row mu(i, .).  Both are computed at
the first node of each orbit only (a Smith form; the downward recursion
over the nodes above it) and carried to the other members along the
recorded reflections: the Smith basis by a rank-one update, the Mobius
row through the reflection's permutation of the nodes, a poset
automorphism.  A root datum builds its poset once and keeps it
(``build_poset``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .abelian import QuotientInvariants, quotient_invariants
from .errors import ResourceLimitError
from .qpoly import Poly
from .rootdata import RootDatum, Vector, classify_vectors, type_poincare

MAX_POSITIVE_ROOTS = 24


def _sum_pairs(rd: RootDatum) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per coroot i, the pairs (1 << j, k) with alpha_i^vee + alpha_j^vee = alpha_k^vee."""
    lookup = rd.coroot_lookup
    return tuple(
        tuple(
            (1 << j, k)
            for j, w in enumerate(rd.coroots)
            if (k := lookup.get(tuple(a + b for a, b in zip(v, w)))) is not None
        )
        for v in rd.coroots
    )


def _adjoin(rd: RootDatum, pairs, mask: int, indices) -> int:
    """Closure of the closed mask ``mask`` with ``indices`` adjoined.

    Worklist over the sum-pair table ``pairs``: a coroot is checked against
    its sum pairs when it is added.  Symmetry needs no extra step: both
    signs of each index go in first, and whenever i + j = k goes in, so do
    -i and -j, and with them -k.
    """
    todo = [k for i in indices for k in (i, rd.negative_of(i))]
    while todo:
        i = todo.pop()
        if not mask >> i & 1:
            mask |= 1 << i
            for bit, k in pairs[i]:
                if mask & bit:
                    todo.append(k)
    return mask


def _indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: the lowest one is taken off each turn."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _members(mask: int) -> frozenset[int]:
    return frozenset(_indices(mask))


def closure(rd: RootDatum, indices) -> frozenset[int]:
    """Smallest closed symmetric subset of the coroot system containing indices."""
    return _members(_adjoin(rd, _sum_pairs(rd), 0, indices))


def _simple_reflections(rd: RootDatum) -> list[tuple[int, tuple[int, ...]]]:
    """(a, bits) per simple root a: s_a(beta_k^vee) =
    beta_k^vee - <alpha, beta_k^vee> alpha^vee is the coroot with bit bits[k]."""
    lookup, out = rd.coroot_lookup, []
    for a in rd.simple_root_indices:
        root, coroot = rd.roots[a], rd.coroots[a]
        bits = []
        for v in rd.coroots:
            p = sum(map(operator.mul, root, v))
            bits.append(1 << lookup[tuple(x - p * y for x, y in zip(v, coroot))])
        out.append((a, tuple(bits)))
    return out


def _orbit_tree(mask: int, reflections) -> dict[int, tuple[int, int] | None]:
    """Weyl orbit of ``mask`` as a tree: member -> (parent, a) or None at mask."""
    tree, frontier = {mask: None}, [mask]
    for member in frontier:
        indices = _indices(member)
        for a, bits in reflections:
            image = sum(map(bits.__getitem__, indices))
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


def enumerate_closed_subsystems(rd: RootDatum) -> dict[frozenset[int], tuple | None]:
    """All closed symmetric subsystems of the coroot system, smallest first.

    Each maps to None if it is the first (smallest) of its Weyl orbit, else
    to (parent, a) with it = s_a(parent) for a simple root a.  Only the first
    subsystem found in an orbit is extended, as adjoin(w Psi, beta) =
    w adjoin(Psi, +-w^-1 beta).  Raises ResourceLimitError when the ambient
    system has more than ``MAX_POSITIVE_ROOTS`` positive roots.
    """
    check_poset_bound(rd)
    pairs, reflections = _sum_pairs(rd), _simple_reflections(rd)
    moves: dict[int, tuple[int, int] | None] = {0: None}
    queue = [0]
    while queue:
        mask = queue.pop()
        for p in rd.positive:
            if not mask >> p & 1:
                bigger = _adjoin(rd, pairs, mask, (p,))
                if bigger not in moves:
                    first = min(_orbit_tree(bigger, reflections), key=_indices)
                    moves.update(_orbit_tree(first, reflections))
                    queue.append(bigger)
    return {
        _members(mask): moves[mask] and (_members(moves[mask][0]), moves[mask][1])
        for mask in sorted(moves, key=lambda mask: (mask.bit_count(), _indices(mask)))
    }


class SubsystemPoset:
    """The inclusion poset of closed coroot subsystems of one root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        # per node: (parent node, simple root), None at its orbit's first node
        self._moves = enumerate_closed_subsystems(rd)
        self.nodes: tuple[frozenset[int], ...] = tuple(self._moves)
        self.index_of: dict[frozenset[int], int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.masks = tuple(sum(1 << k for k in node) for node in self.nodes)
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
        """Per simple root a, node j -> the node s_a(j)."""
        node_of = {mask: j for j, mask in enumerate(self.masks)}
        return {
            a: tuple(
                node_of[sum(map(bits.__getitem__, _indices(mask)))]
                for mask in self.masks
            )
            for a, bits in _simple_reflections(self.rd)
        }

    def mobius(self, i: int, j: int) -> int:
        """Mobius function of the inclusion poset: mu(i, j)."""
        return self.mobius_row(i).get(j, 0)

    # -- per-node data -----------------------------------------------------

    def coroot_vectors(self, i: int) -> list[Vector]:
        return [self.rd.coroots[k] for k in sorted(self.nodes[i])]

    def quotient(self, i: int) -> QuotientInvariants:
        """Invariants of X^vee / <Psi> for node i, with its Smith basis.

        The Smith form is computed at the first node of each orbit only.  A
        node s_a(Psi) has generator rows M s_a^T, where M are those of Psi,
        so U M V = D carries over with V' = s_a^T V = V - alpha (alpha^vee^T V).
        """
        inv = self._quotients.get(i)
        if inv is None:
            move = self._moves[self.nodes[i]]
            if move is None:
                inv = quotient_invariants(self.rd.rank, self.coroot_vectors(i))
            else:
                inv = self.quotient(self.index_of[move[0]])
                root, coroot = self.rd.roots[move[1]], self.rd.coroots[move[1]]
                pairing = [sum(map(operator.mul, coroot, c)) for c in zip(*inv.basis)]
                basis = tuple(
                    tuple(v - r * p for v, p in zip(row, pairing))
                    for row, r in zip(inv.basis, root)
                )
                inv = QuotientInvariants(inv.free_rank, inv.torsion, basis)
            self._quotients[i] = inv
        return inv

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
