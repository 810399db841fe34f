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
one element at a time.

``SubsystemPoset`` precomputes the node list and serves per-node data:
type labels (one classification per Weyl orbit, with long/short
disambiguation where needed), Poincare polynomials (read from the type
label's fundamental degrees) and Weyl orbits, each built for all nodes on
first use; and, one node at a time, the quotient X^vee / <Psi> with its
Smith basis and the Mobius row mu(i, .) (downward recursion over the
nodes above i).  A root datum builds its poset once and keeps it
(``build_poset``).
"""

from __future__ import annotations

import math
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


def _members(mask: int) -> frozenset[int]:
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def closure(rd: RootDatum, indices) -> frozenset[int]:
    """Smallest closed symmetric subset of the coroot system containing indices."""
    return _members(_adjoin(rd, _sum_pairs(rd), 0, indices))


def enumerate_closed_subsystems(rd: RootDatum) -> tuple[frozenset[int], ...]:
    """All closed symmetric subsystems of the coroot system, smallest first.

    Walk of the lattice: from each known subsystem, adjoin one positive
    coroot not in it and close up.  Raises ResourceLimitError when
    the ambient system has more than ``MAX_POSITIVE_ROOTS`` positive roots.
    """
    if rd.num_positive > MAX_POSITIVE_ROOTS:
        raise ResourceLimitError(
            "poset-bound",
            f"coroot system has {rd.num_positive} positive roots, above the "
            f"enumeration bound {MAX_POSITIVE_ROOTS}",
        )
    pairs = _sum_pairs(rd)
    seen = {0}
    queue = [0]
    while queue:
        mask = queue.pop()
        for p in rd.positive:
            if not mask >> p & 1:
                bigger = _adjoin(rd, pairs, mask, (p,))
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    nodes = map(_members, seen)
    return tuple(sorted(nodes, key=lambda n: (len(n), tuple(sorted(n)))))


class SubsystemPoset:
    """The inclusion poset of closed coroot subsystems of one root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.nodes: tuple[frozenset[int], ...] = enumerate_closed_subsystems(rd)
        self.index_of: dict[frozenset[int], int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.masks = tuple(sum(1 << k for k in node) for node in self.nodes)
        self._mobius_rows: dict[int, Mapping[int, int]] = {}
        self._quotients: dict[int, QuotientInvariants] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def leq(self, i: int, j: int) -> bool:
        return not self.masks[i] & ~self.masks[j]

    def upper_set(self, i: int) -> tuple[int, ...]:
        """Indices of all nodes containing node i (including i; none before i)."""
        mask = self.masks[i]
        return tuple(
            j for j in range(i, self.num_nodes) if not mask & ~self.masks[j]
        )

    def mobius_row(self, i: int) -> Mapping[int, int]:
        """The nonzero mu(i, j), by ascending j, as a read-only mapping.

        Downward recursion mu(i, j) = -sum of mu(i, c) over i <= c < j: the
        nodes c strictly inside j are smaller, so their values come first.
        """
        row = self._mobius_rows.get(i)
        if row is None:
            row = {i: 1}
            masks = self.masks
            for j in self.upper_set(i)[1:]:
                outside = ~masks[j]
                mu = -sum(v for c, v in row.items() if not masks[c] & outside)
                if mu:
                    row[j] = mu
            row = self._mobius_rows[i] = MappingProxyType(row)
        return row

    def mobius(self, i: int, j: int) -> int:
        """Mobius function of the inclusion poset: mu(i, j)."""
        return self.mobius_row(i).get(j, 0)

    # -- per-node data -----------------------------------------------------

    def coroot_vectors(self, i: int) -> list[Vector]:
        return [self.rd.coroots[k] for k in sorted(self.nodes[i])]

    def quotient(self, i: int) -> QuotientInvariants:
        """Invariants of X^vee / <Psi> for node i, with its Smith basis."""
        inv = self._quotients.get(i)
        if inv is None:
            inv = quotient_invariants(self.rd.rank, self.coroot_vectors(i))
            self._quotients[i] = inv
        return inv

    def torsion_exponent_lcm(self) -> int:
        """lcm over all nodes of the torsion exponent of X^vee / <Psi>."""
        return math.lcm(
            *(self.quotient(i).torsion_exponent for i in range(self.num_nodes))
        )

    @cached_property
    def _poincare(self) -> tuple[Poly, ...]:
        return tuple(map(type_poincare, map(self.type_label, range(self.num_nodes))))

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
        rd, lookup = self.rd, self.rd.coroot_lookup
        # each simple reflection as a permutation of coroot indices
        perms = [
            [lookup[tuple(sum(a * b for a, b in zip(row, v)) for row in mat)]
             for v in rd.coroots]
            for mat in map(rd.reflection_matrix, rd.simple_root_indices)
        ]
        orbit_list: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in range(self.num_nodes):
            if start in seen:
                continue
            orbit, frontier = {start}, [start]
            while frontier:
                node = self.nodes[frontier.pop()]
                for perm in perms:
                    idx = self.index_of[frozenset(perm[k] for k in node)]
                    if idx not in orbit:
                        orbit.add(idx)
                        frontier.append(idx)
            seen |= orbit
            orbit_list.append(tuple(sorted(orbit)))
        return tuple(orbit_list)

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Partition of node indices into Weyl-group orbits."""
        return self._orbits

    @cached_property
    def _orbit_index(self) -> tuple[int, ...]:
        index = [0] * self.num_nodes
        for k, orbit in enumerate(self.orbits()):
            for i in orbit:
                index[i] = k
        return tuple(index)

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
