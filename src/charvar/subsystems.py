"""Closed subsystems of the coroot system, as a poset with Mobius function.

A subset Psi of the coroot system is closed when it is symmetric (closed
under negation) and summation-closed: whenever two of its elements add up
to a coroot, that coroot also lies in Psi.  These subsets, ordered by
inclusion, form the lattice the counting formula sums over.

Subsystems are represented as frozensets of root/coroot indices of the
ambient ``RootDatum``.  Enumeration walks the lattice from the empty set:
repeatedly adjoin one positive coroot and close up.  Every closed subsystem
is reached this way, because it is the closure of its own simple system,
which can be adjoined one element at a time.

``SubsystemPoset`` precomputes the node list and serves per-node data:
type labels (with long/short disambiguation where needed), quotient
invariants of X^vee / <Psi>, Poincare polynomials (read from the type
label's fundamental degrees), Weyl orbits of nodes, and Mobius values
computed by the standard downward recursion.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .abelian import QuotientInvariants, quotient_invariants
from .errors import ResourceLimitError
from .qpoly import Poly
from .rootdata import (
    Matrix,
    RootDatum,
    Vector,
    classify_vectors,
    type_poincare,
)

MAX_POSITIVE_ROOTS = 24


def closure(rd: RootDatum, indices) -> frozenset[int]:
    """Smallest closed symmetric subset of the coroot system containing indices."""
    lookup = rd._coroot_lookup()
    current: set[int] = set()
    for i in indices:
        current.add(i)
        current.add(rd.negative_of(i))
    changed = True
    while changed:
        changed = False
        members = sorted(current)
        for i, j in itertools.combinations(members, 2):
            s = tuple(a + b for a, b in zip(rd.coroots[i], rd.coroots[j]))
            k = lookup.get(s)
            if k is not None and k not in current:
                current.add(k)
                current.add(rd.negative_of(k))
                changed = True
    return frozenset(current)


@lru_cache(maxsize=None)
def enumerate_closed_subsystems(rd: RootDatum) -> tuple[frozenset[int], ...]:
    """All closed symmetric subsystems of the coroot system, smallest first.

    Breadth-first walk of the lattice: from each known subsystem, adjoin one
    positive coroot not in it and take the closure.  Raises
    ResourceLimitError when the ambient system has more than
    ``MAX_POSITIVE_ROOTS`` positive roots.
    """
    if rd.num_positive > MAX_POSITIVE_ROOTS:
        raise ResourceLimitError(
            "poset-bound",
            f"coroot system has {rd.num_positive} positive roots, above the "
            f"enumeration bound {MAX_POSITIVE_ROOTS}",
        )
    empty: frozenset[int] = frozenset()
    seen: set[frozenset[int]] = {empty}
    queue = [empty]
    while queue:
        node = queue.pop()
        for p in rd.positive:
            if p in node:
                continue
            bigger = closure(rd, node | {p})
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return tuple(sorted(seen, key=lambda n: (len(n), tuple(sorted(n)))))


class SubsystemPoset:
    """The inclusion poset of closed coroot subsystems of one root datum."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.nodes: tuple[frozenset[int], ...] = enumerate_closed_subsystems(rd)
        self.index_of: dict[frozenset[int], int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self._mobius: dict[tuple[int, int], int] = {}
        self._poincare: dict[int, Poly] = {}
        self._labels: list[str] | None = None
        self._display: list[str] | None = None
        self._orbits: tuple[tuple[int, ...], ...] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def leq(self, i: int, j: int) -> bool:
        return self.nodes[i] <= self.nodes[j]

    def upper_set(self, i: int) -> tuple[int, ...]:
        """Indices of all nodes containing node i (including i)."""
        return tuple(j for j in range(self.num_nodes) if self.leq(i, j))

    def mobius(self, i: int, j: int) -> int:
        """Mobius function of the inclusion poset: mu(i, j)."""
        if not self.leq(i, j):
            return 0
        key = (i, j)
        if key not in self._mobius:
            if i == j:
                self._mobius[key] = 1
            else:
                total = 0
                for c in range(self.num_nodes):
                    if c != j and self.leq(i, c) and self.leq(c, j):
                        total += self.mobius(i, c)
                self._mobius[key] = -total
        return self._mobius[key]

    # -- per-node data -----------------------------------------------------

    def coroot_vectors(self, i: int) -> list[Vector]:
        return [self.rd.coroots[k] for k in sorted(self.nodes[i])]

    def quotient(self, i: int) -> QuotientInvariants:
        """Invariants of X^vee / <Psi> for node i."""
        return quotient_invariants(
            self.rd.rank, [list(v) for v in self.coroot_vectors(i)]
        )

    def poincare(self, i: int) -> Poly:
        if i not in self._poincare:
            self._poincare[i] = type_poincare(self.type_label(i))
        return self._poincare[i]

    def weyl_order(self, i: int) -> int:
        """|W(Psi)| = P_Psi(1)."""
        return int(self.poincare(i).evaluate(1))

    def type_label(self, i: int) -> str:
        if self._labels is None:
            self._labels = [
                classify_vectors(self.coroot_vectors(k), self.rd.coroot_form)
                for k in range(self.num_nodes)
            ]
        return self._labels[i]

    # -- Weyl orbits ---------------------------------------------------------

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Partition of node indices into Weyl-group orbits."""
        if self._orbits is None:
            generators = [
                self.rd.reflection_matrix(i) for i in self.rd.simple_root_indices()
            ]
            lookup = self.rd._coroot_lookup()

            def apply(mat: Matrix, node: frozenset[int]) -> frozenset[int]:
                out = []
                for k in node:
                    v = self.rd.coroots[k]
                    image = tuple(
                        sum(mat[r][c] * v[c] for c in range(self.rd.rank))
                        for r in range(self.rd.rank)
                    )
                    out.append(lookup[image])
                return frozenset(out)

            assigned: dict[int, int] = {}
            orbit_list: list[tuple[int, ...]] = []
            for start in range(self.num_nodes):
                if start in assigned:
                    continue
                orbit = {start}
                frontier = [self.nodes[start]]
                while frontier:
                    nxt = []
                    for node in frontier:
                        for g in generators:
                            image = apply(g, node)
                            idx = self.index_of[image]
                            if idx not in orbit:
                                orbit.add(idx)
                                nxt.append(image)
                    frontier = nxt
                for idx in orbit:
                    assigned[idx] = len(orbit_list)
                orbit_list.append(tuple(sorted(orbit)))
            self._orbits = tuple(orbit_list)
        return self._orbits

    def orbit_of(self, i: int) -> int:
        for k, orbit in enumerate(self.orbits()):
            if i in orbit:
                return k
        raise IndexError(i)  # pragma: no cover

    # -- display labels -----------------------------------------------------

    def display_label(self, i: int) -> str:
        """Type label, disambiguated when one type splits into several orbits.

        Rank-one nodes are suffixed ``-long``/``-short`` by coroot length;
        other ambiguous types get ``#k`` numbered by orbit.
        """
        if self._display is None:
            self._display = self._compute_display_labels()
        return self._display[i]

    def _compute_display_labels(self) -> list[str]:
        orbits = self.orbits()
        by_label: dict[str, set[int]] = {}
        for i in range(self.num_nodes):
            by_label.setdefault(self.type_label(i), set()).add(i)
        labels = [""] * self.num_nodes
        form = self.rd.coroot_form
        norms = [form(v, v) for v in self.rd.coroots]
        max_norm = max(norms) if norms else 0
        min_norm = min(norms) if norms else 0
        for label, members in by_label.items():
            member_orbits = sorted(
                {self.orbit_of(i) for i in members}
            )
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
        return labels


@lru_cache(maxsize=None)
def build_poset(rd: RootDatum) -> SubsystemPoset:
    return SubsystemPoset(rd)
