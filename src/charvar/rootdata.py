"""Root data for split reductive groups, with exact integer coordinates.

A root datum is stored as a character lattice X = Z^d together with paired
tuples of roots (vectors in X) and coroots (vectors in the cocharacter
lattice X^vee = Z^d, paired with X by the dot product).  Index i of
``roots`` corresponds to index i of ``coroots``.  Everything is integral
and hashable.  What a datum derives (lookups, the Cartan integers, the
reflection table, Gram matrices, center invariants, the Weyl group, the
closed-subsystem poset, the dual) is built on first use and kept on it.
The reflection table lists the index of s_i(beta_j) for every pair of
roots; building it is the last axiom check.  The Weyl group is the tuple of
its matrices on X^vee; the semisimple rank and the cocenter are read off
the center invariants of the datum and of its dual.

Every builder picks the positive roots by one rule: a root is positive when
its first nonzero coordinate is positive (``_positive_indices``).  The
coroots at the same indices are then positive in the dual.  The count never
depends on this choice.  The simple roots are the indecomposable positive
roots, so a Dynkin datum's simple roots need not be the Cartan columns (or
rows) that generate it.

Construction goes through ``build_root_datum``, which takes a descriptor
string: ``"GL(3)"``, ``"SO(5)"``, ``"Sp(4)"``, ``"SL(2)"``, ``"PGL(2)"``,
``"T(2)"``, Dynkin types like ``"B2"``/``"G2(ad)"`` (bare types are simply
connected), and products joined with ``x``.  It runs the full root-datum
axiom check and reports the first axiom that fails by name.

Per-component invariants are read from the Cartan type that
``classify_vectors`` assigns: Poincare polynomials from the fundamental
degrees (Chevalley), the validity modulus from the lcm of the highest-root
coefficients and the excluded primes from per-type tables; a component's
rank comes from a fraction-free elimination, not a Smith form.  The Weyl
group enumeration (``enumerate_weyl``) serves only the translate sums of
two or more classes; strong regularity reads the reflection table.

Conventions: the Cartan matrix entry C[i][j] equals <alpha_j, alpha_i^vee>
(row index = coroot).  Simply connected data use the fundamental-weight
basis of X (the roots are generated from the Cartan columns); adjoint data
use the simple-root basis (the coroots are generated from the Cartan
rows).  Classical groups GL/SO/Sp use the standard diagonal-torus
coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import cached_property, reduce
from typing import TYPE_CHECKING

from . import reference
from .abelian import (
    QuotientInvariants,
    identity,
    prime_factors,
    quotient_invariants,
)
from .errors import InvalidInputError, ResourceLimitError
from .qpoly import Poly
from .record import Record

if TYPE_CHECKING:
    from .subsystems import SubsystemPoset

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]

WEYL_ENUMERATION_BOUND = 1_000_000
# Largest lattice rank a descriptor may ask for.  The axiom check costs
# |roots|^2 * rank: the largest accepted groups, E8 and B10/C10 (240 and
# 200 roots), build in about 0.5 s each under CPython 3.11 on a 2-core
# Xeon VM, and B12 already takes 0.9 s.  GL(9) is inside the cap too.
MAX_RANK = 10


def _dot(u: Vector, v: Vector) -> int:
    return sum(map(operator.mul, u, v))


def _neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def _mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(_dot(row, v) for row in m)


class RootDatum(Record):
    """A root datum (X, roots, X^vee, coroots) with its positive roots.

    ``rank`` is the rank d of X; ``roots[i]`` pairs with ``coroots[i]``;
    ``positive`` lists the indices of the positive roots, which the dual
    shares index for index.  The builders fill it by the first-nonzero-
    coordinate rule.  The label is cosmetic and excluded from
    equality/hashing.  Immutable.
    """

    _compared = ("rank", "roots", "coroots", "positive")

    def __init__(
        self,
        rank: int,
        roots: tuple[Vector, ...],
        coroots: tuple[Vector, ...],
        positive: tuple[int, ...],
        label: str = "",
    ):
        self.__dict__.update(
            rank=rank, roots=roots, coroots=coroots, positive=positive, label=label
        )

    # -- basic index structure -------------------------------------------

    @property
    def num_roots(self) -> int:
        return len(self.roots)

    @property
    def num_positive(self) -> int:
        return len(self.positive)

    @property
    def dimension(self) -> int:
        """dim G = |Phi| + rank of the torus."""
        return len(self.roots) + self.rank

    @cached_property
    def root_lookup(self) -> dict[Vector, int]:
        """Index of each root."""
        return {v: i for i, v in enumerate(self.roots)}

    @cached_property
    def coroot_lookup(self) -> dict[Vector, int]:
        """Index of each coroot."""
        return {v: i for i, v in enumerate(self.coroots)}

    def is_positive(self, index: int) -> bool:
        return index in self._positive_set

    @cached_property
    def _positive_set(self) -> frozenset[int]:
        return frozenset(self.positive)

    def negative_of(self, index: int) -> int:
        return self.reflections[index][index]  # s_i(beta_i) = -beta_i

    # -- derived structure --------------------------------------------------

    @cached_property
    def simple_root_indices(self) -> tuple[int, ...]:
        """Indices of the indecomposable positive roots."""
        return _indecomposable(self.roots, self.positive)

    @property
    def semisimple_rank(self) -> int:
        """Rank of the span of the roots: d minus the central torus rank."""
        return self.rank - self.center_invariants.free_rank

    @cached_property
    def _grams(self) -> tuple[Matrix, Matrix]:
        """Gram matrices, sum of v v^T, over the coroots and over the roots."""
        span = range(self.rank)
        return tuple(
            tuple(tuple(sum(v[r] * v[c] for v in vectors) for c in span) for r in span)
            for vectors in (self.coroots, self.roots)
        )

    def root_form(self, x: Vector, y: Vector) -> int:
        """Canonical Weyl-invariant form on X: sum over coroots v of <x,v><y,v>."""
        return _dot(x, _mat_vec(self._grams[0], y))

    def coroot_form(self, x: Vector, y: Vector) -> int:
        """Canonical Weyl-invariant form on X^vee: sum over roots a of <a,x><a,y>."""
        image = self._coroot_images.get(y)
        return _dot(x, _mat_vec(self._grams[1], y) if image is None else image)

    @cached_property
    def _coroot_images(self) -> dict[Vector, Vector]:
        """Gram image G y of each coroot y, G the Gram matrix of ``coroot_form``."""
        gram = self._grams[1]
        return {v: _mat_vec(gram, v) for v in self.coroots}

    @cached_property
    def root_types(self) -> tuple[tuple[str, int], ...]:
        """(letter, rank) of each irreducible component of the root system."""
        return component_types(classify_vectors(list(self.roots), self.root_form))

    @cached_property
    def center_invariants(self) -> QuotientInvariants:
        """Invariants of X / (root lattice): free rank = central torus rank."""
        return quotient_invariants(self.rank, self.roots)

    @cached_property
    def pairing(self) -> Matrix:
        """The Cartan integers: ``pairing[i][j]`` = <beta_j, alpha_i^vee>."""
        return tuple(tuple(_dot(b, av) for b in self.roots) for av in self.coroots)

    @cached_property
    def reflections(self) -> Matrix:
        """Row i: per root j, the index of s_i(beta_j), which s_i(beta_j^vee) shares.

        s_i maps beta_j to beta_j - pairing[i][j] alpha_i and beta_j^vee to
        beta_j^vee - pairing[j][i] alpha_i^vee.  A missing image, or a coroot
        image at another index, raises ``root-datum-axiom``.
        """
        lookup, croot_lookup, sub = self.root_lookup, self.coroot_lookup, operator.sub
        pairing, rows = self.pairing, []
        for i, (a, av) in enumerate(zip(self.roots, self.coroots)):
            on_roots, on_coroots = pairing[i], [r[i] for r in pairing]
            root_multiples = {p: [p * y for y in a] for p in set(on_roots)}
            coroot_multiples = {p: [p * y for y in av] for p in set(on_coroots)}
            row = []
            for j, (b, bv) in enumerate(zip(self.roots, self.coroots)):
                k = lookup.get(tuple(map(sub, b, root_multiples[on_roots[j]])))
                if k is None:
                    raise InvalidInputError(
                        "root-datum-axiom",
                        f"reflection in root {a} maps root {b} outside the root set",
                    )
                if croot_lookup.get(tuple(map(sub, bv, coroot_multiples[on_coroots[j]]))) != k:
                    raise InvalidInputError(
                        "root-datum-axiom",
                        f"reflection in root {a} does not act compatibly "
                        f"on root/coroot pair {j}",
                    )
                row.append(k)
            rows.append(tuple(row))
        return tuple(rows)

    def reflect(self, b: int, v: Vector) -> Vector:
        """s_b v = v - <alpha_b, v> alpha_b^vee on each column of X^vee (x) Z^w.

        ``v`` is flat, as ``SymbolicTorusElement.flat``: entry k * w + t is
        coordinate k of column t.
        """
        w = len(v) // self.rank
        value = [_dot(self.roots[b], v[t::w]) for t in range(w)]
        return tuple(x - self.coroots[b][k // w] * value[k % w] for k, x in enumerate(v))

    @cached_property
    def weyl_group(self) -> tuple[Matrix, ...]:
        """The Weyl group as matrices on X^vee, from the simple reflections (BFS)."""
        return _reflection_group(self, self.simple_root_indices)

    @cached_property
    def poset(self) -> SubsystemPoset:
        """The poset of closed subsystems of the coroot system."""
        from .subsystems import SubsystemPoset  # subsystems imports this module

        return SubsystemPoset(self)

    def dual(self) -> "RootDatum":
        """Swap roots with coroots (X with X^vee); an involution, built once and kept."""
        return self._dual

    @cached_property
    def _dual(self) -> "RootDatum":
        return RootDatum(
            rank=self.rank,
            roots=self.coroots,
            coroots=self.roots,
            positive=self.positive,
            label=f"dual({self.label})" if self.label else "dual",
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_root_datum(rd: RootDatum) -> None:
    """Check the root-datum axioms; raise InvalidInputError naming the axiom.

    Checks: coordinate shapes, <alpha, alpha^vee> = 2, distinctness,
    reducedness (no root is a multiple of another), the +/- partition
    defined by ``positive``, and stability of roots and coroots under every
    reflection with the SAME index bijection (``RootDatum.reflections``).
    """
    d = rd.rank
    if d < 0:
        raise InvalidInputError("root-datum-axiom", "lattice rank must be nonnegative")
    if len(rd.roots) != len(rd.coroots):
        raise InvalidInputError(
            "root-datum-axiom", "roots and coroots must come in equal numbers"
        )
    for v in itertools.chain(rd.roots, rd.coroots):
        if len(v) != d:
            raise InvalidInputError(
                "root-datum-axiom",
                f"vector {v} does not have {d} coordinates",
            )
        if not any(v):
            raise InvalidInputError("root-datum-axiom", "roots must be nonzero")

    for i, (a, av) in enumerate(zip(rd.roots, rd.coroots)):
        if _dot(a, av) != 2:
            raise InvalidInputError(
                "root-datum-axiom",
                f"pairing <root, coroot> must be 2 at index {i}, got {_dot(a, av)}",
            )

    for name, vectors in (("roots", rd.roots), ("coroots", rd.coroots)):
        if len(set(vectors)) != len(vectors):
            raise InvalidInputError("root-datum-axiom", f"{name} must be distinct")

    # reducedness: no root is a rational multiple c = w_k / v_k > 1 of another
    # (v itself fails the test, as v_k v_k is not above v_k v_k)
    for v in rd.roots:
        k = next(i for i, a in enumerate(v) if a)
        square = v[k] * v[k]
        for w in rd.roots:
            if w[k] * v[k] > square and all(a * w[k] == b * v[k] for a, b in zip(v, w)):
                g = math.gcd(w[k], v[k])
                num, den = abs(w[k]) // g, abs(v[k]) // g
                ratio = num if den == 1 else f"{num}/{den}"
                raise InvalidInputError(
                    "root-datum-axiom",
                    f"root system is not reduced: {w} is {ratio} times {v}",
                )

    pos = set(rd.positive)
    if not pos <= set(range(len(rd.roots))):
        raise InvalidInputError("root-datum-axiom", "positive indices out of range")
    if 2 * len(pos) != len(rd.roots):
        raise InvalidInputError(
            "root-datum-axiom", "positive roots must be exactly half of all roots"
        )
    for i in pos:
        j = rd.root_lookup.get(_neg(rd.roots[i]))
        if j is None:
            raise InvalidInputError(
                "root-datum-axiom", f"negative of root {rd.roots[i]} is missing"
            )
        if j in pos:
            raise InvalidInputError(
                "root-datum-axiom",
                f"roots {rd.roots[i]} and {rd.roots[j]} are both marked positive",
            )

    rd.reflections  # built once, checking every reflection on the way


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _positive_indices(roots: tuple[Vector, ...]) -> tuple[int, ...]:
    """Indices of the roots whose first nonzero coordinate is positive.

    Lexicographic order on X respects addition, so this picks out a
    positive system of any root system (Humphreys, section 10.1).
    """
    return tuple(i for i, v in enumerate(roots) if next(c for c in v if c) > 0)


def _datum_from_simples(
    d: int,
    simple_roots: list[Vector],
    simple_coroots: list[Vector],
    label: str,
) -> RootDatum:
    """Generate the full system from simple (root, coroot) pairs by reflection."""
    pairs: set[tuple[Vector, Vector]] = set(zip(simple_roots, simple_coroots))
    frontier = list(pairs)
    while frontier:
        new: list[tuple[Vector, Vector]] = []
        for root, coroot in frontier:
            for s_root, s_coroot in zip(simple_roots, simple_coroots):
                pairing = _dot(root, s_coroot)
                copairing = _dot(s_root, coroot)
                image = (
                    tuple(a - pairing * b for a, b in zip(root, s_root)),
                    tuple(a - copairing * b for a, b in zip(coroot, s_coroot)),
                )
                if image not in pairs:
                    pairs.add(image)
                    new.append(image)
        frontier = new

    roots = tuple(sorted(p[0] for p in pairs))
    order = {v: i for i, v in enumerate(roots)}
    coroots_list: list[Vector] = [()] * len(pairs)
    for root, coroot in pairs:
        coroots_list[order[root]] = coroot
    return RootDatum(
        rank=d,
        roots=roots,
        coroots=tuple(coroots_list),
        positive=_positive_indices(roots),
        label=label,
    )


# -- Cartan matrices, convention C[i][j] = <alpha_j, alpha_i^vee> -----------


def cartan_matrix(letter: str, r: int) -> list[list[int]]:
    """Cartan matrix of an irreducible type; entry [i][j] = <alpha_j, alpha_i^vee>."""
    if r < 1:
        raise InvalidInputError("descriptor", f"rank must be positive, got {r}")

    def chain(edges: list[tuple[int, int]]) -> list[list[int]]:
        c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
        for i, j in edges:
            c[i][j] = -1
            c[j][i] = -1
        return c

    if letter == "A":
        return chain([(i, i + 1) for i in range(r - 1)])
    if letter in ("B", "C"):  # the last simple root is short in B, long in C
        c = chain([(i, i + 1) for i in range(r - 1)])
        if r > 1:  # <alpha_long, alpha_short^vee> = -2
            short, long = (r - 1, r - 2) if letter == "B" else (r - 2, r - 1)
            c[short][long] = -2
        return c
    if letter == "D":
        if r < 2:
            raise InvalidInputError("descriptor", "type D needs rank >= 2")
        edges = [(i, i + 1) for i in range(r - 2)]
        if r >= 3:
            edges[-1] = (r - 3, r - 2)
            edges.append((r - 3, r - 1))
        return chain(edges)
    if letter == "E":
        if r not in (6, 7, 8):
            raise InvalidInputError("descriptor", "type E needs rank 6, 7, or 8")
        edges = [(i, i + 1) for i in range(r - 2)] + [(2, r - 1)]
        return chain(edges)
    if letter == "F":
        if r != 4:
            raise InvalidInputError("descriptor", "type F needs rank 4")
        c = chain([(0, 1), (1, 2), (2, 3)])
        c[2][1] = -2  # <alpha_2 (long), alpha_3^vee (short)> = -2
        return c
    if letter == "G":
        if r != 2:
            raise InvalidInputError("descriptor", "type G needs rank 2")
        return [[2, -3], [-1, 2]]  # alpha_1 short, alpha_2 long
    raise InvalidInputError("descriptor", f"unknown type letter {letter!r}")


def semisimple_datum(letter: str, r: int, isogeny: str = "sc") -> RootDatum:
    """Simply connected ('sc') or adjoint ('ad') datum of an irreducible type."""
    c = cartan_matrix(letter, r)
    if isogeny == "sc":
        # X in the fundamental-weight basis: simple root j = column j of C
        simple_roots = [tuple(c[i][j] for i in range(r)) for j in range(r)]
        simple_coroots = list(identity(r))
    elif isogeny == "ad":
        # X in the simple-root basis: simple coroot i = row i of C
        simple_roots = list(identity(r))
        simple_coroots = [tuple(c[j][i] for i in range(r)) for j in range(r)]
    else:
        raise InvalidInputError("descriptor", f"unknown isogeny {isogeny!r}")
    suffix = "" if isogeny == "sc" else "(ad)"
    return _datum_from_simples(r, simple_roots, simple_coroots, f"{letter}{r}{suffix}")


def _unit(d: int, i: int, scale: int = 1) -> Vector:
    return tuple(scale if j == i else 0 for j in range(d))


def _signed_pairs(d: int, scale: int = 1) -> list[Vector]:
    """All vectors +/- e_i +/- e_j (i<j), scaled."""
    out = []
    for i, j in itertools.combinations(range(d), 2):
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            out.append(tuple(scale * (si if k == i else sj if k == j else 0) for k in range(d)))
    return out


def gl_datum(n: int) -> RootDatum:
    """GL(n): X = X^vee = Z^n, roots = coroots = e_i - e_j."""
    if n < 1:
        raise InvalidInputError("descriptor", "GL(n) needs n >= 1")
    roots = tuple(
        tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
    )
    return RootDatum(
        rank=n, roots=roots, coroots=roots, positive=_positive_indices(roots), label=f"GL({n})"
    )


def _bc_datum(r: int, root_scale: int, coroot_scale: int, label: str) -> RootDatum:
    """Type B/C: roots +/-root_scale e_i and +/-e_i+/-e_j, coroots likewise."""
    units = [(i, s) for i in range(r) for s in (1, -1)]
    pairs = tuple(_signed_pairs(r))
    roots = tuple(_unit(r, i, root_scale * s) for i, s in units) + pairs
    coroots = tuple(_unit(r, i, coroot_scale * s) for i, s in units) + pairs
    return RootDatum(
        rank=r,
        roots=roots,
        coroots=coroots,
        positive=_positive_indices(roots),
        label=label,
    )


def so_odd_datum(r: int) -> RootDatum:
    """SO(2r+1): roots +/-e_i, +/-e_i+/-e_j; coroots +/-2e_i, +/-e_i+/-e_j."""
    return _bc_datum(r, 1, 2, f"SO({2 * r + 1})")


def sp_datum(r: int) -> RootDatum:
    """Sp(2r): roots +/-2e_i, +/-e_i+/-e_j; coroots +/-e_i, +/-e_i+/-e_j."""
    return _bc_datum(r, 2, 1, f"Sp({2 * r})")


def so_even_datum(r: int) -> RootDatum:
    """SO(2r): roots = coroots = +/-e_i +/- e_j (i < j)."""
    if r < 2:
        raise InvalidInputError("descriptor", "SO(2r) needs r >= 2")
    roots = tuple(_signed_pairs(r))
    return RootDatum(
        rank=r,
        roots=roots,
        coroots=roots,
        positive=_positive_indices(roots),
        label=f"SO({2 * r})",
    )


def torus_datum(d: int) -> RootDatum:
    if d < 1:
        raise InvalidInputError("descriptor", "T(d) needs d >= 1")
    return RootDatum(rank=d, roots=(), coroots=(), positive=(), label=f"T({d})")


def product_datum(a: RootDatum, b: RootDatum) -> RootDatum:
    """Direct product: lattices, roots, and coroots in block-diagonal form."""

    def blocks(left: tuple[Vector, ...], right: tuple[Vector, ...]) -> tuple[Vector, ...]:
        return tuple(v + (0,) * b.rank for v in left) + tuple((0,) * a.rank + v for v in right)

    roots = blocks(a.roots, b.roots)
    return RootDatum(
        rank=a.rank + b.rank,
        roots=roots,
        coroots=blocks(a.coroots, b.coroots),
        positive=_positive_indices(roots),
        label=f"{a.label} x {b.label}",
    )


# numbers have at most 9 digits: longer ones are far above MAX_RANK, and
# int() refuses digit strings past 4300 digits
_FACTOR_RE = re.compile(
    r"^(?:"
    r"(?P<gl>GL)\((?P<gln>\d{1,9})\)|"
    r"(?P<a>SL|PGL)\((?P<an>\d{1,9})\)|"
    r"(?P<so>SO)\((?P<son>\d{1,9})\)|"
    r"(?P<sp>Sp)\((?P<spn>\d{1,9})\)|"
    r"(?P<t>T)\((?P<td>\d{1,9})\)|"
    r"(?P<letter>[ABCDEFG])(?P<rank>\d{1,9})(?:\((?P<iso>sc|ad)\))?"
    r")$"
)

# the "x" of a product, not one inside a factor's parentheses
_PRODUCT_RE = re.compile(r"x(?![^()]*\))")

# lattice rank of a factor from its number, by the regex group holding it
_FACTOR_RANK = {
    "gln": lambda n: n, "an": lambda n: n - 1,
    "son": lambda n: n // 2, "spn": lambda n: n // 2, "td": lambda n: n,
    "rank": lambda n: n,
}


def _build_factor(text: str, m: re.Match | None) -> RootDatum:
    if m is None:
        raise InvalidInputError(
            "descriptor",
            f"cannot parse group descriptor {text!r}; expected GL(n), SL(n), "
            f"PGL(n), SO(n), Sp(2n), T(d), or a Dynkin type like B2, G2(ad)",
        )
    if m.group("gl"):
        return gl_datum(int(m.group("gln")))
    if m.group("a"):  # SL(n) or PGL(n): type A_(n-1), simply connected or adjoint
        name, n = m.group("a"), int(m.group("an"))
        if n < 2:
            raise InvalidInputError("descriptor", f"{name}(n) needs n >= 2")
        rd = semisimple_datum("A", n - 1, "sc" if name == "SL" else "ad")
        return RootDatum(rd.rank, rd.roots, rd.coroots, rd.positive, label=f"{name}({n})")
    if m.group("so"):
        n = int(m.group("son"))
        if n < 3:
            raise InvalidInputError("descriptor", "SO(n) needs n >= 3")
        return so_odd_datum((n - 1) // 2) if n % 2 else so_even_datum(n // 2)
    if m.group("sp"):
        n = int(m.group("spn"))
        if n < 2 or n % 2:
            raise InvalidInputError("descriptor", "Sp(2n) needs an even argument >= 2")
        return sp_datum(n // 2)
    if m.group("t"):
        return torus_datum(int(m.group("td")))
    return semisimple_datum(m.group("letter"), int(m.group("rank")), m.group("iso") or "sc")


def build_root_datum(descriptor: str) -> RootDatum:
    """Build and validate a root datum from a descriptor string.

    A descriptor of lattice rank above ``MAX_RANK`` (summed over the
    factors of a product) is refused before any root is built.
    """
    if not isinstance(descriptor, str):
        raise InvalidInputError(
            "descriptor", f"descriptor must be a string, got {type(descriptor)}"
        )
    factors = [part.strip() for part in _PRODUCT_RE.split(descriptor)]
    if any(not part for part in factors):
        raise InvalidInputError("descriptor", f"empty factor in {descriptor!r}")
    matches = [_FACTOR_RE.match(part) for part in factors]
    rank = sum(  # an unparsable factor adds 0
        rank_of(int(m.group(key)))
        for m in matches if m
        for key, rank_of in _FACTOR_RANK.items() if m.group(key)
    )
    if rank > MAX_RANK:
        raise InvalidInputError(
            "descriptor",
            f"group {descriptor!r} has lattice rank {rank}, above the cap {MAX_RANK}",
        )
    rd = reduce(
        product_datum, [_build_factor(part, m) for part, m in zip(factors, matches)]
    )
    validate_root_datum(rd)
    return rd


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


def _reflection_group(rd: RootDatum, indices: tuple[int, ...]) -> tuple[Matrix, ...]:
    """The group generated by the reflections at ``indices``, in BFS order.

    The BFS starts from the identity, so the identity is the first element.

    s_alpha = I - coroot root^T maps a matrix m to m - coroot (root^T m), so
    only the rows where the coroot is nonzero change.
    """
    generators = [
        (
            [(k, a) for k, a in enumerate(rd.roots[i]) if a],
            [(r, b) for r, b in enumerate(rd.coroots[i]) if b],
        )
        for i in indices
    ]
    one = identity(rd.rank)
    seen: set[Matrix] = {one}
    ordered: list[Matrix] = [one]
    frontier = [one]
    while frontier:
        new: list[Matrix] = []
        for m in frontier:
            for root, coroot in generators:
                w = [0] * rd.rank
                for k, a in root:
                    w = [y + a * x for x, y in zip(m[k], w)]
                rows = list(m)
                for r, b in coroot:
                    rows[r] = tuple([x - b * y for x, y in zip(m[r], w)])
                prod = tuple(rows)
                if prod not in seen:
                    seen.add(prod)
                    ordered.append(prod)
                    new.append(prod)
                    if len(seen) > WEYL_ENUMERATION_BOUND:
                        raise ResourceLimitError(
                            "weyl-bound",
                            f"group enumeration exceeded {WEYL_ENUMERATION_BOUND} "
                            f"elements",
                        )
        frontier = new
    return tuple(ordered)


def enumerate_weyl(rd: RootDatum) -> tuple[Matrix, ...]:
    """The Weyl group of ``rd`` (``RootDatum.weyl_group``); |W| is its length."""
    return rd.weyl_group


def _indecomposable(vectors: tuple[Vector, ...], indices) -> tuple[int, ...]:
    """The indices whose vector is not the sum of two vectors at ``indices``."""
    pool = {vectors[i] for i in indices}
    return tuple(
        sorted(
            i
            for i in indices
            if not any(tuple(t - b for t, b in zip(vectors[i], u)) in pool for u in pool)
        )
    )


# ---------------------------------------------------------------------------
# Center
# ---------------------------------------------------------------------------


def connected_center_check(rd: RootDatum) -> bool:
    """True when X / (root lattice) is torsion-free (the center is a torus)."""
    return not rd.center_invariants.torsion


def cocenter_invariants(rd: RootDatum) -> QuotientInvariants:
    """Invariants of X^vee / (coroot lattice), the dual's center; torsion = pi_1."""
    return rd.dual().center_invariants


# ---------------------------------------------------------------------------
# Classification and the invariants read from the Cartan type
# ---------------------------------------------------------------------------


def classify_vectors(vectors: list[Vector], form) -> str:
    """Type label of a finite root system given by vectors and an invariant form.

    Splits into irreducible components by form-orthogonality and matches
    each against (rank, count, length-ratio) fingerprints.  Components that
    match nothing are labeled 'unknown'.  Isogeny-ambiguous coincidences
    resolve to 'A1' (rank 1), 'C2' (rank 2, two lengths), 'A3' (=D3).
    Multiple components are sorted and joined with 'x'; empty -> 'empty'.
    """
    remaining, labels = set(range(len(vectors))), []
    while remaining:
        component = [min(remaining)]
        remaining.remove(component[0])
        for i in component:
            linked = [j for j in remaining if form(vectors[i], vectors[j])]
            remaining.difference_update(linked)
            component += linked
        labels.append(_classify_component([vectors[i] for i in component], form))
    return "x".join(sorted(labels)) or "empty"


def _rank(vectors: list[Vector]) -> int:
    """Rank of the span, by fraction-free elimination: each pivot's first
    nonzero column k is cleared from the other rows, x -> p x - x_k pivot."""
    rows, rank = set(vectors), 0
    while rows:
        pivot = rows.pop()
        k = next(c for c, a in enumerate(pivot) if a)
        p, rank = pivot[k], rank + 1
        rows = {
            row for v in rows
            if any(row := tuple([p * x - v[k] * y for x, y in zip(v, pivot)]))
        }
    return rank


def _classify_component(vectors: list[Vector], form) -> str:
    count, r = len(vectors), _rank(vectors)
    norms = [form(v, v) for v in vectors]
    lengths = sorted(set(norms))
    if len(lengths) == 1:
        if count == r * (r + 1):
            return f"A{r}"
        if count == 2 * r * (r - 1) and r >= 4:
            return f"D{r}"
        if (r, count) in {(6, 72), (7, 126), (8, 240)}:
            return f"E{r}"
        return "unknown"
    if len(lengths) == 2 and lengths[1] == 2 * lengths[0]:
        n_short = norms.count(lengths[0])
        if (r, count) in {(4, 48), (2, 8)}:
            return "F4" if r == 4 else "C2"
        if count == 2 * r * r and n_short == 2 * r:
            return f"B{r}"
        if count == 2 * r * r and count - n_short == 2 * r:
            return f"C{r}"
        return "unknown"
    if len(lengths) == 2 and lengths[1] == 3 * lengths[0] and r == 2 and count == 12:
        return "G2"
    return "unknown"


# Fundamental degrees of the exceptional types (Bourbaki, plates V-IX); the
# classical ones are A_r: 2..r+1, B_r and C_r: 2, 4, .., 2r, D_r: 2, 4, ..,
# 2r-2 and r.
_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}

# lcm of the highest root's coefficients in the simple roots (same plates):
# by letter for the classical types, by letter and rank for the others.
_HIGHEST_ROOT_LCM = {
    "A": 1, "B": 2, "C": 2, "D": 2,
    "E6": 6, "E7": 12, "E8": 60, "F4": 12, "G2": 6,
}


def component_types(label: str) -> tuple[tuple[str, int], ...]:
    """(letter, rank) of each component of a ``classify_vectors`` label."""
    if label == "empty":
        return ()
    types = []
    for part in label.split("x"):
        if part == "unknown":
            raise InvalidInputError(
                "descriptor", f"cannot classify component of type {part!r}"
            )
        types.append((part[0], int(part[1:])))
    return tuple(types)


def fundamental_degrees(letter: str, r: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of the Weyl group of type letter+r."""
    if letter == "A":
        return tuple(range(2, r + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * r + 1, 2))
    if letter == "D":
        return tuple(range(2, 2 * r - 1, 2)) + (r,)
    return _EXCEPTIONAL_DEGREES[f"{letter}{r}"]


def type_poincare(label: str) -> Poly:
    """Poincare polynomial of the Weyl group of a ``classify_vectors`` type.

    Chevalley's product over the fundamental degrees d of all components:
    prod (1 + q + .. + q^(d-1)).
    """
    p = Poly([1])
    for letter, r in component_types(label):
        for d in fundamental_degrees(letter, r):
            p = p * Poly([1] * d)
    return p


def admissible_primes(rd: RootDatum) -> tuple[int, ...]:
    """Excluded characteristics, sorted: outside them regular unipotents are uniform.

    Always excludes 2; per irreducible component of type A_r or C_r the
    primes dividing r+1, type B_r the primes dividing 2r-1, type D_r the
    primes dividing r-1, and 3 for the exceptional types (plus 5 for E8).
    """
    excluded = {2}
    for letter, r in rd.root_types:
        if letter in ("A", "C"):
            excluded.update(prime_factors(r + 1))
        elif letter == "B":
            excluded.update(prime_factors(2 * r - 1))
        elif letter == "D":
            excluded.update(prime_factors(r - 1))
        else:
            excluded.add(3)
            if (letter, r) == ("E", 8):
                excluded.add(5)
    return tuple(sorted(excluded))


def modulus(rd: RootDatum) -> int:
    """Order of eigenvalue data needed for the counting formula to apply.

    The lcm of all highest-root coefficients (per irreducible component, in
    that component's simple-root basis, read from the type table) together
    with the order of the torsion of X / (root lattice).
    """
    values = [rd.center_invariants.torsion_order]
    for letter, r in rd.root_types:
        values.append(_HIGHEST_ROOT_LCM[letter if letter in "ABCD" else f"{letter}{r}"])
    return math.lcm(*values)


def __getattr__(name: str):
    if name in ("poincare_polynomial", "subsystem_weyl_elements"):  # from ``reference``
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
