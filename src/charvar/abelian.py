"""Exact linear algebra over the integers.

Three layers, each feeding the next:

* :func:`smith_normal_form` — U·M·V = D with U, V unimodular and D diagonal
  with a divisibility chain d_1 | d_2 | ..., by one elimination loop that
  pivots on the smallest entry, which keeps V small (U is not built); all
  arithmetic in arbitrary precision.
* :func:`quotient_invariants` — free rank and elementary divisors of a lattice
  quotient ℤ^d / ⟨generators⟩, with V as its basis, read off the Smith form.
* :class:`FPAbelianGroup` — a finitely presented abelian group given by
  relator rows over its generators (multiplicative notation outside, exponent
  vectors inside), with canonical coordinates of A/dA as an
  :class:`AdditiveMap` (:func:`canonical_coordinates`, read off a Smith
  form and kept on the group).  A word is the identity exactly when its
  image is zero, and a d-th power exactly when its image in A/dA is.

Matrices are tuples of tuples of ints; rows of a generator/relation matrix
are the generating vectors/relators.  The package's identity matrix
(:func:`identity`) and trial division (:func:`prime_factors`, :func:`is_prime`) live here.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterable, Sequence

from . import reference
from .record import Record

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def _freeze(rows: Iterable[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (none for 0 and +-1).

    Trial division by 2 and the odd numbers, up to the root of what is left."""
    n, out, p = abs(n), [], 2
    while n and p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers, stopping at the first divisor."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % k for k in range(3, math.isqrt(n) + 1, 2))


class SmithDecomposition(namedtuple("SmithDecomposition", "matrix D V divisors")):
    """U·M·V = D with U, V unimodular and D in Smith normal form; U is not kept.

    ``matrix``, ``D`` and ``V`` are integer matrices (tuples of rows), and
    ``divisors`` the nonzero diagonal entries of D, divisibility-sorted.
    """

    __slots__ = ()


def smith_normal_form(matrix: Iterable[Sequence[int]]) -> SmithDecomposition:
    """U·M·V = D by one elimination loop over the diagonal positions t.

    Each pass moves the smallest nonzero entry of the block past t to (t, t)
    (ties keep the current pivot) and clears its row and column.  A nonzero
    remainder is smaller than the pivot and becomes the next pass's pivot.
    When nothing is left and the pivot divides the whole block, t moves on;
    otherwise the row of an entry it does not divide is added to row t, and
    clearing that row leaves a remainder.  So every repeat pass at t has a
    strictly smaller pivot, and the loop ends.  Pivoting on the smallest
    entry keeps V small; naive elimination lets it blow up (Kannan and
    Bachem, SIAM J. Comput. 8, 1979).
    """
    M = _freeze(matrix)
    rows = len(M)
    cols = len(M[0]) if rows else 0
    a = [list(r) for r in M]
    v = [list(r) for r in identity(cols)]

    def row_op(i, j, c):  # row_i -= c * row_j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, c):  # col_i -= c * col_j  (applied to a and v)
        for r in a + v:
            r[i] -= c * r[j]

    t = 0
    while t < min(rows, cols):
        block = [
            (abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]
        ]
        if not block:
            break
        _, i, j = min(block)
        a[t], a[i] = a[i], a[t]
        for r in a + v:
            r[t], r[j] = r[j], r[t]
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                row_op(i, t, a[i][t] // p)
        for j in range(t + 1, cols):
            if a[t][j]:
                col_op(j, t, a[t][j] // p)
        if abs(p) > 1:  # a unit pivot leaves no remainder and divides the block
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                continue
            bad = [i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1:])]
            if bad:
                row_op(t, bad[0], -1)
                continue
        if p < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    divisors = tuple(a[i][i] for i in range(t))
    D, V = (tuple(map(tuple, x)) for x in (a, v))
    return SmithDecomposition(matrix=M, D=D, V=V, divisors=divisors)


class QuotientInvariants(Record):
    """Invariant factors of a lattice quotient ℤ^d / ⟨generators⟩.

    ``basis`` (not an invariant, so not compared) is V of the Smith form
    U·M·V = D of the generator rows M: the quotient is ⊕ ℤ/d_j along its
    columns, unit divisors first, then ``torsion``, then the free ones.
    Immutable.
    """

    _compared = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...], basis: IntMatrix):
        self.__dict__.update(free_rank=free_rank, torsion=torsion, basis=basis)

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    @property
    def torsion_exponent(self) -> int:
        return self.torsion[-1] if self.torsion else 1

    def describe(self) -> str:
        """Group-theory display, e.g. 'Z^2', 'Z/2', 'Z x Z/2', '(Z/2)^2', '1'."""
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, run in itertools.groupby(self.torsion):
            mult = len(list(run))
            parts.append(f"Z/{d}" if mult == 1 else f"(Z/{d})^{mult}")
        return " x ".join(parts) if parts else "1"


def quotient_invariants(ambient_rank: int, generators: Iterable[Sequence[int]]) -> QuotientInvariants:
    """ℤ^d / ⟨generators⟩, d = ``ambient_rank``, off one Smith form: V is the
    basis, and the divisors give the free rank and (those above 1) the torsion."""
    gens = _freeze(generators)
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError(f"generator length {len(g)} != ambient rank {ambient_rank}")
    if not gens:
        return QuotientInvariants(ambient_rank, (), identity(ambient_rank))
    snf = smith_normal_form(gens)
    rank = len(snf.divisors)
    torsion = tuple(d for d in snf.divisors if d > 1)
    return QuotientInvariants(
        free_rank=ambient_rank - rank, torsion=torsion, basis=snf.V
    )


class FPAbelianGroup(Record):
    """Finitely presented abelian group ⟨x_1..x_t | relator rows⟩.

    Elements are exponent vectors of length ``generator_count``; the word
    problem reduces to membership in the relation row space over ℤ.
    Immutable; equality and hashing ignore the kept coordinates.
    """

    _compared = ("generator_count", "relations")
    # canonical coordinates of A/dA by d, filled by canonical_coordinates
    _coordinates: dict

    def __init__(self, generator_count: int, relations: IntMatrix = ()):
        for r in relations:
            if len(r) != generator_count:
                raise ValueError("relation length does not match generator count")
        self.__dict__.update(
            generator_count=generator_count, relations=relations, _coordinates={}
        )

    def _check(self, word: Sequence[int]) -> IntVector:
        w = tuple(int(x) for x in word)
        if len(w) != self.generator_count:
            raise ValueError(f"word length {len(w)} != generator count {self.generator_count}")
        return w


def _power_relations(group: FPAbelianGroup, d: int) -> IntMatrix:
    """Relator rows of A/dA: d·I stacked on the relations of A."""
    scaled = identity(group.generator_count)
    return tuple(tuple(d * x for x in row) for row in scaled) + group.relations


class AdditiveMap(namedtuple("AdditiveMap", "functionals moduli")):
    """An additive map from integer vectors to (+) Z/e (+) Z^f.

    Output coordinate k is a sparse functional, (index, coefficient) pairs,
    reduced mod ``moduli[k]``; a modulus of 0 marks a free coordinate, which
    is not reduced.  Equal images mean equal elements of the target, and
    ``add``/``negate`` are its group operations on images.
    """

    __slots__ = ()

    def image(self, vector: Sequence[int]) -> IntVector:
        out = []
        for terms, e in zip(self.functionals, self.moduli):
            value = sum(c * vector[i] for i, c in terms)
            out.append(value % e if e else value)
        return tuple(out)

    def in_kernel(self, vector: Sequence[int]) -> bool:
        return not any(self.image(vector))

    def add(self, x: IntVector, y: IntVector) -> IntVector:
        return tuple(
            (a + b) % e if e else a + b for a, b, e in zip(x, y, self.moduli)
        )

    def negate(self, x: IntVector) -> IntVector:
        return tuple(-a % e if e else -a for a, e in zip(x, self.moduli))


def canonical_coordinates(group: FPAbelianGroup, d: int = 0) -> AdditiveMap:
    """Canonical coordinates of A/dA for A = ``group``; d = 0 gives A itself.

    Read off the Smith form of the relator rows of A/dA: in the coordinates
    w·V the rows span the multiples of the divisors, and the directions
    beyond the divisors are free.  Directions along which A/dA is trivial
    are left out, so a word lies in dA (for d = 0: is the identity) exactly
    when its image is zero.  The map is kept on ``group``, so it lives as
    long as the group does.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    cache = group._coordinates
    if d in cache:
        return cache[d]
    t = group.generator_count
    relations = _power_relations(group, d) if d else group.relations
    snf = smith_normal_form(relations) if relations else None
    v_mat = snf.V if snf is not None else identity(t)
    divisors = snf.divisors if snf is not None else ()
    divisors += (0,) * (t - len(divisors))
    functionals, moduli = [], []
    for k, e in enumerate(divisors):
        if e == 1:
            continue
        column = ((i, row[k] % e if e else row[k]) for i, row in enumerate(v_mat))
        functionals.append(tuple((i, c) for i, c in column if c))
        moduli.append(e)
    cache[d] = AdditiveMap(functionals=tuple(functionals), moduli=tuple(moduli))
    return cache[d]


def canonical_word(group: FPAbelianGroup, word: Sequence[int]) -> IntVector:
    """Canonical coset representative: equal words get equal tuples."""
    return canonical_coordinates(group).image(group._check(word))


def __getattr__(name: str):
    if name == "is_dth_power":  # from ``reference``
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
