"""Reference computations that no command runs.

The tests compare the engine against them and ``perfbench/tracer.py``
times them.  The package registers this module lazily, so only a process
that uses one of its names compiles it, and the modules that used to
define them serve them through ``__getattr__`` (``qpoly.RationalPoly``,
``rootdata.poincare_polynomial``, ``subsystems.closure``, ...).
``RationalPoly`` is a reduced fraction of two ``Poly`` values, in which the
literal reference computations in ``tests/`` sum the master formula; the
engine never leaves integer polynomials.  The Weyl group as integer
matrices on X^vee (``enumerate_weyl``) and its action on torus elements
(``translate``) are the second Weyl action the tests check the engine's
walks of ``RootDatum.reflect`` against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .abelian import (
    FPAbelianGroup,
    canonical_coordinates,
    identity,
    quotient_invariants,
)
from .charsum import SymbolicTorusElement, node_map
from .errors import InvalidInputError, ResourceLimitError
from .factor import cyclotomic_from
from .qpoly import Poly
from .rootdata import Matrix, RootDatum, classify_vectors, type_poincare

if TYPE_CHECKING:
    from fractions import Fraction

    from .qpoly import Scalar

WEYL_ENUMERATION_BOUND = 1_000_000


def monic(p: Poly) -> Poly:
    """``p`` divided by its leading coefficient; zero stays zero."""
    return p.divmod(Poly.const(p.leading()))[0] if p.coeffs else p


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of two polynomials, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return monic(a)


def _coerce(x: RationalPoly | Poly | Scalar) -> RationalPoly:
    from fractions import Fraction

    if isinstance(x, RationalPoly):
        return x
    if isinstance(x, Poly):
        return RationalPoly(x)
    if isinstance(x, (int, Fraction)):
        return RationalPoly(Poly.const(x))
    raise TypeError(f"cannot coerce {type(x)!r} to RationalPoly")


class RationalPoly:
    """Quotient num/den of exact polynomials in q, kept fully reduced.

    Canonical form: gcd(num, den) = 1 and den monic, so two equal rational
    functions have identical coefficient tuples.  Its methods import
    ``Fraction`` where they use it, so the name resolves without it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:  # a polynomial over 1 is already reduced
            self.num, self.den = num, Poly.const(1)
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.const(1)
            return
        g = poly_gcd(num, den) * den.leading()  # so that den / g is monic
        (self.num, r1), (self.den, r2) = num.divmod(g), den.divmod(g)
        assert r1.is_zero() and r2.is_zero()

    @staticmethod
    def from_int(c: Scalar) -> "RationalPoly":
        return RationalPoly(Poly.const(c))

    @staticmethod
    def q() -> "RationalPoly":
        return RationalPoly(Poly.q())

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar]) -> "RationalPoly":
        return RationalPoly(Poly(coeffs))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Poly.const(1)

    def polynomial_coeffs(self) -> tuple[Scalar, ...]:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: ({self.num})/({self.den})")
        return self.num.coeffs

    def degree(self) -> int:
        """Degree of a polynomial value; -1 for zero."""
        self.polynomial_coeffs()
        return self.num.degree()

    def leading_coefficient(self) -> Scalar:
        self.polynomial_coeffs()
        return self.num.leading()

    def evaluate(self, x: Scalar) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={x}")
        from fractions import Fraction

        return Fraction(self.num.evaluate(x), d)

    def __add__(self, other) -> "RationalPoly":
        o = _coerce(other)
        return RationalPoly(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(-self.num, self.den)

    def __sub__(self, other) -> "RationalPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RationalPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "RationalPoly":
        o = _coerce(other)
        return RationalPoly(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalPoly":
        o = _coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalPoly(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RationalPoly":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "RationalPoly":
        if n >= 0:
            return RationalPoly(self.num ** n, self.den ** n)
        if self.is_zero():
            raise ZeroDivisionError("zero to a negative power")
        return RationalPoly(self.den ** (-n), self.num ** (-n))

    def __eq__(self, other: object) -> bool:
        try:
            o = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalPoly({self})"

    def factored_str(self) -> str:
        """``Poly.factored_str`` of a polynomial value; raises on a proper fraction."""
        self.polynomial_coeffs()
        return self.num.factored_str()


def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, via exact division of q^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    return cyclotomic_from(n, {})


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
    """The Weyl group of ``rd`` as matrices on X^vee; |W| is its length."""
    return _reflection_group(rd, rd.simple_root_indices)


def translate(w: Matrix, element: SymbolicTorusElement) -> SymbolicTorusElement:
    """Weyl action: coordinates transform by the matrix of w on X^vee."""
    coords = element.coords
    n = len(element.datum.symbols)
    new = []
    for row in w:
        acc = [0] * n
        for c, coeff in enumerate(row):
            if coeff:
                for i in range(n):
                    acc[i] += coeff * coords[c][i]
        new.append(tuple(acc))
    return SymbolicTorusElement(datum=element.datum, coords=tuple(new))


def subsystem_weyl_elements(rd: RootDatum, indices: frozenset[int]) -> tuple[Matrix, ...]:
    """Elements of the reflection subgroup W(Psi) of a closed coroot subsystem.

    The counting path reads |W(Psi)| and P_Psi(q) from the Cartan type; this
    enumeration is the independent check the tests compare those against.
    W(Psi) is the Weyl group of Psi as a root datum of its own, on X^vee.
    """
    members = sorted(indices)
    return enumerate_weyl(RootDatum(
        rd.rank,
        tuple(rd.roots[i] for i in members),
        tuple(rd.coroots[i] for i in members),
        tuple(k for k, i in enumerate(members) if rd.is_positive(i)),
    ))


def poincare_polynomial(
    rd: RootDatum, subsystem: "frozenset[int] | tuple[int, ...] | None" = None
) -> Poly:
    """Length generating polynomial of W(Psi) for a closed coroot subsystem.

    ``subsystem`` is a set of root/coroot indices (None means the whole
    system); one that is not symmetric and closed raises ``subsystem``.
    Psi is classified and the polynomial read from the
    fundamental degrees of its type (``type_poincare``); P(1) = |W(Psi)| and
    the degree is |Psi+|.  The tests check it against the lengths of the
    enumerated ``subsystem_weyl_elements``.
    """
    indices = frozenset(range(len(rd.roots)) if subsystem is None else subsystem)
    vectors, lookup = {rd.coroots[i] for i in indices}, rd.coroot_lookup
    for i in indices:
        if tuple(-a for a in rd.coroots[i]) not in vectors:
            raise InvalidInputError(
                "subsystem",
                f"subsystem is not symmetric: missing negative of {rd.coroots[i]}",
            )
    for i in indices:
        for j in indices:
            k = lookup.get(tuple(a + b for a, b in zip(rd.coroots[i], rd.coroots[j])))
            if k is not None and k not in indices:
                raise InvalidInputError(
                    "subsystem",
                    f"subsystem is not closed: {rd.coroots[i]} + {rd.coroots[j]} "
                    f"is a coroot outside it",
                )
    vectors = [rd.coroots[i] for i in sorted(indices)]
    return type_poincare(classify_vectors(vectors, rd.coroot_form))


def closure(rd: RootDatum, indices) -> frozenset[int]:
    """Smallest closed symmetric subset of the coroot system containing indices.

    It is a node of the poset, inside every node that holds ``indices``, so
    it is the first such node: the nodes come smallest first.  So it is
    bounded as the poset is (``poset-bound``).
    """
    wanted = sum(1 << i for i in set(indices))
    mask = next(mask for mask in rd.poset.masks if not wanted & ~mask)
    return frozenset(k for k in range(rd.num_roots) if mask >> k & 1)


def is_dth_power(group: FPAbelianGroup, word: Sequence[int], d: int) -> bool:
    """True iff the word is a d-th power in the group (exactly the declared one).

    Solves d·y ≡ word (mod relations): the word vanishes in A/dA.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    word = tuple(int(x) for x in word)
    if len(word) != group.generator_count:
        raise ValueError(
            f"word length {len(word)} != generator count {group.generator_count}"
        )
    return canonical_coordinates(group, d).in_kernel(word)


def in_commutator(rd: RootDatum, psi, element: SymbolicTorusElement) -> bool:
    """Does S become trivial in (X^vee / <Psi>) (x) A?"""
    inv = quotient_invariants(rd.rank, [rd.coroots[i] for i in sorted(psi)])
    return node_map(inv, element.datum.group).in_kernel(element.flat())


def product_translate(ws, elements) -> SymbolicTorusElement:
    """The product (sum in X^vee (x) A) of w_k . S_k over k."""
    elements, ws = list(elements), list(ws)
    if len(ws) != len(elements) or not elements:
        raise InvalidInputError(
            "weyl-translate", "need equally many Weyl elements and torus elements"
        )
    translated = [translate(w, s).coords for w, s in zip(ws, elements)]
    coords = tuple(tuple(map(sum, zip(*words))) for words in zip(*translated))
    return SymbolicTorusElement(datum=elements[0].datum, coords=coords)
