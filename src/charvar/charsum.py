"""Symbolic torus elements and the local factors of the counting formula.

Eigenvalue coordinates of semisimple classes live in a finitely presented
abelian group A = <symbols | relations>, thought of as a subgroup of the
multiplicative group of the field in a "pure" way: a word equals 1, or is a
d-th power, exactly when the relations force it.  A torus element S in
T(k) = X^vee (x) k^x is stored as one A-word per X^vee coordinate.

On top of that this module provides:

* ``evaluate_character`` — pair a character (vector in X) with S;
* ``translate`` — the Weyl action on torus elements;
* ``strongly_regular`` — no root trivial on S and trivial Weyl stabilizer,
  both read from the root values on S, with no loop over W;
* ``node_map`` — the test "S dies in (X^vee / <Psi>) (x) A", compiled
  for a closed subsystem Psi into an additive map to (+) Z/e (+) Z^f
  (the Smith form of <Psi> composed with canonical coordinates of each
  A/d_iA) whose kernel is exactly the dying elements.  Because the map
  is additive, the image of a product of translates is the sum of their
  images, which is what lets the counting engine join per-class
  histograms instead of enumerating products;
* ``quotient_factor`` — |Tor(X^vee/<Psi>)| (q-1)^rank(X^vee/<Psi>), the
  per-subsystem factor that Delta takes when S dies.  Delta, alpha and
  the Mobius sum between them are ``count.delta_values`` and
  ``count.mobius_sum``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property

from . import reference
from .abelian import (
    AdditiveMap,
    FPAbelianGroup,
    QuotientInvariants,
    canonical_coordinates,
    canonical_word,
)
from .errors import InvalidInputError
from .qpoly import Poly
from .record import Record
from .rootdata import Matrix, RootDatum, Vector

Word = tuple[int, ...]

_TERM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


class EigenvalueDatum(Record):
    """Named generators and relations for the eigenvalue group A.

    ``relations`` are strings like ``"a*b = t^2"`` or bare words like
    ``"a*b*c"`` (meaning the word equals 1).  Words multiply generators with
    ``*`` and exponentiate with ``^`` (negative exponents allowed); ``1``
    denotes the empty word.  Immutable.
    """

    _compared = ("symbols", "relations")

    def __init__(self, symbols: tuple[str, ...], relations: tuple[str, ...] = ()):
        if len(set(symbols)) != len(symbols):
            raise InvalidInputError("eigenvalue-data", "repeated eigenvalue symbols")
        for s in symbols:
            if not _TERM_RE.match(s) or "^" in s:
                raise InvalidInputError(
                    "eigenvalue-data", f"invalid eigenvalue symbol {s!r}"
                )
        self.__dict__.update(symbols=symbols, relations=relations)

    @cached_property
    def group(self) -> FPAbelianGroup:
        rows = tuple(self.parse_relation(r) for r in self.relations)
        return FPAbelianGroup(generator_count=len(self.symbols), relations=rows)

    def parse_word(self, text: str) -> Word:
        """Parse ``"a*b^-2"`` into an exponent vector over the symbols."""
        text = text.strip()
        out = [0] * len(self.symbols)
        if text in ("1", ""):
            return tuple(out)
        index = {s: i for i, s in enumerate(self.symbols)}
        for raw in text.split("*"):
            m = _TERM_RE.match(raw.strip())
            if m is None:
                raise InvalidInputError(
                    "eigenvalue-word", f"cannot parse term {raw.strip()!r} in {text!r}"
                )
            try:
                name, exp = m.group(1), int(m.group(2) or 1)
            except ValueError:  # more digits than int() converts
                raise InvalidInputError(
                    "eigenvalue-word", f"exponent of {m.group(1)!r} has too many digits"
                ) from None
            if name not in index:
                raise InvalidInputError(
                    "eigenvalue-word", f"unknown eigenvalue symbol {name!r} in {text!r}"
                )
            out[index[name]] += exp
        return tuple(out)

    def parse_relation(self, text: str) -> Word:
        """Parse ``"lhs = rhs"`` (or a bare word meaning "= 1") to a relator."""
        parts = text.split("=")
        if len(parts) == 1:
            return self.parse_word(parts[0])
        if len(parts) != 2:
            raise InvalidInputError(
                "eigenvalue-data", f"relation {text!r} needs exactly one '='"
            )
        lhs = self.parse_word(parts[0])
        rhs = self.parse_word(parts[1])
        return tuple(a - b for a, b in zip(lhs, rhs))

    def word_str(self, word: Word) -> str:
        terms = [
            s if e == 1 else f"{s}^{e}"
            for s, e in zip(self.symbols, word)
            if e != 0
        ]
        return "*".join(terms) if terms else "1"


class SymbolicTorusElement(namedtuple("SymbolicTorusElement", "datum coords")):
    """S in T(k): one eigenvalue word per coordinate of X^vee = Z^d.

    ``datum`` is the ``EigenvalueDatum`` the words are over, and ``coords``
    the tuple of words, one per coordinate.
    """

    __slots__ = ()

    @staticmethod
    def from_words(datum: EigenvalueDatum, words) -> "SymbolicTorusElement":
        return SymbolicTorusElement(
            datum=datum, coords=tuple(datum.parse_word(w) for w in words)
        )

    def flat(self) -> Word:
        """All coordinates as one vector: word i, symbol t at i * |symbols| + t."""
        return tuple(x for word in self.coords for x in word)

    def canonical_key(self) -> tuple[Word, ...]:
        """Coordinatewise canonical form in A; equal keys = equal elements."""
        g = self.datum.group
        return tuple(canonical_word(g, w) for w in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(self.datum.word_str(w) for w in self.coords) + ")"


def evaluate_character(character: Vector, element: SymbolicTorusElement) -> Word:
    """The word chi(S) for a character chi in X (dot pairing with X^vee)."""
    n = len(element.datum.symbols)
    out = [0] * n
    for coeff, word in zip(character, element.coords):
        if coeff:
            for i in range(n):
                out[i] += coeff * word[i]
    return tuple(out)


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


def strongly_regular(rd: RootDatum, element: SymbolicTorusElement) -> bool:
    """No root evaluates to 1 on S, and only the identity of W fixes S.

    A root kills S when the canonical image of alpha(S) in A is zero.  If
    w.S = S, w maps each simple root alpha_i to a root b_i with b_i(S) =
    alpha_i(S), and the b_i keep the Cartan integers; those bases are built
    one simple root at a time.  Each other one is reduced: while some b_k
    is negative, w becomes w s_k, so b becomes s_(b_k) b and S becomes
    s_k S, and w.S stays.  This ends at the simple roots within |Phi+|
    steps exactly when w lies in W (W acts simply transitively on bases,
    Bourbaki VI 1.5), and then w.S is the reduced S.
    """
    if len(element.coords) != rd.rank:
        raise InvalidInputError(
            "torus-element", "torus element has wrong number of coordinates"
        )
    image = canonical_coordinates(element.datum.group).image
    values = [image(evaluate_character(root, element)) for root in rd.roots]
    if not all(map(any, values)):
        return False
    simple, pairing, width = rd.simple_root_indices, rd.pairing, len(element.datum.symbols)
    bases: list[tuple[int, ...]] = [()]
    for a in simple:
        bases = [
            base + (b,)
            for base in bases
            for b, value in enumerate(values)
            if value == values[a] and all(
                pairing[c][b] == pairing[s][a] and pairing[b][c] == pairing[a][s]
                for s, c in zip(simple, base)
            )
        ]
    key = element.canonical_key()
    for base in set(bases) - {simple}:
        flat = element.flat()
        for _ in range(rd.num_positive):
            k = next((k for k, b in enumerate(base) if not rd.is_positive(b)), None)
            if k is None:
                break
            base = tuple(map(rd.reflections[base[k]].__getitem__, base))
            flat = rd.reflect(simple[k], flat)
        moved = tuple(flat[k * width:(k + 1) * width] for k in range(rd.rank))
        if base == simple and element._replace(coords=moved).canonical_key() == key:
            return False
    return True


def node_map(inv: QuotientInvariants, group: FPAbelianGroup) -> AdditiveMap:
    """Compile the test "S dies in (X^vee / <Psi>) (x) A" into an AdditiveMap.

    ``inv`` is the quotient X^vee / <Psi> with its Smith basis, as
    ``SubsystemPoset.quotient`` gives it.  The map acts on ``S.flat()``, and
    S dies exactly when it lands in the kernel.  With U C V = diag(d_j) the
    Smith form of the coroots of Psi (d_j = 0 past the rank of <Psi>),
    X^vee/<Psi> = (+) Z/d_j along the columns of V, so
    (X^vee/<Psi>) (x) A = (+) A/d_jA and S maps to the words
    b_j = sum_i V[i][j] S_i.  Each b_j goes through the canonical
    coordinates of A/d_jA; directions with d_j = 1 vanish and are skipped.
    """
    v_mat = inv.basis
    width = group.generator_count
    units = len(v_mat) - inv.free_rank - len(inv.torsion)
    functionals, moduli = [], []
    for j, d in enumerate(inv.torsion + (0,) * inv.free_rank, start=units):
        coords = canonical_coordinates(group, d)
        for terms, e in zip(coords.functionals, coords.moduli):
            composed = []
            for i, row in enumerate(v_mat):
                for t, c in terms:
                    coeff = row[j] * c
                    if e:
                        coeff %= e
                    if coeff:
                        composed.append((i * width + t, coeff))
            functionals.append(tuple(composed))
            moduli.append(e)
    return AdditiveMap(functionals=tuple(functionals), moduli=tuple(moduli))


def quotient_factor(inv: QuotientInvariants) -> Poly:
    """|Tor(X^vee/<Psi>)| (q-1)^rank(X^vee/<Psi>): the value of delta when S dies."""
    return Poly([-1, 1]) ** inv.free_rank * inv.torsion_order


def __getattr__(name: str):
    if name in ("in_commutator", "product_translate"):  # from ``reference``
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
