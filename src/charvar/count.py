"""The counting engine: point counts of character varieties as polynomials.

Input: a genus g surface with n punctures, a split reductive group given by
its root datum, m strongly regular semisimple conjugacy classes (1 <= m < n,
presented as symbolic torus elements) and n - m regular unipotent classes.
Output: the number of k-points of the associated character variety, as a
polynomial in q = |k|, valid for q in the admissible congruence class.

The engine evaluates the closed master formula

    |X(k)| = (z_factor |B|^chi / |W|) * sum over closed coroot subsystems
             Psi of |W(Psi)|^(1-m) P_Psi(q)^chi *
             sum over Psi' >= Psi of mu(Psi, Psi') D(Psi')

with chi = 2g + n - 2, where D(Psi') adds up the local factor Delta over
all W^m-translates of the semisimple classes.  Each node's membership test
is compiled once into an additive map to a finitely generated abelian group
(``charsum.node_map``); a product of translates dies exactly when the
images of its factors sum to zero.  D is constant on Weyl orbits of
closed subsystems, and summed over an orbit it needs no translate of the
first class (``orbit_pass_counts``): per node, only the (m-1)-tuples of
translates of the other classes are counted.  Those are zero sums: each
class contributes the histogram of its |W| translate images, the classes
are convolved in two halves, the first class's image shifting one of
them, and one dictionary lookup per entry of one half against the negated
other half counts the zero sums -- |W|^floor((m-1)/2) + |W|^ceil((m-1)/2)
entries per node rather than |W|^m products, and one image per node when
m = 1.

The inner sum is ``mobius_sum`` applied to the D values.  Every factor of
a summand is W-invariant, so the outer sum runs over orbit representatives,
each weighted by its orbit's size, and Mobius rows are built only there.
The diagnostic table applies the same ``mobius_sum`` to the local factor
Delta of the class product (``delta_values``), which gives alpha.

All of it is ``qpoly.Poly`` arithmetic on ``int`` coefficients.  D(Psi) =
|Tor| (q-1)^rank * (number of passing tuples) is an integer polynomial,
and so is P_Psi.  The sum is taken times |W|^m, so each summand carries
the integer weight (|W| / |W(Psi)|)^(m-1), |W(Psi)| dividing |W|.  The
global constant z_factor |B|^chi is (q-1)^a q^b; positive exponents
multiply, negative ones divide exactly (one division by the monic
q^(-b) (q-1)^(-a)), and a nonzero remainder raises ``non-polynomial``.
A final division by |W|^m that leaves a remainder raises
``non-integral``.  Both checks are the theorem's, so both stay hard errors.
``CountReport.polynomial`` is the resulting integer ``Poly``.

Indicator overrides: purity decides "is this word a d-th power" questions
from the relations alone.  When the user knows the arithmetic truth for
their concrete eigenvalues, per-subsystem-type overrides replace the
computed indicator; the engine still computes the symbolic answer and
warns when the two disagree.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .abelian import AdditiveMap
from .charsum import (
    EigenvalueDatum,
    SymbolicTorusElement,
    node_map,
    quotient_factor,
    strongly_regular,
    translate,
)
from .errors import (
    HypothesisError,
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from .qpoly import Poly
from .rootdata import (
    RootDatum,
    admissible_primes,
    cocenter_invariants,
    connected_center_check,
    enumerate_weyl,
    modulus,
)
from .subsystems import SubsystemPoset, build_poset, check_poset_bound

DEFAULT_TRANSLATE_BUDGET = 1_000_000
# Largest degree a count may have.  The degree is the expected dimension,
# known before any poset work, and the report's tail (powers and the
# factored display) grows about cubically in it: at degree ~1,000 a count
# takes 1-3 s in-process (GL(5) genus 20, F4 genus 10), at ~2,000 up to
# 18 s (F4 genus 20).  The benchmark's largest problem has degree 212.
MAX_DEGREE = 1_000


class ProblemSpec(NamedTuple):
    """A puncture-counting problem: group, surface, and classes.

    ``semisimple_classes`` holds the m strongly regular semisimple classes;
    the remaining n - m punctures carry regular unipotent classes.
    ``overrides`` maps subsystem type labels (bare like ``"A1"`` or
    display-disambiguated like ``"A1-long"``) to the arithmetic truth of
    the membership indicator for that subsystem type; display labels take
    precedence over bare type labels when both are given.
    """

    rd: RootDatum
    genus: int
    punctures: int
    eigenvalues: EigenvalueDatum
    semisimple_classes: tuple[SymbolicTorusElement, ...]
    overrides: tuple[tuple[str, bool], ...] = ()

    @property
    def m(self) -> int:
        return len(self.semisimple_classes)

    @property
    def chi_exponent(self) -> int:
        return 2 * self.genus + self.punctures - 2

    def overrides_dict(self) -> dict[str, bool]:
        return dict(self.overrides)


class TableRow(NamedTuple):
    """One orbit of closed subsystems in the diagnostic table."""

    label: str
    orbit_size: int
    weyl_order: int
    poincare: str
    quotient: str
    torsion_order: int
    free_rank: int
    delta: str
    alpha: str
    overridden: bool


class CountReport(NamedTuple):
    """Everything the engine knows about one counting problem."""

    group_label: str
    genus: int
    punctures: int
    m: int
    polynomial: Poly
    is_empty: bool
    empty_reason: str | None
    euler_characteristic: int
    expected_dimension: int
    degree: int
    leading_coefficient: int | None
    num_components: int | None
    validity_modulus: int
    diagnostic_exponent_lcm: int
    excluded_primes: tuple[int, ...]
    warnings: tuple[str, ...]
    table: tuple[TableRow, ...]
    factored: str


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_problem(spec: ProblemSpec) -> None:
    """Check every hypothesis of the counting theorem, naming failures.

    A poset above the enumeration bound is refused (``poset-bound``) before
    the first strongly-regular test, which loops over all of W.
    """
    rd = spec.rd
    if spec.genus < 0:
        raise InvalidInputError("surface", "genus must be nonnegative")
    if not connected_center_check(rd):
        raise HypothesisError(
            "connected-center",
            "the center of the group is not connected; the counting theorem "
            "requires a connected center (e.g. GL(n) or PGL(n) rather than SL(n))",
        )
    m, n = spec.m, spec.punctures
    if m < 1:
        raise HypothesisError(
            "class-counts",
            "need at least one strongly regular semisimple class (m >= 1)",
        )
    if n <= m:
        raise HypothesisError(
            "class-counts",
            f"need at least one regular unipotent puncture: n = {n} punctures "
            f"must exceed the m = {m} semisimple classes",
        )
    for idx, s in enumerate(spec.semisimple_classes, start=1):
        if len(s.coords) != rd.rank:
            raise InvalidInputError(
                "torus-element",
                f"semisimple class {idx} has {len(s.coords)} coordinates, "
                f"expected the rank {rd.rank}",
            )
        if s.datum != spec.eigenvalues:
            raise InvalidInputError(
                "torus-element",
                f"semisimple class {idx} uses a different eigenvalue datum",
            )
        check_poset_bound(rd)
        if not strongly_regular(rd, s):
            raise HypothesisError(
                "strongly-regular",
                f"semisimple class {idx} is not strongly regular: some root "
                "evaluates to 1 on it, or a nontrivial Weyl element fixes it",
            )


def resolve_overrides(
    poset: SubsystemPoset, overrides: dict[str, bool]
) -> dict[int, bool]:
    """Map override labels to node indices; display labels beat bare labels."""
    generic: dict[int, bool] = {}
    specific: dict[int, bool] = {}
    for label, value in overrides.items():
        display_hits = [
            i for i in range(poset.num_nodes) if poset.display_label(i) == label
        ]
        type_hits = [
            i for i in range(poset.num_nodes) if poset.type_label(i) == label
        ]
        if not display_hits and not type_hits:
            available = sorted(
                {poset.display_label(i) for i in range(poset.num_nodes)}
            )
            raise InvalidInputError(
                "override-label",
                f"override label {label!r} matches no subsystem; available "
                f"labels: {', '.join(available)}",
            )
        for i in type_hits:
            generic[i] = value
        for i in display_hits:
            specific[i] = value
    generic.update(specific)
    return generic


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Emptiness(NamedTuple):
    """Whether the class product lies in the commutator subgroup.

    ``product`` is the product of the semisimple classes as a ``flat()``
    vector, and ``full`` the index of the full coroot system.  ``computed``
    is the relation-forced answer, ``nonempty`` the answer after an
    override on the full node, and ``overrides`` maps every overridden node
    index to its value.
    """

    product: tuple[int, ...]
    full: int
    overrides: dict[int, bool]
    computed: bool
    nonempty: bool


def emptiness(spec: ProblemSpec, poset: SubsystemPoset) -> Emptiness:
    """The non-emptiness verdict of ``spec``, on the full node of ``poset``.

    The class product must die in (X^vee / <Phi^vee>) (x) A.  Unknown
    override labels raise ``override-label``.
    """
    overrides = resolve_overrides(poset, spec.overrides_dict())
    full = poset.index_of[frozenset(range(spec.rd.num_roots))]
    product = tuple(map(sum, zip(*(s.flat() for s in spec.semisimple_classes))))
    full_map = node_map(poset.quotient(full), spec.eigenvalues.group)
    computed = full_map.in_kernel(product)
    return Emptiness(
        product, full, overrides, computed, overrides.get(full, computed)
    )


def mobius_sum(poset: SubsystemPoset, i: int, values: list[Poly]) -> Poly:
    """Sum over the nodes j above node i of mu(i, j) * values[j]."""
    total = Poly()
    for j, mu in poset.mobius_row(i).items():
        if not values[j].is_zero():
            total = total + values[j] * mu
    return total


def delta_values(
    poset: SubsystemPoset,
    maps: list[AdditiveMap],
    product: tuple[int, ...],
    overrides: dict[int, bool],
) -> list[Poly]:
    """Delta at every node: the quotient factor where the product dies, else 0.

    ``maps`` are the nodes' compiled maps and ``product`` a ``flat()``
    vector; an override replaces the computed indicator of its node.
    """
    zero = Poly()
    return [
        quotient_factor(poset.quotient(j))
        if overrides.get(j, nmap.in_kernel(product))
        else zero
        for j, nmap in enumerate(maps)
    ]


def orbit_pass_counts(
    spec: ProblemSpec,
    orbits: Sequence[Sequence[AdditiveMap]],
    budget: int = DEFAULT_TRANSLATE_BUDGET,
) -> list[int]:
    """Per Weyl orbit, the number of W^m-translate tuples whose product dies.

    Each orbit O is given by the node maps of all its members; its count is
    D(Psi) at every Psi in O, the same number for each.  The count rests on
    W-invariance: w.S dies in Psi exactly when S dies in w^-1 Psi, and left
    multiplication by w permutes the translate tuples.  Grouping the tuples
    by their first translate w therefore gives

        D(Psi) = sum over w in W of N(w^-1 Psi)
               = (|W| / |O|) * sum over Psi' in O of N(Psi'),

    where N(Psi') counts the (m-1)-tuples (w_2, ..., w_m) for which
    S_1 + w_2 S_2 + ... + w_m S_m dies at Psi', and w^-1 Psi runs over O,
    meeting each member |W| / |O| times.

    The maps are additive, so a tuple passes when the images of its terms
    sum to zero.  S_2 .. S_m are split into two halves; each half's
    histogram of image sums is the convolution of its classes' histograms
    of |W| translate images, the left one shifted by the image of S_1, and
    the zero sums are counted with one lookup per left entry against the
    negated right half.  With m = 1 both halves are empty: N(Psi') is 1 or
    0 as S_1 dies at Psi' or not, and no translate is computed.  ``budget``
    bounds the histogram entries: a strongly regular class has |W|
    distinct translates, so the halves hold at most
    |W|^floor((m-1)/2) + |W|^ceil((m-1)/2) entries.
    """
    weyl = enumerate_weyl(spec.rd)
    first, *rest = spec.semisimple_classes
    half = len(rest) // 2
    entries = len(weyl) ** half + len(weyl) ** (len(rest) - half)
    if entries > budget:
        raise ResourceLimitError(
            "translate-budget",
            f"the translate histogram join builds up to {entries} entries "
            f"(|W|^{half} + |W|^{len(rest) - half} with |W| = {len(weyl)}), "
            f"exceeding the budget {budget}; raise the budget to proceed",
        )
    translates = [[translate(w, s).flat() for w in weyl] for s in rest]
    start = first.flat()
    counts = []
    for maps in orbits:
        passing = 0
        for nmap in maps:
            left = _sum_histogram(nmap, nmap.image(start), translates[:half])
            right = _sum_histogram(nmap, (0,) * len(nmap.moduli), translates[half:])
            passing += sum(
                mult * right.get(nmap.negate(x), 0) for x, mult in left.items()
            )
        counts.append(len(weyl) // len(maps) * passing)
    return counts


def _sum_histogram(
    nmap: AdditiveMap, start: tuple[int, ...], classes: list[list[tuple[int, ...]]]
) -> dict[tuple[int, ...], int]:
    """Multiplicities of ``start`` plus the image sums of one translate per class."""
    sums = {start: 1}
    for translates in classes:
        images = Counter(nmap.image(t) for t in translates)
        convolved: dict[tuple[int, ...], int] = {}
        for x, a in sums.items():
            for y, b in images.items():
                z = nmap.add(x, y)
                convolved[z] = convolved.get(z, 0) + a * b
        sums = convolved
    return sums


def _z_exponents(rd: RootDatum, m: int, n: int, chi: int) -> tuple[int, int]:
    """(a, b) with z_factor * |B|^chi = (q-1)^a q^b, the global constant.

    z_factor = (q-1)^(z - m d + z (m - n)) q^(r (m - n)) and
    |B| = q^|Phi+| (q-1)^d, with d the rank, r the semisimple rank and z
    the rank of the center.
    """
    d = rd.rank
    z = rd.center_invariants.free_rank
    r = rd.semisimple_rank
    return z - m * d + z * (m - n) + d * chi, r * (m - n) + rd.num_positive * chi


def _divide_out(total: Poly, a: int, b: int, denominator: int) -> Poly:
    """(q-1)^a q^b total / denominator, checked to be an integer polynomial.

    Negative exponents divide exactly, by one division by the monic
    q^(-b) (q-1)^(-a); a nonzero remainder raises ``non-polynomial``.  A
    coefficient that ``denominator`` does not divide raises
    ``non-integral``.  The messages print the rational value.
    """
    qm1 = Poly([-1, 1])
    numerator = (total * qm1 ** max(a, 0)).shift(max(b, 0))
    poly, rem = numerator.divmod((qm1 ** max(-a, 0)).shift(max(-b, 0)))
    if not rem.is_zero():
        raise InternalConsistencyError(
            "non-polynomial",
            "the master formula produced a non-polynomial count "
            f"{_rational(total, a, b, denominator)}; this indicates "
            "inconsistent overrides or an engine bug",
        )
    if any(c % denominator for c in poly.coeffs):
        raise InternalConsistencyError(
            "non-integral",
            "the master formula produced non-integer coefficients in "
            f"{_rational(total, a, b, denominator)}",
        )
    return Poly([c // denominator for c in poly.coeffs])


def _rational(total: Poly, a: int, b: int, denominator: int) -> str:
    """(q-1)^a q^b total / denominator as reduced text: ``num`` or ``(num)/(den)``.

    The powers of q and of q - 1 in ``total`` join a and b; what is left is
    prime to both, so the fraction is reduced once each net power sits on
    the numerator or on the (monic) denominator.
    """
    qm1 = Poly([-1, 1])
    low = next(i for i, c in enumerate(total.coeffs) if c)
    ones = total.ord_at_one()
    body = Poly(total.coeffs[low:]).divmod(qm1 ** ones)[0]
    a, b = a + ones, b + low
    num = (body * qm1 ** max(a, 0)).shift(max(b, 0)) * Fraction(1, denominator)
    den = (qm1 ** max(-a, 0)).shift(max(-b, 0))
    return str(num) if den.degree() == 0 else f"({num})/({den})"


def expected_dimension(spec: ProblemSpec) -> int:
    """(2g-2) dim G + 2 dim Z + n |Phi| (every class here has dimension |Phi|)."""
    rd = spec.rd
    z = rd.center_invariants.free_rank
    return (2 * spec.genus - 2) * rd.dimension + 2 * z + spec.punctures * rd.num_roots


def count_polynomial(
    spec: ProblemSpec, budget: int = DEFAULT_TRANSLATE_BUDGET
) -> CountReport:
    """Run the master formula and assemble the full report.

    A count whose degree, the expected dimension, is above ``MAX_DEGREE``
    is refused (``degree-bound``) before the poset is built.
    """
    validate_problem(spec)
    degree = expected_dimension(spec)
    if degree > MAX_DEGREE:
        raise ResourceLimitError(
            "degree-bound",
            f"the count has degree {degree} (the expected dimension), above "
            f"the cap {MAX_DEGREE}",
        )
    rd = spec.rd
    m, n, chi = spec.m, spec.punctures, spec.chi_exponent
    warnings: list[str] = []

    if spec.genus == 0 and n == 2:
        return _finish_report(
            spec,
            polynomial=Poly(),
            is_empty=True,
            empty_reason=(
                "nonhyperbolic surface: genus 0 with 2 punctures is outside "
                "the counting theorem"
            ),
            warnings=warnings,
            table=(),
        )

    poset = build_poset(rd)
    verdict = emptiness(spec, poset)
    group = spec.eigenvalues.group
    maps = [node_map(poset.quotient(i), group) for i in range(poset.num_nodes)]
    if verdict.computed != verdict.nonempty:
        warnings.append(
            f"override for {poset.display_label(verdict.full)} asserts the "
            f"monodromy product {'is' if verdict.nonempty else 'is not'} in "
            "the commutator subgroup, contrary to the relation-forced answer"
        )
    if not verdict.nonempty:
        return _finish_report(
            spec,
            polynomial=Poly(),
            is_empty=True,
            empty_reason=(
                "empty variety: the product of the semisimple classes is not "
                "in the commutator subgroup of the group of points"
            ),
            warnings=warnings,
            table=_diagnostic_table(poset, verdict, maps),
        )

    # D(node) = |Tor| (q-1)^rank * (number of translate tuples passing);
    # an override passes all |W|^m tuples or none, and the tuples where it
    # contradicts the computed indicator are tallied per display label
    weyl_order = len(enumerate_weyl(rd))
    products = weyl_order ** m
    by_orbit = orbit_pass_counts(
        spec, [[maps[j] for j in orbit] for orbit in poset.orbits()], budget
    )
    mismatch: dict[str, list[int]] = {}
    d_values: list[Poly] = []
    for j in range(poset.num_nodes):
        passing = by_orbit[poset.orbit_of(j)]
        if j in verdict.overrides:
            counts = mismatch.setdefault(poset.display_label(j), [0, 0])
            counts[0] += products - passing if verdict.overrides[j] else passing
            counts[1] += products
            passing = products if verdict.overrides[j] else 0
        d_values.append(quotient_factor(poset.quotient(j)) * passing)

    for label, (bad, total_mult) in sorted(mismatch.items()):
        if bad:
            warnings.append(
                f"override for {label}: relation-forced indicator disagrees "
                f"for {bad} of {total_mult} translate products (override wins)"
            )

    # master sum over orbit representatives, times |W|^(m-1): each weight
    # |O| (|W| / |W(Psi)|)^(m-1) is an integer because |W(Psi)| divides |W|;
    # P_Psi depends only on the type label, so P_Psi^chi is raised once each
    powers: dict[str, Poly] = {}
    total = Poly()
    for orbit in poset.orbits():
        i = orbit[0]
        inner = mobius_sum(poset, i, d_values)
        if inner.is_zero():
            continue
        label = poset.type_label(i)
        if label not in powers:
            powers[label] = poset.poincare(i) ** chi
        weight = len(orbit) * (weyl_order // poset.weyl_order(i)) ** (m - 1)
        total = total + powers[label] * (inner * weight)
    result = _divide_out(total, *_z_exponents(rd, m, n, chi), weyl_order ** m)

    is_empty = result.is_zero()
    return _finish_report(
        spec,
        polynomial=result,
        is_empty=is_empty,
        empty_reason="master formula summed to zero" if is_empty else None,
        warnings=warnings,
        table=_diagnostic_table(poset, verdict, maps),
    )


def _diagnostic_table(
    poset: SubsystemPoset, verdict: Emptiness, maps: list[AdditiveMap]
) -> tuple[TableRow, ...]:
    """Per-orbit rows: Weyl data, Poincare, quotient, Delta and alpha at S."""
    deltas = delta_values(poset, maps, verdict.product, verdict.overrides)
    rows = []
    for orbit in poset.orbits():
        rep = orbit[0]
        inv = poset.quotient(rep)
        rows.append(
            TableRow(
                label=poset.display_label(rep),
                orbit_size=len(orbit),
                weyl_order=poset.weyl_order(rep),
                poincare=str(poset.poincare(rep)),
                quotient=inv.describe(),
                torsion_order=inv.torsion_order,
                free_rank=inv.free_rank,
                delta=str(deltas[rep]),
                alpha=str(mobius_sum(poset, rep, deltas)),
                overridden=rep in verdict.overrides,
            )
        )
    rows.sort(key=lambda row: (-row.weyl_order, row.label))
    return tuple(rows)


def _finish_report(
    spec: ProblemSpec,
    polynomial: Poly,
    is_empty: bool,
    empty_reason: str | None,
    warnings: list[str],
    table: tuple[TableRow, ...],
) -> CountReport:
    rd = spec.rd
    g, n, m = spec.genus, spec.punctures, spec.m
    euler = sum(polynomial.coeffs)
    degree = polynomial.degree()
    leading = polynomial.coeffs[-1] if polynomial.coeffs else None

    # topology cross-checks (warnings, not errors: overrides can break them)
    num_components: int | None = None
    if not is_empty:
        expected_dim = expected_dimension(spec)
        if degree != expected_dim:
            warnings.append(
                f"count has degree {degree} but the expected dimension is "
                f"{expected_dim}"
            )
        if g > 0 or n > 3:
            num_components = cocenter_invariants(rd).torsion_order
            if leading != num_components:
                warnings.append(
                    f"leading coefficient {leading} differs from the component "
                    f"count {num_components} predicted by the fundamental group"
                )
        if (g > 0 or n > m + 2) and euler != 0:
            warnings.append(
                f"Euler characteristic {euler} should vanish for g > 0 or "
                f"n > m + 2"
            )
        if rd.num_roots > 0 and (g > 0 or n - m > 2):
            d, z = rd.rank, rd.center_invariants.free_rank
            bound = (2 * g + n - m - 2) * d - (n - m - 2) * z
            ord_one = polynomial.ord_at_one()
            if ord_one < bound:
                warnings.append(
                    f"vanishing order {ord_one} at q = 1 is below the "
                    f"structural bound {bound}"
                )

    return CountReport(
        group_label=rd.label,
        genus=g,
        punctures=n,
        m=m,
        polynomial=polynomial,
        is_empty=is_empty,
        empty_reason=empty_reason,
        euler_characteristic=euler,
        expected_dimension=expected_dimension(spec),
        degree=degree,
        leading_coefficient=leading,
        num_components=num_components,
        validity_modulus=modulus(rd.dual()),
        diagnostic_exponent_lcm=build_poset(rd).torsion_exponent_lcm(),
        excluded_primes=admissible_primes(rd),
        warnings=tuple(warnings),
        table=table,
        factored=polynomial.factored_str(),
    )
