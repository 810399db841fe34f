"""The counting engine: point counts of character varieties as polynomials.

Input: a genus g surface with n punctures, a split reductive group given by
its root datum, m strongly regular semisimple conjugacy classes (1 <= m < n,
presented as symbolic torus elements) and n - m regular unipotent classes.
Output: the number of k-points of the associated character variety, as a
polynomial in q = |k|, valid for q in the admissible congruence class.

The engine evaluates the closed master formula by Cartan type

    |X(k)| = (q-1)^a q^b |W|^(-m) * sum over types A of c_A(q) P_A(q)^chi,
    c_A = sum over the Weyl orbits O of closed coroot subsystems of type A
          of |O| (|W| / |W(Psi)|)^(m-1) sum over Psi' >= Psi of
          mu(Psi, Psi') D(Psi')        (Psi the first node of O)

with chi = 2g + n - 2 and (q-1)^a q^b = z_factor |B|^chi, where D(Psi')
adds up the local factor Delta over all W^m-translates of the semisimple
classes.  The membership test is compiled once per Weyl orbit of closed
subsystems into an additive map to a finitely generated abelian group
(``Engine.maps``): S dies at w(Psi_0) exactly when w^-1 S
(``SubsystemPoset.carry``) dies at the orbit's first node Psi_0, and a
product of translates dies exactly when the images of its factors sum to
zero.  D is constant on Weyl orbits, and summed over an orbit it needs
no translate of the first class (``orbit_pass_counts``): only the
(m-1)-tuples of translates of the other classes are counted.  Those are
zero sums: each class contributes the histogram of its |W| translate
images, the classes are convolved in two halves once per orbit, each
member's image of the carried first class (``Engine.images``, read by
Delta too at m = 1) shifting one of them, and one dictionary lookup per
entry of one half against the negated other half counts the zero sums --
|W|^floor((m-1)/2) + |W|^ceil((m-1)/2) entries per orbit rather than
|W|^m products, one image per node at m = 1.

The inner sum is ``mobius_sum`` of the D values, one per orbit, over the
Mobius row summed by orbit.  Every factor of a summand is W-invariant, so
c_A runs over orbit representatives, each weighted by its orbit's size,
Mobius rows are built only there, and P_A^chi is raised once per type.
The diagnostic table applies ``mobius_sum`` to the local factor Delta of
the class product (``delta_values``), which gives alpha: Delta is the only
per-node value.

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

from collections import Counter, namedtuple
from collections.abc import Mapping
from functools import cached_property

from .abelian import AdditiveMap
from .charsum import (
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
from .record import Record
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


class ProblemSpec(namedtuple(
    "ProblemSpec",
    "rd genus punctures eigenvalues semisimple_classes overrides",
    defaults=((),),
)):
    """A puncture-counting problem: group, surface, and classes.

    ``rd`` is the ``RootDatum``, ``eigenvalues`` the ``EigenvalueDatum``
    the classes are written over.  ``semisimple_classes`` holds the m
    strongly regular semisimple classes (``SymbolicTorusElement``s); the
    remaining n - m punctures carry regular unipotent classes.
    ``overrides`` (default empty) is a tuple of (label, bool) pairs mapping
    subsystem type labels (bare like ``"A1"`` or display-disambiguated
    like ``"A1-long"``) to the arithmetic truth of the membership
    indicator for that subsystem type; display labels take precedence over
    bare type labels when both are given.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.semisimple_classes)

    @property
    def chi_exponent(self) -> int:
        return 2 * self.genus + self.punctures - 2


class TableRow(namedtuple(
    "TableRow",
    "label orbit_size weyl_order poincare quotient torsion_order free_rank "
    "delta alpha overridden",
)):
    """One orbit of closed subsystems in the diagnostic table.

    The display fields (``label``, ``poincare``, ``quotient``, ``delta``,
    ``alpha``) are strings, ``overridden`` is a bool, and the rest are ints.
    """

    __slots__ = ()


class CountReport(namedtuple(
    "CountReport",
    "group_label genus punctures m polynomial is_empty empty_reason "
    "euler_characteristic expected_dimension degree leading_coefficient "
    "num_components validity_modulus diagnostic_exponent_lcm excluded_primes "
    "warnings table factored",
)):
    """Everything the engine knows about one counting problem.

    ``polynomial`` is the count as an integer ``Poly`` and ``factored`` its
    factored display; ``empty_reason``, ``leading_coefficient`` and
    ``num_components`` may be None; ``excluded_primes`` and ``warnings``
    are tuples, and ``table`` is a tuple of ``TableRow``s.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_problem(spec: ProblemSpec) -> None:
    """Check every hypothesis of the counting theorem, naming failures.

    A poset above the enumeration bound is refused (``poset-bound``) before
    the strongly-regular tests, so such a problem keeps its error code.
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
    """Map override labels to Weyl orbit indices; display labels beat bare labels."""
    display = {poset.display_label(i) for i in range(poset.num_nodes)}
    types = {poset.type_label(i) for i in range(poset.num_nodes)}
    for label in overrides:
        if label not in display | types:
            raise InvalidInputError(
                "override-label",
                f"override label {label!r} matches no subsystem; available "
                f"labels: {', '.join(sorted(display))}",
            )
    resolved: dict[int, bool] = {}
    for k, orbit in enumerate(poset.orbits()):  # labels are constant on orbits
        value = overrides.get(poset.type_label(orbit[0]))
        value = overrides.get(poset.display_label(orbit[0]), value)
        if value is not None:
            resolved[k] = value
    return resolved


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Engine(Record):
    """One problem's engine record; each field is computed on first use.

    By Weyl orbit index: ``overrides``, ``maps`` over the eigenvalue group
    and ``pass_counts`` within ``budget``.  ``full`` is the full coroot
    system's node, ``computed`` and ``nonempty`` the verdicts on the class
    ``product`` there before and after an override, and ``images`` the
    first class carried to every node and imaged under its orbit's map.
    """

    _compared = ("spec", "budget")

    def __init__(self, spec: ProblemSpec, budget: int = DEFAULT_TRANSLATE_BUDGET):
        self.__dict__.update(spec=spec, budget=budget)

    @cached_property
    def poset(self) -> SubsystemPoset:
        return build_poset(self.spec.rd)

    @cached_property
    def full(self) -> int:
        return self.poset.index_of[frozenset(range(self.spec.rd.num_roots))]

    @cached_property
    def overrides(self) -> dict[int, bool]:
        return resolve_overrides(self.poset, dict(self.spec.overrides))

    @cached_property
    def maps(self) -> list[AdditiveMap]:
        group, poset = self.spec.eigenvalues.group, self.poset
        return [node_map(poset.quotient(orbit[0]), group) for orbit in poset.orbits()]

    @cached_property
    def product(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(s.flat() for s in self.spec.semisimple_classes))))

    @cached_property
    def computed(self) -> bool:
        return self.maps[self.poset.orbit_of(self.full)].in_kernel(self.product)

    @cached_property
    def nonempty(self) -> bool:
        return self.overrides.get(self.poset.orbit_of(self.full), self.computed)

    def carry_images(self, vector: tuple[int, ...]) -> list[tuple[int, ...]]:
        """``vector`` carried to every node and imaged there under its orbit's map."""
        carried = enumerate(self.poset.carry(vector))
        return [self.maps[self.poset.orbit_of(j)].image(v) for j, v in carried]

    @cached_property
    def images(self) -> list[tuple[int, ...]]:
        return self.carry_images(self.spec.semisimple_classes[0].flat())

    @cached_property
    def pass_counts(self) -> dict[int, int]:
        return orbit_pass_counts(self)


def mobius_sum(row: Mapping[int, int], values: list[Poly]) -> Poly:
    """Sum over the entries (j, mu) of a Mobius row of mu * values[j]."""
    total = Poly()
    for j, mu in row.items():
        if not values[j].is_zero():
            total = total + values[j] * mu
    return total


def delta_values(engine: Engine) -> list[Poly]:
    """Delta at every node: the quotient factor where the product dies, else 0.

    The class product is imaged at every node (at m = 1 it is the first
    class, ``engine.images``).  An override replaces the computed
    indicator at every node of its orbit.
    """
    poset, orbits = engine.poset, engine.poset.orbits()
    images = engine.images if engine.spec.m == 1 else engine.carry_images(engine.product)
    return [
        quotient_factor(poset.quotient(orbits[k][0]))
        if engine.overrides.get(k, not any(images[j]))
        else Poly()
        for j, k in enumerate(map(poset.orbit_of, range(poset.num_nodes)))
    ]


def orbit_pass_counts(engine: Engine) -> dict[int, int]:
    """By Weyl orbit index, the number of W^m-translate tuples whose product dies.

    Every orbit of ``engine``'s poset gets D(Psi), read through its map in
    ``engine.maps``: the same number at every Psi in the orbit.  The
    count rests on W-invariance: w.S dies in Psi exactly when S dies in
    w^-1 Psi, and left multiplication by w permutes the translate tuples.
    Grouping the tuples by their first translate w therefore gives

        D(Psi) = sum over w in W of N(w^-1 Psi)
               = (|W| / |O|) * sum over Psi' in O of N(Psi'),

    where N(Psi') counts the (m-1)-tuples (w_2, ..., w_m) for which
    S_1 + w_2 S_2 + ... + w_m S_m dies at Psi', and w^-1 Psi runs over O,
    meeting each member |W| / |O| times.  Reindexing the tuples by w^-1,
    N(w Psi_0) is N(Psi_0) with S_1 replaced by its carry w^-1 S_1.

    The maps are additive, so a tuple passes when the images of its terms
    sum to zero.  S_2 .. S_m are split into two halves; each half's
    histogram of image sums at Psi_0 is the convolution of its classes'
    histograms of |W| translate images, the left one shifted by the image
    of each member's carried S_1 (``engine.images``), and the zero sums
    are counted with one lookup per left entry against the negated right
    half.  With m = 1 both halves are empty: N(Psi') is 1 or 0 as the
    image of S_1 at Psi' is zero or not, no translate is computed and W is
    not enumerated (|W| = P_Phi(1) is read at the poset's full node).
    ``budget`` bounds the histogram entries:
    a strongly regular class has |W| distinct translates, so the halves
    hold at most |W|^floor((m-1)/2) + |W|^ceil((m-1)/2) entries.
    """
    spec, poset, budget = engine.spec, engine.poset, engine.budget
    order = poset.weyl_order(engine.full)
    rest = spec.semisimple_classes[1:]
    half = len(rest) // 2
    entries = order ** half + order ** (len(rest) - half)
    if entries > budget:
        raise ResourceLimitError(
            "translate-budget",
            f"the translate histogram join builds up to {entries} entries "
            f"(|W|^{half} + |W|^{len(rest) - half} with |W| = {order}), "
            f"exceeding the budget {budget}; raise the budget to proceed",
        )
    weyl = enumerate_weyl(spec.rd) if rest else ()
    translates = [[translate(w, s).flat() for w in weyl] for s in rest]
    counts = {}
    for k, (nmap, orbit) in enumerate(zip(engine.maps, poset.orbits())):
        left = _sum_histogram(nmap, translates[:half])
        right = _sum_histogram(nmap, translates[half:])
        starts = Counter(engine.images[j] for j in orbit)
        passing = sum(
            n * mult * right.get(nmap.negate(nmap.add(start, x)), 0)
            for start, n in starts.items()
            for x, mult in left.items()
        )
        counts[k] = order // len(orbit) * passing
    return counts


def _sum_histogram(
    nmap: AdditiveMap, classes: list[list[tuple[int, ...]]]
) -> dict[tuple[int, ...], int]:
    """Multiplicities of the image sums of one translate per class."""
    sums = {(0,) * len(nmap.moduli): 1}
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
    numerator, monic = _over_monic(total, a, b)
    poly, rem = numerator.divmod(monic)
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
    from fractions import Fraction

    low, ones, minus_ones, rest = total.unit_roots()
    num, den = _over_monic(Poly(rest) * Poly([1, 1]) ** minus_ones, a + ones, b + low)
    num = num * Fraction(1, denominator)
    return str(num) if den.degree() == 0 else f"({num})/({den})"


def _over_monic(total: Poly, a: int, b: int) -> tuple[Poly, Poly]:
    """(q-1)^a q^b total as a numerator over the monic q^(-b) (q-1)^(-a)."""
    qm1 = Poly([-1, 1])
    return (
        (total * qm1 ** max(a, 0)).shift(max(b, 0)),
        (qm1 ** max(-a, 0)).shift(max(-b, 0)),
    )


def expected_dimension(spec: ProblemSpec) -> int:
    """(2g-2) dim G + 2 dim Z + n |Phi| (every class here has dimension |Phi|)."""
    rd = spec.rd
    z = rd.center_invariants.free_rank
    dim = (2 * spec.genus - 2) * rd.dimension + 2 * z + spec.punctures * rd.num_roots
    try:
        str(dim)
    except ValueError:  # more digits than str() converts, so no report can show it
        raise ResourceLimitError(
            "degree-bound", "the expected dimension has too many digits to print"
        ) from None
    return dim


def count_polynomial(spec: ProblemSpec | Engine) -> CountReport:
    """Run the master formula and assemble the full report.

    ``spec`` may be an ``Engine``, which carries the translate budget, for
    the caller to read on; a bare spec runs under the default budget.  A
    count of degree (the expected dimension) above ``MAX_DEGREE`` is refused
    (``degree-bound``) before the poset is built.
    """
    engine = spec if isinstance(spec, Engine) else Engine(spec)
    spec = engine.spec
    validate_problem(spec)
    degree = expected_dimension(spec)
    if degree > MAX_DEGREE:
        raise ResourceLimitError(
            "degree-bound",
            f"the count has degree {degree} (the expected dimension), above "
            f"the cap {MAX_DEGREE}",
        )
    m, n, chi = spec.m, spec.punctures, spec.chi_exponent
    warnings: list[str] = []

    if spec.genus == 0 and n == 2:
        return _finish_report(
            spec,
            polynomial=Poly(),
            empty_reason=(
                "nonhyperbolic surface: genus 0 with 2 punctures is outside "
                "the counting theorem"
            ),
            warnings=warnings,
            table=(),
        )

    poset = engine.poset
    if engine.nonempty != engine.computed:
        warnings.append(
            f"override for {poset.display_label(engine.full)} asserts the "
            f"monodromy product {'is' if engine.nonempty else 'is not'} in "
            "the commutator subgroup, contrary to the relation-forced answer"
        )
    if not engine.nonempty:
        return _finish_report(
            spec,
            polynomial=Poly(),
            empty_reason=(
                "empty variety: the product of the semisimple classes is not "
                "in the commutator subgroup of the group of points"
            ),
            warnings=warnings,
            table=_diagnostic_table(engine),
        )

    # D per orbit = |Tor| (q-1)^rank * (number of translate tuples passing);
    # an override passes all |W|^m tuples or none, and the tuples where it
    # contradicts the computed indicator are tallied at each orbit member
    weyl_order = poset.weyl_order(engine.full)
    products = weyl_order ** m
    mismatch: dict[str, tuple[int, int]] = {}
    d_values: list[Poly] = []
    for k, orbit in enumerate(poset.orbits()):
        passing = engine.pass_counts[k]
        if k in engine.overrides:
            bad = products - passing if engine.overrides[k] else passing
            mismatch[poset.display_label(orbit[0])] = len(orbit) * bad, len(orbit) * products
            passing = products if engine.overrides[k] else 0
        d_values.append(quotient_factor(poset.quotient(orbit[0])) * passing)

    for label, (bad, total_mult) in sorted(mismatch.items()):
        if bad:
            warnings.append(
                f"override for {label}: relation-forced indicator disagrees "
                f"for {bad} of {total_mult} translate products (override wins)"
            )

    # master sum by Cartan type, times |W|^(m-1): c_A sums the inner sums of
    # the orbits of type A, each weighted by |O| (|W| / |W(Psi)|)^(m-1), an
    # integer because |W(Psi)| divides |W|; then P_A^chi multiplies c_A once
    by_type: dict[str, tuple[int, Poly]] = {}
    for orbit in poset.orbits():
        i, label = orbit[0], poset.type_label(orbit[0])
        row: Counter[int] = Counter()
        for j, mu in poset.mobius_row(i).items():
            row[poset.orbit_of(j)] += mu
        weight = len(orbit) * (weyl_order // poset.weyl_order(i)) ** (m - 1)
        rep, c_type = by_type.get(label, (i, Poly()))
        by_type[label] = rep, c_type + mobius_sum(row, d_values) * weight
    total = Poly()
    for rep, c_type in by_type.values():
        if not c_type.is_zero():
            total = total + poset.poincare(rep) ** chi * c_type
    result = _divide_out(total, *_z_exponents(spec.rd, m, n, chi), weyl_order ** m)

    return _finish_report(
        spec,
        polynomial=result,
        empty_reason="master formula summed to zero" if result.is_zero() else None,
        warnings=warnings,
        table=_diagnostic_table(engine),
    )


def _diagnostic_table(engine: Engine) -> tuple[TableRow, ...]:
    """Per-orbit rows: Weyl data, Poincare, quotient, Delta and alpha at S."""
    poset = engine.poset
    deltas = delta_values(engine)
    rows = []
    for k, orbit in enumerate(poset.orbits()):
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
                alpha=str(mobius_sum(poset.mobius_row(rep), deltas)),
                overridden=k in engine.overrides,
            )
        )
    rows.sort(key=lambda row: (-row.weyl_order, row.label))
    return tuple(rows)


def _finish_report(
    spec: ProblemSpec,
    polynomial: Poly,
    empty_reason: str | None,
    warnings: list[str],
    table: tuple[TableRow, ...],
) -> CountReport:
    """The report of ``polynomial``; the count is empty when it is zero.

    A non-empty count whose degree is not ``expected_dimension`` raises
    ``degree-dimension``, a warning only under overrides: the paper shows
    the variety smooth and equidimensional of that dimension (G/Z acts
    freely), and a polynomial count has degree the dimension (Lang-Weil).
    """
    rd = spec.rd
    is_empty = polynomial.is_zero()
    g, n, m = spec.genus, spec.punctures, spec.m
    euler = sum(polynomial.coeffs)
    degree = polynomial.degree()
    leading = polynomial.coeffs[-1] if polynomial.coeffs else None
    expected_dim = expected_dimension(spec)

    # topology cross-checks: overrides can break them
    num_components: int | None = None
    if not is_empty:
        if degree != expected_dim:
            message = (
                f"count has degree {degree} but the expected dimension is "
                f"{expected_dim}"
            )
            if not spec.overrides:
                raise InternalConsistencyError("degree-dimension", message)
            warnings.append(message)
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
        expected_dimension=expected_dim,
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
