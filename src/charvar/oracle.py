"""Brute-force point counts of character varieties over small prime fields.

This module is the independent cross-check for the polynomial counting
formula: it counts honest matrix tuples instead of evaluating polynomials.
A ``FiniteGroupModel`` materializes GL(2), GL(3) or PGL(2) over a prime
field F_q together with its conjugacy-class structure (classes are keyed
by characteristic polynomial and minimal-polynomial degree; for PGL(2) by
the scaling-invariant tr^2/det plus, for trace zero, the square class of
the determinant; the class table checks that these keys are exactly the
conjugacy classes).  One pass over the elements numbers the classes and
builds a class index: a bytearray addressed by a matrix's base-q code
(its row-major entries read as digits), holding the class number.  Every
group product goes through ``FiniteGroupModel.products``, which computes
such codes from flat digit tuples, so a product's class is one lookup.
Solution tuples

    [A_1,B_1] ... [A_g,B_g] X_1 ... X_n = 1,    X_i in C_i,

are counted through class functions, each evaluated once per class
representative:

* commutators by orbit-stabilizer: as B runs over G, B A^-1 B^-1 covers
  the class of A^-1, each element |C_G(A)| times, so one product per
  element of G gives v(M) = #{(A, B) : [A, B] = M} on every class;
* punctures by per-class leaf tables: N(P), the number of X_1 .. X_{n-1}
  with P X_1 ... X_{n-1} in C_n^-1 (so X_n is determined and lies in
  C_n), is built from the innermost class outwards, one table per class;
* one convolution over G per further handle: v_g = v_{g-1} * v, over
  the elements where v_{g-1} does not vanish, which is [G, G].

Genus 0 reads N at the identity, |C_1| times the next table at C_1, so
the outermost table is skipped; otherwise the tuple total is
sum over classes K of |K| v_g(K) N(K).  Every product is an exact count of
matrix tuples, and the total is divided exactly by |(G/Z)(F_q)|; a failed
division is reported as an internal error rather than rounded.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, namedtuple
from functools import cached_property

from .abelian import identity, is_prime
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from .record import Record

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_ORACLE_BUDGET = 10**9
DEFAULT_FIELD_CAP = 11
# Guard on raw enumeration size q**(size*size); keeps GL(3) at q <= 5.
MAX_ENUMERATION = 8_000_000
# class index entry of a code that is no group element (at most 120 classes)
NO_CLASS = 255

# the groups the models support: (family, size) by descriptor
GROUPS = {"GL(2)": ("GL", 2), "GL(3)": ("GL", 3), "PGL(2)": ("PGL", 2)}


def _det(m: Matrix, q: int) -> int:
    if len(m) == 2:
        return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q
    (a, b, c), (d, e, f), (g, h, i) = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q


def _mat_inv(m: Matrix, q: int) -> Matrix:
    det = _det(m, q)
    det_inv = pow(det, q - 2, q)
    if len(m) == 2:
        return (
            ((m[1][1] * det_inv) % q, (-m[0][1] * det_inv) % q),
            ((-m[1][0] * det_inv) % q, (m[0][0] * det_inv) % q),
        )
    # 3x3 adjugate
    (a, b, c), (d, e, f), (g, h, i) = m
    cof = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple((x * det_inv) % q for x in row) for row in cof)


def _gl3_min_degree(m: Matrix, q: int) -> int:
    """Degree of the minimal polynomial of a reduced 3x3 matrix over F_q.

    It is 2 exactly when n = m - lam I has rank 1 for some lam in F_q.  Take
    an off-diagonal entry p = m[r][s] != 0 and t the third index: rank 1
    means n[i][j] p = n[i][s] n[r][j] for i != r, j != s.  At (t, t) that
    fixes lam; the other three are tested.  A diagonal m has one degree
    per distinct diagonal entry.
    """
    for r, s in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        if m[r][s]:
            break
    else:
        return len({m[0][0], m[1][1], m[2][2]})
    t = 3 - r - s
    p = m[r][s]
    lam = m[t][t] - m[t][s] * m[r][t] * pow(p, q - 2, q)
    n_rr, n_ss = m[r][r] - lam, m[s][s] - lam
    rank_one = (
        (m[s][r] * p - n_ss * n_rr) % q == 0
        and (m[s][t] * p - n_ss * m[r][t]) % q == 0
        and (m[t][r] * p - m[t][s] * n_rr) % q == 0
    )
    return 2 if rank_one else 3


def _legendre(x: int, q: int) -> int:
    """1 for nonzero squares, q-1 for nonsquares (q an odd prime)."""
    return pow(x % q, (q - 1) // 2, q)


class FiniteGroupModel(Record):
    """One of GL(2), GL(3), PGL(2) over a prime field, fully enumerated.

    ``elements`` holds every group element as a tuple-of-tuples matrix
    (canonical projective representatives for PGL: the first nonzero
    entry in row-major order is scaled to 1).  Products, the PGL rescaling
    and class keys are fixed-size 2x2 and 3x3 code on matrices with
    entries reduced mod q.  Conjugacy data (the class table, the class
    index and each class's members) is derived on first use and kept on
    the instance.  Immutable.
    """

    _compared = ("family", "size", "q", "elements", "label")

    def __init__(
        self, family: str, size: int, q: int, elements: tuple[Matrix, ...], label: str
    ):
        self.__dict__.update(
            family=family, size=size, q=q, elements=elements, label=label
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def center_order(self) -> int:
        return (self.q - 1) if self.family == "GL" else 1

    @property
    def quotient_order(self) -> int:
        """Order of (G/Z)(F_q), the group the count is divided by."""
        return self.order // self.center_order

    def canonical(self, m: Matrix) -> Matrix:
        """A reduced matrix's representative: for PGL(2), row 0 (nonzero when
        m is invertible) scaled so that its first nonzero entry is 1."""
        if self.family == "GL":
            return m
        q = self.q
        (a, b), (c, d) = m
        lead = a or b
        if lead == 1:
            return m
        s = pow(lead, q - 2, q)
        return ((a * s) % q, (b * s) % q), ((c * s) % q, (d * s) % q)

    def products(self, a: tuple, xs) -> list[int]:
        """The base-q codes of a x, for x in ``xs``: every group product.

        ``a`` and each x are flat digit tuples (row-major entries reduced
        mod q); a code is those digits of a x read as a base-q number.
        For PGL(2) the product is not rescaled: the class index covers
        every scalar multiple of an element.
        """
        q = self.q
        codes = []
        append = codes.append  # a loop: a comprehension's closure costs more
        if self.size == 3:
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
            for x0, x1, x2, x3, x4, x5, x6, x7, x8 in xs:
                append(
                    ((((((((a0 * x0 + a1 * x3 + a2 * x6) % q * q
                           + (a0 * x1 + a1 * x4 + a2 * x7) % q) * q
                          + (a0 * x2 + a1 * x5 + a2 * x8) % q) * q
                         + (a3 * x0 + a4 * x3 + a5 * x6) % q) * q
                        + (a3 * x1 + a4 * x4 + a5 * x7) % q) * q
                       + (a3 * x2 + a4 * x5 + a5 * x8) % q) * q
                      + (a6 * x0 + a7 * x3 + a8 * x6) % q) * q
                     + (a6 * x1 + a7 * x4 + a8 * x7) % q) * q
                    + (a6 * x2 + a7 * x5 + a8 * x8) % q
                )
            return codes
        a0, a1, a2, a3 = a
        for x0, x1, x2, x3 in xs:
            append(
                (((a0 * x0 + a1 * x2) % q * q + (a0 * x1 + a1 * x3) % q) * q
                 + (a2 * x0 + a3 * x2) % q) * q
                + (a2 * x1 + a3 * x3) % q
            )
        return codes

    def mul(self, a: Matrix, b: Matrix) -> Matrix:
        """a b, through ``products``."""
        code = self.products(_flat(a), (_flat(b),))[0]
        rows = self._rows
        product = []
        for _ in range(self.size):
            code, k = divmod(code, len(rows))
            product.append(rows[k])
        return self.canonical(tuple(reversed(product)))

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """Every row of digits, in order: the row at k has base-q code k."""
        return tuple(itertools.product(range(self.q), repeat=self.size))

    def inv(self, a: Matrix) -> Matrix:
        return self.canonical(_mat_inv(a, self.q))

    def class_key(self, m: Matrix) -> tuple:
        """Closed-form class key of a reduced matrix (see the module docstring).

        Every key is invariant under scaling, so PGL(2) needs no rescaling.
        """
        q = self.q
        if self.size == 3:
            (a, b, c), (d, e, f), (g, h, i) = m
            minors = e * i - f * h + a * i - c * g + a * e - b * d
            char_poly = (-_det(m, q) % q, minors % q, -(a + e + i) % q)
            return ("gl", char_poly, _gl3_min_degree(m, q))
        (a, b), (c, d) = m
        det = (a * d - b * c) % q
        scalar = not b and not c and a == d
        if self.family == "GL":
            return ("gl", (det, -(a + d) % q), 1 if scalar else 2)
        if scalar:
            return ("pgl-central",)
        t = ((a + d) ** 2 * pow(det, q - 2, q)) % q
        if t == 4 % q:
            return ("pgl-unipotent",)
        if t == 0:
            return ("pgl-order2", _legendre(det, q))
        return ("pgl-ss", t)

    @cached_property
    def _classes(self) -> tuple[bytearray, dict, list, dict]:
        """(class index, class numbers, members, class table), in one pass.

        Classes are numbered in order of first appearance.  The index holds,
        at each element's base-q code, its class number (for PGL(2), at the
        code of every scalar multiple too), and ``NO_CLASS`` at every other
        code.  ``numbers`` maps each class key to its number; ``members[k]``
        lists class k's elements as flat digit tuples, in element order.
        """
        q, n = self.q, self.size
        expected = class_count(self.family, n, q)
        index = bytearray([NO_CLASS]) * q ** (n * n)
        numbers: dict = {}
        reps, members = [], []
        row_code = {row: k for k, row in enumerate(self._rows)}
        width = len(row_code)
        key_of, number_of = self.class_key, numbers.get
        for m in self.elements:
            key = key_of(m)
            number = number_of(key)
            if number is None:
                if len(reps) == expected:
                    break  # too many keys: refused below
                number = numbers[key] = len(reps)
                reps.append(m)
                members.append([])
            members[number].append(sum(m, ()))
            code = 0
            for row in m:
                code = code * width + row_code[row]
            index[code] = number
        if self.family == "PGL":
            # first row s r, second row (c, d): the class of (r; c/s, d/s),
            # whose first row r (leading entry 1) is indexed above
            for s in range(2, q):
                t = pow(s, q - 2, q)
                moved = operator.itemgetter(
                    *((c * t) % q * q + (d * t) % q for c in range(q) for d in range(q))
                )
                for (a, b), k in row_code.items():
                    if (a or b) == 1:
                        start = k * width
                        scaled = row_code[(a * s) % q, (b * s) % q] * width
                        index[scaled : scaled + width] = bytes(
                            moved(index[start : start + width])
                        )
        table = {key: (reps[k], len(members[k])) for key, k in numbers.items()}
        order = group_order(self.family, n, q)
        total = sum(map(len, members))
        if len(table) != expected or total != order:
            raise InternalConsistencyError(
                "class-table",
                f"{self.label} has {len(table)} class keys over {total} "
                f"elements, expected {expected} classes over {order}",
            )
        return index, numbers, members, table

    def class_table(self) -> dict:
        """Map class key -> (representative, class size).

        One pass over the elements also builds the class index and each
        class's members (flat digit tuples).  The counts treat the keys as
        exactly the conjugacy classes, so a key count other than
        ``class_count`` or class sizes not summing to |G| is an internal
        error.
        """
        return self._classes[3]

    def class_number(self, m: Matrix) -> int:
        """The number of m's class, read from the class index."""
        return self._classes[0][_code(_flat(m), self.q)]


def _flat(m: Matrix) -> tuple[int, ...]:
    return sum(m, ())


def _code(flat: tuple[int, ...], q: int) -> int:
    code = 0
    for digit in flat:
        code = code * q + digit
    return code


def check_field(family: str, size: int, q: int) -> None:
    """Refuse a group, field or enumeration size that ``build_model`` cannot take."""
    if (family, size) not in GROUPS.values():
        raise InvalidInputError(
            "oracle-group",
            f"brute-force models support {', '.join(GROUPS)}; got {family}({size})",
        )
    if q > DEFAULT_FIELD_CAP:
        raise ResourceLimitError(
            "oracle-cap", f"q = {q} exceeds the field cap {DEFAULT_FIELD_CAP}"
        )
    if not is_prime(q):
        raise InvalidInputError(
            "oracle-field",
            f"q = {q} is not prime; models are implemented over prime "
            f"fields only",
        )
    if family == "PGL" and q == 2:
        raise InvalidInputError(
            "oracle-field",
            "PGL(2) models require an odd prime field",
        )
    if q**(size * size) > MAX_ENUMERATION:
        raise ResourceLimitError(
            "oracle-cap",
            f"enumerating {family}({size}) over F_{q} needs "
            f"{q**(size*size)} candidates (limit {MAX_ENUMERATION})",
        )


def build_model(family: str, size: int, q: int) -> FiniteGroupModel:
    """Enumerate GL(2), GL(3) or PGL(2) over F_q (q prime, q <= DEFAULT_FIELD_CAP)."""
    check_field(family, size, q)
    rows = list(itertools.product(range(q), repeat=size))
    # PGL: one matrix per class, the one whose first nonzero entry is 1
    # (also the first of its class in this order); it lies in row 0
    firsts = [r for r in rows if (r[0] or r[1]) == 1] if family == "PGL" else rows
    candidates = itertools.product(firsts, *[rows] * (size - 1))
    return FiniteGroupModel(
        family=family,
        size=size,
        q=q,
        elements=tuple(m for m in candidates if _det(m, q)),
        label=f"{family}({size}, F_{q})",
    )


class ConcreteClassData(namedtuple("ConcreteClassData", "kind key rep size")):
    """A conjugacy class of the model: key, representative, size.

    ``kind`` is ``"semisimple"`` or ``"regular_unipotent"``, ``key`` the
    class key, ``rep`` a representative matrix and ``size`` the number of
    elements.
    """

    __slots__ = ()


def semisimple_class(
    model: FiniteGroupModel, values: tuple[int, ...]
) -> ConcreteClassData:
    """Strongly regular semisimple class with the given eigenvalues.

    For GL(n) the values are the n diagonal entries (pairwise distinct,
    nonzero mod q); for PGL(2) a single value, the eigenvalue ratio
    (distinct from 0 and +-1).
    """
    q = model.q
    values = tuple(v % q for v in values)
    if model.family == "GL":
        if len(values) != model.size:
            raise InvalidInputError(
                "oracle-class",
                f"{model.label} needs {model.size} eigenvalues, "
                f"got {len(values)}",
            )
        if 0 in values or len(set(values)) != len(values):
            raise InvalidInputError(
                "oracle-class",
                f"eigenvalues {values} are not distinct units mod {q}",
            )
        rep = tuple(
            tuple(values[i] if i == j else 0 for j in range(model.size))
            for i in range(model.size)
        )
        what = f"semisimple{values}"
    else:
        if len(values) != 1:
            raise InvalidInputError(
                "oracle-class",
                f"{model.label} classes take one eigenvalue-ratio value",
            )
        ratio = values[0]
        if ratio in (0, 1, q - 1):
            raise InvalidInputError(
                "oracle-class",
                f"eigenvalue ratio {ratio} is not strongly regular mod {q}",
            )
        rep = ((ratio, 0), (0, 1))
        what = f"semisimple(ratio={values[0]})"
    return _concrete_class(model, what, "semisimple", rep)


def regular_unipotent_class(model: FiniteGroupModel) -> ConcreteClassData:
    """The regular unipotent class (single Jordan block, eigenvalue 1)."""
    rep = tuple(
        tuple(1 if j == i or j == i + 1 else 0 for j in range(model.size))
        for i in range(model.size)
    )
    return _concrete_class(model, "regular unipotent class", "regular_unipotent", rep)


def _concrete_class(
    model: FiniteGroupModel, what: str, kind: str, rep: Matrix
) -> ConcreteClassData:
    """The class of ``rep``, its size checked against ``class_size``."""
    rep = model.canonical(rep)
    key = model.class_key(rep)
    _, size = model.class_table()[key]
    expected = class_size(model.family, model.size, model.q, kind)
    if size != expected:
        raise InternalConsistencyError(
            "class-size",
            f"{what} in {model.label} has size {size}, expected {expected}",
        )
    return ConcreteClassData(kind, key, rep, size)


def group_order(family: str, size: int, q: int) -> int:
    """|GL(n, F_q)| = prod over i < n of (q^n - q^i); |PGL(2, F_q)| = q(q^2 - 1)."""
    order = math.prod(q**size - q**i for i in range(size))
    return order if family == "GL" else order // (q - 1)


def class_count(family: str, size: int, q: int) -> int:
    """Number of conjugacy classes of a supported group over F_q (q odd for PGL)."""
    return {("GL", 2): q * q - 1, ("GL", 3): q**3 - q, ("PGL", 2): q + 2}[family, size]


def class_size(family: str, size: int, q: int, kind: str) -> int:
    """Size of a strongly regular semisimple or a regular unipotent class.

    |G| over the order of the centralizer: the maximal torus, (q-1)^rank,
    or Z times the unipotent radical's q^(n-1) points.
    """
    order = group_order(family, size, q)
    if kind == "semisimple":
        return order // (q - 1) ** (size if family == "GL" else size - 1)
    return order // (q - 1 if family == "GL" else 1) // q ** (size - 1)


def derived_order(family: str, size: int, q: int) -> int:
    """|[G, G]|: SL(n, F_q) in GL(n) and PSL(2, F_q) in PGL(2) (q odd).

    GL(2, F_2) = S_3 is the exception: its commutators form A_3.  In every
    group a model supports, each element of [G, G] is a commutator.
    """
    if (family, size, q) == ("GL", 2, 2):
        return 3
    return group_order(family, size, q) // (q - 1 if family == "GL" else 2)


def check_enumeration(
    family: str,
    size: int,
    q: int,
    genus: int,
    kinds: tuple[str, ...],
    *,
    budget: int,
) -> None:
    """Validate a brute-force count's inputs and its group-product count.

    ``kinds`` are the classes' kinds in puncture order.  The estimate is
    the exact number of group products ``brute_force_count`` makes, from
    closed forms, so an over-budget count is refused before the group's
    class table is built: k = ``class_count`` products per element of each
    class but the last (the puncture tables; at genus 0 the first class
    needs none), and from genus 1 on |G| for the commutators plus k |[G, G]|
    per further handle (the handle distributions vanish off [G, G]).
    """
    if genus < 0:
        raise InvalidInputError("oracle-input", "genus must be >= 0")
    if not kinds:
        raise InvalidInputError("oracle-input", "need at least one class")
    num_classes = class_count(family, size, q)
    tables = kinds[1:-1] if genus == 0 else kinds[:-1]
    estimate = num_classes * sum(class_size(family, size, q, kind) for kind in tables)
    if genus:
        estimate += group_order(family, size, q)
        estimate += (genus - 1) * num_classes * derived_order(family, size, q)
    if estimate > budget:
        raise ResourceLimitError(
            "oracle-budget",
            f"enumeration needs about {estimate} steps "
            f"(budget {budget})",
        )


def _puncture_counts(
    model: FiniteGroupModel, classes: tuple[ConcreteClassData, ...]
) -> list[int]:
    """N[k] = #{X_i in C_i, i < n : P X_1 .. X_{n-1} in C_n^-1}, P in class k.

    N is a class function (conjugating P conjugates the X_i), so it is
    built from the innermost class outwards, one table per class:
    N_j(P) = sum over x in C_j of N_{j+1}(P x), at one P per class.
    """
    index, numbers, members, table = model._classes
    reps = [_flat(rep) for rep, _size in table.values()]
    counts = [0] * len(reps)
    counts[model.class_number(model.inv(classes[-1].rep))] = 1
    for cls in reversed(classes[:-1]):
        xs = members[numbers[cls.key]]
        counts = [
            sum(map(counts.__getitem__, map(index.__getitem__, model.products(a, xs))))
            for a in reps
        ]
    return counts


def _commutator_distribution(model: FiniteGroupModel) -> list[int]:
    """Per-element count of commutator representations, by class number.

    Returns v with v[k] = #{(A, B) : [A, B] = M} for any single M in
    class k (the count is a class function, so summing |class| * v[k]
    recovers |G|^2).  As B runs over G, B A^-1 B^-1 meets each element of
    the class of A^-1 exactly |C_G(A)| = |G| / |class(A)| times, and the
    |class(A)| conjugates of A give the same histogram; so each class
    representative a adds |G| for every y in the class of a^-1, one
    product per element of G in all.
    """
    index, _numbers, members, table = model._classes
    order = model.order
    hist: Counter = Counter()
    for rep, _size in table.values():
        ys = members[model.class_number(model.inv(rep))]
        hist.update(map(index.__getitem__, model.products(_flat(rep), ys)))
    if sum(hist.values()) != order:  # each product stands for |G| pairs
        raise InternalConsistencyError(
            "oracle-distribution",
            "commutator histogram does not account for |G|^2 pairs",
        )
    dist = []
    for k, (key, (_rep, size)) in enumerate(table.items()):
        total = hist[k] * order
        if total % size:
            raise InternalConsistencyError(
                "oracle-distribution",
                f"commutator count onto class {key} is not a class function",
            )
        dist.append(total // size)
    return dist


def _convolve(model: FiniteGroupModel, v: list[int], v1: list[int]) -> list[int]:
    """One more genus handle: v'(M) = sum_X v(X^-1) v1(X M).

    X M is conjugate to M X, and v is a class function with X^-1 in the
    class of the inverse of X's class representative: so each class's
    inverse is found once, and the classes where v(X^-1) = 0 are skipped.
    """
    index, _numbers, members, table = model._classes
    reps = [rep for rep, _size in table.values()]
    weighted = [
        (weight, xs) for rep, xs in zip(reps, members)
        if (weight := v[model.class_number(model.inv(rep))])
    ]
    return [
        sum(
            weight
            * sum(map(v1.__getitem__, map(index.__getitem__, model.products(a, xs))))
            for weight, xs in weighted
        )
        for a in map(_flat, reps)
    ]


def brute_force_count(
    model: FiniteGroupModel,
    genus: int,
    classes: tuple[ConcreteClassData, ...],
    *,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> int:
    """Number of F_q-points of the character variety, by exact counting.

    Counts tuples (A_1, B_1, .., A_g, B_g, X_1, .., X_n) satisfying the
    product relation with X_i in classes[i] (X_n solved for and
    membership-tested), then divides exactly by |(G/Z)(F_q)|.
    """
    kinds = tuple(cls.kind for cls in classes)
    check_enumeration(model.family, model.size, model.q, genus, kinds, budget=budget)
    if genus == 0 and len(classes) > 1:
        # N at the identity: X_1 runs over C_1 itself, where the next
        # table is constant, so the outermost table needs no products.
        head = classes[0]
        counts = _puncture_counts(model, classes[1:])
        total = head.size * counts[model.class_number(head.rep)]
    elif genus == 0:
        counts = _puncture_counts(model, classes)
        total = counts[model.class_number(identity(model.size))]
    else:
        sizes = [size for _rep, size in model.class_table().values()]
        counts = _puncture_counts(model, classes)
        v1 = _commutator_distribution(model)
        v = v1
        for _ in range(genus - 1):
            v = _convolve(model, v, v1)
        if sum(size * w for size, w in zip(sizes, v)) != model.order ** (2 * genus):
            raise InternalConsistencyError(
                "oracle-distribution",
                f"genus-{genus} handle distribution does not sum to |G|^2g",
            )
        total = sum(size * w * n for size, w, n in zip(sizes, v, counts))
    if total % model.quotient_order:
        raise InternalConsistencyError(
            "oracle-division",
            f"solution count {total} is not divisible by "
            f"|G/Z| = {model.quotient_order}",
        )
    return total // model.quotient_order
