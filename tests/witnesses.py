"""Explicit solution families for the brute-force oracle's tests.

A ``WitnessSpec`` writes a family of solution tuples as symbolic matrices.
``verify_witness`` specializes the eigenvalue symbols at concrete values in
F_q^x (either supplied or sampled with a seeded generator, rejecting values
that violate the declared relations or nonvanishing constraints) and tests
the product relation plus every class membership on the resulting integer
matrices.  Matrix entries are arithmetic formulas evaluated with ``eval``
over F_q, which is why this lives with the tests and not in the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from charvar.abelian import identity, is_prime
from charvar.charsum import EigenvalueDatum
from charvar.errors import InvalidInputError, ResourceLimitError
from charvar.oracle import FiniteGroupModel, _det, _legendre
from oracle_reference import char_poly, is_scalar, mat_mul, min_poly_degree

Matrix = tuple[tuple[int, ...], ...]


class _Fp:
    """Field element for evaluating witness entries written as formulas."""

    __slots__ = ("value", "q")

    def __init__(self, value: int, q: int):
        self.value = value % q
        self.q = q

    def _coerce(self, other) -> "_Fp":
        if isinstance(other, _Fp):
            return other
        if isinstance(other, int):
            return _Fp(other, self.q)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _Fp(self.value + other.value, self.q)

    __radd__ = __add__

    def __neg__(self):
        return _Fp(-self.value, self.q)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _Fp(self.value - other.value, self.q)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _Fp(other.value - self.value, self.q)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _Fp(self.value * other.value, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("witness entry divides by zero")
        return _Fp(self.value * pow(other.value, self.q - 2, self.q), self.q)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (_Fp(1, self.q) / self) ** (-exponent)
        return _Fp(pow(self.value, exponent, self.q), self.q)


def _eval_expr(expr: str, values: dict[str, int], q: int) -> int:
    namespace = {name: _Fp(v, q) for name, v in values.items()}
    result = eval(expr, {"__builtins__": {}}, namespace)
    if isinstance(result, _Fp):
        return result.value
    return result % q


@dataclass(frozen=True)
class WitnessSpec:
    """An explicit family of solution tuples with symbolic entries.

    ``matrices`` entries and class eigenvalues are arithmetic formulas in
    the symbols; ``relations`` use the multiplicative word syntax of
    eigenvalue data ("a*b = t^2"); ``constraints`` are formulas that must
    evaluate to a nonzero field element for a specialization to count as
    admissible.  Each entry of ``classes`` is either a tuple of
    eigenvalue formulas (semisimple; for PGL(2) the single eigenvalue
    ratio) or the string "regular_unipotent".
    """

    family: str
    size: int
    symbols: tuple[str, ...]
    relations: tuple[str, ...]
    constraints: tuple[str, ...]
    matrices: tuple[tuple[tuple[str, ...], ...], ...]
    classes: tuple
    label: str = ""


def _admissible_values(
    witness: WitnessSpec, q: int, values: dict[str, int]
) -> bool:
    datum = EigenvalueDatum(witness.symbols, witness.relations)
    for relation in witness.relations:
        relator = datum.parse_relation(relation)
        prod = 1
        for sym, exp in zip(witness.symbols, relator):
            prod = prod * pow(values[sym], exp % (q - 1), q) % q
        if prod != 1:
            return False
    for constraint in witness.constraints:
        if _eval_expr(constraint, values, q) == 0:
            return False
    for cls in witness.classes:
        if cls == "regular_unipotent":
            continue
        eigen = [_eval_expr(e, values, q) for e in cls]
        if 0 in eigen or len(set(eigen)) != len(eigen):
            return False
        if witness.family == "PGL" and eigen[0] in (1, q - 1):
            return False
    return True


def witness_matrices(
    witness: WitnessSpec, q: int, values: dict[str, int]
) -> tuple[Matrix, ...]:
    """Specialize the symbolic matrices to integer matrices mod q."""
    out = []
    for rows in witness.matrices:
        out.append(
            tuple(
                tuple(_eval_expr(entry, values, q) for entry in row)
                for row in rows
            )
        )
    return tuple(out)


def _in_class(
    family: str, q: int, matrix: Matrix, cls, values: dict[str, int]
) -> bool:
    size = len(matrix)
    if _det(matrix, q) == 0:
        return False
    if family == "GL":
        if cls == "regular_unipotent":
            # char poly of a regular unipotent is (x-1)^size
            expected = _poly_from_roots([1] * size, q)
            return (
                char_poly(matrix, q) == expected
                and min_poly_degree(matrix, q) == size
            )
        eigen = [_eval_expr(e, values, q) for e in cls]
        return char_poly(matrix, q) == _poly_from_roots(eigen, q)
    # PGL(2): compare scaling-invariant class data against diag(r, 1).
    if is_scalar(matrix):
        return False
    tr = (matrix[0][0] + matrix[1][1]) % q
    det = _det(matrix, q)
    t = (tr * tr * pow(det, q - 2, q)) % q
    if cls == "regular_unipotent":
        return t == 4 % q
    ratio = _eval_expr(cls[0], values, q)
    expected_t = ((ratio + 1) ** 2 * pow(ratio, q - 2, q)) % q
    if t != expected_t:
        return False
    if t == 0:
        return _legendre(det, q) == _legendre(ratio, q)
    return True


def _poly_from_roots(roots: list[int], q: int) -> tuple[int, ...]:
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        coeffs = [
            (c - r * coeffs[i + 1]) % q if i + 1 < len(coeffs) else c % q
            for i, c in enumerate(coeffs)
        ]
    return tuple(coeffs[:-1])


def verify_witness(
    witness: WitnessSpec,
    q: int,
    *,
    values: dict[str, int] | None = None,
    seed: int = 0,
    attempts: int = 20,
) -> bool:
    """Check a witness over F_q: product relation plus class memberships.

    With explicit ``values`` the specialization is validated and tested
    directly.  Otherwise symbols are sampled uniformly from F_q^x with a
    seeded generator until the relations and constraints hold; running
    out of attempts raises (inconclusive), it does not return False.
    """
    if not is_prime(q):
        raise InvalidInputError("oracle-field", f"q = {q} is not prime")
    if witness.family == "PGL" and q == 2:
        raise InvalidInputError(
            "oracle-field", "PGL(2) witnesses need an odd prime field"
        )
    if values is not None:
        values = {s: v % q for s, v in values.items()}
        if set(values) != set(witness.symbols):
            raise InvalidInputError(
                "witness-values",
                f"need values for exactly the symbols {witness.symbols}",
            )
        if not _admissible_values(witness, q, values):
            raise InvalidInputError(
                "witness-values",
                "supplied values violate the relations or constraints",
            )
    else:
        rng = random.Random(seed)
        for _ in range(attempts):
            candidate = {
                s: rng.randrange(1, q) for s in witness.symbols
            }
            if _admissible_values(witness, q, candidate):
                values = candidate
                break
        if values is None:
            raise ResourceLimitError(
                "witness-specialization",
                f"no admissible specialization of {witness.symbols} over "
                f"F_{q} found in {attempts} attempts (inconclusive)",
            )
    matrices = witness_matrices(witness, q, values)
    product = identity(witness.size)
    for m in matrices:
        product = mat_mul(product, m, q)
    if witness.family == "GL":
        if product != identity(witness.size):
            return False
    else:
        if not is_scalar(product) or _det(product, q) == 0:
            return False
    for matrix, cls in zip(matrices, witness.classes):
        if not _in_class(witness.family, q, matrix, cls, values):
            return False
    return True


def tuples_conjugate(
    model: FiniteGroupModel,
    first: tuple[Matrix, ...],
    second: tuple[Matrix, ...],
) -> bool:
    """Whether one tuple is a simultaneous conjugate of the other."""
    first = tuple(model.canonical(m) for m in first)
    second = tuple(model.canonical(m) for m in second)
    inverses = {m: model.inv(m) for m in model.elements}
    for g in model.elements:
        g_inv = inverses[g]
        if all(
            model.mul(model.mul(g, x), g_inv) == y
            for x, y in zip(first, second)
        ):
            return True
    return False


# Explicit solution families for the small rank-one and rank-two cases.
# Products and memberships hold identically under the declared relations;
# they are re-checked numerically by verify_witness.

GL2_GENERIC_TRIPLE = WitnessSpec(
    family="GL",
    size=2,
    symbols=("a", "b", "c", "d"),
    relations=("a*b*c*d",),
    constraints=("a - b", "c - d"),
    matrices=(
        (("a", "0"), ("a*b*(c + d) - a - b", "b")),
        (("1/a", "-1/a"), ("-c - d + 1/a + 1/b", "c + d - 1/a")),
        (("1", "1"), ("0", "1")),
    ),
    classes=(("a", "b"), ("c", "d"), "regular_unipotent"),
    label="generic semisimple pair with a unipotent",
)

GL2_COINCIDENT_TRIPLES = (
    WitnessSpec(
        family="GL",
        size=2,
        symbols=("a", "b"),
        relations=(),
        constraints=("a - b",),
        matrices=(
            (("a", "-a + b"), ("0", "b")),
            (("1/a", "1/b - 2/a"), ("0", "1/b")),
            (("1", "1"), ("0", "1")),
        ),
        classes=(("a", "b"), ("1/a", "1/b"), "regular_unipotent"),
        label="inverse-pair solution, first point",
    ),
    WitnessSpec(
        family="GL",
        size=2,
        symbols=("a", "b"),
        relations=(),
        constraints=("a - b",),
        matrices=(
            (("b", "a - b"), ("0", "a")),
            (("1/b", "1/a - 2/b"), ("0", "1/a")),
            (("1", "1"), ("0", "1")),
        ),
        classes=(("a", "b"), ("1/a", "1/b"), "regular_unipotent"),
        label="inverse-pair solution, second point",
    ),
)

GL2_TWO_UNIPOTENT_TRIPLE = WitnessSpec(
    family="GL",
    size=2,
    symbols=("a",),
    relations=(),
    constraints=("a - 1", "a + 1"),
    matrices=(
        (
            ("a + 1/a", "a/(a**2 - 2*a + 1)"),
            ("-a + 2 - 1/a", "0"),
        ),
        (
            ("0", "-a/(a**2 - 2*a + 1)"),
            ("a - 2 + 1/a", "2"),
        ),
        (("1", "1"), ("0", "1")),
    ),
    classes=(("a", "1/a"), "regular_unipotent", "regular_unipotent"),
    label="one semisimple class with two unipotents",
)

PGL2_RIGID_TRIPLES = (
    WitnessSpec(
        family="PGL",
        size=2,
        symbols=("a", "b", "t"),
        relations=("a*b = t^2",),
        constraints=("a - 1", "a + 1", "b - 1", "b + 1"),
        matrices=(
            (("a*t", "0"), ("(t - a)*(t - 1)", "t")),
            (("-t", "t"), ("(t - a)*(t - 1)", "-t**2 + t - a")),
            (("1", "1"), ("0", "1")),
        ),
        classes=(("a",), ("b",), "regular_unipotent"),
        label="rigid projective solution, first point",
    ),
    WitnessSpec(
        family="PGL",
        size=2,
        symbols=("a", "b", "t"),
        relations=("a*b = t^2",),
        constraints=("a - 1", "a + 1", "b - 1", "b + 1"),
        matrices=(
            (("a*t", "0"), ("-(t + a)*(t + 1)", "t")),
            (("-t", "t"), ("-(t + a)*(t + 1)", "t**2 + t + a")),
            (("1", "1"), ("0", "1")),
        ),
        classes=(("a",), ("b",), "regular_unipotent"),
        label="rigid projective solution, second point",
    ),
)
