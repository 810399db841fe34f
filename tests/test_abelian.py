"""Smith normal form, lattice quotients, and finitely presented abelian groups."""

import itertools
import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from translate_reference import is_identity

from charvar.abelian import (
    FPAbelianGroup,
    canonical_word,
    is_prime,
    prime_factors,
    quotient_invariants,
    smith_normal_form,
)
from charvar.reference import is_dth_power

entries = st.integers(min_value=-9, max_value=9)


def mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(len(a))
    )


def det(m):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_divisors(m):
    """g_k / g_(k-1) while g_k, the gcd of the k x k minors, is nonzero."""
    rows, cols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                g = math.gcd(g, det([[m[i][j] for j in c] for i in r]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def assert_smith_basis(snf):
    """V is unimodular and column j of M V is a multiple of d_j, zero past the rank."""
    assert det(snf.V) in (1, -1)
    steps = snf.divisors + (0,) * (len(snf.V) - len(snf.divisors))
    for row in mat_mul(snf.matrix, snf.V):
        for x, d in zip(row, steps):
            assert x % d == 0 if d else x == 0


def matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@given(matrices())
@settings(max_examples=150)
def test_snf_factorization_and_invariants(m):
    snf = smith_normal_form(m)
    assert_smith_basis(snf)
    assert snf.divisors == determinantal_divisors(m)
    # diagonal, nonnegative, divisibility chain, zeros last
    rows, cols = len(snf.D), len(snf.D[0]) if snf.D else 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.D[i][j] == 0
    diag = [snf.D[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    assert snf.divisors == tuple(d for d in diag if d != 0)


@given(matrices())
@settings(max_examples=60)
def test_snf_diagonal_matches_sympy(m):
    ours = smith_normal_form(m).divisors
    theirs = sympy_snf(sympy.Matrix(m))
    sy = [abs(theirs[i, i]) for i in range(min(theirs.shape)) if theirs[i, i] != 0]
    assert list(ours) == sy


# relator matrices with entries at most 12 on which naive elimination (pivot
# once per position, then repair the divisibility chain from position 0)
# grows entries of tens of thousands of bits and takes seconds to minutes
M1 = (
    (0, 3, -2, 2, -6, 0), (-6, 1, -6, 1, 12, 3), (2, 0, 4, -1, 1, 0),
    (4, -6, 0, -2, 0, -6), (1, 0, 2, -1, 0, -2), (0, 4, 2, -1, 0, -2),
    (0, -6, 0, 0, 4, 3), (4, 3, 1, 12, 1, -1),
)
M2 = (
    (3, -2, -2, -2, -6, 0, 4, 4), (-2, 4, 1, 0, 1, 0, 2, 0), (0, 4, 0, -1, 0, 0, 3, 0),
    (3, 0, 0, 2, 0, 12, 0, -2), (2, 3, 3, -6, 12, 1, -6, 0), (0, 12, -6, 1, 3, 2, 2, 3),
    (0, -2, -2, 3, 1, 1, 0, 3), (3, -1, 1, -6, 0, 0, -6, 1), (0, 0, 2, 4, -2, 0, 1, 0),
    (-6, -1, 0, 2, 1, 3, 3, 1),
)


def sympy_divisors(m):
    theirs = sympy_snf(sympy.Matrix(m))
    return tuple(abs(theirs[i, i]) for i in range(min(theirs.shape)) if theirs[i, i] != 0)


def transform_bits(snf):
    return max(abs(x).bit_length() for row in snf.V for x in row)


@pytest.mark.parametrize("m, divisors", [(M1, (1,) * 6), (M2, (1,) * 7 + (5,))])
def test_snf_small_transforms_on_relator_matrices(m, divisors):
    snf = smith_normal_form(m)
    assert snf.divisors == divisors == sympy_divisors(m)
    assert_smith_basis(snf)
    assert transform_bits(snf) <= 64


relator_entries = st.sampled_from([0, 1, -1, 2, -2, 3, -3, 4, -6, 12])


@given(
    st.integers(1, 16).flatmap(
        lambda r: st.integers(1, 12).flatmap(
            lambda c: st.lists(
                st.lists(relator_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_snf_transforms_stay_small(m):
    snf = smith_normal_form(m)
    assert snf.divisors == sympy_divisors(m)
    assert_smith_basis(snf)
    assert transform_bits(snf) <= 256


def test_snf_edge_cases():
    assert smith_normal_form([[2]]).divisors == (2,)
    assert smith_normal_form([[0, 0], [0, 0]]).divisors == ()
    q = quotient_invariants(2, [])
    assert q.free_rank == 2 and q.torsion == ()


@given(matrices(max_dim=3), st.permutations(range(3)))
@settings(max_examples=60)
def test_quotient_invariants_basis_independent(m, perm):
    cols = len(m[0])
    q1 = quotient_invariants(cols, m)
    # permute generator rows and add a multiple of one row to another
    rows = [list(r) for r in m]
    rows_permuted = [rows[i % len(rows)] for i in perm][: len(rows)]
    if len(rows) >= 2:
        rows2 = [list(r) for r in m]
        rows2[0] = [a + 3 * b for a, b in zip(rows2[0], rows2[1])]
    else:
        rows2 = rows
    assert quotient_invariants(cols, rows2) == q1
    # unimodular change of ambient basis: permute coordinates
    if cols == 3:
        cperm = [[1 if j == perm[i] else 0 for j in range(3)] for i in range(3)]
        transformed = [list(r) for r in mat_mul(m, cperm)]
        assert quotient_invariants(cols, transformed) == q1


def test_quotient_examples():
    # index-2 sublattice of Z: the coroot of a rank-1 simply connected group
    assert quotient_invariants(1, [[2]]).torsion == (2,)
    # Z^2 / <2e1, 2e2> = (Z/2)^2
    q = quotient_invariants(2, [[2, 0], [0, 2]])
    assert q.free_rank == 0 and q.torsion == (2, 2) and q.torsion_order == 4
    assert q.describe() == "(Z/2)^2"
    # Z^2 / <e1 - e2> = Z
    q = quotient_invariants(2, [[1, -1]])
    assert q.free_rank == 1 and q.torsion == () and q.describe() == "Z"
    assert quotient_invariants(2, [[2, 0]]).describe() == "Z x Z/2"
    assert quotient_invariants(2, [[1, 0], [0, 1]]).describe() == "1"


def test_weight_mod_root_lattice_torsion_for_sl_n():
    # SL_n in fundamental-weight coordinates: simple roots are Cartan columns;
    # the weight/root quotient has order n.
    for n in range(2, 6):
        cartan = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n - 1)]
            for i in range(n - 1)
        ]
        q = quotient_invariants(n - 1, cartan)
        assert q.free_rank == 0
        assert q.torsion_order == n


def test_word_problem():
    A = FPAbelianGroup(2, ((1, 1),))
    assert is_identity(A, (1, 1))
    assert not is_identity(A, (2, 0))
    assert is_identity(A, (0, 0))
    assert is_identity(A, (2, 2))
    free = FPAbelianGroup(1, ())
    assert is_identity(free, (0,))
    assert not is_identity(free, (3,))


def test_dth_power():
    # <a,b,t | a b t^-2>: ab is a declared square
    A = FPAbelianGroup(3, ((1, 1, -2),))
    assert is_dth_power(A, (1, 1, 0), 2)
    # and so is a/b = (t/b)^2 modulo the relation
    assert is_dth_power(A, (1, -1, 0), 2)
    assert not is_dth_power(A, (1, 0, 0), 2)
    free = FPAbelianGroup(2, ())
    assert not is_dth_power(free, (1, 1), 2)
    assert is_dth_power(free, (2, -4), 2)
    assert is_dth_power(free, (0, 0), 7)


@given(
    st.lists(st.lists(entries, min_size=3, max_size=3), min_size=0, max_size=3),
    st.lists(entries, min_size=3, max_size=3),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100)
def test_dth_power_consistency(rels, y, d):
    A = FPAbelianGroup(3, tuple(tuple(r) for r in rels))
    assert is_dth_power(A, [0, 0, 0], d)
    assert is_dth_power(A, y, 1)
    # an explicit d-th power is recognized, also after shifting by a relator
    word = [d * x for x in y]
    assert is_dth_power(A, word, d)
    if rels:
        shifted = [a + b for a, b in zip(word, rels[0])]
        assert is_dth_power(A, shifted, d)


@given(
    st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(entries, min_size=3, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
)
@settings(max_examples=100)
def test_canonical_word_constant_on_cosets(rels, w, combo):
    A = FPAbelianGroup(3, tuple(tuple(r) for r in rels))
    shift = [sum(c * r[i] for c, r in zip(combo, rels)) for i in range(3)]
    w2 = [a + b for a, b in zip(w, shift)]
    assert canonical_word(A, w) == canonical_word(A, w2)
    assert is_identity(A, [a - b for a, b in zip(w, w2)])


# 0, +-1, 2, negatives, Carmichael numbers (561 first), squares of primes and
# the primes just above 2^16, where factor's cyclotomic filter looks for one
PRIME_SAMPLE = sorted(
    set(range(-60, 1200))
    | {561, 1105, 1729, 2465, 41041, 97 ** 2, 65537 ** 2, 2 ** 31 - 1}
    | set(range(2 ** 16 - 40, 2 ** 16 + 400))
    | {-(2 ** 16 + 1), -561, 3 * (10 ** 9 + 7), 2 ** 40}
)


def test_prime_helpers_match_sympy():
    for n in PRIME_SAMPLE:
        assert prime_factors(n) == sympy.primefactors(n), n
        assert is_prime(n) == sympy.isprime(n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-(10 ** 9), max_value=10 ** 9))
def test_prime_helpers_match_sympy_on_random_integers(n):
    assert prime_factors(n) == sympy.primefactors(n)
    assert is_prime(n) == sympy.isprime(n)
