"""Slow, literal reference for the brute-force oracle's tests.

The generic matrix kernels (``mat_mul``, ``char_poly``, ``is_scalar``,
``min_poly_degree``) and the group operations built on them
(``canonical``, ``mul``, ``inv``, ``class_key``, each taking the family and
q first) are the direct forms of ``charvar.oracle.FiniteGroupModel``'s
fixed-size 2x2 and 3x3 code, which must agree with them on every element.

``listed_gl_elements`` enumerates GL(n, F_q) the direct way: every
entry tuple in ``itertools.product`` order, kept when its determinant is
nonzero.  ``rescaled_pgl_elements`` enumerates PGL(2, F_q): every
invertible matrix, rescaled so its first nonzero entry is 1, deduplicated
in the order met.  ``charvar.oracle.build_model`` must list the same
elements in the same order.

``members`` lists a class's elements by filtering the model's elements
on ``class_key``.  ``reference_count`` counts the same tuples as
``charvar.oracle.brute_force_count`` the direct way: the commutator histogram forms
a b a^-1 b^-1 for every class representative a and every b in G, the
puncture count recurses over every tuple X_1 .. X_{n-1} of class members
and membership-tests the product, and each further handle is one
convolution over G.  It raises the same ``InternalConsistencyError`` codes
as the oracle and shares only the group model with it.
"""

from __future__ import annotations

import itertools
from collections import Counter

from charvar.errors import InternalConsistencyError
from charvar.oracle import _det, _legendre, _mat_inv


def mat_mul(a, b, q):
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % q for col in cols)
        for row in a
    )


def char_poly(m, q) -> tuple[int, ...]:
    """Non-leading coefficients (c_0, .., c_{n-1}) of det(xI - m) mod q."""
    if len(m) == 2:
        tr = m[0][0] + m[1][1]
        return (_det(m, q), (-tr) % q)
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = (
        m[1][1] * m[2][2] - m[1][2] * m[2][1],
        m[0][0] * m[2][2] - m[0][2] * m[2][0],
        m[0][0] * m[1][1] - m[0][1] * m[1][0],
    )
    return ((-_det(m, q)) % q, sum(minors) % q, (-tr) % q)


def is_scalar(m) -> bool:
    size = len(m)
    return all(
        m[i][j] == (m[0][0] if i == j else 0)
        for i in range(size)
        for j in range(size)
    )


def min_poly_degree(m, q) -> int:
    """Degree of the minimal polynomial of m over F_q (size <= 3)."""
    if is_scalar(m):
        return 1
    size = len(m)
    if size == 2:
        return 2
    # size 3, non-scalar: degree 2 iff m^2 = x*m + y*I for some x, y.
    m2 = mat_mul(m, m, q)
    x = None
    for i in range(3):
        for j in range(3):
            if i != j and m[i][j] % q:
                x = (m2[i][j] * pow(m[i][j], q - 2, q)) % q
                break
        if x is not None:
            break
    if x is None:
        # m is diagonal and non-scalar: use two distinct diagonal entries.
        for i in range(1, 3):
            diff = (m[i][i] - m[0][0]) % q
            if diff:
                x = ((m2[i][i] - m2[0][0]) * pow(diff, q - 2, q)) % q
                break
    y = (m2[0][0] - x * m[0][0]) % q
    for i in range(3):
        for j in range(3):
            expect = (x * m[i][j] + (y if i == j else 0)) % q
            if m2[i][j] != expect:
                return 3
    return 2


def canonical(family, q, m):
    if family == "GL":
        return m
    flat = [x for row in m for x in row]
    lead = next(x for x in flat if x)
    scale = pow(lead, q - 2, q)
    return tuple(tuple((x * scale) % q for x in row) for row in m)


def mul(family, q, a, b):
    return canonical(family, q, mat_mul(a, b, q))


def inv(family, q, a):
    return canonical(family, q, _mat_inv(a, q))


def class_key(family, q, m) -> tuple:
    if family == "GL":
        return ("gl", char_poly(m, q), min_poly_degree(m, q))
    m = canonical(family, q, m)
    if is_scalar(m):
        return ("pgl-central",)
    tr = (m[0][0] + m[1][1]) % q
    t = (tr * tr * pow(_det(m, q), q - 2, q)) % q
    if t == 4 % q:
        return ("pgl-unipotent",)
    if t == 0:
        return ("pgl-order2", _legendre(_det(m, q), q))
    return ("pgl-ss", t)


def listed_gl_elements(size: int, q: int) -> tuple:
    elements = []
    for entries in itertools.product(range(q), repeat=size * size):
        m = tuple(entries[i * size : (i + 1) * size] for i in range(size))
        if _det(m, q):
            elements.append(m)
    return tuple(elements)


def rescaled_pgl_elements(q: int) -> tuple:
    elements, seen = [], set()
    for entries in itertools.product(range(q), repeat=4):
        m = (entries[:2], entries[2:])
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q == 0:
            continue
        scale = pow(next(x for x in entries if x), q - 2, q)
        m = tuple(tuple((x * scale) % q for x in row) for row in m)
        if m not in seen:
            seen.add(m)
            elements.append(m)
    return tuple(elements)


def members(model, key) -> list:
    """The elements of the model whose class key is ``key``, in element order."""
    return [m for m in model.elements if class_key(model.family, model.q, m) == key]


def _identity(size):
    return tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )


def _leaf_count(model, prefix, member_lists, target_key) -> int:
    if not member_lists:
        return 1 if model.class_key(prefix) == target_key else 0
    head = member_lists[0]
    tail = member_lists[1:]
    mul = model.mul
    if not tail:
        key_of = model.class_key
        return sum(
            1 for x in head if key_of(mul(prefix, x)) == target_key
        )
    return sum(_leaf_count(model, mul(prefix, x), tail, target_key) for x in head)


def _commutator_distribution(model) -> dict:
    table = model.class_table()
    inverses = {m: model.inv(m) for m in model.elements}
    mul = model.mul
    key_of = model.class_key
    hist: Counter = Counter()
    for rep_a, size_a in table.values():
        a_inv = inverses[rep_a]
        for b in model.elements:
            comm = mul(mul(rep_a, b), mul(a_inv, inverses[b]))
            hist[key_of(comm)] += size_a
    order = model.order
    if sum(hist.values()) != order * order:
        raise InternalConsistencyError(
            "oracle-distribution",
            "commutator histogram does not account for |G|^2 pairs",
        )
    dist = {}
    for key, (rep, size) in table.items():
        total = hist.get(key, 0)
        if total % size:
            raise InternalConsistencyError(
                "oracle-distribution",
                f"commutator count onto class {key} is not a class function",
            )
        dist[key] = total // size
    return dist


def _convolve(model, v, v1) -> dict:
    table = model.class_table()
    inverses = {m: model.inv(m) for m in model.elements}
    key_of = model.class_key
    mul = model.mul
    out = {}
    for key, (rep, _size) in table.items():
        out[key] = sum(
            v[key_of(p)] * v1[key_of(mul(inverses[p], rep))]
            for p in model.elements
        )
    return out


def reference_count(model, genus, classes) -> int:
    """Points of the character variety by direct enumeration of the punctures."""
    table = model.class_table()
    target_key = model.class_key(model.inv(classes[-1].rep))
    member_lists = [members(model, cls.key) for cls in classes[:-1]]
    if genus == 0:
        total = _leaf_count(model, _identity(model.size), member_lists, target_key)
    else:
        v1 = _commutator_distribution(model)
        v = v1
        for _ in range(genus - 1):
            v = _convolve(model, v, v1)
        check = sum(size * v[key] for key, (_rep, size) in table.items())
        if check != model.order ** (2 * genus):
            raise InternalConsistencyError(
                "oracle-distribution",
                f"genus-{genus} handle distribution does not sum to |G|^2g",
            )
        total = 0
        for key, (rep, size) in table.items():
            if v[key]:
                leaves = _leaf_count(model, rep, member_lists, target_key)
                total += size * v[key] * leaves
    if total % model.quotient_order:
        raise InternalConsistencyError(
            "oracle-division",
            f"solution count {total} is not divisible by "
            f"|G/Z| = {model.quotient_order}",
        )
    return total // model.quotient_order
