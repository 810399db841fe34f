"""Slow, literal reference for the brute-force oracle's tests.

``rescaled_pgl_elements`` enumerates PGL(2, F_q) the direct way: every
invertible matrix, rescaled so its first nonzero entry is 1, deduplicated
in the order met; ``charvar.oracle.build_model`` must list the same
elements in the same order.

``reference_count`` counts the same tuples as ``charvar.oracle.
brute_force_count`` the direct way: the commutator histogram forms
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
        key_of = model.element_key
        return sum(
            1 for x in head if key_of(mul(prefix, x)) == target_key
        )
    return sum(_leaf_count(model, mul(prefix, x), tail, target_key) for x in head)


def _commutator_distribution(model) -> dict:
    table = model.class_table()
    inverses = model.inverse_table
    mul = model.mul
    key_of = model.element_key
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
    inverses = model.inverse_table
    key_of = model.element_key
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
    member_lists = [list(model.members(cls.key)) for cls in classes[:-1]]
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
