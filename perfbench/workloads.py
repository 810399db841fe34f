"""Seeded problem sets for the charvar benchmark.

Each workload is a short list of problems.  A problem is one `charvar`
subcommand on one generated JSON config; the benchmark runs every problem
as its own cold CLI process.  The same (workload, seed) always yields the
same configs and arguments.

Why these workloads (the layer each one loads, measured in cold processes):

* ``translates``: `count` with m = 2..5 semisimple classes.  The |W|^m
  translate products and their membership tests (charsum, abelian) take
  ~90% of the time on small posets; GL(3) with m = 5 is the largest.
* ``genus-rank``: `count --table` with m = 1 at high genus or rank.  Only
  |W| translates but large Poincare exponents, so `Fraction` polynomial
  post-processing (qpoly) and Weyl-subgroup enumeration (rootdata) lead.
  The seed is unused.
* ``poset``: `poset` on B4, C4 and D4.  No eigenvalues, so charsum is
  bypassed; closure, all-pairs Mobius and labels carry the time.  The seed
  is unused.
* ``oracle``: brute-force enumeration over F_q for GL(2)/PGL(2).  The only
  workload where the oracle works; it bypasses large posets.  The seed
  picks the sampled eigenvalues (`oracle --seed`).

The problems are sized so that a pass takes a few seconds: medians over
several passes per run are much steadier than one long process.  GL(4)
with m = 3 (~12 s, 207k membership tests) and the F4 poset (~13 s, 447
nodes) would each fill a whole run on their own.

Seeded variation keeps the work per problem constant.  In ``translates``
the seed draws 0-2 extra relations, each equating a random monomial in the
class symbols to a power of a fresh symbol ``t_k``: no relation without
``t_k`` follows from it, so no two translate products collapse and the
number of membership tests is the same for every seed, while the
membership answers (and so the polynomial) do change.  The symbols ``t1``,
``t2`` are always declared so the eigenvalue group has the same width
whether 0, 1 or 2 extra relations are drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("translates", "genus-rank", "poset", "oracle")


@dataclass(frozen=True)
class Problem:
    """One CLI invocation: ``charvar <command> --config CFG <args>``."""

    name: str
    command: str
    config: dict
    args: tuple[str, ...] = ()
    largest: bool = False
    check: bool = True  # validate with `charvar check` during set-up


def _extra_relations(rng: random.Random, symbols: list[str]) -> list[str]:
    relations = []
    for k in range(1, rng.randint(0, 2) + 1):
        picked = rng.sample(symbols, rng.randint(2, 3))
        monomial = "*".join(
            f"{s}^{rng.choice((-3, -2, -1, 1, 2, 3))}" for s in picked
        )
        relations.append(f"{monomial} = t{k}^{rng.choice((2, 3))}")
    return relations


def _semisimple_config(
    group: str,
    genus: int,
    punctures: int,
    rank: int,
    m: int,
    rng: random.Random,
    det_one: bool = True,
    extra: bool = True,
) -> dict:
    """Config with m generic classes, one fresh symbol per coordinate.

    ``det_one`` adds the relation that the product of all eigenvalues is 1,
    which puts the class product in the commutator subgroup of GL(n).
    """
    classes = [[f"{'abcdef'[k]}{i}" for i in range(1, rank + 1)] for k in range(m)]
    class_symbols = [s for coords in classes for s in coords]
    relations = ["*".join(class_symbols) + " = 1"] if det_one else []
    if extra:
        relations += _extra_relations(rng, class_symbols)
    return {
        "schema_version": 1,
        "group": group,
        "genus": genus,
        "punctures": punctures,
        "eigenvalues": {
            "symbols": class_symbols + (["t1", "t2"] if extra else []),
            "relations": relations,
        },
        "classes": [{"type": "semisimple", "coords": c} for c in classes],
    }


def _translates(rng: random.Random, seed: int) -> list[Problem]:
    return [
        Problem("gl3_m5_n6", "count",
                _semisimple_config("GL(3)", 0, 6, 3, 5, rng), largest=True),
        Problem("gl4_m2_n3", "count",
                _semisimple_config("GL(4)", 0, 3, 4, 2, rng)),
        Problem("gl3_m4_n5", "count",
                _semisimple_config("GL(3)", 0, 5, 3, 4, rng)),
        Problem("g2_m3_n4", "count",
                _semisimple_config("G2", 0, 4, 2, 3, rng, det_one=False)),
    ]


def _genus_rank(rng: random.Random, seed: int) -> list[Problem]:
    # No seeded relations: here they change the polynomial's factors, and
    # factoring is most of the work, so the cost would vary with the seed.
    def config(group, genus, rank):
        return _semisimple_config(group, genus, 2, rank, 1, rng, extra=False)

    table = ("--table",)
    return [
        Problem("gl3_genus12", "count", config("GL(3)", 12, 3), table,
                largest=True),
        Problem("gl5_genus1", "count", config("GL(5)", 1, 5), table),
        Problem("gl4_genus4", "count", config("GL(4)", 4, 4), table),
    ]


def _poset(rng: random.Random, seed: int) -> list[Problem]:
    return [
        Problem(f"{group.lower()}_poset", "poset",
                {"schema_version": 1, "group": group}, largest=group == "B4",
                check=False)
        for group in ("B4", "C4", "D4")
    ]


def _oracle(rng: random.Random, seed: int) -> list[Problem]:
    def config(group, genus, punctures, rank, m, q):
        base = _semisimple_config(group, genus, punctures, rank, m, rng,
                                  extra=False)
        base["oracle"] = {"q": [q]}
        return base

    # PGL(2) needs the eigenvalue ratio to be a square to be non-empty.
    pgl2 = config("GL(2)", 1, 2, 1, 1, 11)
    pgl2["group"] = "PGL(2)"
    pgl2["eigenvalues"] = {"symbols": ["a1", "s"], "relations": ["a1 = s^2"]}

    args = ("--threads", "1", "--seed", str(seed))
    return [
        Problem("gl2_genus0_n4_q7", "oracle", config("GL(2)", 0, 4, 2, 3, 7),
                args),
        Problem("gl2_genus1_q7", "oracle", config("GL(2)", 1, 2, 2, 1, 7),
                args, largest=True),
        Problem("pgl2_genus1_q11", "oracle", pgl2, args),
        Problem("gl2_genus2_q5", "oracle", config("GL(2)", 2, 2, 2, 1, 5),
                args),
    ]


_BUILDERS = {
    "translates": _translates,
    "genus-rank": _genus_rank,
    "poset": _poset,
    "oracle": _oracle,
}


def problems(workload: str, seed: int, attempt: int = 0) -> list[Problem]:
    """The workload's problems for this seed.

    ``attempt`` redraws the random relations when set-up rejects a draw.
    """
    rng = random.Random(f"charvar-bench/{workload}/{seed}/{attempt}")
    return _BUILDERS[workload](rng, seed)
