"""The CLI's ``oracle`` command: the formula against brute force at primes q.

The package registers this module lazily, so only an ``oracle`` process
runs it, and with it the brute-force ``oracle`` module.
"""

from __future__ import annotations

import random

from . import charsum, count, oracle
from .cli import check_keys, envelope, field_int, field_str, is_int, load_config
from .cli_count import build_problem, polynomial_payload
from .errors import InvalidInputError, ResourceLimitError


class UnitSpecialization:
    """Eigenvalue specializations of one problem into F_q^x, q prime.

    F_q^x = <g | g^(q-1)> = Z/(q-1) for a primitive root g.  Through their
    discrete logs, values v_s give phi: Z^symbols -> Z/(q-1),
    e -> sum e_s log_g v_s, a homomorphism on A exactly when every declared
    relator maps to 0 (a value 0 mod q has no log at all).  ``specialize``
    rewrites each coordinate word w of the problem as the word (phi(w),)
    over <g>.

    The values are *faithful* when every closed subsystem without an
    override sees the same dying W^m-translate tuples over Z/(q-1) as over
    A; values with extra multiplicative relations (easy in a small field)
    specialize a different counting problem.  ``faithful`` compares the
    counting engine's pass counts over A (``symbolic``: the record's, by
    Weyl orbit without an override) with those of a ``count.Engine`` of
    the specialized problem on the same orbits.  Equal counts suffice:
    phi is a homomorphism, so every tuple that dies in (X^vee/<Psi>) (x) A also
    dies in (X^vee/<Psi>) (x) Z/(q-1), and with equal counts no other tuple can.
    Comparing per orbit loses nothing, because an orbit's count is the
    number D(Psi) of dying tuples at each of its members: the same numbers
    a per-node comparison would see.
    """

    def __init__(self, spec: count.ProblemSpec, q: int, symbolic: dict[int, int]):
        self.spec, self.q, self.symbolic = spec, q, symbolic
        self.g = next(
            g for g in range(1, q)
            if len({pow(g, k, q) for k in range(q - 1)}) == q - 1
        )
        self.logs = {pow(self.g, k, q): k for k in range(q - 1)}
        self.datum = charsum.EigenvalueDatum(("g",), (f"g^{q - 1}",))

    def specialize(self, values: dict) -> count.ProblemSpec | None:
        """The problem over <g> at ``values`` (residues mod q), or None.

        None when phi is not defined on A (a value is 0 mod q or a declared
        relator survives) or a class is not strongly regular at the values:
        ``strongly_regular`` over <g>, the test ``validate_problem`` applies.
        """
        datum = self.spec.eigenvalues
        if any(values[s] not in self.logs for s in datum.symbols):
            return None
        phi = [self.logs[values[s]] for s in datum.symbols]

        def image(word) -> tuple[int]:
            return (sum(e * k for e, k in zip(word, phi)) % (self.q - 1),)

        if any(image(r)[0] for r in datum.group.relations):
            return None
        concrete = self.spec._replace(
            eigenvalues=self.datum,
            semisimple_classes=tuple(
                charsum.SymbolicTorusElement(self.datum, tuple(map(image, s.coords)))
                for s in self.spec.semisimple_classes
            ),
        )
        classes = concrete.semisimple_classes
        if not all(charsum.strongly_regular(concrete.rd, s) for s in classes):
            return None
        return concrete

    def eigenvalues(self, concrete: count.ProblemSpec) -> list[tuple[int, ...]]:
        """Per class, its eigenvalues g^phi(w) mod q."""
        return [
            tuple(pow(self.g, w[0], self.q) for w in s.coords)
            for s in concrete.semisimple_classes
        ]

    def faithful(self, concrete: count.ProblemSpec) -> bool:
        return self.symbolic.items() <= count.Engine(concrete).pass_counts.items()


def cmd_oracle(args) -> tuple[int, dict, str]:
    config = load_config(args.config)
    spec = build_problem(config)
    group = field_str(config, "group")
    normalized = group.replace(" ", "")
    if normalized not in oracle.GROUPS:
        raise InvalidInputError(
            "oracle-group",
            f"the brute-force oracle supports {', '.join(oracle.GROUPS)}; "
            f"got {group!r}",
        )
    family, size = oracle.GROUPS[normalized]
    section = config.get("oracle", {})
    if not isinstance(section, dict):
        raise InvalidInputError("config-field", "'oracle' must be an object")
    check_keys(
        section, {"q", "eigenvalues", "budget", "threads"}, "unknown oracle keys: "
    )
    if args.q is not None:
        q_list = [args.q]
    else:
        q_list = section.get("q")
        if not q_list or not isinstance(q_list, list) or not all(map(is_int, q_list)):
            raise InvalidInputError(
                "config-field",
                "oracle runs need a prime list: config oracle.q or --q",
            )
    budget = (
        args.budget
        if args.budget is not None
        else field_int(section, "budget", oracle.DEFAULT_ORACLE_BUDGET)
    )
    threads = (
        args.threads if args.threads is not None else field_int(section, "threads", 1)
    )
    if threads < 1:
        raise InvalidInputError("oracle-input", "threads must be >= 1")
    explicit_values = section.get("eigenvalues")
    if explicit_values is not None and (
        not isinstance(explicit_values, dict)
        or set(explicit_values) != set(spec.eigenvalues.symbols)
        or not all(map(is_int, explicit_values.values()))
    ):
        raise InvalidInputError(
            "config-field",
            "oracle.eigenvalues must give an integer for exactly the "
            f"symbols {spec.eigenvalues.symbols}",
        )

    engine = count.Engine(spec)
    report = count.count_polynomial(engine)
    overridden = engine.overrides  # resolved before any orbit is counted
    symbolic = {k: n for k, n in engine.pass_counts.items() if k not in overridden}
    runs = []
    verdict_ok = True
    for q in q_list:
        oracle.check_field(family, size, q)
        units = UnitSpecialization(spec, q, symbolic)
        sampled = False
        if explicit_values is not None:
            values = {s: v % q for s, v in explicit_values.items()}
            concrete = units.specialize(values)
            if concrete is None:
                raise InvalidInputError(
                    "oracle-values",
                    f"oracle eigenvalues {explicit_values} violate the "
                    f"declared relations or class regularity mod {q}",
                )
            if not units.faithful(concrete):
                raise InvalidInputError(
                    "oracle-values",
                    f"oracle eigenvalues {explicit_values} satisfy extra "
                    f"multiplicative relations mod {q} beyond the declared "
                    "ones, so they specialize a different counting problem; "
                    "choose values that only satisfy the declared relations",
                )
        else:
            rng = random.Random(args.seed)
            for _ in range(200):
                values = {
                    s: rng.randrange(1, q) for s in spec.eigenvalues.symbols
                }
                concrete = units.specialize(values)
                if concrete is not None and units.faithful(concrete):
                    sampled = True
                    break
            else:
                raise ResourceLimitError(
                    "oracle-specialization",
                    f"no admissible eigenvalue specialization mod {q} "
                    "(satisfying exactly the declared relations) found in "
                    "200 attempts; the field may be too small",
                )
        kinds = ("semisimple",) * spec.m + ("regular_unipotent",) * (
            spec.punctures - spec.m
        )
        oracle.check_enumeration(family, size, q, spec.genus, kinds, budget=budget)
        model = oracle.build_model(family, size, q)
        classes = tuple(
            oracle.semisimple_class(model, eigen)
            for eigen in units.eigenvalues(concrete)
        ) + (oracle.regular_unipotent_class(model),) * (spec.punctures - spec.m)
        oracle_count = oracle.brute_force_count(
            model, spec.genus, classes, budget=budget
        )
        formula_value = report.polynomial.evaluate(q)
        admissible = q not in report.excluded_primes and (
            report.validity_modulus == 1 or q % report.validity_modulus == 1
        )
        match = oracle_count == formula_value
        if admissible and not match:
            verdict_ok = False
        runs.append(
            {
                "q": q,
                "eigenvalues": {k: values[k] for k in sorted(values)},
                "sampled": sampled,
                "seed": args.seed if sampled else None,
                "oracle_count": oracle_count,
                "formula_value": formula_value,
                "admissible": admissible,
                "match": match,
            }
        )
    payload = envelope("oracle")
    payload.update(
        {
            "group": spec.rd.label,
            "genus": spec.genus,
            "punctures": spec.punctures,
            "polynomial": polynomial_payload(report),
            "runs": runs,
            "verdict": "match" if verdict_ok else "mismatch",
        }
    )
    lines = [
        f"oracle comparison for {spec.rd.label}, genus {spec.genus}, "
        f"{spec.punctures} punctures",
        f"formula: |X(F_q)| = {report.polynomial}",
    ]
    for run in runs:
        values_str = ", ".join(f"{k}={v}" for k, v in run["eigenvalues"].items())
        mark = "MATCH" if run["match"] else "MISMATCH"
        note = "" if run["admissible"] else " (q outside the validity range)"
        sampled_note = f" [sampled, seed {run['seed']}]" if run["sampled"] else ""
        lines.append(
            f"q = {run['q']}: eigenvalues {{{values_str}}}{sampled_note}  "
            f"oracle {run['oracle_count']}  formula {run['formula_value']}  "
            f"{mark}{note}"
        )
    lines.append(f"verdict: {payload['verdict'].upper()}")
    return (0 if verdict_ok else 4), payload, "\n".join(lines)
