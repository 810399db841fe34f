"""Command-line interface: count, poset, table, oracle, check.

Configs are JSON documents (schema version 1):

    {
      "schema_version": 1,
      "group": "GL(2)",                  # root-datum descriptor
      "genus": 1,
      "punctures": 2,
      "eigenvalues": {                   # optional when no symbols are used
        "symbols": ["a", "b"],
        "relations": ["a*b = 1"]
      },
      "classes": [                       # the semisimple class assignments;
        {"type": "semisimple", "coords": ["a", "b"]},
        {"type": "regular_unipotent"}    # unipotent entries are optional --
      ],                                 # remaining punctures are unipotent
      "overrides": {"A1": true},         # optional indicator overrides
      "oracle": {                        # optional; used by `oracle`
        "q": [5, 7],
        "eigenvalues": {"a": 2, "b": 3}, # concrete values; sampled if absent.
        "budget": 1000000000,            # either way the values must satisfy
        "threads": 1                     # exactly the declared relations mod q
      },
      "description": "free-text note"
    }

Every command reads ``--config`` and prints an aligned text report;
``--json PATH`` additionally writes a JSON payload.  Repeated runs on an
identical config produce byte-identical JSON apart from the
``generated_at`` timestamp.  Exit codes: 0 success (for ``oracle``:
agreement), 2 invalid input or a failed hypothesis, 3 resource limit
exceeded, 4 internal inconsistency (including an oracle mismatch at an
admissible q).

The engine modules are bound as modules (``count.count_polynomial``,
``oracle.build_model``), not imported by name: the package registers
``count``, ``charsum`` and ``oracle`` lazily, so each runs only when a
command first uses it.  ``poset`` runs none of them, ``count``, ``table``
and ``check`` never run ``oracle``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import charsum, count, oracle
from .errors import CharvarError, InvalidInputError, ResourceLimitError
from .rootdata import admissible_primes, build_root_datum, modulus
from .subsystems import build_poset

SCHEMA_VERSION = 1

_CONFIG_KEYS = {
    "schema_version",
    "group",
    "genus",
    "punctures",
    "eigenvalues",
    "classes",
    "overrides",
    "oracle",
    "description",
}


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as err:
        raise InvalidInputError("config-file", f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise InvalidInputError(
            "config-parse",
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}",
        )
    except (ValueError, RecursionError) as err:  # too many digits, not UTF-8, too deep
        raise InvalidInputError("config-parse", f"{path}: {err}")
    if not isinstance(config, dict):
        raise InvalidInputError(
            "config-parse", f"{path}: top level must be a JSON object"
        )
    _check_keys(config, _CONFIG_KEYS, "unknown config keys: ")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidInputError(
            "config-field",
            f"schema_version {version!r} is not supported (expected "
            f"{SCHEMA_VERSION})",
        )
    return config


def _check_keys(section: dict, allowed: set[str], prefix: str) -> None:
    """Refuse the keys of ``section`` outside ``allowed``, listed after ``prefix``."""
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise InvalidInputError("config-field", prefix + ", ".join(unknown))


def _required(config: dict, key: str):
    """``config[key]``; a missing key is a ``config-field`` error."""
    if key not in config:
        raise InvalidInputError("config-field", f"missing required key {key!r}")
    return config[key]


def _is_int(value) -> bool:
    """An integer and not a bool (JSON's true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field_int(config: dict, key: str, default: int | None = None) -> int:
    """``config[key]``, which must be an integer; ``default`` if it is absent."""
    value = _required(config, key) if default is None else config.get(key, default)
    if not _is_int(value):
        raise InvalidInputError("config-field", f"{key!r} must be an integer")
    return value


def _field_str(config: dict, key: str) -> str:
    value = _required(config, key)
    if not isinstance(value, str):
        raise InvalidInputError("config-field", f"{key!r} must be a string")
    return value


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise InvalidInputError(
            "config-field", f"{where} must be a list of strings"
        )
    return value


def parse_eigenvalue_datum(config: dict) -> charsum.EigenvalueDatum:
    section = config.get("eigenvalues", {})
    if not isinstance(section, dict):
        raise InvalidInputError(
            "config-field", "'eigenvalues' must be an object"
        )
    _check_keys(section, {"symbols", "relations"}, "unknown eigenvalue keys: ")
    symbols = _string_list(section.get("symbols", []), "eigenvalues.symbols")
    relations = _string_list(
        section.get("relations", []), "eigenvalues.relations"
    )
    return charsum.EigenvalueDatum(tuple(symbols), tuple(relations))


def parse_classes(config: dict) -> tuple[tuple[tuple[str, ...], ...], int]:
    """Returns (semisimple coordinate words, explicit unipotent count)."""
    entries = _required(config, "classes")
    if not isinstance(entries, list):
        raise InvalidInputError("config-field", "'classes' must be a list")
    semisimple: list[tuple[str, ...]] = []
    unipotent = 0
    for position, entry in enumerate(entries):
        where = f"classes[{position}]"
        if not isinstance(entry, dict):
            raise InvalidInputError("config-field", f"{where} must be an object")
        kind = entry.get("type")
        if kind == "semisimple":
            _check_keys(entry, {"type", "coords"}, f"{where}: unknown keys ")
            coords = _string_list(entry.get("coords", None) or [], f"{where}.coords")
            semisimple.append(tuple(coords))
        elif kind == "regular_unipotent":
            _check_keys(entry, {"type"}, f"{where}: unknown keys ")
            unipotent += 1
        else:
            raise InvalidInputError(
                "config-field",
                f"{where}: type must be 'semisimple' or 'regular_unipotent'",
            )
    return tuple(semisimple), unipotent


def build_problem(config: dict) -> count.ProblemSpec:
    group = _field_str(config, "group")
    genus = _field_int(config, "genus")
    punctures = _field_int(config, "punctures")
    datum = parse_eigenvalue_datum(config)
    semisimple_words, unipotent = parse_classes(config)
    if unipotent and len(semisimple_words) + unipotent != punctures:
        raise InvalidInputError(
            "config-field",
            f"classes list has {len(semisimple_words)} semisimple + "
            f"{unipotent} regular unipotent entries but the surface has "
            f"{punctures} punctures",
        )
    overrides_map = config.get("overrides", {})
    if not isinstance(overrides_map, dict) or not all(
        isinstance(k, str) and isinstance(v, bool)
        for k, v in overrides_map.items()
    ):
        raise InvalidInputError(
            "config-field", "'overrides' must map labels to booleans"
        )
    rd = build_root_datum(group)
    classes = tuple(
        charsum.SymbolicTorusElement.from_words(datum, list(words))
        for words in semisimple_words
    )
    return count.ProblemSpec(
        rd=rd,
        genus=genus,
        punctures=punctures,
        eigenvalues=datum,
        semisimple_classes=classes,
        overrides=tuple(sorted(overrides_map.items())),
    )


# ---------------------------------------------------------------------------
# payload / text helpers
# ---------------------------------------------------------------------------


def _envelope(command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }


def _polynomial_payload(report: count.CountReport) -> dict:
    return {
        "coefficients": list(report.polynomial.coeffs),
        "display": str(report.polynomial),
        "factored": report.factored,
    }


def report_payload(report: count.CountReport) -> dict:
    return {
        "group": report.group_label,
        "genus": report.genus,
        "punctures": report.punctures,
        "semisimple_classes": report.m,
        "polynomial": _polynomial_payload(report),
        "is_empty": report.is_empty,
        "empty_reason": report.empty_reason,
        "euler_characteristic": report.euler_characteristic,
        "expected_dimension": report.expected_dimension,
        "degree": report.degree,
        "leading_coefficient": report.leading_coefficient,
        "num_components": report.num_components,
        "validity_modulus": report.validity_modulus,
        "diagnostic_exponent_lcm": report.diagnostic_exponent_lcm,
        "excluded_primes": list(report.excluded_primes),
        "warnings": list(report.warnings),
        "table": [row._asdict() for row in report.table],
    }


def _align(rows: list[list[str]]) -> list[str]:
    if not rows:
        return []
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def table_text(report: count.CountReport) -> list[str]:
    if not report.table:
        return ["(no diagnostic table: the formula was not evaluated)"]
    rows = [
        ["subsystem", "orbit", "|W(Psi)|", "Tor", "rank", "X/<Psi>",
         "Delta", "alpha", "P_Psi"]
    ]
    for row in report.table:
        rows.append(
            [
                row.label + ("*" if row.overridden else ""),
                str(row.orbit_size),
                str(row.weyl_order),
                str(row.torsion_order),
                str(row.free_rank),
                row.quotient,
                row.delta,
                row.alpha,
                row.poincare,
            ]
        )
    lines = _align(rows)
    if any(row.overridden for row in report.table):
        lines.append("(* indicator fixed by an override)")
    return lines


def report_text(report: count.CountReport, show_table: bool) -> str:
    lines = [
        f"group: {report.group_label}   genus: {report.genus}   "
        f"punctures: {report.punctures}   semisimple classes: {report.m}"
    ]
    if report.is_empty:
        lines.append("|X(F_q)| = 0")
        lines.append(f"empty: {report.empty_reason}")
    else:
        lines.append(f"|X(F_q)| = {report.polynomial}")
        lines.append(f"factored: {report.factored}")
        lines.append(
            f"degree: {report.degree}   expected dimension: "
            f"{report.expected_dimension}"
        )
        lines.append(f"euler characteristic: {report.euler_characteristic}")
        components = report.num_components
        lines.append(
            ("" if components is None else f"components: {components}   ")
            + f"leading coefficient: {report.leading_coefficient}"
        )
    lines.append(
        f"valid for primes q = 1 mod {report.validity_modulus}, "
        f"excluding {set(report.excluded_primes) or '{}'}"
    )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    if show_table:
        lines.append("")
        lines.extend(table_text(report))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, payload, text)
# ---------------------------------------------------------------------------


def _count_report(args, command: str) -> tuple[count.CountReport, dict]:
    """Count the configured problem; its report and the ``command`` payload."""
    spec = build_problem(load_config(args.config))
    budget = args.budget if args.budget is not None else count.DEFAULT_TRANSLATE_BUDGET
    report = count.count_polynomial(count.Engine(spec, budget))
    payload = _envelope(command)
    payload.update(report_payload(report))
    return report, payload


def cmd_count(args) -> tuple[int, dict, str]:
    report, payload = _count_report(args, "count")
    return 0, payload, report_text(report, show_table=args.table)


def cmd_table(args) -> tuple[int, dict, str]:
    report, payload = _count_report(args, "table")
    header = (
        f"diagnostic table for {report.group_label}, genus {report.genus}, "
        f"{report.punctures} punctures"
    )
    text = "\n".join([header] + table_text(report))
    return 0, payload, text


def cmd_poset(args) -> tuple[int, dict, str]:
    config = load_config(args.config)
    group = _field_str(config, "group")
    rd = build_root_datum(group)
    poset = build_poset(rd)
    # per orbit, from its first node: X^vee/<w Psi> is isomorphic to
    # X^vee/<Psi>, and |W(Psi)| and P_Psi depend only on the type
    by_orbit = []
    for orbit in poset.orbits():
        inv = poset.quotient(orbit[0])
        by_orbit.append(
            (poset.weyl_order(orbit[0]), str(poset.poincare(orbit[0])),
             inv.free_rank, inv.torsion)
        )
    labels = [poset.display_label(i) for i in range(poset.num_nodes)]
    nodes = []
    for i in range(poset.num_nodes):
        orbit = poset.orbit_of(i)
        weyl_order, poincare, free_rank, torsion = by_orbit[orbit]
        nodes.append(
            {
                "index": i,
                "label": labels[i],
                "type": poset.type_label(i),
                "num_roots": len(poset.nodes[i]),
                "weyl_order": weyl_order,
                "orbit": orbit,
                "poincare": poincare,
                "free_rank": free_rank,
                "torsion": list(torsion),
            }
        )
    mobius = []
    for i in range(poset.num_nodes):
        for j, value in poset.mobius_row(i).items():
            mobius.append(
                {
                    "lower": i,
                    "lower_label": labels[i],
                    "upper": j,
                    "upper_label": labels[j],
                    "mu": value,
                }
            )
    payload = _envelope("poset")
    payload.update(
        {"group": rd.label, "num_nodes": poset.num_nodes, "nodes": nodes,
         "mobius": mobius}
    )
    rows = [["index", "label", "roots", "|W(Psi)|", "X/<Psi> rank", "torsion", "P_Psi"]]
    for node in nodes:
        rows.append(
            [
                str(node["index"]),
                node["label"],
                str(node["num_roots"]),
                str(node["weyl_order"]),
                str(node["free_rank"]),
                "*".join(f"Z/{d}" for d in node["torsion"]) or "1",
                node["poincare"],
            ]
        )
    lines = [f"closed subsystem poset of {rd.label}: {poset.num_nodes} nodes"]
    lines.extend(_align(rows))
    lines.append("nonzero mobius values mu(lower, upper):")
    for entry in mobius:
        lines.append(
            f"  mu({entry['lower_label']} [{entry['lower']}], "
            f"{entry['upper_label']} [{entry['upper']}]) = {entry['mu']}"
        )
    return 0, payload, "\n".join(lines)


def cmd_check(args) -> tuple[int, dict, str]:
    spec = build_problem(load_config(args.config))
    count.validate_problem(spec)
    rd = spec.rd
    primes = admissible_primes(rd)
    checks = [
        ("connected-center", "ok: the center of the group is connected"),
        (
            "strongly-regular",
            f"ok: all {spec.m} semisimple classes are strongly regular",
        ),
        (
            "class-counts",
            f"ok: 1 <= {spec.m} semisimple < {spec.punctures} punctures",
        ),
    ]
    if spec.genus == 0 and spec.punctures == 2:
        nonempty = False
        emptiness_note = (
            "empty by convention: genus 0 with 2 punctures is nonhyperbolic"
        )
    else:
        engine = count.Engine(spec)
        nonempty = engine.computed
        emptiness_note = (
            "ok: the class product lies in the commutator subgroup"
            if nonempty
            else "empty: the class product is not in the commutator subgroup"
        )
        if engine.nonempty != nonempty:
            emptiness_note += (
                f" (note: the override on {engine.poset.display_label(engine.full)} "
                "asserts otherwise and wins during counting)"
            )
    checks.append(("non-emptiness", emptiness_note))
    payload = _envelope("check")
    payload.update(
        {
            "group": rd.label,
            "genus": spec.genus,
            "punctures": spec.punctures,
            "semisimple_classes": spec.m,
            "checks": [{"name": n, "result": r} for n, r in checks],
            "validity_modulus": modulus(rd.dual()),
            "excluded_primes": list(primes),
            "expected_dimension": count.expected_dimension(spec),
            "non_empty": bool(nonempty),
        }
    )
    lines = [
        f"hypothesis check for {rd.label}, genus {spec.genus}, "
        f"{spec.punctures} punctures"
    ]
    for name, result in checks:
        lines.append(f"  {name}: {result}")
    lines.append(
        f"  validity: primes q = 1 mod {payload['validity_modulus']}, "
        f"excluding {set(primes) or '{}'}"
    )
    lines.append(f"  expected dimension: {payload['expected_dimension']}")
    return 0, payload, "\n".join(lines)


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
    group = _field_str(config, "group")
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
    _check_keys(
        section, {"q", "eigenvalues", "budget", "threads"}, "unknown oracle keys: "
    )
    if args.q is not None:
        q_list = [args.q]
    else:
        q_list = section.get("q")
        if not q_list or not isinstance(q_list, list) or not all(map(_is_int, q_list)):
            raise InvalidInputError(
                "config-field",
                "oracle runs need a prime list: config oracle.q or --q",
            )
    budget = (
        args.budget
        if args.budget is not None
        else _field_int(section, "budget", oracle.DEFAULT_ORACLE_BUDGET)
    )
    threads = (
        args.threads if args.threads is not None else _field_int(section, "threads", 1)
    )
    if threads < 1:
        raise InvalidInputError("oracle-input", "threads must be >= 1")
    explicit_values = section.get("eigenvalues")
    if explicit_values is not None and (
        not isinstance(explicit_values, dict)
        or set(explicit_values) != set(spec.eigenvalues.symbols)
        or not all(map(_is_int, explicit_values.values()))
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
    payload = _envelope("oracle")
    payload.update(
        {
            "group": spec.rd.label,
            "genus": spec.genus,
            "punctures": spec.punctures,
            "polynomial": _polynomial_payload(report),
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


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description=(
            "Point counts of character varieties with regular "
            "monodromy over finite fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False, oracle=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--json", help="also write a JSON payload to this path")
        if budget:
            p.add_argument(
                "--budget", type=int, default=None,
                help=(
                    "budget override: histogram entries of the translate "
                    "join, |W|^floor((m-1)/2) + |W|^ceil((m-1)/2) (count, "
                    "table), or brute-force enumeration steps (oracle)"
                ),
            )
        if oracle:
            p.add_argument(
                "--q", type=int, default=None,
                help="run the oracle at this prime only",
            )
            p.add_argument(
                "--threads", type=int, default=None,
                help=(
                    "accepted and checked (>= 1) for compatibility; the "
                    "count runs in one process"
                ),
            )
            p.add_argument(
                "--seed", type=int, default=0,
                help="seed for sampled eigenvalue specializations",
            )

    p_count = sub.add_parser("count", help="evaluate the counting polynomial")
    common(p_count, budget=True)
    p_count.add_argument(
        "--table", action="store_true", help="append the diagnostic table"
    )
    p_count.set_defaults(handler=cmd_count)

    p_poset = sub.add_parser(
        "poset", help="dump the closed-subsystem poset and its mobius values"
    )
    common(p_poset)
    p_poset.set_defaults(handler=cmd_poset)

    p_table = sub.add_parser(
        "table", help="emit the per-subsystem diagnostic table"
    )
    common(p_table, budget=True)
    p_table.set_defaults(handler=cmd_table)

    p_oracle = sub.add_parser(
        "oracle", help="compare the formula against brute-force enumeration"
    )
    common(p_oracle, budget=True, oracle=True)
    p_oracle.set_defaults(handler=cmd_oracle)

    p_check = sub.add_parser(
        "check", help="validate the hypotheses without counting"
    )
    common(p_check)
    p_check.set_defaults(handler=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.handler(args)
    except CharvarError as error:
        print(f"error[{error.code}]: {error}", file=sys.stderr)
        return error.exit_code
    print(text)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as err:
            print(f"error[output-file]: cannot write {args.json}: {err}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
