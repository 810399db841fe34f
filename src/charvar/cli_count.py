"""The CLI's ``count``, ``table`` and ``check`` commands.

A config becomes a ``count.ProblemSpec`` here (``build_problem``, which
``oracle`` reuses), and a ``count.CountReport`` becomes a payload and an
aligned text report.  The package registers this module lazily, so a
process runs it only when one of these commands (or ``oracle``) does.
"""

from __future__ import annotations

from . import charsum, count
from .cli import (
    align,
    check_keys,
    envelope,
    field_int,
    field_str,
    load_config,
    required,
)
from .errors import InvalidInputError
from .rootdata import admissible_primes, build_root_datum, modulus


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
    check_keys(section, {"symbols", "relations"}, "unknown eigenvalue keys: ")
    symbols = _string_list(section.get("symbols", []), "eigenvalues.symbols")
    relations = _string_list(
        section.get("relations", []), "eigenvalues.relations"
    )
    return charsum.EigenvalueDatum(tuple(symbols), tuple(relations))


def parse_classes(config: dict) -> tuple[tuple[tuple[str, ...], ...], int]:
    """Returns (semisimple coordinate words, explicit unipotent count)."""
    entries = required(config, "classes")
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
            check_keys(entry, {"type", "coords"}, f"{where}: unknown keys ")
            coords = _string_list(entry.get("coords", None) or [], f"{where}.coords")
            semisimple.append(tuple(coords))
        elif kind == "regular_unipotent":
            check_keys(entry, {"type"}, f"{where}: unknown keys ")
            unipotent += 1
        else:
            raise InvalidInputError(
                "config-field",
                f"{where}: type must be 'semisimple' or 'regular_unipotent'",
            )
    return tuple(semisimple), unipotent


def build_problem(config: dict) -> count.ProblemSpec:
    group = field_str(config, "group")
    genus = field_int(config, "genus")
    punctures = field_int(config, "punctures")
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


def polynomial_payload(report: count.CountReport) -> dict:
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
        "polynomial": polynomial_payload(report),
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
    lines = align(rows)
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
    payload = envelope(command)
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
    payload = envelope("check")
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
