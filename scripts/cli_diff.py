#!/usr/bin/env python3
"""Check that two source trees give byte-identical `charvar` CLI output.

Usage:

    python3 scripts/cli_diff.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``charvar`` package (a checkout's
``src``).  Every command of the matrix below runs once per tree, each as its
own cold ``python -m charvar.cli`` process, and the two runs are compared on
exit code, stdout, stderr and the ``--json`` payload apart from
``generated_at``.  The matrix:

* ``count``, ``count --table``, ``table``, ``check`` and ``poset`` on every
  curated config in ``configs/`` and every seed-0 benchmark problem of
  ``perfbench/workloads.py``;
* ``poset`` on the groups in ``POSET_GROUPS``, among them adjoint and
  product groups with several Weyl orbits per subsystem type (``#k`` and
  ``-long``/``-short`` labels), whose Mobius rows and quotients are
  carried from one node of each orbit, and simply connected types, whose
  positive roots are read in the fundamental-weight basis;
* ``check``, ``count`` and ``table`` on ``OVER_BOUND``, a valid GL(8)
  problem above the poset bound (exit 3, ``poset-bound``), and ``check`` on
  its nonhyperbolic form (genus 0, 2 punctures);
* ``oracle --seed 0`` (``--threads 1``) on every config with an ``oracle``
  section, and at the field cap (``--q 11``) on ``FIELD_CAP_CONFIGS``, one
  GL(2) and one PGL(2) problem that match there;
* ``oracle --seed 0`` on ``ORACLE_OVERRIDE_CONFIGS``, two GL(2) problems
  whose counts succeed, with the empty subsystem's indicator overridden
  each way: on ``gl2_genus1`` once as the relations force it (``false``)
  and once against them.  The faithfulness test leaves the overridden
  orbit out of its comparison;
* ``count`` and ``table`` on ``HIGH_GENUS``, one m = 1 class at high genus
  under the degree cap: GL(2) genus 125 (degree 998), GL(3) genus 40
  (716), GL(4) genus 10 (314), G2 genus 20 (556) and F4 genus 9 (928, 19
  Cartan types over 24 Weyl orbits), whose ``factored`` strings are long;
  and on ``CARRY_HIGH_GENUS``, the m = 1 carry problems (below) of
  ``SO(5) x GL(2)`` (6 types over 10 orbits) and B3(ad) at genus 3.  The
  master sum gathers the orbits of one type before it multiplies by the
  type's Poincare power, so these are the rows where that grouping shows;
* ``check`` and ``count`` on ``STABILIZER``, one genus-1 class each on
  the paths only the Weyl stabilizer decides: SO(5) with a^2 = b^2 = 1 and
  PGL(2) with t^2 = 1, regular but fixed by a w != 1 (exit 2,
  ``strongly-regular``), and GL(3) with t^2 = u^2 = 1, PGL(3) and B3(ad),
  strongly regular (exit 0);
* ``count --table`` on ``LARGE_ORBITS``, GL(7) at genus 1 with one class
  whose eigenvalues have product 1: 877 closed subsystems in 15 Weyl
  orbits, so each orbit map images many carried classes, each once,
  for both the orbit counts and Delta;
* ``count --table``, ``table`` and ``check`` on the carry matrix
  (``carry_config``): PGL(3), SO(5), B3(ad) and ``SO(5) x GL(2)``, groups
  with torsion in X^vee / Z Phi^vee and Weyl orbits of several closed
  subsystems, with m = 1, 2, 3 classes over an eigenvalue group with an
  element of order 2, and at m = 2 once more with the override in
  ``CARRY_GROUPS`` on one orbit.  At m >= 2 the class product dies at some members of an orbit
  and not at others, so the membership carried to each orbit's first node
  decides both Delta and the orbit counts;
* ``check``, ``count`` and ``table`` on ``MANY_RELATIONS``, GL(2) problems
  with one class (s1, s2) whose eigenvalue relations are the rows of dense
  relator matrices (``many_relations_config``): eight relations over six
  symbols (A trivial, and the class not strongly regular, exit 2) and nine
  over eight (A = Z/5), on which naive elimination takes seconds;
* ``count``, ``table``, ``check`` and ``oracle`` on ``INCONSISTENT``, a
  GL(2) and a GL(3) problem whose override on the empty subsystem makes
  the master formula non-polynomial (exit 4, ``non-polynomial``, with the
  reduced fraction in the message; ``check`` does not count and exits 0);
* ``oracle --seed 0`` on ``EARLY_RETURN``, two GL(2) problems whose count
  returns before the orbit counts, an empty variety and a nonhyperbolic
  sphere: the faithfulness test still needs the symbolic counts;
* ``ERRORS``, configs that each fail on one message of the config checks
  or the oracle's checks: unknown keys at the top level, in
  ``eigenvalues``, in ``oracle`` and in each kind of class entry;
  ``eigenvalues``, ``oracle`` or a class entry that is not an object; an
  unsupported oracle group; explicit oracle values that break a relation
  or satisfy extra ones; q = 9 (not prime) and q = 13 (above the field
  cap).  Those that fail in the shared parsing run under ``count``,
  ``check`` and ``oracle``, the oracle's own under ``oracle`` only;
* ``ARGPARSE_PATH``, argv the CLI does not parse itself but leaves to
  ``argparse``: ``--help`` for each command, ``--config=PATH``, an
  abbreviated option, a repeated one, a missing value, an unknown option,
  and the signed values ``--budget -5`` and ``--seed +3``.

Each differing command is printed with what differs; the last line counts
the differences, and the exit status is 1 when there is any.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is read, never written)

# E6 is above the enumeration bound, so it checks the exit-3 poset-bound path;
# the adjoint and product groups split one type into several orbits, so
# their labels carry #k and -long/-short suffixes; the simply connected A3,
# B3, C3 and D4 take their positive roots in the fundamental-weight basis
POSET_GROUPS = (
    "SO(5)", "SO(7)", "SO(8)", "Sp(4)", "Sp(6)", "GL(4)", "PGL(3)", "SL(3)",
    "SO(5) x GL(2)", "F4", "G2", "GL(5)", "GL(6)", "E6",
    "B3(ad)", "C3(ad)", "D4(ad)", "SO(5) x SO(5)", "G2 x G2",
    "A3", "B3", "C3", "D4",
)
GL8_SYMBOLS = [f"a{i}" for i in range(8)]
OVER_BOUND = {
    "schema_version": 1, "group": "GL(8)", "genus": 1, "punctures": 2,
    "eigenvalues": {"symbols": GL8_SYMBOLS},
    "classes": [{"type": "semisimple", "coords": GL8_SYMBOLS}],
}
# sphere with 3 punctures, one class with determinant 1 and the empty
# subsystem's indicator overridden to "dies": not a polynomial count
INCONSISTENT = tuple(
    {
        "schema_version": 1, "group": f"GL({len(symbols)})", "genus": 0,
        "punctures": 3,
        "eigenvalues": {"symbols": symbols, "relations": ["*".join(symbols)]},
        "classes": [{"type": "semisimple", "coords": symbols}],
        "overrides": {"empty": True}, "oracle": {"q": [q]},
    }
    for symbols, q in ((["a", "b"], 5), (["a", "b", "c"], 7))
)
# one class (a, b) with oracle.q = [5, 7]: an empty variety (no relation, so
# the product is not in the commutator subgroup) and a nonhyperbolic sphere
EARLY_RETURN = tuple(
    {
        "schema_version": 1, "group": "GL(2)", "genus": genus, "punctures": 2,
        "eigenvalues": {"symbols": ["a", "b"], "relations": relations},
        "classes": [{"type": "semisimple", "coords": ["a", "b"]}],
        "oracle": {"q": [5, 7]},
    }
    for genus, relations in ((1, []), (0, ["a*b = 1"]))
)
# relator rows over s1, s2, ...: entries at most 12, on which naive
# elimination grows entries of tens of thousands of bits
MANY_RELATIONS = (
    ((0, 3, -2, 2, -6, 0), (-6, 1, -6, 1, 12, 3), (2, 0, 4, -1, 1, 0),
     (4, -6, 0, -2, 0, -6), (1, 0, 2, -1, 0, -2), (0, 4, 2, -1, 0, -2),
     (0, -6, 0, 0, 4, 3), (4, 3, 1, 12, 1, -1)),
    ((3, -2, -2, -2, -6, 0, 4, 4), (-2, 4, 1, 0, 1, 0, 2, 0), (0, 4, 0, -1, 0, 0, 3, 0),
     (3, 0, 0, 2, 0, 12, 0, -2), (2, 3, 3, -6, 12, 1, -6, 0), (0, 12, -6, 1, 3, 2, 2, 3),
     (0, -2, -2, 3, 1, 1, 0, 3), (3, -1, 1, -6, 0, 0, -6, 1), (0, 0, 2, 4, -2, 0, 1, 0)),
)
# carry matrix: (group, display label of one Weyl orbit to override at m = 2)
CARRY_GROUPS = (
    ("PGL(3)", "A1"), ("SO(5)", "A1-long"), ("B3(ad)", "C2"), ("SO(5) x GL(2)", "A1#1"),
)
# (group, genus, rank): one generic class, the GL ones with determinant 1
HIGH_GENUS = (
    ("GL(2)", 125, 2), ("GL(3)", 40, 3), ("GL(4)", 10, 4), ("G2", 20, 2), ("F4", 9, 4),
)
# GL(7), genus 1, one class of determinant 1: 877 nodes in 15 Weyl orbits
GL7_SYMBOLS = [f"a{i}" for i in range(1, 8)]
LARGE_ORBITS = {
    "schema_version": 1, "group": "GL(7)", "genus": 1, "punctures": 2,
    "eigenvalues": {"symbols": GL7_SYMBOLS, "relations": ["*".join(GL7_SYMBOLS) + " = 1"]},
    "classes": [{"type": "semisimple", "coords": GL7_SYMBOLS}],
}
# (group, symbols, relations, coords): genus 1, one class, on the paths the
# Weyl stabilizer decides.  SO(5) and PGL(2) are regular but fixed by a
# w != 1 (exit 2, strongly-regular); the others are strongly regular (exit 0)
STABILIZER = (
    ("SO(5)", ["a", "b"], ["a^2", "b^2"], ["a", "b"]),
    ("PGL(2)", ["t"], ["t^2"], ["t"]),
    ("GL(3)", ["a", "t", "u"], ["t^2", "u^2"], ["a", "a*t", "a*u"]),
    ("PGL(3)", ["a", "b"], [], ["a", "b"]),
    ("B3(ad)", ["a", "b", "c"], [], ["a", "b", "c"]),
)
# (group, genus): non-empty m = 1 carry problems with repeated Cartan types
CARRY_HIGH_GENUS = (("SO(5) x GL(2)", 3), ("B3(ad)", 3))
# GL(2) from the oracle workload's seed-0 problems, PGL(2) from configs/
FIELD_CAP_CONFIGS = ("oracle-gl2_genus1_q7.json", "pgl2_rigid.json")
# curated configs run by the oracle with {"empty": false} and {"empty": true}
ORACLE_OVERRIDE_CONFIGS = ("gl2_genus1.json", "gl2_sphere_generic.json")
COUNT_COMMANDS = (("count",), ("count", "--table"), ("table",), ("check",), ("poset",))
# argv, with {config} for configs/gl2_genus1.json and {sampled} for the oracle
# workload's GL(2) genus-1 config, whose eigenvalues are sampled
ARGPARSE_PATH = (
    [(command, "--help") for command in ("count", "poset", "table", "oracle", "check")]
    + [
        ("count", "--config={config}"),
        ("count", "--conf", "{config}"),
        ("count", "--config", "{config}", "--config", "{config}"),
        ("count", "--config", "{config}", "--budget"),
        ("count", "--config", "{config}", "--bogus", "1"),
        ("count", "--config", "{config}", "--budget", "-5"),
        ("oracle", "--config", "{sampled}", "--seed", "+3", "--threads", "1"),
    ]
)
GL2_EIGENVALUES = {"symbols": ["a", "b"], "relations": ["a*b = 1"]}
SEMISIMPLE = {"type": "semisimple", "coords": ["a", "b"]}
# (name, curated config, top-level keys replaced, oracle-only, extra oracle argv)
ERRORS = (
    ("unknown-top", "gl2_genus1.json", {"zeta": 1, "extra": 2}, False, ()),
    ("unknown-eigenvalues", "gl2_genus1.json",
     {"eigenvalues": dict(GL2_EIGENVALUES, extra=1)}, False, ()),
    ("unknown-semisimple", "gl2_genus1.json",
     {"classes": [dict(SEMISIMPLE, zeta=1, extra=2)]}, False, ()),
    ("unknown-unipotent", "gl2_genus1.json",
     {"classes": [SEMISIMPLE, {"type": "regular_unipotent", "extra": 1}]}, False, ()),
    ("eigenvalues-not-object", "gl2_genus1.json", {"eigenvalues": ["a", "b"]}, False, ()),
    ("class-not-object", "gl2_genus1.json", {"classes": [SEMISIMPLE, "a"]}, False, ()),
    ("unknown-oracle", "gl2_genus1.json",
     {"oracle": {"q": [5], "zeta": 1, "extra": 2}}, True, ()),
    ("oracle-not-object", "gl2_genus1.json", {"oracle": [5]}, True, ()),
    ("oracle-group", "so5_display.json", {"oracle": {"q": [5]}}, True, ()),
    # a*b = 4 mod 5, against the declared a*b = 1
    ("values-break-relation", "gl2_genus1.json",
     {"oracle": {"q": [5], "eigenvalues": {"a": 2, "b": 2}}}, True, ()),
    # a*b*c*d = 1 mod 5 as declared, but also a*c = 1 and b*d = 1
    ("values-unfaithful", "gl2_sphere_generic.json",
     {"oracle": {"q": [5], "eigenvalues": {"a": 2, "b": 1, "c": 3, "d": 1}}}, True, ()),
    ("field-not-prime", "gl2_genus1.json", {}, True, ("--q", "9")),
    ("field-above-cap", "gl2_genus1.json", {}, True, ("--q", "13")),
)


def _word(exponents) -> str:
    return "*".join(f"{s}^{e}" for s, e in exponents if e) or "1"


def carry_config(rd, m: int) -> dict:
    """A problem on ``rd`` with m classes; u (u^2 = 1) enters the first.

    At m = 1, genus 1, the class is the sum of alpha_j^vee (x) y_j over the
    simple coroots (times u along the first), so it dies at the full node.
    At m >= 2, genus 0, the classes are on fresh symbols, and relations make
    their product beta^vee (x) x for the first positive coroot beta^vee.
    """
    if m == 1:
        simple = [rd.coroots[a] for a in rd.simple_root_indices]
        symbols = ["u"] + [f"y{j}" for j in range(len(simple))]
        coords = [
            _word([("u", simple[0][i])] + [(f"y{j}", v[i]) for j, v in enumerate(simple)])
            for i in range(rd.rank)
        ]
        classes, relations = [coords], ["u^2"]
    else:
        beta = rd.coroots[rd.positive[0]]
        classes = [[f"a{k}{i}" for i in range(rd.rank)] for k in range(m)]
        symbols = ["u", "x"] + [s for c in classes for s in c]
        classes[0][0] += "*u"
        relations = ["u^2"] + [
            "*".join(c[i] for c in classes) + f" = x^{b}" for i, b in enumerate(beta)
        ]
    return {
        "schema_version": 1, "group": rd.label, "genus": 1 if m == 1 else 0,
        "punctures": m + 1, "eigenvalues": {"symbols": symbols, "relations": relations},
        "classes": [{"type": "semisimple", "coords": c} for c in classes],
    }


def many_relations_config(rows) -> dict:
    """GL(2), genus 1, one class (s1, s2), with the rows as relations."""
    symbols = [f"s{k}" for k in range(1, len(rows[0]) + 1)]
    return {
        "schema_version": 1, "group": "GL(2)", "genus": 1, "punctures": 2,
        "eigenvalues": {
            "symbols": symbols, "relations": [_word(zip(symbols, row)) for row in rows],
        },
        "classes": [{"type": "semisimple", "coords": ["s1", "s2"]}],
    }


def matrix(config_dir: pathlib.Path) -> list[tuple[str, ...]]:
    """Every CLI argument list to compare, with configs written to config_dir."""
    from charvar.rootdata import build_root_datum
    configs = sorted((ROOT / "configs").glob("*.json"))
    for workload in workloads.WORKLOADS:
        for problem in workloads.problems(workload, 0):
            path = config_dir / f"{workload}-{problem.name}.json"
            path.write_text(json.dumps(problem.config, indent=2))
            configs.append(path)
    runs = []
    for path in configs:
        for command in COUNT_COMMANDS:
            runs.append(command[:1] + ("--config", str(path)) + command[1:])
        if "oracle" in json.loads(path.read_text()):
            oracle = ("oracle", "--config", str(path), "--seed", "0", "--threads", "1")
            runs.append(oracle)
            if path.name in FIELD_CAP_CONFIGS:
                runs.append(oracle + ("--q", "11"))
    for k, group in enumerate(POSET_GROUPS):
        path = config_dir / f"group-{k}.json"
        path.write_text(json.dumps({"schema_version": 1, "group": group}))
        runs.append(("poset", "--config", str(path)))
    path = config_dir / "over-bound.json"
    path.write_text(json.dumps(OVER_BOUND))
    for command in ("check", "count", "table"):
        runs.append((command, "--config", str(path)))
    path = config_dir / "over-bound-nonhyperbolic.json"
    path.write_text(json.dumps(dict(OVER_BOUND, genus=0)))
    runs.append(("check", "--config", str(path)))
    for group, genus, rank in HIGH_GENUS:
        symbols = [f"a{i}" for i in range(1, rank + 1)]
        relations = ["*".join(symbols) + " = 1"] if group.startswith("GL") else []
        path = config_dir / f"high-genus-{group}-{genus}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "group": group, "genus": genus, "punctures": 2,
            "eigenvalues": {"symbols": symbols, "relations": relations},
            "classes": [{"type": "semisimple", "coords": symbols}],
        }))
        for command in ("count", "table"):
            runs.append((command, "--config", str(path)))
    for group, genus in CARRY_HIGH_GENUS:
        path = config_dir / f"carry-high-genus-{group}-{genus}.json"
        path.write_text(json.dumps(dict(carry_config(build_root_datum(group), 1), genus=genus)))
        for command in ("count", "table"):
            runs.append((command, "--config", str(path)))
    for group, symbols, relations, coords in STABILIZER:
        path = config_dir / f"stabilizer-{group}.json"
        path.write_text(json.dumps({
            "schema_version": 1, "group": group, "genus": 1, "punctures": 2,
            "eigenvalues": {"symbols": symbols, "relations": relations},
            "classes": [{"type": "semisimple", "coords": coords}],
        }))
        for command in ("check", "count"):
            runs.append((command, "--config", str(path)))
    path = config_dir / "large-orbits.json"
    path.write_text(json.dumps(LARGE_ORBITS))
    runs.append(("count", "--config", str(path), "--table"))
    for group, label in CARRY_GROUPS:
        rd = build_root_datum(group)
        for m, overrides in ((1, {}), (2, {}), (3, {}), (2, {label: False})):
            path = config_dir / f"carry-{group}-{m}-{len(overrides)}.json"
            path.write_text(json.dumps(dict(carry_config(rd, m), overrides=overrides)))
            runs.append(("count", "--config", str(path), "--table"))
            runs.append(("table", "--config", str(path)))
            runs.append(("check", "--config", str(path)))
    for name in ORACLE_OVERRIDE_CONFIGS:
        config = json.loads((ROOT / "configs" / name).read_text())
        for value in (False, True):
            path = config_dir / f"oracle-override-{value}-{name}"
            path.write_text(json.dumps(dict(config, overrides={"empty": value})))
            runs.append(("oracle", "--config", str(path), "--seed", "0", "--threads", "1"))
    for k, rows in enumerate(MANY_RELATIONS):
        path = config_dir / f"many-relations-{k}.json"
        path.write_text(json.dumps(many_relations_config(rows)))
        for command in ("check", "count", "table"):
            runs.append((command, "--config", str(path)))
    for k, config in enumerate(INCONSISTENT):
        path = config_dir / f"inconsistent-{k}.json"
        path.write_text(json.dumps(config))
        for command in ("count", "table", "check"):
            runs.append((command, "--config", str(path)))
        runs.append(("oracle", "--config", str(path), "--seed", "0", "--threads", "1"))
    for k, config in enumerate(EARLY_RETURN):
        path = config_dir / f"early-return-{k}.json"
        path.write_text(json.dumps(config))
        runs.append(("oracle", "--config", str(path), "--seed", "0", "--threads", "1"))
    for name, base, edits, oracle_only, extra in ERRORS:
        config = json.loads((ROOT / "configs" / base).read_text())
        path = config_dir / f"error-{name}.json"
        path.write_text(json.dumps(dict(config, **edits)))
        if not oracle_only:
            runs += [(command, "--config", str(path)) for command in ("count", "check")]
        runs.append(
            ("oracle", "--config", str(path), "--seed", "0", "--threads", "1") + extra
        )
    paths = {
        "config": ROOT / "configs" / "gl2_genus1.json",
        "sampled": config_dir / "oracle-gl2_genus1_q7.json",
    }
    for args in ARGPARSE_PATH:
        runs.append(tuple(arg.format(**paths) for arg in args))
    return runs


def run(src: str, args: tuple[str, ...], json_path: pathlib.Path) -> tuple:
    """(exit code, stdout, stderr, JSON payload without generated_at)."""
    json_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", *args, "--json", str(json_path)],
        env=env, capture_output=True, text=True, cwd=json_path.parent,
    )
    payload = None
    if json_path.exists():
        payload = json.loads(json_path.read_text())
        payload.pop("generated_at", None)
    return proc.returncode, proc.stdout, proc.stderr, payload


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: cli_diff.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (str(pathlib.Path(p).resolve()) for p in argv)
    sys.path.insert(0, parent)  # the carry matrix reads root data from the parent
    fields = ("exit code", "stdout", "stderr", "json")
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        runs = matrix(tmp_path)
        for args in runs:
            before = run(parent, args, tmp_path / "out.json")
            after = run(change, args, tmp_path / "out.json")
            if before != after:
                differences += 1
                differ = [f for f, a, b in zip(fields, before, after) if a != b]
                print(f"DIFF ({', '.join(differ)}): charvar {' '.join(args)}")
                if before[0] != after[0] or before[2] != after[2]:
                    print(f"  parent: exit {before[0]} {before[2].strip()}")
                    print(f"  change: exit {after[0]} {after[2].strip()}")
    print(f"{len(runs)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
