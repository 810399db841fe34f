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
  carried from one node of each orbit;
* ``check``, ``count`` and ``table`` on ``OVER_BOUND``, a valid GL(8)
  problem above the poset bound (exit 3, ``poset-bound``), and ``check`` on
  its nonhyperbolic form (genus 0, 2 punctures);
* ``oracle --seed 0`` (``--threads 1``) on every config with an ``oracle``
  section, and at the field cap (``--q 11``) on ``FIELD_CAP_CONFIGS``, one
  GL(2) and one PGL(2) problem that match there;
* ``count``, ``table``, ``check`` and ``oracle`` on ``INCONSISTENT``, a
  GL(2) and a GL(3) problem whose override on the empty subsystem makes
  the master formula non-polynomial (exit 4, ``non-polynomial``, with the
  reduced fraction in the message; ``check`` does not count and exits 0).

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
# their labels carry #k and -long/-short suffixes
POSET_GROUPS = (
    "SO(5)", "SO(7)", "SO(8)", "Sp(4)", "Sp(6)", "GL(4)", "PGL(3)", "SL(3)",
    "SO(5) x GL(2)", "F4", "G2", "GL(5)", "GL(6)", "E6",
    "B3(ad)", "C3(ad)", "D4(ad)", "SO(5) x SO(5)", "G2 x G2",
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
# GL(2) from the oracle workload's seed-0 problems, PGL(2) from configs/
FIELD_CAP_CONFIGS = ("oracle-gl2_genus1_q7.json", "pgl2_rigid.json")
COUNT_COMMANDS = (("count",), ("count", "--table"), ("table",), ("check",), ("poset",))


def matrix(config_dir: pathlib.Path) -> list[tuple[str, ...]]:
    """Every CLI argument list to compare, with configs written to config_dir."""
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
    for k, config in enumerate(INCONSISTENT):
        path = config_dir / f"inconsistent-{k}.json"
        path.write_text(json.dumps(config))
        for command in ("count", "table", "check"):
            runs.append((command, "--config", str(path)))
        runs.append(("oracle", "--config", str(path), "--seed", "0", "--threads", "1"))
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
