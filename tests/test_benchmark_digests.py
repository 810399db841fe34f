"""The benchmark's recorded output digests, checked in-process.

``perfbench/digests.json`` pins a hash of the mathematical content of each
benchmark problem's output (``perfbench.gate.output_digest``).  The
``poset`` and ``genus-rank`` problems do not depend on the seed, so their
digests hold for every run; the ``translates`` digests are those of
``gate.DEFAULT_SEED``.  Here each of these problems runs through
``cli.main`` and must pass the benchmark's own gate, digest included.  A
byte change the benchmark would reject fails here first.

The ``count`` problems (``genus-rank``: m = 1 at high genus; ``translates``:
m = 2..5) also count in-process against the ``Fraction`` reference of
``qpoly_reference``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from charvar.cli import build_problem, main
from charvar.count import count_polynomial
from qpoly_reference import factored_str, reference_polynomial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
gate = _load("gate")
DIGESTS = gate.load_digests()
PROBLEMS = [
    problem
    for workload in ("poset", "genus-rank", "translates")
    for problem in workloads.problems(workload, gate.DEFAULT_SEED)
]
COUNT_PROBLEMS = [problem for problem in PROBLEMS if problem.command == "count"]


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_output_matches_recorded_digest(problem, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(problem.config), encoding="utf-8")
    out = tmp_path / "out.json"
    code = main([problem.command, "--config", str(config), "--json", str(out),
                 *problem.args])
    capsys.readouterr()
    assert DIGESTS[problem.name]["input"] == gate.input_digest(problem)
    assert gate.check(problem, code, out, DIGESTS) == []


@pytest.mark.parametrize("problem", COUNT_PROBLEMS, ids=lambda p: p.name)
def test_count_matches_fraction_reference(problem):
    spec = build_problem(problem.config)
    report = count_polynomial(spec)
    assert report.polynomial == reference_polynomial(spec)
    assert report.factored == factored_str(report.polynomial)
