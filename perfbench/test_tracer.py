"""Tracing must not change what the CLI computes.

    python3 -m pytest -q perfbench/test_tracer.py

Runs one problem of each subcommand untraced and traced, and requires the
JSON payloads to be identical apart from ``generated_at``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CASES = [
    ("genus-rank", "gl4_genus4"),
    ("poset", "d4_poset"),
    ("oracle", "pgl2_genus1_q11"),
]


def _payload(result: run.Result) -> dict:
    assert result.exit_code == 0
    payload = json.loads(result.json_path.read_text(encoding="utf-8"))
    payload.pop("generated_at")
    return payload


@pytest.mark.parametrize("workload,name", CASES)
def test_traced_run_emits_identical_json(tmp_path, workload, name):
    problem = next(p for p in workloads.problems(workload, 3) if p.name == name)
    plain = _payload(run.run_problem(problem, tmp_path, timeout=120))
    stats_path = tmp_path / "stats.json"
    traced = _payload(run.run_problem(problem, tmp_path, timeout=120, stats=stats_path))
    assert traced == plain
    stats = json.loads(stats_path.read_text(encoding="utf-8"))["stats"]
    assert stats["cli.parse"][0] > 0 and stats["cli.render"][0] > 0


def test_every_declared_layer_is_traced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = {layer for layer, _, _ in tracer.TARGETS}
    derived = {"subsystems.closure.new_ratio", "trace_overhead_s", *tracer.COUNTERS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in derived:
            layer, suffix = name.rsplit(".", 1)
            assert layer in layers and suffix in ("calls", "s", "self_s"), name
