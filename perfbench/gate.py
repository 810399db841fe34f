"""Correctness gate for one benchmark problem run.

A run passes when the CLI exits 0 and its JSON payload is sound:

* ``count``: no warnings (degree = expected dimension, leading coefficient
  = component count, Euler characteristic and vanishing order at q = 1)
  and a non-empty count;
* ``oracle``: verdict ``match`` with every prime matching;
* ``poset``: mu(i, i) = 1 and the Mobius identities sum_j mu(i, j) = 0 for
  every node i below the top node and sum_i mu(i, j) = 0 for every node j
  above the bottom (empty) node.  The CLI computes mu by the first
  recursion, so only the second is an independent check of its values;

* when ``digests.json`` holds a digest recorded for exactly this config
  and these arguments (the default seed 0, and every seed of the
  seed-independent ``genus-rank`` and ``poset`` workloads), the
  polynomial, oracle counts or poset payload must hash to it.

Record the digests of the current program for seed 0:

    python3 perfbench/gate.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def input_digest(problem) -> str:
    """Identifies a problem's input: its command, config and arguments."""
    return _sha([problem.command, problem.config, list(problem.args)])


def output_digest(command: str, payload: dict) -> str:
    """Hash of the mathematical content of a payload."""
    if command == "poset":
        return _sha([payload["num_nodes"], payload["nodes"], payload["mobius"]])
    if command == "oracle":
        runs = [[r["q"], r["eigenvalues"], r["oracle_count"]] for r in payload["runs"]]
        return _sha([payload["polynomial"], runs])
    return _sha(payload["polynomial"])


def _mobius_errors(payload: dict) -> list[str]:
    sizes = [node["num_roots"] for node in payload["nodes"]]
    top, bottom = sizes.index(max(sizes)), sizes.index(min(sizes))
    row_sums = [0] * payload["num_nodes"]
    column_sums = [0] * payload["num_nodes"]
    diagonal = [0] * payload["num_nodes"]
    for entry in payload["mobius"]:
        row_sums[entry["lower"]] += entry["mu"]
        column_sums[entry["upper"]] += entry["mu"]
        if entry["lower"] == entry["upper"]:
            diagonal[entry["lower"]] = entry["mu"]
    errors = [f"mu({i}, {i}) = {d}" for i, d in enumerate(diagonal) if d != 1]
    errors += [
        f"sum of mu({i}, j) over j is {s}"
        for i, s in enumerate(row_sums) if i != top and s != 0
    ]
    errors += [
        f"sum of mu(i, {j}) over i is {s}"
        for j, s in enumerate(column_sums) if j != bottom and s != 0
    ]
    return errors


def check(problem, exit_code: int, json_path: Path, digests: dict) -> list[str]:
    """Reasons the run is wrong; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        payload = json.loads(json_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return [f"unreadable JSON payload: {err}"]
    if payload.get("command") != problem.command:
        return [f"payload command {payload.get('command')!r}"]
    if problem.command == "count":
        errors = [f"warning: {w}" for w in payload["warnings"]]
        if payload["is_empty"]:
            errors.append("empty count")
    elif problem.command == "oracle":
        errors = [] if payload["verdict"] == "match" else ["verdict mismatch"]
        errors += [f"MISMATCH at q = {r['q']}" for r in payload["runs"] if not r["match"]]
    else:
        errors = _mobius_errors(payload)
    recorded = digests.get(problem.name)
    if (
        recorded is not None
        and recorded["input"] == input_digest(problem)
        and recorded["output"] != output_digest(problem.command, payload)
    ):
        errors.append("output digest differs from the recorded one")
    return errors


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def record() -> int:
    """Run every workload once at the default seed and store its digests."""
    import run
    from workloads import WORKLOADS, problems

    work = run.WORK / "record"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        for problem in problems(workload, DEFAULT_SEED):
            result = run.run_problem(problem, work, timeout=170)
            if result.exit_code != 0:
                print(f"{workload}/{problem.name}: exit {result.exit_code}",
                      file=sys.stderr)
                return 1
            payload = json.loads(result.json_path.read_text(encoding="utf-8"))
            digests[problem.name] = {
                "input": input_digest(problem),
                "output": output_digest(problem.command, payload),
            }
            print(f"{workload}/{problem.name}: {result.wall_s:.2f} s")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(record())
