"""The charvar benchmark: one workload, every problem a cold CLI process.

    python3 perfbench/run.py --workload translates --seed 1 --seconds 20 --trace 0

Every workload for one seed: ``python3 perfbench/steady.py --runs 1 --first-seed 1``.
Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  Workloads and their problems are in
``workloads.py``.  A run:

1. sets up: generates the seed's configs and validates each one in its own
   cold process (`charvar check`, or a root-datum check for `poset`
   configs), redrawing the seed's random relations if one is rejected.
   This is done five times; ``setup_s`` is the median;
2. measures: runs passes over the problems, one fresh `charvar` process at
   a time (a closed loop with one client and ``--threads 1``), as many as
   fit in ``--seconds``, and at least one.  Cold processes are
   the point: every layer keeps process-global caches that a CLI user
   pays for on every run.  Each output goes through ``gate.py``;
3. prints each metric by name with its unit, then, as the last line, one
   JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``) are medians over the run's passes:
``wall_s`` (all problems of a pass, import included), ``slowest_s`` (the
workload's largest problem), ``cpu_s`` (user + system CPU of the
processes), ``peak_rss_mb`` (largest maximum RSS of a process) and
``setup_s``.  Times are speed-corrected (see ``reference_s``): seconds at
the speed where a fixed loop takes NOMINAL_REFERENCE_S; the raw wall time
and the correction factor are printed too.  The share of failed problems
is printed as ``error_rate`` and reported as ``failed`` / ``attempted``.

With ``--trace 1`` the run measures untraced passes as above, then one
more pass where each process runs ``tracer.py``; the metrics are the
per-layer statistics of that pass summed over its problems, and
``trace_overhead_s``, its wall time minus the untraced median.  The
metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_REPEATS = 5
SETUP_ATTEMPTS = 10
RUN_LIMIT_S = 170.0
REFERENCE_LOOPS = 3_000_000
NOMINAL_REFERENCE_S = 0.2

_CLI = "import sys; from charvar.cli import main; sys.exit(main())"
_VALIDATE_GROUP = (
    "import sys; from charvar.cli import load_config; "
    "from charvar.rootdata import build_root_datum; "
    "from charvar.subsystems import MAX_POSITIVE_ROOTS; "
    "rd = build_root_datum(load_config(sys.argv[1])['group']); "
    "sys.exit(0 if rd.num_positive <= MAX_POSITIVE_ROOTS else 2)"
)


@dataclass
class Result:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    json_path: Path
    speed: float = 1.0  # reference-loop speed correction, see reference_s


def _spawn(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, CPU s, max RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def reference_s() -> float:
    """Duration of a fixed pure-Python loop, a probe of the machine's speed.

    The CPU speed of a shared machine drifts by up to ~50% over minutes,
    and every cold charvar process is slowed alike, so raw times of runs
    minutes apart spread far more than any bound.  Each measured time is
    therefore multiplied by NOMINAL_REFERENCE_S / (the mean of this probe
    just before and just after it): seconds at a fixed reference speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def _speed(before: float, after: float) -> float:
    return NOMINAL_REFERENCE_S / ((before + after) / 2)


def _write_config(problem: workloads.Problem, work: Path) -> Path:
    path = work / f"{problem.name}.json"
    path.write_text(json.dumps(problem.config, indent=1) + "\n", encoding="utf-8")
    return path


def run_problem(
    problem: workloads.Problem, work: Path, timeout: float, stats: Path | None = None
) -> Result:
    """One cold CLI process on the problem; traced when ``stats`` is given."""
    config = _write_config(problem, work)
    out = work / f"{problem.name}.result.json"
    out.unlink(missing_ok=True)
    cli_args = [problem.command, "--config", str(config), "--json", str(out),
                *problem.args]
    if stats is None:
        argv = [sys.executable, "-c", _CLI, *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(stats), *cli_args]
    code, wall, cpu, rss = _spawn(argv, work / problem.name, timeout)
    return Result(code, wall, cpu, rss, out)


def _valid(problem: workloads.Problem, work: Path, timeout: float) -> bool:
    config = _write_config(problem, work)
    log = work / f"{problem.name}.setup"
    if not problem.check:
        argv = [sys.executable, "-c", _VALIDATE_GROUP, str(config)]
        return _spawn(argv, log, timeout)[0] == 0
    out = work / f"{problem.name}.check.json"
    argv = [sys.executable, "-c", _CLI, "check", "--config", str(config),
            "--json", str(out)]
    if _spawn(argv, log, timeout)[0] != 0:
        return False
    return json.loads(out.read_text(encoding="utf-8"))["non_empty"] is True


def set_up(workload: str, seed: int, work: Path, deadline: float):
    """The seed's first draw of problems that every validation accepts."""
    for attempt in range(SETUP_ATTEMPTS):
        problems = workloads.problems(workload, seed, attempt)
        if all(_valid(p, work, deadline - time.perf_counter()) for p in problems):
            return problems
    raise RuntimeError(
        f"no valid configs for {workload} seed {seed} in {SETUP_ATTEMPTS} draws"
    )


def run_pass(problems, work: Path, deadline: float, digests: dict, traced=False):
    """Each problem once, in order; returns [(problem, result, errors)]."""
    rows = []
    probe = reference_s()
    for problem in problems:
        stats = work / f"{problem.name}.stats.json" if traced else None
        result = run_problem(problem, work, deadline - time.perf_counter(), stats)
        after = reference_s()
        result.speed = _speed(probe, after)
        probe = after
        errors = gate.check(problem, result.exit_code, result.json_path, digests)
        for error in errors:
            print(f"FAIL {problem.name}: {error}", file=sys.stderr)
        rows.append((problem, result, errors))
    return rows


def _pass_metrics(rows) -> dict:
    return {
        "wall_s": sum(r.wall_s * r.speed for _, r, _ in rows),
        "slowest_s": next(r.wall_s * r.speed for p, r, _ in rows if p.largest),
        "cpu_s": sum(r.cpu_s * r.speed for _, r, _ in rows),
        "peak_rss_mb": max(r.rss_mb for _, r, _ in rows),
        "raw_wall_s": sum(r.wall_s for _, r, _ in rows),
        "speed": statistics.median(r.speed for _, r, _ in rows),
    }


def _layer_metrics(rows, names: list[str], work: Path) -> dict:
    """Per-layer statistics of a traced pass, summed over its processes."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for problem, _, _ in rows:
        path = work / f"{problem.name}.stats.json"
        if not path.exists():
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        for layer, values in data["stats"].items():
            total = stats.setdefault(layer, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                total[i] += value
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
    closure_calls = stats.get("subsystems.closure", [0])[0]
    derived = {name: counters.get(name, 0) for name in tracer.COUNTERS}
    derived["subsystems.closure.new_ratio"] = (
        counters.get("subsystems.nodes", 0) / closure_calls if closure_calls else 0.0
    )
    field = {"calls": 0, "s": 1, "self_s": 2}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace_overhead_s":
            layer, suffix = name.rsplit(".", 1)
            out[name] = stats.get(layer, [0, 0.0, 0.0])[field[suffix]]
    return out


def _median_metrics(passes) -> dict:
    per_pass = [_pass_metrics(rows) for rows in passes]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "charvar" / "cli.py").is_file():
        print(f"error: no charvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = gate.load_digests()

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        probe = reference_s()
        start = time.perf_counter()
        problems = set_up(args.workload, args.seed, work, deadline)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * _speed(probe, reference_s()))

    # Passes run while the next one is expected to end within --seconds
    # (at least one), leaving room for a traced pass before the run limit.
    passes = []
    measure_start = time.perf_counter()
    while True:
        passes.append(run_pass(problems, work, deadline, digests))
        elapsed = time.perf_counter() - measure_start
        per_pass = elapsed / len(passes)
        if (elapsed + per_pass > args.seconds
                or time.perf_counter() + 3 * per_pass > deadline):
            break
    metrics = untraced = _median_metrics(passes)
    metrics["setup_s"] = statistics.median(setup_times)

    if args.trace:
        traced = run_pass(problems, work, deadline, digests, traced=True)
        passes.append(traced)
        overhead = _pass_metrics(traced)["wall_s"] - metrics["wall_s"]
        metrics = _layer_metrics(traced, list(units), work)
        metrics["trace_overhead_s"] = overhead

    attempted = sum(len(rows) for rows in passes)
    failed = sum(1 for rows in passes for _, _, errors in rows if errors)
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(problems)} problems, {time.perf_counter() - started:.1f} s; "
          f"untraced pass medians: raw wall {untraced['raw_wall_s']:.4g} s, "
          f"speed correction {untraced['speed']:.4g}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
