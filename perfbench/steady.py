"""Steadiness check: repeat the benchmark over seeds and report the spread.

    python3 perfbench/steady.py --runs 10 [--workloads translates oracle]
        [--first-seed 1] [--out runs.json] [--against earlier_runs.json]

``--runs 1 --first-seed N`` runs every workload once for seed N.

For each workload, runs ``run.py`` once per seed (first-seed, first-seed+1,
...) with ``run_seconds`` from ``BENCHMARK.json`` and prints, for every
end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median.  A metric is flagged when its
spread exceeds its bound (``setup_s`` excepted: only its median is
compared) or when its median is worse than the one in ``--against`` by
more than the bound.  Any incorrect run is flagged too.  Exits 1 if
anything was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    results: dict[str, list] = {}
    flagged = 0
    for workload in args.workloads:
        runs = [
            _run(workload, seed, spec["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        results[workload] = runs
        bad = sum(1 for r in runs if not r["correct"])
        print(f"{workload}: {len(runs)} runs, {bad} incorrect")
        flagged += bad
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            spread = (q3 - q1) / median
            notes = []
            if name != "setup_s" and spread > bound:
                notes.append("SPREAD ABOVE BOUND")
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload]
                )
                change = (median - before) / before
                if metric["better"] == "higher":
                    change = -change
                notes.append(f"vs earlier {change:+.3f}")
                if change > bound:
                    notes.append("WORSE THAN BOUND")
            flagged += sum("BOUND" in n for n in notes)
            print(f"  {name:12s} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:.3f} (bound {bound}, "
                  f"third {bound / 3:.3f})  {' '.join(notes)}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(results) + "\n", encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
