"""Which package source a CLI command compiles, and how much of it never runs.

    python3 scripts/compile_census.py poset --config cfg.json
    python3 scripts/compile_census.py --functions count --config cfg.json --table

Runs one ``charvar`` command in this process, from the ``src/`` of this
checkout, and prints per ``charvar`` module: the lines compiled, the
compile time, and the lines in functions (``def`` bodies, methods
included) that the run never called.  With ``--functions`` it also lists
those functions, largest first.  The command's own output goes to stdout
as usual, before the census.

Every module compiles from source, as in a process without bytecode
caches: the pycache prefix points at an empty temporary directory and
nothing is written.  A hook on ``SourceFileLoader.source_to_code`` times
each compile and keeps the code object; ``sys.setprofile`` records every
code object that runs.  A function counts as called when it ran at least
once; the functions nested in one that never ran are counted with it, not
again.  Lazily registered modules that the command never touches are not
compiled and do not appear.  Times are wall clock on this machine and
move between runs; the line counts do not.
"""

from __future__ import annotations

import importlib.machinery
import sys
import tempfile
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charvar"


def _idle(code, called: set):
    """The ``def`` code objects inside ``code`` that never ran, outermost only.

    Comprehensions, lambdas and class bodies are not functions of their
    own here: the walk looks inside them, and inside every function that ran.
    """
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            is_function = not const.co_name.startswith("<") and const.co_flags & 0x2
            if is_function and const not in called:
                yield const
            else:
                yield from _idle(const, called)


def _span(code) -> int:
    lines = [line for _, _, line in code.co_lines() if line is not None]
    return max(lines, default=code.co_firstlineno) - code.co_firstlineno + 1


def census(argv: list[str]) -> tuple[int, dict, set]:
    """Run ``charvar <argv>``; (exit code, path -> (lines, seconds, code), called)."""
    sys.dont_write_bytecode = True
    sys.pycache_prefix = tempfile.mkdtemp(prefix="census-pycache-")
    sys.path.insert(0, str(PACKAGE.parent))
    compiled: dict[str, tuple[int, float, object]] = {}
    loader = importlib.machinery.SourceFileLoader
    source_to_code = loader.source_to_code

    def timed(self, data, path, *args, **kwargs):
        start = time.perf_counter()
        code = source_to_code(self, data, path, *args, **kwargs)
        if Path(path).resolve().parent == PACKAGE:
            lines = bytes(data).count(b"\n")
            compiled[path] = lines, time.perf_counter() - start, code
        return code

    called: set = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    loader.source_to_code = timed
    sys.setprofile(profile)
    try:
        from charvar.cli import main

        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    finally:
        sys.setprofile(None)
        loader.source_to_code = source_to_code
    return code, compiled, called


def main(argv: list[str]) -> int:
    list_functions = argv[:1] == ["--functions"]
    if list_functions:
        argv = argv[1:]
    code, compiled, called = census(argv)
    rows, unused = [], []
    for path, (lines, seconds, module_code) in sorted(compiled.items()):
        name = Path(path).stem
        idle = [
            (_span(fn), f"{name}.{getattr(fn, 'co_qualname', fn.co_name)}")
            for fn in _idle(module_code, called)
        ]
        unused += idle
        rows.append((name, lines, seconds, sum(n for n, _ in idle)))
    print(f"\nexit code {code}; charvar modules compiled from source:", file=sys.stderr)
    print(f"{'module':<12} {'lines':>6} {'compile ms':>11} {'never-called lines':>19}",
          file=sys.stderr)
    for name, lines, seconds, idle in rows:
        print(f"{name:<12} {lines:>6} {seconds * 1e3:>11.2f} {idle:>19}", file=sys.stderr)
    print(f"{'total':<12} {sum(r[1] for r in rows):>6} "
          f"{sum(r[2] for r in rows) * 1e3:>11.2f} {sum(r[3] for r in rows):>19}",
          file=sys.stderr)
    if list_functions:
        for lines, qualname in sorted(unused, key=lambda row: (-row[0], row[1])):
            print(f"{lines:>5}  {qualname}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
