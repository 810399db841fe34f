"""Exact point counts for character varieties with regular monodromy.

The package computes the counting polynomial of a character variety
attached to a split reductive group, a punctured surface, and a tuple of
regular monodromy classes.  The central entry points:

- :func:`charvar.rootdata.build_root_datum` builds a root datum from a
  short description such as ``"GL(3)"``, ``"SO(5)"``, or ``"G2"``.
- :class:`charvar.count.ProblemSpec` packages a counting problem and
  :func:`charvar.count.count_polynomial` evaluates it exactly.
- :mod:`charvar.oracle` counts solutions over small finite fields by
  brute force, independently of the formula.
- :mod:`charvar.cli` exposes the ``charvar`` command with JSON configs.

All arithmetic is exact (integers and fractions); there is no floating
point anywhere in the pipeline.

The engine modules ``count``, ``charsum`` and ``oracle``, the CLI's glue
for the commands that use them (``cli_count``, ``cli_oracle``), the
factoring code of count reports (``factor``) and the code only tests and
the tracer call (``reference``) are registered lazily
(``importlib.util.LazyLoader``): each is in ``sys.modules`` and bound
here from the start, but its code runs only when one of its attributes
is first used, so a process that only builds a poset never compiles
them, and no command compiles ``reference``.  The public names they
define are served on first use by ``__getattr__``, here or, for
``reference``, in the modules that used to define them.
"""

import importlib.util
import sys


def _register_lazily(name: str):
    """Put ``charvar.<name>`` in ``sys.modules``; it runs on first attribute use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# registered before the eager imports below, which bind ``factor`` and ``reference``
charsum = _register_lazily("charsum")
count = _register_lazily("count")
oracle = _register_lazily("oracle")
cli_count = _register_lazily("cli_count")
cli_oracle = _register_lazily("cli_oracle")
factor = _register_lazily("factor")
reference = _register_lazily("reference")

from .errors import (
    CharvarError,
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from .qpoly import Poly
from .rootdata import RootDatum, build_root_datum
from .subsystems import SubsystemPoset, build_poset

# public names of the lazily registered modules, by defining module
_LAZY_NAMES = {
    "CountReport": count,
    "ProblemSpec": count,
    "count_polynomial": count,
    "EigenvalueDatum": charsum,
    "SymbolicTorusElement": charsum,
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CharvarError",
    "CountReport",
    "EigenvalueDatum",
    "InternalConsistencyError",
    "InvalidInputError",
    "Poly",
    "ProblemSpec",
    "ResourceLimitError",
    "RootDatum",
    "SubsystemPoset",
    "SymbolicTorusElement",
    "build_poset",
    "build_root_datum",
    "count_polynomial",
]
