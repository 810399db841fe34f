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
"""

from .count import CountReport, ProblemSpec, count_polynomial
from .charsum import EigenvalueDatum, SymbolicTorusElement
from .errors import (
    CharvarError,
    InternalConsistencyError,
    InvalidInputError,
    ResourceLimitError,
)
from .qpoly import Poly
from .rootdata import RootDatum, build_root_datum
from .subsystems import SubsystemPoset, build_poset

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
