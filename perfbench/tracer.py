"""Call-through timers around charvar's public functions, and a traced CLI.

Usage (one traced CLI process; the statistics go to STATS.json at exit):

    python3 perfbench/tracer.py STATS.json count --config cfg.json --json out.json

Every target below is replaced at each name where callers look it up: a
function in every ``charvar.*`` module namespace that holds it (so
``charvar.count.in_commutator`` and ``charvar.charsum.in_commutator`` both
count), a method on its class.  The replacement calls the original
unchanged and aggregates, per layer name, the number of calls, inclusive
time (outermost calls only, so recursion is not double counted) and self
time (inclusive time minus the time of traced callees).  Spans are not
kept one by one: ``in_commutator`` alone runs ~200k times per problem.
"""

from __future__ import annotations

import atexit
import functools
import json
import sys
import time
import types

# (layer name, module, attribute); "Class.method" wraps a method.  Several
# attributes may share one layer name; their statistics are pooled.
TARGETS = (
    ("charsum.translate", "charvar.charsum", "translate"),
    ("charsum.product_translate", "charvar.charsum", "product_translate"),
    ("charsum.canonical_key", "charvar.charsum", "SymbolicTorusElement.canonical_key"),
    ("charsum.in_commutator", "charvar.charsum", "in_commutator"),
    ("charsum.strongly_regular", "charvar.charsum", "strongly_regular"),
    ("abelian.is_dth_power", "charvar.abelian", "is_dth_power"),
    ("abelian.canonical_word", "charvar.abelian", "canonical_word"),
    ("abelian.smith_normal_form", "charvar.abelian", "smith_normal_form"),
    ("abelian.quotient_invariants", "charvar.abelian", "quotient_invariants"),
    ("count.count_polynomial", "charvar.count", "count_polynomial"),
    ("count.validate_problem", "charvar.count", "validate_problem"),
    ("subsystems.build_poset", "charvar.subsystems", "build_poset"),
    ("subsystems.enumerate_closed_subsystems", "charvar.subsystems",
     "enumerate_closed_subsystems"),
    ("subsystems.closure", "charvar.subsystems", "closure"),
    ("subsystems.mobius", "charvar.subsystems", "SubsystemPoset.mobius"),
    ("subsystems.orbits", "charvar.subsystems", "SubsystemPoset.orbits"),
    ("subsystems.labels", "charvar.subsystems", "SubsystemPoset.type_label"),
    ("subsystems.labels", "charvar.subsystems", "SubsystemPoset.display_label"),
    ("rootdata.poincare_polynomial", "charvar.rootdata", "poincare_polynomial"),
    ("rootdata.subsystem_weyl_elements", "charvar.rootdata",
     "subsystem_weyl_elements"),
    ("rootdata.classify_vectors", "charvar.rootdata", "classify_vectors"),
    ("rootdata.enumerate_weyl", "charvar.rootdata", "enumerate_weyl"),
    ("rootdata.build_root_datum", "charvar.rootdata", "build_root_datum"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__add__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__neg__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__sub__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__rsub__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__mul__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__truediv__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__rtruediv__"),
    ("qpoly.rational_arith", "charvar.qpoly", "RationalPoly.__pow__"),
    ("qpoly.divmod", "charvar.qpoly", "Poly.divmod"),
    ("qpoly.factored_str", "charvar.qpoly", "RationalPoly.factored_str"),
    ("qpoly.cyclotomic", "charvar.qpoly", "cyclotomic"),
    ("oracle.build_model", "charvar.oracle", "build_model"),
    ("oracle.class_table", "charvar.oracle", "FiniteGroupModel.class_table"),
    ("oracle.brute_force_count", "charvar.oracle", "brute_force_count"),
    ("oracle.mul", "charvar.oracle", "FiniteGroupModel.mul"),
    ("cli.parse", "charvar.cli", "build_parser"),
    ("cli.parse", "charvar.cli", "load_config"),
    ("cli.parse", "charvar.cli", "build_problem"),
    ("cli.render", "charvar.cli", "report_payload"),
    ("cli.render", "charvar.cli", "report_text"),
    ("cli.render", "charvar.cli", "json.dump"),
    ("cli.cmd_oracle", "charvar.cli", "cmd_oracle"),
    ("cli.cmd_poset", "charvar.cli", "cmd_poset"),
)


def _enumeration_estimate(args, kwargs, result) -> dict:
    """The step estimate `brute_force_count` checks against its budget."""
    model, genus, classes = args[:3]
    leaf_cost = 1
    for cls in classes[:-1]:
        leaf_cost *= cls.size
    if genus == 0:
        return {"oracle.enumeration_estimate": leaf_cost}
    num_classes = len(model.class_table())
    return {
        "oracle.enumeration_estimate":
            genus * num_classes * model.order + num_classes * leaf_cost
    }


# Work counters read off a traced call's arguments and result.
COUNTERS = ("subsystems.nodes", "oracle.group_order", "oracle.enumeration_estimate")
PROBES = {
    "subsystems.enumerate_closed_subsystems":
        lambda args, kwargs, result: {"subsystems.nodes": len(result)},
    "oracle.build_model":
        lambda args, kwargs, result: {"oracle.group_order": result.order},
    "oracle.brute_force_count": _enumeration_estimate,
}


class Tracer:
    """Aggregated call statistics: layer -> [calls, inclusive_s, self_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        self._children: list[float] = []  # callee time of each open call

    def wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        self._depth.setdefault(layer, 0)
        depth, children, counters = self._depth, self._children, self.counters
        probe = PROBES.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                stats[0] += 1
                stats[2] += elapsed - children.pop()
                if not depth[layer]:
                    stats[1] += elapsed
                if children:
                    children[-1] += elapsed
            if probe is not None:
                for key, value in probe(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the imported charvar modules."""
        import charvar.cli  # noqa: F401  (imports every module of the package)

        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "charvar" or name.startswith("charvar.")
        ]
        for layer, module_name, attribute in TARGETS:
            owner = sys.modules[module_name]
            if attribute == "json.dump":
                # cli looks json.dump up through its module global `json`
                proxy = types.ModuleType("json")
                proxy.__dict__.update(vars(json))
                proxy.dump = self.wrap(layer, json.dump)
                owner.json = proxy
            elif "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(layer, cls.__dict__[method]))
            else:
                original = getattr(owner, attribute)
                traced = self.wrap(layer, original)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "counters": self.counters}, handle)


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    atexit.register(tracer.dump, stats_path)
    from charvar.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
