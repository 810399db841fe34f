"""Package structure: private names stay private, and traced names exist.

A name with a leading underscore is private to the module that defines it;
a module that needs it from elsewhere should get a public name instead.
Both ``from .count import _helper`` and ``from . import count`` followed
by ``count._helper`` are caught.

The benchmark's tracer (``perfbench/tracer.py``) wraps charvar functions
and methods by name; a deletion or rename that breaks ``--trace 1`` fails
here rather than only in the benchmark's own tests.

No process-global cache may grow with the problems a process counts:
per-problem data lives on per-problem objects.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import charvar
from charvar.charsum import EigenvalueDatum, SymbolicTorusElement
from charvar.count import ProblemSpec, count_polynomial
from charvar.qpoly import RationalPoly
from charvar.rootdata import build_root_datum

PACKAGE = Path(charvar.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = []
    module_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "charvar"
            if not internal:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    hits.append((node.lineno, f"imports {alias.name}"))
                elif node.module is None or node.module == "charvar":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "charvar" and alias.asname:
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _is_private(node.attr)
        ):
            hits.append((node.lineno, f"uses {node.value.id}.{node.attr}"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(hits)]


def test_no_module_uses_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_uses(path)] == []


def test_private_use_detector(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "from .count import ProblemSpec, _resolve\n"
        "from . import abelian as ab\n"
        "import charvar.qpoly as qp\n"
        "x = ab._row_space_snf, qp.Poly, ab.__name__\n"
        "y = qp._cache\n",
        encoding="utf-8",
    )
    assert private_uses(source) == [
        "sample.py:2 imports _resolve",
        "sample.py:5 uses ab._row_space_snf",
        "sample.py:6 uses qp._cache",
    ]


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, module_name, attribute in tracer.TARGETS:
        if attribute == "json.dump":
            continue  # wrapped through a proxy of the stdlib json module
        owner = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = hasattr(owner, attribute)
        if not found:
            missing.append(f"{layer}: {module_name}.{attribute}")
    assert len(tracer.TARGETS) > 40
    assert missing == []


def functools_caches() -> dict:
    """Every functools cache at module or class level in a charvar module."""
    caches = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "charvar" if path.stem == "__init__" else f"charvar.{path.stem}"
        module = importlib.import_module(name)
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == name
        ]
        for owner in owners:
            for value in vars(owner).values():
                if callable(getattr(value, "cache_info", None)):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def test_caches_do_not_grow_with_relation_sets():
    rd = build_root_datum("GL(2)")

    def count(k: int) -> None:
        datum = EigenvalueDatum(symbols=("a", "b"), relations=("a*b", f"a^{k}"))
        element = SymbolicTorusElement.from_words(datum, ["a", "b"])
        count_polynomial(
            ProblemSpec(rd=rd, genus=1, punctures=2, eigenvalues=datum,
                        semisimple_classes=(element,))
        )

    count(3)
    caches = functools_caches()
    assert "charvar.subsystems.build_poset" in caches
    before = {name: f.cache_info().currsize for name, f in caches.items()}
    for k in range(4, 24):
        count(k)
    after = {name: f.cache_info().currsize for name, f in caches.items()}
    assert after == before


def test_caches_do_not_grow_with_polynomial_degree():
    q = RationalPoly.q()
    (q ** 2 - 1).factored_str()
    caches = functools_caches()
    before = {name: f.cache_info().currsize for name, f in caches.items()}
    for k in range(3, 30):
        assert (q ** k - 1).factored_str().startswith("(q - 1)")
    after = {name: f.cache_info().currsize for name, f in caches.items()}
    assert after == before
