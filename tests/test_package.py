"""Package structure: private names stay private, and traced names exist.

A name with a leading underscore is private to the module that defines it;
a module that needs it from elsewhere should get a public name instead.
Caught are ``from .count import _helper``, ``from . import count``
followed by ``count._helper``, ``obj._name`` where the module defines no
``_name``, and ``obj.__dict__`` on anything but ``self``.  The public
methods of named tuples (``row._asdict()``, ``spec._replace(...)``) carry
an underscore only to keep clear of field names, and are allowed.

The benchmark's tracer (``perfbench/tracer.py``) wraps charvar functions
and methods by name; a deletion or rename that breaks ``--trace 1`` fails
here rather than only in the benchmark's own tests.

No module holds a functools cache: data derived from a root datum, a
group or a poset is kept on that object and freed with it.
"""

import ast
import gc
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import charvar
from charvar.charsum import EigenvalueDatum, SymbolicTorusElement
from charvar.count import ProblemSpec, count_polynomial
from charvar.qpoly import Poly
from charvar.reference import enumerate_weyl
from charvar.rootdata import build_root_datum
from charvar.subsystems import build_poset

PACKAGE = Path(charvar.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make", "_replace"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = []
    module_aliases = set()
    defined = set()  # names the module defines: functions, classes, targets
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
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = ast.unparse(node.value)
        if _is_private(node.attr) and node.attr not in NAMEDTUPLE_API and (
            owner in module_aliases or node.attr not in defined
        ):
            hits.append((node.lineno, f"uses {owner}.{node.attr}"))
        elif node.attr == "__dict__" and owner != "self":
            hits.append((node.lineno, f"uses {owner}.__dict__"))
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
        "y = qp._cache\n"
        "def _local(rd):\n"
        "    return rd._local, rd._gram, self.__dict__, rd.__dict__, self.rd.__dict__\n"
        "z = row._asdict(), spec._replace(genus=1)\n",
        encoding="utf-8",
    )
    assert private_uses(source) == [
        "sample.py:2 imports _resolve",
        "sample.py:5 uses ab._row_space_snf",
        "sample.py:6 uses qp._cache",
        "sample.py:8 uses rd.__dict__",
        "sample.py:8 uses rd._gram",
        "sample.py:8 uses self.rd.__dict__",
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


def test_records_are_not_typing_namedtuples():
    """``typing.NamedTuple`` compiles one ``ForwardRef`` per string annotation
    of a field; value records subclass ``collections.namedtuple`` instead."""
    assert [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if "NamedTuple" in path.read_text(encoding="utf-8")
    ] == []


# stdlib modules a cold CLI process does not need: dataclasses pulls in
# inspect, ast and dis, and each frozen dataclass execs generated code;
# argparse (with gettext) is imported only for argv the CLI does not parse
OFF_IMPORT_PATH = (
    "dataclasses", "inspect", "ast", "dis", "datetime", "fractions", "decimal",
    "argparse", "gettext",
)

_IMPORT_PROBE = """
import json, sys
import charvar.cli
targets = json.loads(sys.argv[1])
unresolved = []
for module_name, attribute in targets:
    owner = sys.modules.get(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part, None)
    if owner is None:
        unresolved.append(module_name + "." + attribute)
json.dump({"modules": sorted(sys.modules), "unresolved": unresolved}, sys.stdout)
"""


def test_cli_import_path():
    """``import charvar.cli`` alone, as in a cold CLI process: it registers every
    charvar module (the tracer wraps them from ``sys.modules`` after this one
    import) and none of the stdlib modules in ``OFF_IMPORT_PATH``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"
    )
    pairs = [[module, attribute] for _layer, module, attribute in targets]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(pairs)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(probe.stdout)
    submodules = sorted(
        f"charvar.{path.stem}" for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    )
    assert len(submodules) == 14
    assert set(submodules) <= set(result["modules"])
    assert [name for name in OFF_IMPORT_PATH if name in result["modules"]] == []
    assert len(pairs) > 40
    assert result["unresolved"] == []


# runs one CLI command, then prints which lazily registered modules have run:
# a module that has not run is still of LazyLoader's module type
_RUN_PROBE = """
import json, sys, types
from charvar.cli import main
lazy = json.loads(sys.argv[1])
code = main(sys.argv[2:])
ran = [name for name in lazy if type(sys.modules[name]) is types.ModuleType]
rational = [name for name in ("fractions", "decimal") if name in sys.modules]
parser = [name for name in ("argparse", "gettext") if name in sys.modules]
print(json.dumps({"code": code, "ran": ran, "rational": rational, "parser": parser}))
"""

LAZY = (
    "charvar.charsum", "charvar.cli_count", "charvar.cli_oracle",
    "charvar.count", "charvar.factor", "charvar.oracle", "charvar.reference",
)
COUNTING = ["charvar.charsum", "charvar.cli_count", "charvar.count"]


@pytest.mark.parametrize(
    "command,ran",
    [
        ("poset", []),
        ("count", COUNTING + ["charvar.factor"]),
        ("table", COUNTING + ["charvar.factor"]),
        ("check", COUNTING),
        ("oracle", [name for name in LAZY if name != "charvar.reference"]),
    ],
)
def test_each_command_runs_only_the_engine_modules_it_uses(command, ran):
    """A cold ``poset`` runs none of count, charsum and oracle, nor the other
    commands' glue (``cli_count``, ``cli_oracle``) or the factoring code;
    ``count``, ``table`` and ``check`` never run the oracle's glue or the
    brute-force oracle, and no command runs ``reference``.  An integer
    count never makes a ``Fraction``, so ``fractions`` (and the ``decimal``
    it imports) stay unloaded by every command but ``oracle``.  Well-formed
    argv is parsed without ``argparse``, so no command imports it or
    ``gettext``."""
    config = Path(__file__).resolve().parents[1] / "configs" / "gl2_genus1.json"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE, json.dumps(LAZY), command,
         "--config", str(config)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["ran"] == ran
    assert result["parser"] == []
    if command != "oracle":
        assert result["rational"] == []


# runs one CLI command with every source compile recorded; a fresh pycache
# prefix makes each imported module compile from source
_COMPILE_PROBE = """
import importlib.machinery, json, sys
compiled = []
loader = importlib.machinery.SourceFileLoader
source_to_code = loader.source_to_code
loader.source_to_code = lambda self, data, path, *args, **kwargs: (
    compiled.append(path) or source_to_code(self, data, path, *args, **kwargs)
)
from charvar.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "compiled": compiled}))
"""


@pytest.mark.parametrize("command", [["poset"], ["count", "--table"], ["count"]])
def test_cold_commands_never_compile_the_reference_module(tmp_path, command):
    """A cold B4 ``poset``, a cold m = 1 ``count --table`` and a cold m = 3
    ``count``, which takes the |W| translates of two classes, compile the
    eager modules from source, and never ``reference.py``."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    if command == ["poset"]:
        config = tmp_path / "b4.json"
        config.write_text('{"schema_version": 1, "group": "B4"}', encoding="utf-8")
    elif command == ["count"]:
        config = configs / "gl3_four_three_semisimple.json"
    else:
        config = configs / "gl2_genus1.json"
    env = dict(
        os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"),
    )
    probe = subprocess.run(
        [sys.executable, "-c", _COMPILE_PROBE, *command, "--config", str(config)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(probe.stdout.splitlines()[-1])
    compiled = {Path(path).name for path in result["compiled"]}
    assert result["code"] == 0
    assert {"rootdata.py", "subsystems.py", "qpoly.py"} <= compiled
    assert "reference.py" not in compiled


def test_module_run_compiles_the_cli_once():
    """``python -m charvar.cli`` runs ``cli.py`` as ``__main__``; ``cli_count``
    imports its helpers from ``charvar.cli``, which must be that same module
    rather than a second compile of the file."""
    config = Path(__file__).resolve().parents[1] / "configs" / "gl2_genus1.json"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "charvar.cli", "check",
         "--config", str(config)],
        env=env, capture_output=True, text=True, check=True,
    )
    imported = [
        line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "charvar.rootdata" in imported
    assert "charvar.cli" not in imported
    assert run.stdout.strip()


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

    for k in range(3, 24):
        count(k)
    assert functools_caches() == {}


def test_datum_data_is_freed_with_the_datum():
    rd = build_root_datum("GL(3)")
    datum = EigenvalueDatum(symbols=("a", "b", "c"), relations=("a*b*c",))
    spec = ProblemSpec(
        rd=rd, genus=1, punctures=2, eigenvalues=datum,
        semisimple_classes=(SymbolicTorusElement.from_words(datum, "abc"),),
    )
    count_polynomial(spec)
    # a tuple cannot be weakly referenced: no datum keeps the Weyl group, so
    # this name must hold its only reference (getrefcount adds one)
    weyl = enumerate_weyl(rd)
    refs = [weakref.ref(x) for x in (rd, build_poset(rd))]
    del rd, spec
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert sys.getrefcount(weyl) == 2


def test_caches_do_not_grow_with_polynomial_degree():
    q, one = Poly.q(), Poly.const(1)
    (q ** 2 - one).factored_str()
    caches = functools_caches()
    before = {name: f.cache_info().currsize for name, f in caches.items()}
    for k in range(3, 30):
        assert (q ** k - one).factored_str().startswith("(q - 1)")
    after = {name: f.cache_info().currsize for name, f in caches.items()}
    assert after == before


def test_public_api_names_no_rational_function_class():
    """Counts are integer ``Poly`` values; ``RationalPoly`` is not exported."""
    assert all(hasattr(charvar, name) for name in charvar.__all__)
    assert "RationalPoly" not in charvar.__all__
    assert not hasattr(charvar, "RationalPoly")
