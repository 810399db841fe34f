"""Fuzz guard: mutated curated configs fail with a named error, never a traceback.

Each draw takes a config from ``configs/`` and applies one to three
mutations: a top-level value of the wrong type, an integer near the 4,300
digits that Python converts between ``int`` and ``str``, a malformed
eigenvalue word or symbol (in a relation or a class coordinate), 1 to 10
relations over the config's own symbols with exponents in -12..12 in place
of its relations (dense relator matrices, on which naive elimination
blows up), a malformed group descriptor, a malformed ``overrides`` map or
a malformed ``oracle`` section.  ``count``, ``check``, ``table``, ``poset`` and
``oracle`` then run in-process through ``cli.main``, each with ``--json``.
Every run must exit 0, 2 or 3, print exactly one ``error[code]: message``
line on stderr when it fails, raise nothing out of ``main`` and finish
within ``RUN_SECONDS``.

The draws stay inside problems the CLI answers quickly: genus and
punctures are small or far too large to count, override labels are
unknown or their values not booleans (a boolean on a real label may
legitimately break polynomiality, exit 4), and the drawn oracle fields are
never q = 5 or 11, where GL(3, F_5) is a valid model of 1.5 million
elements (about 30 s to enumerate) and high-genus GL(2, F_11) counts take
seconds.  ``LONG_EXPONENT`` and ``LONG_DIMENSION`` are explicit examples:
the two digit-limit inputs that used to exit 1 with a traceback.

Bounds: ``MAX_EXAMPLES`` draws (derandomized), each run under
``RUN_SECONDS``, and the whole search under ``SUITE_SECONDS``.  It took
about 10 s on a 2-core x86-64 machine with CPython 3.11.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import re
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from charvar import cli

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
BASES = {path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
COMMANDS = ("count", "check", "table", "poset", "oracle")
TOP_KEYS = [
    "schema_version", "group", "genus", "punctures", "eigenvalues", "classes",
    "overrides", "oracle", "description", "zeta",
]
MAX_EXAMPLES = 400
RUN_SECONDS = 10.0
SUITE_SECONDS = 120.0
ERROR_LINE = re.compile(r"error\[[a-z0-9-]+\]: [^\n]*\n")

# the two inputs that exited 1 with a traceback: a word exponent past the
# digit limit, and a genus whose expected dimension is past it
LONG_EXPONENT = dict(
    BASES["gl2_genus1.json"],
    classes=[{"type": "semisimple", "coords": ["a^" + "9" * 5000, "b"]}],
)
LONG_DIMENSION = dict(BASES["gl3_genus1_generic.json"], genus=int("9" * 4300))

# integers at and around the digit limit, and a few ordinary ones
digit_limit_ints = st.sampled_from([
    10**30, int("9" * 4296), 10**4299, int("9" * 4300), -int("9" * 4300),
])
small_ints = st.integers(-2, 4)
scalars = st.one_of(
    st.none(), st.booleans(), small_ints, digit_limit_ints,
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# words: random text over the word alphabet, and products of the curated
# configs' symbols whose exponents may have up to 5,000 digits
word_text = st.text(alphabet="ab*^-= 19x_", max_size=12)
exponents = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds(
        lambda sign, digits: sign + "9" * digits,
        st.sampled_from(["", "-"]),
        st.sampled_from([1, 40, 4299, 4300, 4301, 5000]),
    ),
)
products = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "a1", "a2", "a3", "z"]), exponents),
    min_size=1, max_size=3,
).map(lambda terms: "*".join(f"{name}^{e}" for name, e in terms))
words = st.one_of(word_text, products, st.sampled_from(["a", "b", "1", "a*b^-1"]))

descriptors = st.one_of(
    st.sampled_from([
        "GL(1)", "GL(2)", "GL(3)", "PGL(2)", "PGL(3)", "SL(2)", "SO(5)",
        "Sp(4)", "G2", "B2(ad)", "T(2)", "GL(2) x T(1)", "E8", "GL(11)",
        "GL(99999999)", "GL(" + "9" * 4301 + ")", "SL(1) x GL(11)", "A2 y B2",
    ]),
    st.text(alphabet="GLSOPpABCDEFT()x 0123456789ad", max_size=10),
)

# q lists leave out 5 and 11 (see the module docstring)
q_values = st.one_of(
    st.sampled_from([2, 3, 4, 7, 9, 13, 0, -7]), digit_limit_ints, scalars
)
oracle_sections = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {},
        optional={
            "q": st.one_of(st.lists(q_values, max_size=3), json_values),
            "eigenvalues": st.one_of(
                st.dictionaries(
                    st.sampled_from(["a", "b", "c", "d", "x"]),
                    st.one_of(small_ints, digit_limit_ints, scalars),
                    max_size=4,
                ),
                json_values,
            ),
            "budget": st.one_of(small_ints, digit_limit_ints, scalars),
            "threads": st.one_of(small_ints, scalars),
            "extra": json_values,
        },
    ),
)
override_maps = st.one_of(
    json_values,
    st.dictionaries(st.sampled_from(["B7", "", "A1#9", "empty-long"]), json_values),
    st.dictionaries(
        st.sampled_from(["A1", "empty", "A2"]),
        st.one_of(st.none(), small_ints, st.text(max_size=3)),
        min_size=1,
    ),
)


def _word(terms) -> str:
    return "*".join(f"{name}^{e}" for name, e in terms if e) or "1"


@st.composite
def mutations(draw, config: dict) -> None:
    """Apply one mutation to ``config`` in place."""
    kind = draw(st.sampled_from([  # repeated kinds are drawn more often
        "top", "genus", "genus", "punctures", "punctures", "group", "relation",
        "relation", "relations", "symbol", "coords", "coords", "coords", "class",
        "overrides", "oracle", "oracle",
    ]))
    if kind == "top":
        key = draw(st.sampled_from(TOP_KEYS))
        config[key] = draw(json_values)
    elif kind in ("genus", "punctures"):
        config[kind] = draw(st.one_of(small_ints, small_ints, digit_limit_ints, scalars))
    elif kind == "group":
        config["group"] = draw(descriptors)
    elif kind in ("relation", "symbol"):
        section = config.get("eigenvalues")
        if not isinstance(section, dict):
            section = config["eigenvalues"] = {}
        field = "relations" if kind == "relation" else "symbols"
        items = section.get(field)
        items = list(items) if isinstance(items, list) else []
        items.insert(draw(st.integers(0, len(items))), draw(words))
        section[field] = items
    elif kind == "relations":
        section = config.get("eigenvalues")
        if not isinstance(section, dict):
            section = config["eigenvalues"] = {}
        symbols = section.get("symbols")
        symbols = [x for x in symbols if isinstance(x, str)] if isinstance(symbols, list) else []
        if symbols:
            rows = st.lists(st.integers(-12, 12), min_size=len(symbols), max_size=len(symbols))
            section["relations"] = [
                _word(zip(symbols, row)) for row in draw(st.lists(rows, min_size=1, max_size=10))
            ]
    elif kind == "coords":
        classes = config.get("classes")
        classes = classes if isinstance(classes, list) else []
        semisimple = [
            c for c in classes if isinstance(c, dict) and isinstance(c.get("coords"), list)
        ]
        if semisimple:
            entry = draw(st.sampled_from(semisimple))
            coords = list(entry["coords"])
            if coords:
                coords[draw(st.integers(0, len(coords) - 1))] = draw(words)
            entry["coords"] = coords
        else:
            config["classes"] = [{"type": "semisimple", "coords": [draw(words)]}]
    elif kind == "class":
        classes = config.get("classes")
        classes = list(classes) if isinstance(classes, list) else []
        classes.insert(draw(st.integers(0, len(classes))), draw(json_values))
        config["classes"] = classes
    elif kind == "overrides":
        config["overrides"] = draw(override_maps)
    else:
        config["oracle"] = draw(oracle_sections)


@st.composite
def mutated_configs(draw) -> dict:
    config = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        draw(mutations(config))
    return config


def run(command: str, config_path: pathlib.Path) -> tuple[int, str, float]:
    """(exit code, stderr, seconds) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([
            command, "--config", str(config_path),
            "--json", str(config_path.with_name("out.json")),
        ])
    return code, err.getvalue(), time.perf_counter() - start


@settings(
    max_examples=MAX_EXAMPLES, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=mutated_configs())
@example(config=LONG_EXPONENT)
@example(config=LONG_DIMENSION)
def check_every_command(directory: pathlib.Path, config: dict) -> None:
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    for command in COMMANDS:
        code, err, seconds = run(command, path)
        assert code in (0, 2, 3), (command, code, err)
        assert code == 0 or ERROR_LINE.fullmatch(err), (command, err)
        assert seconds < RUN_SECONDS, (command, seconds)


def test_mutated_configs_fail_with_named_errors(tmp_path):
    start = time.perf_counter()
    check_every_command(tmp_path)
    assert time.perf_counter() - start < SUITE_SECONDS
