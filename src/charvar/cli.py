"""Command-line interface: count, poset, table, oracle, check.

Configs are JSON documents (schema version 1):

    {
      "schema_version": 1,
      "group": "GL(2)",                  # root-datum descriptor
      "genus": 1,
      "punctures": 2,
      "eigenvalues": {                   # optional when no symbols are used
        "symbols": ["a", "b"],
        "relations": ["a*b = 1"]
      },
      "classes": [                       # the semisimple class assignments;
        {"type": "semisimple", "coords": ["a", "b"]},
        {"type": "regular_unipotent"}    # unipotent entries are optional --
      ],                                 # remaining punctures are unipotent
      "overrides": {"A1": true},         # optional indicator overrides
      "oracle": {                        # optional; used by `oracle`
        "q": [5, 7],
        "eigenvalues": {"a": 2, "b": 3}, # concrete values; sampled if absent.
        "budget": 1000000000,            # either way the values must satisfy
        "threads": 1                     # exactly the declared relations mod q
      },
      "description": "free-text note"
    }

Every command reads ``--config`` and prints an aligned text report;
``--json PATH`` additionally writes a JSON payload.  Repeated runs on an
identical config produce byte-identical JSON apart from the
``generated_at`` timestamp.  Exit codes: 0 success (for ``oracle``:
agreement), 2 invalid input or a failed hypothesis, 3 resource limit
exceeded, 4 internal inconsistency (including an oracle mismatch at an
admissible q).

This module holds what every command shares (config loading, the
parser, the payload writer) and ``poset``.  The other commands live in
``cli_count`` (``count``, ``table``, ``check``) and ``cli_oracle``
(``oracle``); the package registers them lazily, like the engine modules
``count``, ``charsum`` and ``oracle`` they call, so each runs only when a
command first uses it.  ``main`` finds a handler by its command's name
and ``build_parser`` names none, so ``poset`` compiles none of them, and
``count``, ``table`` and ``check`` never run the oracle's glue.  Their
handlers and ``build_problem``, ``report_payload`` and ``report_text``
are still attributes of this module: ``__getattr__`` serves them from
the module that defines them.

``main`` parses well-formed argv itself (``parse_args``) and imports
``argparse`` only for the rest, in ``build_parser``: help, errors and
the spellings ``parse_args`` leaves out.  Both read one option table.
"""

from __future__ import annotations

import json
import sys
import time
import types
from json.encoder import encode_basestring, encode_basestring_ascii

from . import cli_count, cli_oracle
from .errors import CharvarError, InvalidInputError
from .rootdata import build_root_datum
from .subsystems import build_poset

SCHEMA_VERSION = 1

_CONFIG_KEYS = {
    "schema_version",
    "group",
    "genus",
    "punctures",
    "eigenvalues",
    "classes",
    "overrides",
    "oracle",
    "description",
}


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as err:
        raise InvalidInputError("config-file", f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise InvalidInputError(
            "config-parse",
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}",
        )
    except (ValueError, RecursionError) as err:  # too many digits, not UTF-8, too deep
        raise InvalidInputError("config-parse", f"{path}: {err}")
    if not isinstance(config, dict):
        raise InvalidInputError(
            "config-parse", f"{path}: top level must be a JSON object"
        )
    check_keys(config, _CONFIG_KEYS, "unknown config keys: ")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidInputError(
            "config-field",
            f"schema_version {version!r} is not supported (expected "
            f"{SCHEMA_VERSION})",
        )
    return config


def check_keys(section: dict, allowed: set[str], prefix: str) -> None:
    """Refuse the keys of ``section`` outside ``allowed``, listed after ``prefix``."""
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise InvalidInputError("config-field", prefix + ", ".join(unknown))


def required(config: dict, key: str):
    """``config[key]``; a missing key is a ``config-field`` error."""
    if key not in config:
        raise InvalidInputError("config-field", f"missing required key {key!r}")
    return config[key]


def is_int(value) -> bool:
    """An integer and not a bool (JSON's true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def field_int(config: dict, key: str, default: int | None = None) -> int:
    """``config[key]``, which must be an integer; ``default`` if it is absent."""
    value = required(config, key) if default is None else config.get(key, default)
    if not is_int(value):
        raise InvalidInputError("config-field", f"{key!r} must be an integer")
    return value


def field_str(config: dict, key: str) -> str:
    value = required(config, key)
    if not isinstance(value, str):
        raise InvalidInputError("config-field", f"{key!r} must be a string")
    return value


# ---------------------------------------------------------------------------
# payload / text helpers
# ---------------------------------------------------------------------------


def envelope(command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }


def align(rows: list[list[str]]) -> list[str]:
    if not rows:
        return []
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


class PayloadEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` with the same output, written in one pass.

    With an indent, ``json`` encodes in pure Python through one generator
    per container and one ``write`` per token.  This encoder renders dicts
    with ``str`` keys, lists, ``str``, ``int``, ``bool`` and ``None``
    (everything a payload holds) recursively into one string, honouring
    the indent, separators, key order and ASCII escaping it was built
    with.  Any other value or key type, and an encoding without an indent,
    is left to ``json``'s own encoder: the bytes are always ``json``'s, and
    a value ``json`` cannot encode raises its ``TypeError``.
    """

    def iterencode(self, o, _one_shot=False):
        if self.indent is not None:
            try:
                return [self._text(o)]
            except TypeError:  # a type the recursion leaves to json
                pass
        return super().iterencode(o, _one_shot)

    def _text(self, o) -> str:
        step = self.indent if isinstance(self.indent, str) else " " * self.indent
        string = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        item_separator, key_separator = self.item_separator, self.key_separator
        keys = sorted if self.sort_keys else list
        scalars = {
            str: string, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null",
        }.get
        orders = {}  # a dict's keys -> (key, its encoding and key_separator), in order

        def text(value, newline: str) -> str:
            inner = newline + step
            if type(value) is dict:
                if not value:
                    return "{}"
                names = tuple(value)
                order = orders.get(names)
                if order is None:  # string() raises TypeError on a non-str key
                    order = orders[names] = [
                        (key, string(key) + key_separator) for key in keys(value)
                    ]
                parts = []
                for key, label in order:
                    item = value[key]
                    scalar = scalars(type(item))
                    parts.append(label + (scalar(item) if scalar else text(item, inner)))
                return "{" + inner + (item_separator + inner).join(parts) + newline + "}"
            if type(value) is list:
                if not value:
                    return "[]"
                parts = []
                for item in value:
                    scalar = scalars(type(item))
                    parts.append(scalar(item) if scalar else text(item, inner))
                return "[" + inner + (item_separator + inner).join(parts) + newline + "]"
            raise TypeError(type(value))

        scalar = scalars(type(o))
        return scalar(o) if scalar else text(o, "\n")


def cmd_poset(args) -> tuple[int, dict, str]:
    config = load_config(args.config)
    group = field_str(config, "group")
    rd = build_root_datum(group)
    poset = build_poset(rd)
    # per orbit, from its first node: X^vee/<w Psi> is isomorphic to
    # X^vee/<Psi>, and |W(Psi)| and P_Psi depend only on the type
    by_orbit = []
    for orbit in poset.orbits():
        inv = poset.quotient(orbit[0])
        by_orbit.append(
            (poset.weyl_order(orbit[0]), str(poset.poincare(orbit[0])),
             inv.free_rank, inv.torsion)
        )
    labels = [poset.display_label(i) for i in range(poset.num_nodes)]
    nodes = []
    for i in range(poset.num_nodes):
        orbit = poset.orbit_of(i)
        weyl_order, poincare, free_rank, torsion = by_orbit[orbit]
        nodes.append(
            {
                "index": i,
                "label": labels[i],
                "type": poset.type_label(i),
                "num_roots": len(poset.nodes[i]),
                "weyl_order": weyl_order,
                "orbit": orbit,
                "poincare": poincare,
                "free_rank": free_rank,
                "torsion": list(torsion),
            }
        )
    mobius = []
    for i in range(poset.num_nodes):
        for j, value in poset.mobius_row(i).items():
            mobius.append(
                {
                    "lower": i,
                    "lower_label": labels[i],
                    "upper": j,
                    "upper_label": labels[j],
                    "mu": value,
                }
            )
    payload = envelope("poset")
    payload.update(
        {"group": rd.label, "num_nodes": poset.num_nodes, "nodes": nodes,
         "mobius": mobius}
    )
    rows = [["index", "label", "roots", "|W(Psi)|", "X/<Psi> rank", "torsion", "P_Psi"]]
    for node in nodes:
        rows.append(
            [
                str(node["index"]),
                node["label"],
                str(node["num_roots"]),
                str(node["weyl_order"]),
                str(node["free_rank"]),
                "*".join(f"Z/{d}" for d in node["torsion"]) or "1",
                node["poincare"],
            ]
        )
    lines = [f"closed subsystem poset of {rd.label}: {poset.num_nodes} nodes"]
    lines.extend(align(rows))
    lines.append("nonzero mobius values mu(lower, upper):")
    for entry in mobius:
        lines.append(
            f"  mu({entry['lower_label']} [{entry['lower']}], "
            f"{entry['upper_label']} [{entry['upper']}]) = {entry['mu']}"
        )
    return 0, payload, "\n".join(lines)


# the other commands' names looked up on this module, by defining module
_GLUE = {
    "build_problem": cli_count,
    "report_payload": cli_count,
    "report_text": cli_count,
    "cmd_count": cli_count,
    "cmd_table": cli_count,
    "cmd_check": cli_count,
    "cmd_oracle": cli_oracle,
}


def __getattr__(name: str):
    if name in _GLUE:
        return getattr(_GLUE[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# every option: name -> (type, default, help); ``bool`` is a flag
_OPTIONS = {
    "config": (str, None, "JSON config path"),
    "json": (str, None, "also write a JSON payload to this path"),
    "budget": (
        int, None,
        "budget override: histogram entries of the translate join, "
        "|W|^floor((m-1)/2) + |W|^ceil((m-1)/2) (count, table), or "
        "brute-force enumeration steps (oracle)",
    ),
    "table": (bool, False, "append the diagnostic table"),
    "q": (int, None, "run the oracle at this prime only"),
    "threads": (
        int, None,
        "accepted and checked (>= 1) for compatibility; the count runs in "
        "one process",
    ),
    "seed": (int, 0, "seed for sampled eigenvalue specializations"),
}
# every command: name -> (help, its options in order); --config is required
_COMMANDS = {
    "count": ("evaluate the counting polynomial", ("config", "json", "budget", "table")),
    "poset": (
        "dump the closed-subsystem poset and its mobius values", ("config", "json")
    ),
    "table": (
        "emit the per-subsystem diagnostic table", ("config", "json", "budget")
    ),
    "oracle": (
        "compare the formula against brute-force enumeration",
        ("config", "json", "budget", "q", "threads", "seed"),
    ),
    "check": ("validate the hypotheses without counting", ("config", "json")),
}


def build_parser():
    """The ``argparse`` parser of ``_COMMANDS``; ``argparse`` is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="charvar",
        description=(
            "Point counts of character varieties with regular "
            "monodromy over finite fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            kind, default, option_help = _OPTIONS[name]
            if kind is bool:
                p.add_argument(f"--{name}", action="store_true", help=option_help)
            else:
                p.add_argument(
                    f"--{name}", type=kind, default=default,
                    required=name == "config", help=option_help,
                )
    return parser


def parse_args(argv: list[str]):
    """The arguments of well-formed ``argv``, parsed without ``argparse``.

    Well-formed: a command of ``_COMMANDS``, then some of its options, each
    once and spelled out (``--name value``, or ``--name`` for a flag),
    ``--config`` among them; no value starts with ``-``, and an integer is
    ASCII digits.  Anything else (help, an error, ``--name=value``, an
    abbreviation, a repeat) returns None and is left to ``build_parser``,
    whose namespace for well-formed argv has the same attributes.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    names = _COMMANDS[argv[0]][1]
    values = {name: _OPTIONS[name][1] for name in names}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        name = token[2:]
        if not token.startswith("--") or name not in names or name in given:
            return None
        given.add(name)
        kind = _OPTIONS[name][0]
        if kind is bool:
            values[name] = True
            continue
        value = next(tokens, "-")  # a missing value fails like a dash-led one
        if value.startswith("-"):
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
        values[name] = value
    if "config" not in given:
        return None
    return types.SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv) or build_parser().parse_args(argv)
    # looked up as a module attribute when called: ``cmd_poset`` is defined
    # here, the other handlers come through ``__getattr__``
    handler = getattr(sys.modules[__name__], f"cmd_{args.command}")
    try:
        code, payload, text = handler(args)
    except CharvarError as error:
        print(f"error[{error.code}]: {error}", file=sys.stderr)
        return error.exit_code
    print(text)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True, cls=PayloadEncoder)
                handle.write("\n")
        except OSError as err:
            print(f"error[output-file]: cannot write {args.json}: {err}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    # ``python -m charvar.cli``: the glue modules import this module as
    # ``charvar.cli``, which would otherwise compile it a second time
    sys.modules["charvar.cli"] = sys.modules[__name__]
    sys.exit(main())
