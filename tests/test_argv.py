"""``cli.parse_args`` parses well-formed argv exactly as ``argparse`` does.

``cli.main`` parses argv itself when it is well formed and leaves the rest
(help, errors, ``--name=value``, abbreviations, repeats) to
``cli.build_parser``.  Whenever the fast path accepts an argv, ``argparse``
must accept it too and give a namespace with the same attributes.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar import cli

COMMANDS = list(cli._COMMANDS)
OPTIONS = list(cli._OPTIONS)


def argparse_vars(argv):
    """``vars`` of argparse's namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


# values argparse reads differently or refuses: empty, dash-led, signed,
# padded, non-ASCII digits, underscores, option and command names
ODD_VALUES = st.sampled_from(
    ["", "-", "-5", "+3", " 7", "7 ", "٣", "²", "1_0", "--json", "-h", "count", "é"]
) | st.text(max_size=4)
INTEGERS = st.sampled_from(["0", "007", "12"]) | st.integers(0, 10**30).map(str)
# a trailing token: help, an empty or a stray positional argument
TAILS = ["-h", "--help", "", "x"]
PATHS = st.sampled_from(["cfg.json", "a=b", "out dir/x.json", "count"])


@st.composite
def option_tokens(draw, names):
    """One option of ``names`` (or another, or help) in some spelling."""
    if draw(st.integers(0, 4)):
        name = draw(st.sampled_from(names))
    else:
        name = draw(st.sampled_from(OPTIONS + ["help", "bogus"]))
    kind = cli._OPTIONS.get(name, (bool,))[0]
    form = draw(st.sampled_from(["spelled"] * 9 + ["abbreviated", "equals", "no value"]))
    if draw(st.integers(0, 3)):
        value = draw(INTEGERS if kind is int else PATHS)
    else:
        value = draw(ODD_VALUES)
    if form == "abbreviated":
        return [f"--{name[:draw(st.integers(1, max(1, len(name) - 1)))]}"]
    if form == "equals":
        return [f"--{name}={value}"]
    if form == "no value" or kind is bool:
        return [f"--{name}"]
    return [f"--{name}", value]


@st.composite
def argvs(draw):
    """Mostly well-formed argv: a command, --config, more of its options."""
    if draw(st.integers(0, 9)):
        command = draw(st.sampled_from(COMMANDS))
    else:
        command = draw(st.sampled_from(["-h", "", "cou", "bogus"]))
    names = list(cli._COMMANDS.get(command, ("", ("config",)))[1])
    options = [["--config", draw(PATHS)]] if draw(st.integers(0, 9)) else []
    options += draw(st.lists(option_tokens(names), max_size=3))
    options = draw(st.permutations(options))
    tail = [] if draw(st.integers(0, 4)) else [draw(st.sampled_from(TAILS))]
    return [command] + [token for tokens in options for token in tokens] + tail


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_fast_path_agrees_with_argparse(argv):
    fast = cli.parse_args(argv)
    if fast is not None:
        assert vars(fast) == argparse_vars(argv)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_option_of_every_command_takes_the_fast_path(command):
    """Each of the command's options once, in the parser's order and reversed."""
    options = []
    for k, name in enumerate(cli._COMMANDS[command][1]):
        kind = cli._OPTIONS[name][0]
        if kind is bool:
            options.append([f"--{name}"])
        else:
            options.append([f"--{name}", f"00{k}" if kind is int else f"path{k}"])
    for order in (options, options[::-1]):
        argv = [command] + [token for tokens in order for token in tokens]
        fast = cli.parse_args(argv)
        assert fast is not None
        assert vars(fast) == argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["count"],
        ["count", "--json", "out.json"],
        ["count", "--config", "a", "--config", "b"],
        ["count", "--conf", "a"],
        ["count", "--config=a"],
        ["count", "--config"],
        ["count", "--config", "-a"],
        ["count", "--config", "a", "--budget", "-5"],
        ["oracle", "--config", "a", "--seed", "+3"],
        ["oracle", "--config", "a", "--q", "٣"],
        ["oracle", "--config", "a", "--budget", "9" * 5000],
        ["poset", "--config", "a", "--budget", "3"],
        ["count", "--config", "a", "extra"],
        ["count", "-h"],
    ],
)
def test_everything_else_is_left_to_argparse(argv):
    assert cli.parse_args(argv) is None
