"""Property test: every fuzzed CLI call exits 0/1/2/3, never a traceback.

Each example is a command line of small valid values in which at most
one value is replaced by an invalid one (out of range, non-finite or
malformed).  Sizes stay small (n <= 12, walks <= 10**4, streams <= 4) so
no example is slow or starts more than a few threads.  `verify lemmas`
takes no size argument and runs for seconds, so `tests/test_cli.py`
covers it instead.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamming_cutoff.cli import main

junk = st.sampled_from(["", "x", "1e3x", "--"])


def ints(lo, hi, bad):
    """(valid, invalid) strategies: integers in [lo, hi], or one of `bad`."""
    return st.integers(lo, hi).map(str), st.sampled_from([str(v) for v in bad])


def words(good, bad):
    return st.sampled_from(good), st.sampled_from(bad)


N, Q = ints(1, 12, (0, -2)), ints(2, 6, (0, 1, -3))
REAL = words(["0.25", "0.5", "1", "2.5", "3"], ["0", "-1", "7", "nan", "inf", "-inf"])
FORMAT = words(["csv", "json"], ["xml"])
BACKEND = words(["auto", "exact", "float"], ["spectral"])

# (flag, (valid, invalid), required)
COMMANDS = {
    "profile": [
        ("--n", N, True),
        ("--q", Q, True),
        ("--k-min", ints(0, 40, (-1,)), False),
        ("--k-max", ints(0, 60, (-1,)), True),
        ("--k-step", ints(1, 5, (0, -1)), False),
        ("--backend", BACKEND, False),
        ("--format", FORMAT, False),
        ("--b", REAL, False),
        ("--bit-budget", words(["64", "1000000"], ["0", "-1"]), False),
    ],
    "verify": [
        ("--n-max", ints(1, 12, (0, -2)), True),
        ("--q", Q, False),
        ("--k-max", ints(0, 30, (-1,)), False),
        ("--c", REAL, False),
        ("--c0", REAL, False),
        ("--b", REAL, False),
        ("--rounding", words(["ceil", "exact"], ["floor"]), False),
    ],
    "simulate": [
        ("--n", N, True),
        ("--q", Q, True),
        ("--k", ints(0, 40, (-1,)), True),
        ("--walks", ints(1, 10_000, (0, -1)), True),
        ("--seed", words(["0", "7"], ["-1", str(2 ** 64)]), False),
        ("--streams", ints(1, 4, (0, -1)), False),
        ("--format", FORMAT, False),
    ],
    "table": [
        ("--n", N, True),
        ("--q", Q, True),
        ("--backend", BACKEND, False),
    ],
}
HEADS = [["profile"], ["verify", "upper"], ["verify", "majorant"],
         ["verify", "minorant"], ["verify", "bogus"], ["simulate"], ["table"]]


@st.composite
def command_lines(draw):
    head = draw(st.sampled_from(HEADS))
    fields = [f for f in COMMANDS[head[0]] if f[2] or draw(st.booleans())]
    broken = draw(st.none() | st.integers(0, len(fields) - 1))
    args = list(head)
    for i, (flag, (good, bad), _) in enumerate(fields):
        args += [flag, draw(bad | junk if i == broken else good)]
    return args


@settings(max_examples=300, deadline=None)
@given(command_lines())
# each of these raised a traceback, or exited 0, once
@example(["verify", "minorant", "--n-max", "9", "--q", "1"])
@example(["verify", "majorant", "--n-max", "4", "--c", "nan"])
@example(["verify", "majorant", "--n-max", "4", "--c", "inf", "--rounding", "exact"])
@example(["verify", "majorant", "--n-max", "4", "--c", "-1"])
@example(["verify", "upper", "--n-max", "0"])
@example(["verify", "minorant", "--n-max", "0"])
def test_cli_exits_with_a_documented_code(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in err.getvalue()
