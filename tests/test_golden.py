"""Golden outputs: each command's exit code, stdout and stderr, pinned.

Each file in tests/golden/ holds one command's argv, exit code, stdout
and stderr, as `cli.main` gives them in process.  An output longer than
`INLINE_LIMIT` bytes is stored as its sha256, size, first line and last
line.  A change that moves any of these outputs fails the test; if the
change is meant, regenerate the files it moves and say which, and why:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

rewrites the named files (every file when no name is given).
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hamming_cutoff import cli

GOLDEN = Path(__file__).with_name("golden")
INLINE_LIMIT = 16 * 1024

_WINDOW = ["--n", "500", "--q", "3", "--k-min", "483", "--k-max", "1818"]
_EXACT30 = ["--n", "30", "--q", "3", "--k-max", "150", "--backend", "exact"]
_STREAMS = ["--streams", "2", "--seed", "1"]
_SIM20 = ["simulate", "--n", "20", "--q", "3", "--k", "40", "--walks", "200000", *_STREAMS]
_SIM300 = ["simulate", "--n", "300", "--q", "4", "--k", "600", "--walks", "131072", *_STREAMS]
COMMANDS = {
    "verify-upper": ["verify", "upper"],
    "verify-majorant": ["verify", "majorant"],
    "verify-majorant-exact": ["verify", "majorant", "--rounding", "exact"],
    # every cell past the roundoff floor, each proven by the spectral tail
    # certificate with no exact walk
    "verify-majorant-c700": ["verify", "majorant", "--c", "700"],
    "verify-minorant": ["verify", "minorant"],
    # the README's four empirical minorant thresholds
    "verify-minorant-q3-b1": ["verify", "minorant", "--q", "3", "--b", "1.0",
                              "--c0", "3.0", "--c", "3.0"],
    "verify-minorant-q3-b0": ["verify", "minorant", "--q", "3", "--b", "0.0",
                              "--c0", "3.0", "--c", "3.0"],
    "verify-minorant-q4-b1": ["verify", "minorant", "--q", "4", "--b", "1.0",
                              "--c0", "4.0", "--c", "4.0"],
    "verify-minorant-q5-b1": ["verify", "minorant", "--q", "5", "--b", "1.0",
                              "--c0", "4.5", "--c", "4.5"],
    "verify-lemmas": ["verify", "lemmas"],
    "profile-n500-float": ["profile", *_WINDOW, "--backend", "float"],
    "profile-n500-float-wide": ["profile", "--n", "500", "--q", "3", "--k-min", "480",
                                "--k-max", "1820", "--backend", "float"],
    "profile-n1800-q5-float": ["profile", "--n", "1800", "--q", "5", "--k-max", "9000",
                               "--k-step", "7", "--backend", "float"],
    "profile-n2-q3-json": ["profile", "--n", "2", "--q", "3", "--k-max", "10",
                           "--format", "json"],
    "profile-n3-q5-c800": ["profile", "--n", "3", "--q", "5", "--k-min", "963",
                           "--k-max", "963", "--backend", "float"],
    "profile-n30-exact-csv": ["profile", *_EXACT30],
    "profile-n30-exact-json": ["profile", *_EXACT30, "--format", "json"],
    "simulate-n20-q3-k40": _SIM20,
    "simulate-n20-q3-k40-json": [*_SIM20, "--format", "json"],
    "simulate-n300-q4-k600": _SIM300,
    "simulate-n300-q4-k600-json": [*_SIM300, "--format", "json"],
    "simulate-n100-q3-k200": ["simulate", "--n", "100", "--q", "3", "--k", "200",
                              "--walks", "100"],
    "simulate-n300-q3-k400": ["simulate", "--n", "300", "--q", "3", "--k", "400",
                              "--walks", "50"],
    "table-n200-q3-exact": ["table", "--n", "200", "--q", "3"],
    "table-n30-q3-float": ["table", "--n", "30", "--q", "3", "--backend", "float"],
}


def _text(text: str):
    """text itself, or its digest, size and end lines past INLINE_LIMIT."""
    data = text.encode()
    if len(data) <= INLINE_LIMIT:
        return text
    lines = text.splitlines()
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data),
            "first": lines[0], "last": lines[-1]}


def record(argv) -> dict:
    """The golden record of one in-process `cli.main(argv)` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": _text(out.getvalue()), "stderr": _text(err.getvalue())}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_prints_its_golden_output(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["argv"] == COMMANDS[name]
    assert record(COMMANDS[name]) == want


def test_every_golden_file_has_a_command():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(COMMANDS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(COMMANDS):
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(record(COMMANDS[name]), indent=1) + "\n")
        print(f"wrote {path}")
