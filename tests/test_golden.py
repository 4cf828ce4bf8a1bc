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
COMMANDS = {
    "verify-upper": ["verify", "upper"],
    "verify-majorant": ["verify", "majorant"],
    "verify-minorant": ["verify", "minorant"],
    "verify-lemmas": ["verify", "lemmas"],
    "profile-n500-float": ["profile", *_WINDOW, "--backend", "float"],
    "profile-n30-exact-csv": ["profile", *_EXACT30],
    "profile-n30-exact-json": ["profile", *_EXACT30, "--format", "json"],
    "simulate-n20-q3-k40": ["simulate", "--n", "20", "--q", "3", "--k", "40",
                            "--walks", "200000", *_STREAMS],
    "simulate-n300-q4-k600": ["simulate", "--n", "300", "--q", "4", "--k", "600",
                              "--walks", "131072", *_STREAMS],
    "simulate-n100-q3-k200": ["simulate", "--n", "100", "--q", "3", "--k", "200",
                              "--walks", "100"],
    "simulate-n300-q3-k400": ["simulate", "--n", "300", "--q", "3", "--k", "400",
                              "--walks", "50"],
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
