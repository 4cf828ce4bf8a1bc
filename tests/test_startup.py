"""Start-up: numpy loads at the first float operation, not at import.

The test process has numpy loaded already, so each check runs a fresh
interpreter with src/ on its path.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hamming_cutoff import cli, make_scheme, radial

SRC = Path(__file__).resolve().parent.parent / "src"

# the integer-only paths: an exact suite, an exact table, --help, a usage
# error (exit 2) and a refusal planned before any array (exit 3)
INTEGER_ONLY = [
    ["verify", "upper", "--n-max", "3", "--k-max", "3"],
    ["table", "--n", "3", "--q", "3"],
    ["--help"],
    ["verify", "majorant", "--c", "746"],
    ["profile", "--n", "3", "--q", "3", "--k-min", "1000000000000",
     "--k-max", "1000000000000", "--backend", "float"],
]
FLOAT_PROFILE = ["profile", "--n", "3", "--q", "3", "--k-max", "5", "--backend", "float"]

# prints, as JSON, whether numpy is loaded after `import hamming_cutoff.cli`,
# then (exit code, stdout, numpy loaded) after `cli.main` on each argv
_RUN_COMMANDS = """
import contextlib, io, json, sys
from hamming_cutoff import cli
imported = "numpy" in sys.modules
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps([imported, runs]))
"""

# one thread per scheme, more threads than cores, makes its first float
# call at once, switching threads every microsecond; prints whether numpy
# was loaded before they started, then each thread's (k, tv) pairs
_RACE = """
import json, sys, threading
from hamming_cutoff import make_scheme, radial
schemes = [make_scheme(*nq) for nq in json.loads(sys.argv[1])]
loaded = "numpy" in sys.modules
start = threading.Barrier(len(schemes))
results = [None] * len(schemes)
def run(i):
    start.wait()
    results[i] = list(radial.kstep_tv(schemes[i], range(50), "float"))
threads = [threading.Thread(target=run, args=(i,)) for i in range(len(schemes))]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
print(json.dumps([loaded, results]))
"""


def fresh(code, *args):
    """stdout of `code` run by a fresh interpreter importing from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_integer_only_commands_never_load_numpy():
    imported, runs = fresh(_RUN_COMMANDS, json.dumps([*INTEGER_ONLY, FLOAT_PROFILE]))
    assert not imported
    assert [(code, loaded) for code, _, loaded in runs[:-1]] == [
        (0, False), (0, False), (0, False), (2, False), (3, False)]
    assert runs[0][1] == "upper: 60 checks, 0 violations, 0 skipped\n"
    # the first float operation loads numpy, and the rows match this process's
    code, stdout, loaded = runs[-1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(FLOAT_PROFILE) == 0
    assert (code, stdout, loaded) == (0, out.getvalue(), True)


def test_concurrent_first_float_calls_match_one_thread():
    schemes = [(40, 3), (30, 5), (12, 2), (7, 9), (40, 3), (1, 4), (25, 3), (30, 5)]
    loaded, results = fresh(_RACE, json.dumps(schemes))
    assert not loaded
    want = [[list(kt) for kt in radial.kstep_tv(make_scheme(*nq), range(50), "float")]
            for nq in schemes]
    assert results == want
