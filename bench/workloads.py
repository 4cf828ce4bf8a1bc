"""The benchmark's four workloads, their seeded inputs and their checks.

A workload is a request list.  `plan(name, seed)` draws it from the seed
as plain data; `prepare(specs)` computes every reference (outside the
timed region) and turns each spec into a `Request` whose `run(lib)`
calls the library through its module attributes and whose `check`
compares the output with the reference.

Why each workload exists:

* ``window`` -- ``profile --backend float`` over a_n +- 4 b_n: ROADMAP's
  n = 500, q = 3, k 483..1818 plus seeded (n, q) at n ~ 300, 900, 1800
  and q in {3, 4, 5}, ~100 rows each.  The cutoff profile users draw.
  Work: per-row bound evaluation (`bounds`), per-row TV and row assembly
  (`cli`), one incremental float trajectory (`radial`).  It never touches
  `spectral` k-step inversion or `krawtchouk`, so it is the bypass case
  for spectral-float changes.
* ``sweep`` -- ``verify majorant`` on its default grid and ``verify
  minorant`` for q = 3, 4, 5 with seeded --n-max ~ 300, plus
  `check_majorant` / `check_minorant` float cells at fixed (q, n) that
  are checked against the exact reference.  Float theorem verification:
  every cell goes through `bounds.tv_to_uniform` ->
  `spectral.kstep_distribution(float)`.  Majorant cells lie past the
  cutoff, where the spectral sum engages; minorant cells lie below it,
  where a Krawtchouk table is built and then dropped for powering, so
  both sides of that choice are measured.  `radial` re-powers from k = 0
  on every cell.
* ``exact`` -- ``verify upper``, ``verify lemmas``, ``profile --backend
  exact`` at n <= 30, and the library calls `check_majorant` (auto ->
  exact), `kstep_oracle` and `kstep_distribution(..., "exact")` at seeded
  n in 26..30 and k ~ 250.  The only workload where `Fraction` and
  big-integer arithmetic is the work; float layers sit idle.  Bypass case
  for float-engine and trajectory changes.
* ``simulate`` -- ``simulate --streams 2`` twice: n = 20, q = 3, k = 40
  (inside the oracle's bit budget, so the exact column is filled) and
  n = 300, q = 4, k = 600, 131072 walks (beyond the budget; one
  65536-walk block of draws is 315 MB).  Measures `montecarlo`, memory,
  the repeated sampling in `cmd_simulate`, the oracle run that hits its
  budget, and whether threads trade CPU for wall time.

Inputs vary with the seed only inside narrow bands, so the work per
round stays within a few per cent across seeds.  `float_err_max` is taken
only over fixed reference rows (the n = 500 window, the fixed sweep
cells, the n = 30 exact profile, the n = 20 simulate column), so it does
not depend on the seed.
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

NAMES = ("window", "sweep", "exact", "simulate")

TOL_EXACT = 1e-12  # float TV against the exact reference
TOL_FLOAT = 1e-10  # float TV against the float reference
REL = 1e-9  # closed-form profile columns
PROFILE_COLUMNS = ("c_equiv", "tv_exact", "ub_lemma", "majorant", "minorant",
                   "hora_plus", "hora_minus")
MAJORANT_CS = tuple(0.25 * i for i in range(1, 25))
MAJORANT_CELLS = [(q, n) for q in (3, 4, 5, 6, 7, 8) for n in (10, 20, 30, 40)]
MINORANT_CELLS = [(q, n) for q in (3, 4, 5) for n in (50, 100, 200, 300)]
MINORANT_B, MINORANT_C = 1.0, 3.0
# the profiles whose rows make up float_err_max on window and exact
WINDOW_ANCHOR = ("profile", 500, 3, 483, 1818, 1, "float")
EXACT_ANCHOR = ("profile", 30, 3, 0, 150, 1, "exact")


@dataclass
class Request:
    label: str
    run: Callable  # lib -> output
    check: Callable  # output -> (problems, float errors on reference rows)


# -- plans -------------------------------------------------------------


def _window_args(n, q, rows):
    a = ref.schedule(n, q, 0.0)
    b = n * (q - 1) / (2 * q)
    k_min, k_max = max(0, math.floor(a - 4 * b)), math.ceil(a + 4 * b)
    return ("profile", n, q, k_min, k_max, max(1, round((k_max - k_min) / rows)), "float")


def plan(name, seed):
    """The request specs of one workload, a pure function of the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "window":
        specs = [WINDOW_ANCHOR]
        for base in (300, 900, 1800):
            n = round(base * rng.uniform(0.98, 1.02))
            specs.append(_window_args(n, rng.choice((3, 4, 5)), 100))
    elif name == "sweep":
        specs = [("verify", "majorant")]
        for q in (3, 4, 5):
            specs.append(("verify", "minorant", "--q", q, "--n-max",
                          round(300 * rng.uniform(0.98, 1.02))))
        specs += [("majorant_cells", n, q) for q, n in MAJORANT_CELLS]
        specs += [("minorant_cell", n, q) for q, n in MINORANT_CELLS]
    elif name == "exact":
        specs = [("verify", "upper"), ("verify", "lemmas"), EXACT_ANCHOR]
        n, q = rng.randint(26, 30), rng.choice((3, 4, 5))
        specs.append(("profile", n, q, 0, math.ceil(ref.schedule(n, q, 4.0)), 1, "exact"))
        for _ in range(3):
            n, q, k = rng.randint(26, 30), rng.choice((3, 4, 5)), rng.randint(240, 260)
            specs += [("oracle", n, q, k), ("spectral_exact", n, q, k)]
            specs.append(("check_majorant", rng.randint(26, 30), rng.choice((3, 4, 5)),
                          rng.choice((0.5, 1.0, 1.5, 2.0, 2.5, 3.0))))
    elif name == "simulate":
        specs = [("simulate", 20, 3, 40, 200000, rng.randrange(2 ** 32)),
                 ("simulate", 300, 4, 600, 131072, rng.randrange(2 ** 32))]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(specs)
    return specs


# -- running -----------------------------------------------------------


def run_cli(lib, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lib.cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


# -- profile -----------------------------------------------------------


def _profile(spec):
    _, n, q, k_min, k_max, k_step, backend = spec
    ks = list(range(k_min, k_max + 1, k_step))
    columns = ref.profile_columns(n, q, ks)
    anchored = spec in (WINDOW_ANCHOR, EXACT_ANCHOR)
    if backend == "exact" or anchored:
        exact = ref.exact_tvs(n, q, ks)
        tvs = {k: float(v) for k, v in exact.items()}
    else:
        exact = None
        tvs = ref.float_tvs(n, q, ks)
    argv = ["profile", "--n", n, "--q", q, "--k-min", k_min, "--k-max", k_max,
            "--k-step", k_step, "--backend", backend]

    def check(output):
        rc, text = output
        lines = text.splitlines()
        if rc != 0 or not lines or lines[0] != "k," + ",".join(PROFILE_COLUMNS):
            return [f"rc={rc}, header {lines[:1]}"], []
        if len(lines) - 1 != len(ks):
            return [f"{len(lines) - 1} rows, expected {len(ks)}"], []
        problems, errors = [], []
        for line, k in zip(lines[1:], ks):
            cells = line.split(",")
            row = dict(zip(PROFILE_COLUMNS, map(float, cells[1:])))
            bad = [c for c, v in columns[k].items() if not _close(row[c], v)]
            tv = row["tv_exact"]
            if exact is None:
                if abs(tv - tvs[k]) > TOL_FLOAT:
                    bad.append("tv_exact")
            else:
                if (backend == "exact" and tv != tvs[k]) or abs(tv - tvs[k]) > TOL_EXACT:
                    bad.append("tv_exact")
                if anchored:
                    errors.append(ref.float_error(tv, exact[k]))
            if int(cells[0]) != k or bad:
                problems.append(f"k={k}: {bad or cells[0]}")
        return problems, errors

    return Request(" ".join(map(str, argv)), lambda lib: run_cli(lib, argv), check)


# -- verify ------------------------------------------------------------


def _lemma_lines():
    qs = (2, 3, 4, 5, 6)
    counts = [
        ("lemma-3.2", 2 * 100000, 0),
        ("lemma-3.5", sum(m + (m - 1) // 2 + 1 for m in range(2, 201)), 0),
        ("lemma-4.1", sum(n + 1 for q in qs for n in range(2, 31)), 0),
        ("lemma-4.2", sum(n + 2 for q in qs for n in range(1, 31)), 0),
        ("lemma-4.3(1)", sum(65 * (n + 1) for q in qs for n in range(1, 11)), 0),
        ("lemma-4.3(2)",
         201 * sum((n - 2) * (q - 1) >= 2 for q in qs for n in range(1, 21)),
         sum((n - 2) * (q - 1) < 2 for q in qs for n in range(1, 21))),
    ]
    return [f"{name}: {c} checks, 0 violations, {s} skipped" for name, c, s in counts]


def _minorant_line(q, n_max):
    grid = [n for n in ref.sweep_grid(n_max) if math.log(n * (q - 1)) >= MINORANT_C]
    bound = 1.0 - (4 * q + MINORANT_B) * math.exp(-MINORANT_C)
    n_star = None
    for n in reversed(grid):
        k = math.floor(ref.schedule(n, q, -MINORANT_C))
        if ref.float_tvs(n, q, [k])[k] < bound:
            break
        n_star = n
    return (f"minorant: {len(grid)} points, empirical threshold n*={n_star}, "
            "0 diagnostic violations")


def _verify(spec):
    suite = spec[1]
    if suite == "upper":
        expected = ["upper: 45150 checks, 0 violations, 0 skipped"]
    elif suite == "majorant":
        cells = 6 * 40 - 3  # q = 3..8, n = 1..40 minus (q=3, n<3) and (q=4, n<2)
        expected = [f"majorant: {24 * cells} checks, 0 violations, 3 skipped"]
    elif suite == "lemmas":
        expected = _lemma_lines()
    else:
        expected = [_minorant_line(spec[3], spec[5])]
    argv = ["verify", *spec[1:]]

    def check(output):
        rc, text = output
        if rc != 0 or text.splitlines() != expected:
            return [f"rc={rc}, output {text!r}, expected {expected}"], []
        return [], []

    return Request(" ".join(map(str, argv)), lambda lib: run_cli(lib, argv), check)


# -- simulate ----------------------------------------------------------


def _simulate(spec):
    _, n, q, k, walks, seed = spec
    argv = ["simulate", "--n", n, "--q", q, "--k", k, "--walks", walks,
            "--seed", seed, "--streams", 2]
    if n <= 30:  # n = 20 fits the oracle's bit budget, n = 300 exceeds it
        num = dict(ref.exact_trajectory(n, q, k))[k]
        exact = ref.exact_masses(n, q, k, num)
        expect = [float(v) for v in exact]
    else:
        exact, expect = None, dict(ref.float_trajectory(n, q, k))[k].tolist()
    uni = ref.uniform_masses(n, q)

    def check(output):
        rc, text = output
        lines = text.splitlines()
        if rc != 0 or len(lines) != n + 3 or lines[0] != "l,count,freq,stderr,exact_mass":
            return [f"rc={rc}, {len(lines)} lines"], []
        problems, errors, counts, freqs = [], [], [], []
        for l, line in enumerate(lines[1:n + 2]):
            cl, count, freq, stderr, cell = line.split(",")
            count = int(count)
            f = count / walks
            counts.append(count)
            freqs.append(f)
            mean = walks * expect[l]  # the count is binomial(walks, p_l)
            ok = (int(cl) == l and float(freq) == f
                  and _close(float(stderr), math.sqrt(f * (1 - f) / walks))
                  and abs(count - mean) <= 8 * math.sqrt(mean) + 8)
            if exact is None:
                ok = ok and cell == ""
            else:
                ok = ok and float(cell) == expect[l]
                errors.append(ref.float_error(float(cell), exact[l]))
            if not ok:
                problems.append(f"class {l}: {line}")
        tag, tv, _ = lines[-1].split(",", 2)
        if sum(counts) != walks:
            problems.append("counts do not sum to the walk count")
        if tag != "# empirical_tv" or not _close(float(tv), 0.5 * math.fsum(
                abs(f - u) for f, u in zip(freqs, uni))):
            problems.append(lines[-1])
        return problems, errors

    return Request(" ".join(map(str, argv)), lambda lib: run_cli(lib, argv), check)


# -- library calls -----------------------------------------------------


def _exact_kstep(spec):
    op, n, q, k = spec
    expected = tuple(ref.exact_masses(n, q, k, dict(ref.exact_trajectory(n, q, k))[k]))

    def run(lib):
        params = lib.scheme.make_scheme(n, q)
        if op == "oracle":
            return tuple(lib.radial.kstep_oracle(params, k).mass)
        return tuple(lib.spectral.kstep_distribution(params, k, "exact").mass)

    def check(masses):
        return ([] if masses == expected else ["masses differ from the reference"]), []

    return Request(" ".join(map(str, spec)), run, check)


def _exact_majorant(spec):
    _, n, q, c = spec
    k = math.ceil(ref.schedule(n, q, c))
    expected = (k, float(ref.exact_tvs(n, q, [k])[k]), True)

    def run(lib):
        r = lib.bounds.check_majorant(lib.scheme.make_scheme(n, q), c)  # auto -> exact
        return r.k, r.tv_exact, r.satisfied

    def check(out):
        return ([] if out == expected else [f"{out} != {expected}"]), []

    return Request(" ".join(map(str, spec)), run, check)


def _float_cells(spec):
    """Float check_majorant / check_minorant cells against the exact TV."""
    op, n, q = spec
    if op == "majorant_cells":
        cells = [(c, math.ceil(ref.schedule(n, q, c))) for c in MAJORANT_CS]

        def run(lib):
            params = lib.scheme.make_scheme(n, q)
            return [(r.k, r.tv_exact) for r in (
                lib.bounds.check_majorant(params, c, "ceil", "float") for c, _ in cells)]
    else:
        cells = [(MINORANT_C, math.floor(ref.schedule(n, q, -MINORANT_C)))]

        def run(lib):
            r = lib.bounds.check_minorant(lib.scheme.make_scheme(n, q), MINORANT_C,
                                          MINORANT_B, MINORANT_C, "float")
            return [(r.k, r.tv_exact)]
    exact = ref.exact_tvs(n, q, [k for _, k in cells])

    def check(out):
        problems, errors = [], []
        for (c, k), (got_k, tv) in zip(cells, out):
            if got_k != k or abs(tv - exact[k]) > TOL_EXACT:
                problems.append(f"c={c}: k={got_k} tv={tv!r}, "
                                f"expected k={k} tv={float(exact[k])!r}")
            errors.append(ref.float_error(tv, exact[k]))
        return problems, errors

    return Request(" ".join(map(str, spec)), run, check)


_BUILDERS = {"profile": _profile, "verify": _verify, "simulate": _simulate,
             "oracle": _exact_kstep, "spectral_exact": _exact_kstep,
             "check_majorant": _exact_majorant,
             "majorant_cells": _float_cells, "minorant_cell": _float_cells}


def prepare(specs):
    """One Request per spec, references computed now."""
    return [_BUILDERS[spec[0]](spec) for spec in specs]
