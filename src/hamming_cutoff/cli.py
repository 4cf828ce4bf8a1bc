"""Command-line front end: profiles, verification suites, simulation.

Machine-readable output only (CSV or JSON, no plotting).  Exit codes are
stable across commands: 0 success, 1 a verified inequality violation was
found, 2 usage error, 3 resource budget exceeded.
"""

import argparse
import contextlib
import itertools
import json
import math
import sys
import textwrap

from . import bounds, verify
from .krawtchouk import build_table, phi_row, scaled_rows
from .montecarlo import SimConfig, plugin_tv, simulate
from .radial import DEFAULT_BIT_BUDGET, kstep_excess, kstep_tv
from .scheme import ParameterError, ResourceBudgetError, make_scheme
from .spectral import kstep_rounded

PROFILE_HEADER = "k,c_equiv,tv_exact,ub_lemma,majorant,minorant,hora_plus,hora_minus"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _open(out: str):
    if out in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", newline="")


def _sqrt(value: float, log_value) -> float:
    """sqrt(value); in logs (log_value() = log value) below the normal
    float range, where value has lost digits or is 0 but its root not."""
    return math.sqrt(value) if value >= sys.float_info.min else math.exp(log_value() / 2)


def _profile_row(params, k: int, tv: float, b: float) -> dict:
    c, q = bounds.offset_from_step(params, k), params.q
    log_sum = bounds.lemma_log_sum(params, k)  # once per row, for the bound and its log
    rhs, log_rhs = bounds._lemma_rhs_of_log(log_sum), log_sum - math.log(4)
    return {
        "k": k,
        "c_equiv": c,
        "tv_exact": tv,
        # past e**700 the bound is inf, but its root is finite up to e**1421
        "ub_lemma": (_sqrt(rhs, lambda: log_rhs) if rhs < math.inf
                     else bounds._exp(log_rhs / 2)),
        "majorant": (_sqrt(bounds.majorant_value(q, c),  # there expm1(e**-c) = e**-c
                           lambda: math.log(bounds.majorant_constant(q)) - c)
                     if bounds.majorant_in_scope(params) else math.nan),
        "minorant": bounds.minorant_value(params.q, b, c),
        "hora_plus": bounds.hora_limit(c, "plus"),
        "hora_minus": bounds.hora_limit(c, "minus"),
    }


def _json_cell(x):
    """x, or for a non-finite float the text the CSV prints for it, so the
    JSON stays standard (RFC 8259 has no NaN or Infinity)."""
    return _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def _profile_text(rows, fmt: str, head: dict):
    """The profile as chunks of text, one per row, so no row is held once
    written: the CSV lines, or json.dumps(dict(head, rows=[...]), indent=2)."""
    if fmt == "csv":
        yield PROFILE_HEADER + "\n"
        keys = PROFILE_HEADER.split(",")[1:]
        for r in rows:
            yield ",".join([str(r["k"])] + [_fmt(r[key]) for key in keys]) + "\n"
        return
    yield json.dumps(head, indent=2, allow_nan=False)[:-2] + ',\n  "rows": [\n'  # less "\n}"
    sep = ""
    for r in rows:
        cells = {key: _json_cell(value) for key, value in r.items()}
        yield sep + textwrap.indent(json.dumps(cells, indent=2, allow_nan=False), "    ")
        sep = ",\n"
    yield "\n  ]\n}\n"


def cmd_profile(args) -> int:
    params = make_scheme(args.n, args.q)
    if args.k_min > args.k_max or args.k_min < 0 or args.k_step < 1:
        raise ParameterError("need 0 <= k-min <= k-max and k-step >= 1")
    bounds.minorant_value(params.q, args.b, 0.0)  # reject a bad b before any step
    backend = bounds.resolve_backend(params, args.backend)
    ks = range(args.k_min, args.k_max + 1, args.k_step)
    if backend == "exact":  # tv = sum|e| / (2 q**n D), by correctly rounded int division
        den = 2 * params.size
        tvs = ((k, sum(map(abs, e)) / (den * params.degree ** k))
               for k, e in kstep_excess(params, ks, args.bit_budget))
    else:
        tvs = kstep_tv(params, ks, backend, args.bit_budget)
    first = next(tvs)  # a refused plan raises here, before any output
    rows = (_profile_row(params, k, float(tv), args.b)
            for k, tv in itertools.chain((first,), tvs))
    head = {"n": params.n, "q": params.q, "backend": backend, "b": args.b}
    # each row is written as it is computed; a walk whose bit price
    # passes its budget partway keeps the rows before it (exit 3)
    with _open(args.out) as fh:
        for text in _profile_text(rows, args.format, head):
            fh.write(text)
    return 0


def _report_failures(name, report) -> None:
    for v in report.violations:
        print(
            f"FAIL {v.which}: n={v.n} q={v.q} k={v.k} c={v.c} "
            f"lhs={v.lhs!r} rhs={v.rhs!r}",
            file=sys.stderr,
        )
    print(
        f"{name}: {report.checked} checks, {len(report.violations)} violations, "
        f"{len(report.skipped)} skipped"
    )


# the flags each verify suite reads, each with the keyword it fills
_SUITE_FLAGS = {
    "upper": {"n_max": "n_max", "q": "q_values", "k_max": "k_max"},
    "majorant": {"q": "q_values", "n_max": "n_max", "c": "c_values",
                 "rounding": "rounding"},
    "minorant": {"q": "q", "n_max": "n_grid", "c": "c", "c0": "c0", "b": "b"},
    "lemmas": {},
}


def _suite_kwargs(args) -> dict:
    """The keyword arguments of the flags the user gave; the suite holds
    the defaults.  A repeated flag passes a tuple, but minorant takes one
    value of each; a flag the suite does not read is a usage error."""
    reads, kwargs = _SUITE_FLAGS[args.suite], {}
    for name in dict.fromkeys(n for flags in _SUITE_FLAGS.values() for n in flags):
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value is None:
            continue
        if name not in reads:
            raise ParameterError(f"verify {args.suite} does not read {flag}")
        if isinstance(value, list):
            if args.suite == "minorant" and len(value) > 1:
                raise ParameterError(f"verify minorant takes one {flag}")
            value = value[0] if args.suite == "minorant" else tuple(value)
        kwargs[reads[name]] = value
    return kwargs


def cmd_verify(args) -> int:
    kwargs = _suite_kwargs(args)
    if args.n_max is not None and args.n_max < 1:
        raise ParameterError("--n-max must be >= 1")
    if args.k_max is not None and args.k_max < 0:
        raise ParameterError("--k-max must be >= 0")
    if args.suite in ("upper", "majorant"):  # looked up per call: a patched suite runs
        report = getattr(verify, "verify_" + args.suite)(**kwargs)
        _report_failures(args.suite, report)
        return 0 if report.ok else 1
    if args.suite == "minorant":
        if "n_grid" in kwargs:  # --n-max N: the default grid up to N
            kwargs["n_grid"] = verify.default_sweep_grid(1, kwargs["n_grid"])
        sweep = verify.minorant_sweep(**kwargs)
        for rec in sweep.diagnostic_violations:
            print(
                f"FAIL minorant-diagnostics: n={rec.n} k={rec.k} pi_B={rec.pi_B!r} "
                f"nu_B={rec.nu_B!r} markov_lb={rec.markov_lb!r} tv={rec.tv!r}",
                file=sys.stderr,
            )
        print(
            f"minorant: {len(sweep.records)} points, empirical threshold "
            f"n*={sweep.n_star}, {len(sweep.diagnostic_violations)} diagnostic violations"
        )
        return 0 if not sweep.diagnostic_violations else 1
    reports = verify.verify_lemmas()
    for report in reports:
        _report_failures(report.name, report)
    return 0 if all(r.ok for r in reports) else 1


def cmd_simulate(args) -> int:
    if args.streams < 1:
        raise ParameterError("need at least one stream")
    params = make_scheme(args.n, args.q)
    result = simulate(SimConfig(params, args.k, args.walks, args.seed))
    tv = plugin_tv(result)
    exact = kstep_rounded(params, args.k)  # the exact column: None past both engines' bits
    freq = result.point_estimate.mass
    with _open(args.out) as fh:
        if args.format == "csv":
            fh.write("l,count,freq,stderr,exact_mass\n")
            for l in range(params.n + 1):
                exact_cell = _fmt(exact[l]) if exact is not None else ""
                fh.write(f"{l},{result.counts[l]},{_fmt(freq[l])},"
                         f"{_fmt(result.stderr[l])},{exact_cell}\n")
            fh.write(f"# empirical_tv,{_fmt(tv.estimate)},{tv.note}\n")
        else:
            payload = {
                "n": params.n,
                "q": params.q,
                "k": args.k,
                "walks": args.walks,
                "seed": args.seed,
                "counts": [int(v) for v in result.counts],
                "freq": [float(v) for v in freq],
                "stderr": [float(v) for v in result.stderr],
                "exact_mass": exact,
                "empirical_tv": tv.estimate,
                "empirical_tv_note": tv.note,
            }
            fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_table(args) -> int:
    params = make_scheme(args.n, args.q)
    # both gates run before any output: the exact rows' bit budget, the
    # float table's range
    if args.backend == "exact":
        scaled_rows(params)
        rows = (phi_row(params, j, "exact") for j in range(params.n + 1))
        cell = str
    else:
        rows = (row.tolist() for row in build_table(params, "float").phi)
        cell = _fmt
    with _open(args.out) as fh:
        fh.write("j,l,value\n")
        for j, row in enumerate(rows):
            fh.write("".join(f"{j},{l},{cell(v)}\n" for l, v in enumerate(row)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamming-cutoff",
        description="Exact mixing profiles and cutoff bounds for walks on H(n, q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="k-grid of exact TV with every bound column")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int, default=0)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--k-step", dest="k_step", type=int, default=1)
    p.add_argument("--backend", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.add_argument("--b", type=float, default=1.0, help="minorant offset parameter")
    p.add_argument("--bit-budget", dest="bit_budget", type=int, default=DEFAULT_BIT_BUDGET,
                   help="exact backend: cap on the priced bits of the integer excess num*q**n "
                   "- w*(n(q-1))**k, checked before each k is walked (>= 0; exit 3 past it)")
    p.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="run a bound/lemma verification suite")
    v.add_argument("suite", choices=("upper", "majorant", "minorant", "lemmas"))
    v.add_argument("--n-max", dest="n_max", type=int, default=None)
    v.add_argument("--q", type=int, action="append")
    v.add_argument("--k-max", dest="k_max", type=int, default=None)
    v.add_argument("--c", type=float, action="append")
    v.add_argument("--c0", type=float)
    v.add_argument("--b", type=float)
    v.add_argument("--rounding", choices=("ceil", "exact"))
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="seeded Monte Carlo on the distance chain")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--walks", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--streams", type=int, default=1,
                   help="has no effect (>= 1); kept only because the benchmark's "
                   "simulate workload passes it")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("table", help="dump the spherical-function table as CSV")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--backend", choices=("exact", "float"), default="exact",
                   help="exact: each phi_j(l) as a fraction; float: to 17 significant digits")
    t.add_argument("--out", default="-")
    t.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
