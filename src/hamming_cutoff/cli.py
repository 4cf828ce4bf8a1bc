"""Command-line front end: profiles, verification suites, simulation.

Machine-readable output only (CSV or JSON, no plotting).  Exit codes are
stable across commands: 0 success, 1 a verified inequality violation was
found, 2 usage error, 3 resource budget exceeded.
"""

import argparse
import json
import math
import sys

from . import bounds, verify
from .krawtchouk import build_table
from .montecarlo import SimConfig, plugin_tv, simulate
from .radial import kstep_oracle, kstep_tv
from .scheme import ParameterError, ResourceBudgetError, make_scheme

PROFILE_HEADER = "k,c_equiv,tv_exact,ub_lemma,majorant,minorant,hora_plus,hora_minus"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write(text: str, out: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _profile_row(params, k: int, tv: float, b: float) -> dict:
    c = bounds.offset_from_step(params, k)
    rhs = bounds.upper_bound_lemma_rhs(params, k, "float")
    return {
        "k": k,
        "c_equiv": c,
        "tv_exact": tv,
        "ub_lemma": math.sqrt(rhs) if math.isfinite(rhs) else math.inf,
        "majorant": (math.sqrt(bounds.majorant_value(params.q, c))
                     if bounds.majorant_in_scope(params) else math.nan),
        "minorant": 1.0 - (4 * params.q + b) * math.exp(-c),
        "hora_plus": bounds.hora_limit(c, "plus"),
        "hora_minus": bounds.hora_limit(c, "minus"),
    }


def cmd_profile(args) -> int:
    params = make_scheme(args.n, args.q)
    if args.k_min > args.k_max or args.k_min < 0 or args.k_step < 1:
        raise ParameterError("need 0 <= k-min <= k-max and k-step >= 1")
    backend = bounds.resolve_backend(params, args.backend)
    ks = range(args.k_min, args.k_max + 1, args.k_step)
    rows = [
        _profile_row(params, k, float(tv), args.b)
        for k, tv in kstep_tv(params, ks, backend, args.bit_budget)
    ]
    if args.format == "csv":
        lines = [PROFILE_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    [str(r["k"])]
                    + [_fmt(r[key]) for key in PROFILE_HEADER.split(",")[1:]]
                )
            )
        _write("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "n": params.n,
            "q": params.q,
            "backend": backend,
            "b": args.b,
            "rows": rows,
        }
        _write(json.dumps(payload, indent=2) + "\n", args.out)
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


def cmd_verify(args) -> int:
    if args.n_max is not None and args.n_max < 1:
        raise ParameterError("--n-max must be >= 1")
    if args.k_max is not None and args.k_max < 0:
        raise ParameterError("--k-max must be >= 0")
    rc = 0
    if args.suite == "upper":
        report = verify.verify_upper(
            30 if args.n_max is None else args.n_max,
            tuple(args.q or (2, 3, 4, 5, 6)),
            300 if args.k_max is None else args.k_max,
        )
        _report_failures("upper", report)
        rc = 0 if report.ok else 1
    elif args.suite == "majorant":
        report = verify.verify_majorant(
            tuple(args.q or (3, 4, 5, 6, 7, 8)),
            40 if args.n_max is None else args.n_max,
            tuple(args.c or [0.25 * i for i in range(1, 25)]),
            args.rounding,
        )
        _report_failures("majorant", report)
        rc = 0 if report.ok else 1
    elif args.suite == "minorant":
        q = (args.q or [3])[0]
        sweep = verify.minorant_sweep(
            q=q,
            b=args.b,
            c0=args.c0,
            c=(args.c or [min(args.c0, 3.0)])[0],
            n_grid=(None if args.n_max is None
                    else verify.default_sweep_grid(1, args.n_max)),
        )
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
        rc = 0 if not sweep.diagnostic_violations else 1
    elif args.suite == "lemmas":
        reports = verify.verify_lemmas()
        for report in reports:
            _report_failures(report.name, report)
        rc = 0 if all(r.ok for r in reports) else 1
    else:
        raise ParameterError(f"unknown suite {args.suite!r}")
    return rc


def cmd_simulate(args) -> int:
    params = make_scheme(args.n, args.q)
    cfg = SimConfig(params, args.k, args.walks, args.seed, args.streams)
    result = simulate(cfg)
    tv = plugin_tv(result)
    exact = None
    try:
        exact = [float(v) for v in kstep_oracle(params, args.k).mass]
    except ResourceBudgetError:
        pass
    freq = result.counts / cfg.walks
    if args.format == "csv":
        lines = ["l,count,freq,stderr,exact_mass"]
        for l in range(params.n + 1):
            exact_cell = _fmt(exact[l]) if exact is not None else ""
            lines.append(
                f"{l},{result.counts[l]},{_fmt(freq[l])},"
                f"{_fmt(result.stderr[l])},{exact_cell}"
            )
        lines.append(f"# empirical_tv,{_fmt(tv.estimate)},{tv.note}")
        _write("\n".join(lines) + "\n", args.out)
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
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    params = make_scheme(args.n, args.q)
    table = build_table(params, args.backend if args.backend != "auto" else "exact")
    lines = ["j,l,value"]
    for j in range(params.n + 1):
        for l in range(params.n + 1):
            v = table.phi[j][l]
            cell = str(v) if table.backend == "exact" else _fmt(float(v))
            lines.append(f"{j},{l},{cell}")
    _write("\n".join(lines) + "\n", args.out)
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
    p.add_argument("--bit-budget", dest="bit_budget", type=int, default=10 ** 6,
                   help="exact backend: cap on the total bits of the integer class-mass "
                   "numerators over (n(q-1))**k (exit 3 past it)")
    p.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="run a bound/lemma verification suite")
    v.add_argument("suite", choices=("upper", "majorant", "minorant", "lemmas"))
    v.add_argument("--n-max", dest="n_max", type=int, default=None)
    v.add_argument("--q", type=int, action="append")
    v.add_argument("--k-max", dest="k_max", type=int, default=None)
    v.add_argument("--c", type=float, action="append")
    v.add_argument("--c0", type=float, default=3.0)
    v.add_argument("--b", type=float, default=1.0)
    v.add_argument("--rounding", choices=("ceil", "exact"), default="ceil")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="seeded Monte Carlo on the distance chain")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--walks", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--streams", type=int, default=1)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("table", help="dump the spherical-function table as CSV")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--backend", choices=("auto", "exact", "float"), default="auto")
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
