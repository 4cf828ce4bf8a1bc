import json
import math
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest

from hamming_cutoff import (
    class_weights,
    cli,
    krawtchouk,
    make_scheme,
    phi_hypergeometric,
    radial,
    spectral,
    verify,
)
from hamming_cutoff.bounds import majorant_value, minorant, upper_bound_lemma_rhs
from hamming_cutoff.cli import PROFILE_HEADER, main
from hamming_cutoff.scheme import ParameterError, ResourceBudgetError


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_csv_example(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = main(["profile", "--n", "2", "--q", "3", "--k-max", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == PROFILE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(11))
    by_k = {int(r[0]): r for r in rows}
    assert by_k[2][2] == "0.19444444444444445"  # 7/36 at 17 significant digits
    assert float(by_k[0][2]) == 1 - 1 / 9


def test_profile_k0_tv_example(capsys):
    code, out, _ = run(["profile", "--n", "1", "--q", "3", "--k-max", "1"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert float(rows[0].split(",")[2]) == 2 / 3


def test_profile_rows_strictly_increasing_and_bounds_consistent(capsys):
    code, out, _ = run(
        ["profile", "--n", "8", "--q", "3", "--k-max", "40", "--k-step", "3"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ks = [int(r[0]) for r in rows]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    for r in rows:
        k, c, tv = int(r[0]), float(r[1]), float(r[2])
        assert 0.0 <= tv <= 1.0
        assert abs(c - (2 * 3 * k / (8 * 2) - math.log(16))) < 1e-12
        assert tv <= float(r[3]) + 1e-12  # tv <= sqrt of upper-lemma rhs


def test_profile_backends_agree(tmp_path):
    a = tmp_path / "exact.csv"
    b = tmp_path / "float.csv"
    assert main(["profile", "--n", "6", "--q", "4", "--k-max", "12",
                 "--backend", "exact", "--out", str(a)]) == 0
    assert main(["profile", "--n", "6", "--q", "4", "--k-max", "12",
                 "--backend", "float", "--out", str(b)]) == 0
    for la, lb in zip(a.read_text().splitlines()[1:], b.read_text().splitlines()[1:]):
        tva, tvb = float(la.split(",")[2]), float(lb.split(",")[2])
        assert abs(tva - tvb) < 1e-12


def test_exact_profile_prints_the_rounded_exact_tv(capsys):
    # the exact profile divides the summed integer excess by 2 q**n D**k,
    # a correctly rounded int division, so every row is bit for bit the
    # float of the exact Fraction tv, also where D**k is past the float range
    p = make_scheme(7, 4)
    code, out, _ = run(["profile", "--n", "7", "--q", "4", "--k-max", "300",
                        "--backend", "exact"], capsys)
    assert code == 0
    tvs = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert tvs == [float(tv) for _, tv in radial.kstep_tv(p, range(301), "exact")]


def test_profile_json_round_trip(capsys):
    code, out, _ = run(
        ["profile", "--n", "3", "--q", "3", "--k-max", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["q"] == 3
    assert [r["k"] for r in payload["rows"]] == list(range(6))
    # round-trip: emitting the parsed rows reproduces the same floats
    assert json.loads(json.dumps(payload)) == payload


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not standard JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, cell", [
    (["--n", "2", "--q", "3", "--k-max", "10"], "nan"),  # the README's example
    (["--n", "500", "--q", "3", "--k-max", "0", "--backend", "float"], "inf"),
    (["--n", "3", "--q", str(10 ** 400), "--k-max", "3", "--backend", "float"], "-inf"),
], ids=["nan", "inf", "-inf"])
def test_profile_json_is_standard_past_the_float_range(argv, cell, capsys):
    # a non-finite cell is written as the text the CSV prints for it, and
    # every finite cell as the CSV's float
    code, out, _ = run(["profile", *argv, "--format", "json"], capsys)
    assert code == 0
    rows = _strict_json(out)["rows"]
    code, csv, _ = run(["profile", *argv], capsys)
    assert code == 0
    lines = csv.splitlines()
    keys = lines[0].split(",")
    assert len(rows) == len(lines) - 1
    for row, line in zip(rows, lines[1:]):
        assert list(row) == keys
        for value, text in zip(row.values(), line.split(",")):
            assert value == text if isinstance(value, str) else value == float(text)
    assert cell in [value for row in rows for value in row.values()]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_profile_keeps_its_rows_when_a_walk_passes_its_budget(to_file, tmp_path, monkeypatch,
                                                              capsys):
    # rows are written as they are computed: a walk refused after three
    # rows leaves the header and those rows, and exits 3 (the exact
    # profile reads the excess; one summing to q**n D**k is a tv of 1/2)
    def three_rows_then_refuse(params, ks, bit_budget):
        for k in list(ks)[:3]:
            yield k, [params.size * params.degree ** k]
        raise ResourceBudgetError("exact excess exceeded 10 bits at n=6, k=3")

    monkeypatch.setattr(cli, "kstep_excess", three_rows_then_refuse)
    out_file = tmp_path / "profile.csv"
    argv = ["profile", "--n", "6", "--q", "3", "--k-max", "9"]
    code, out, err = run(argv + (["--out", str(out_file)] if to_file else []), capsys)
    if to_file:
        assert out == ""
        out = out_file.read_text()
    assert code == 3
    assert err == "resource cap: exact excess exceeded 10 bits at n=6, k=3\n"
    lines = out.splitlines()
    assert lines[0] == PROFILE_HEADER
    assert [line.split(",")[:3] for line in lines[1:]] == [[str(k), mock.ANY, "0.5"]
                                                          for k in range(3)]


@pytest.mark.parametrize("argv, code", [
    (["--bit-budget", "-1"], 2),
    (["--k-min", "1000000000000", "--k-max", "1000000000000", "--backend", "float"], 3),
], ids=["usage", "budget"])
def test_profile_refused_before_its_first_row_creates_no_file(argv, code, tmp_path, capsys):
    out_file = tmp_path / "profile.csv"
    assert run(["profile", "--n", "3", "--q", "3", "--k-max", "5", *argv,
                "--out", str(out_file)], capsys)[:2] == (code, "")
    assert not out_file.exists()


def test_profile_usage_errors(capsys):
    code, _, err = run(["profile", "--n", "2", "--q", "3", "--k-max", "4",
                        "--k-min", "9"], capsys)
    assert code == 2
    code, _, _ = run(["profile", "--n", "0", "--q", "3", "--k-max", "4"], capsys)
    assert code == 2


@pytest.mark.parametrize("b", ["-1", "nan", "inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_minorant_offset_outside_the_theorem_usage_error(b, fmt, capsys,
                                                                  monkeypatch):
    # the same domain and message as bounds.minorant, decided before any
    # step is taken; json never sees Infinity
    with pytest.raises(ParameterError) as exc:
        minorant(3, float(b), 1.0)
    monkeypatch.setattr(cli, "kstep_tv", lambda *a: pytest.fail("walked first"))
    code, out, err = run(["profile", "--n", "5", "--q", "3", "--k-max", "3",
                          "--b", b, "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {exc.value}\n"


def test_profile_past_the_float_range_of_the_limit_profile(capsys):
    # c_equiv = 2500 at k = 3000 on H(3, 5), and -1612 at k = 0 for q =
    # 10**700: e**(|c|/2) has no float there and the hora columns read 1
    code, out, err = run(["profile", "--n", "3", "--q", "5", "--k-min", "2996",
                          "--k-max", "3000", "--k-step", "4", "--backend", "float"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(",0,1")
    code, out, err = run(["profile", "--n", "3", "--q", str(10 ** 700), "--k-max", "0",
                          "--backend", "float"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(",1,0")


def test_profile_bound_roots_past_the_normal_float_range(capsys):
    # on H(3, 5) the majorant leaves the normal float range at c ~ 707 and
    # is 0 past c ~ 745, the lemma bound already at k ~ 850, while their
    # roots stay normal floats: those roots are taken in logs, and a row
    # whose bound is a normal float keeps its plain square root
    p = make_scheme(3, 5)
    lam = [Fraction(p.degree - j * p.q, p.degree) for j in range(4)]
    w = class_weights(p).w
    code, out, err = run(["profile", "--n", "3", "--q", "5", "--k-min", "600",
                          "--k-max", "1300", "--k-step", "7", "--backend", "float"], capsys)
    assert (code, err) == (0, "")
    rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == 101
    for k, c, _, ub, maj, *_ in rows:
        k = int(k)
        rhs = upper_bound_lemma_rhs(p, k, "float")
        exact = sum(w[j] * lam[j] ** (2 * k) for j in range(1, 4)) / 4
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert math.isclose(ub, math.exp(log_exact / 2), rel_tol=1e-12), k
        assert math.isclose(maj, 0.5 * math.exp(-c / 2), rel_tol=1e-12), k
        if rhs >= sys.float_info.min:
            assert ub == math.sqrt(rhs), k
        if majorant_value(5, c) >= sys.float_info.min:
            assert maj == math.sqrt(majorant_value(5, c)), k
    assert rows[0][3] == math.sqrt(upper_bound_lemma_rhs(p, 600, "float"))  # both normal
    assert rows[-1][4] < math.sqrt(sys.float_info.min)  # c ~ 1,081: both in logs


def test_profile_takes_one_lemma_log_sum_per_row(monkeypatch, capsys):
    # rows past the float range (k >= ~850 on H(3, 5)) root the lemma
    # bound in logs; the row's one log-sum serves the bound and its root
    from hamming_cutoff import bounds

    calls = []
    real = bounds.lemma_log_sum
    monkeypatch.setattr(bounds, "lemma_log_sum", lambda p, k: calls.append(k) or real(p, k))
    code, out, _ = run(["profile", "--n", "3", "--q", "5", "--k-min", "600",
                        "--k-max", "1300", "--k-step", "7", "--backend", "float"], capsys)
    assert code == 0
    assert calls == list(range(600, 1301, 7))


def test_profile_lemma_root_past_the_top_of_the_float_range(capsys):
    # on H(1000, 3) the lemma bound (3**1000 - 1)/4 at k = 0 is past the
    # float range, but its root ~1.8e238 is not; the majorant at c <= -6
    # stays inf, its log form holding only for large c
    code, out, err = run(["profile", "--n", "1000", "--q", "3", "--k-min", "0",
                          "--k-max", "100", "--k-step", "100", "--backend", "float"], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["0", "100"]
    log_root = (math.log(3 ** 1000 - 1) - math.log(4)) / 2
    assert math.isclose(float(rows[0][3]), math.exp(log_root), rel_tol=1e-12)
    assert all(math.isfinite(float(r[3])) and r[4] == "inf" for r in rows)
    assert upper_bound_lemma_rhs(make_scheme(1000, 3), 100, "float") == math.inf


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--k-max", "10000000000", "--backend", "float"],
    ["--n", "3", "--k-min", "10000000000", "--k-max", "10000000000", "--backend", "float"],
    ["--n", "1", "--k-min", "1000000000000", "--k-max", "1000000000000", "--backend", "exact"],
    ["--n", "3", "--k-min", "1000000000000", "--k-max", "1000000000000", "--backend", "exact"],
], ids=["float-grid", "float-steps", "exact-n1", "exact-n3"])
def test_profile_refuses_unending_walks_before_the_first_step(argv, monkeypatch, capsys):
    # a 10**10-step grid used to be built in memory, 10**10 narrow float
    # steps and 10**12 exact ones used to run for seconds or until killed
    monkeypatch.setattr(radial, "float_power_step", lambda *a: pytest.fail("stepped"))
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    start = time.perf_counter()
    code, out, err = run(["profile", "--q", "3", *argv], capsys)
    assert (code, out) == (3, "") and time.perf_counter() - start < 5
    assert re.fullmatch(r"resource cap: (float pass|exact excess walk) of \d+ (class-)?steps "
                        r"exceeds the (step )?budget \d+\n", err)


def test_profile_resource_cap(capsys):
    code, _, err = run(
        ["profile", "--n", "40", "--q", "6", "--k-max", "400", "--backend", "exact",
         "--bit-budget", "2000"],
        capsys,
    )
    assert code == 3
    assert "resource cap" in err


def test_profile_float_step_budget_exits_3_at_once(monkeypatch, capsys):
    # 10**12 steps of H(3, 3) used to run until killed
    monkeypatch.setattr(radial, "float_power_step", lambda *a: pytest.fail("stepped"))
    start = time.perf_counter()
    code, out, err = run(["profile", "--n", "3", "--q", "3", "--k-min", str(10 ** 12),
                          "--k-max", str(10 ** 12), "--backend", "float"], capsys)
    assert (code, out) == (3, "") and time.perf_counter() - start < 5
    # 4 * 10**12 class-steps, less those a checkpoint of H(3, 3) may spare
    assert re.fullmatch(r"resource cap: float pass of (4000000000000|3999999\d{6}) "
                        r"class-steps exceeds the budget 100000000000\n", err)


def test_profile_negative_bit_budget_usage_error(capsys):
    # a negative budget used to walk one step and exit 3 ("exceeded -5 bits")
    code, out, err = run(
        ["profile", "--n", "6", "--q", "3", "--k-max", "5", "--backend", "exact",
         "--bit-budget", "-5"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "usage error: bit budget must be >= 0, got -5\n"
    # a budget of 0 is valid while no step is taken
    code, out, _ = run(
        ["profile", "--n", "6", "--q", "3", "--k-max", "0", "--backend", "exact",
         "--bit-budget", "0"],
        capsys,
    )
    assert code == 0 and out.startswith("k,")


@pytest.mark.parametrize("argv", [
    ["--n", "40", "--q", "3", "--k-max", "5"],  # auto -> float
    ["--n", "4", "--q", "3", "--k-max", "5", "--backend", "float"],
])
def test_profile_negative_bit_budget_usage_error_on_the_float_backend(argv, capsys):
    # the float backend reads no budget, and used to accept a negative one
    code, out, err = run(["profile", *argv, "--bit-budget", "-5"], capsys)
    assert code == 2
    assert out == ""
    assert err == "usage error: bit budget must be >= 0, got -5\n"


def test_verify_upper_exit0(capsys):
    code, out, _ = run(
        ["verify", "upper", "--n-max", "10", "--q", "3", "--k-max", "50"], capsys
    )
    assert code == 0
    assert "0 violations" in out


def test_verify_majorant_q2_usage_error(capsys):
    code, _, err = run(["verify", "majorant", "--q", "2"], capsys)
    assert code == 2
    assert "usage error" in err


def test_verify_majorant_c_outside_the_theorems_usage_error(capsys):
    # the theorems need 0 < c < inf; c = -1 used to be checked and exit 0
    for c in ("-1", "0", "nan", "inf"):
        code, _, err = run(["verify", "majorant", "--n-max", "4", "--c", c], capsys)
        assert code == 2, c
        assert "usage error" in err


def test_verify_majorant_below_the_float_roundoff_floor(capsys):
    # at c = 100 the bound (~1e-43) is far below (float roundoff)**2; the
    # float tv**2 "violations" there are re-decided exactly and pass
    code, out, err = run(["verify", "majorant", "--n-max", "12", "--c", "100"], capsys)
    assert code == 0, err
    assert "69 checks, 0 violations" in out


def test_verify_majorant_past_the_normal_float_range_usage_error(capsys):
    # C (e**(e**-c) - 1) is subnormal past c ~ 707 and 0.0 by c ~ 746, where
    # an exact tv**2 > 0 used to be reported as a violation of it; at c =
    # 1e308 the float pass used to walk ~1e308 steps
    for q, c in (("5", "744"), ("3", "746"), ("5", "746"), ("5", "1e308")):
        start = time.perf_counter()
        code, out, err = run(["verify", "majorant", "--q", q, "--n-max", "4", "--c", c],
                             capsys)
        assert (code, out) == (2, ""), (q, c)
        assert "below the normal float range" in err and "FAIL" not in err
        assert time.perf_counter() - start < 5
    code, out, err = run(["verify", "majorant", "--q", "5", "--n-max", "4", "--c", "700"],
                         capsys)
    assert (code, out, err) == (0, "majorant: 4 checks, 0 violations, 0 skipped\n", "")


def test_verify_majorant_genuine_violations_still_reported(monkeypatch, capsys):
    from fractions import Fraction

    import hamming_cutoff.bounds as bounds_mod

    # a constant that makes every bound false; at c = 1 the float tv**2
    # decides it, at c = 100 (tv**2 near 1e-50, the n = 1 float tv 0.0)
    # only the exact recheck can
    monkeypatch.setattr(
        bounds_mod, "majorant_constant", lambda q: Fraction(1, 10 ** 80)
    )
    for c in ("1", "100"):
        code, out, err = run(
            ["verify", "majorant", "--q", "5", "--n-max", "6", "--c", c], capsys
        )
        assert code == 1, c
        assert "FAIL thm-q5: n=6 q=5" in err and "6 checks, 6 violations" in out
        assert all(f"FAIL thm-q5: n={n} q=5" in err for n in range(1, 7)), c


def test_verify_majorant_recheck_past_the_bit_budget_exits_3(monkeypatch, capsys):
    from fractions import Fraction

    import hamming_cutoff.bounds as bounds_mod

    real = bounds_mod.kstep_tv

    def tight(params, ks, backend, bit_budget=10 ** 6):
        return real(params, ks, backend, 64 if backend == "exact" else bit_budget)

    # at c = 100 the tail certificate proves every cell of the true
    # majorant; a constant of 10**-80 leaves them all to the exact recheck
    monkeypatch.setattr(bounds_mod, "majorant_constant", lambda q: Fraction(1, 10 ** 80))
    monkeypatch.setattr(bounds_mod, "kstep_tv", tight)
    code, out, err = run(["verify", "majorant", "--n-max", "12", "--c", "100"], capsys)
    assert code == 3
    assert "resource cap" in err and "FAIL" not in err


def test_verify_size_flags_below_their_minimum_usage_error(capsys):
    # 0 and negatives used to fall back to the default grid or run no cells
    for suite in ("upper", "majorant", "minorant", "lemmas"):
        for flags in (["--n-max", "0"], ["--n-max", "-3"], ["--k-max", "-1"],
                      ["--n-max", "0", "--k-max", "0"]):
            code, out, err = run(["verify", suite, *flags], capsys)
            assert code == 2, (suite, flags)
            assert "usage error" in err and out == ""


@pytest.mark.parametrize("args, flag", [
    (["lemmas", "--q", "3", "--n-max", "5", "--c", "1", "--k-max", "2"], "--n-max"),
    (["lemmas", "--c0", "1"], "--c0"),
    (["majorant", "--k-max", "3", "--b", "7", "--c0", "1"], "--k-max"),
    (["majorant", "--b", "7"], "--b"),
    (["minorant", "--rounding", "exact", "--k-max", "4"], "--k-max"),
    (["minorant", "--rounding", "exact"], "--rounding"),
    (["upper", "--c", "1", "--rounding", "exact", "--b", "2"], "--c"),
    (["upper", "--c0", "2"], "--c0"),
    (["minorant", "--q", "3", "--q", "4"], "--q"),
    (["minorant", "--c", "1", "--c", "2"], "--c"),
])
def test_verify_flag_the_suite_does_not_read_usage_error(args, flag, capsys):
    # each used to be ignored: the suite ran its default grid and exited 0
    code, out, err = run(["verify", *args], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error") and f"{flag}\n" in err


@pytest.mark.parametrize("argv", [["--n-max", "2", "--q", "3", "--k-max", "1000000"],
                                  ["--n-max", "3000", "--q", "3", "--k-max", "3"]])
def test_verify_upper_past_the_bit_budget_exits_3_before_its_first_step(argv, monkeypatch,
                                                                       capsys):
    # both used to run until killed
    monkeypatch.setattr(verify, "kstep_excess", lambda *a: pytest.fail("walked"))
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    t0 = time.perf_counter()
    code, out, err = run(["verify", "upper", *argv], capsys)
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: verify upper at n=")


def test_verify_upper_k_max_0_runs_only_k_0(capsys):
    code, out, _ = run(["verify", "upper", "--k-max", "0"], capsys)
    assert code == 0
    assert "upper: 150 checks, 0 violations" in out


def test_verify_majorant_small(capsys):
    code, out, _ = run(
        ["verify", "majorant", "--q", "5", "--n-max", "6", "--c", "1.0",
         "--c", "3.0"],
        capsys,
    )
    assert code == 0


def test_verify_minorant_small(capsys):
    code, out, _ = run(
        ["verify", "minorant", "--q", "3", "--c0", "2.0", "--c", "2.0",
         "--n-max", "60"],
        capsys,
    )
    assert code == 0
    assert "n*=" in out


def test_verify_minorant_default_grid_at_extreme_offsets(capsys):
    # the default grid (no --n-max) at offsets whose e**c has no float
    code, out, err = run(["verify", "minorant", "--q", "3", "--c", "inf", "--c0", "inf"],
                         capsys)
    assert (code, out) == (2, "") and "finite" in err
    code, out, err = run(["verify", "minorant", "--q", "3", "--c", "1e308", "--c0", "inf"],
                         capsys)
    assert (code, err) == (0, "")
    assert out == "minorant: 0 points, empirical threshold n*=None, 0 diagnostic violations\n"


def test_verify_minorant_reports_diagnostic_violations_with_exit_1(monkeypatch, capsys):
    import hamming_cutoff.verify as verify_mod
    from hamming_cutoff.verify import SweepRecord, SweepReport

    rec = SweepRecord(n=5, k=3, tv=0.5, bound=0.25, satisfied=True, pi_B=0.2,
                      nu_B=0.375, markov_lb=0.4, markov_ok=False, event_ok=True,
                      chebyshev_ub=1.0, chebyshev_ok=True, chebyshev_applicable=True)
    monkeypatch.setattr(verify_mod, "minorant_sweep",
                        lambda **kw: SweepReport(3, 1.0, 3.0, 3.0, [rec], 5, [rec]))
    code, out, err = run(["verify", "minorant"], capsys)
    assert code == 1
    assert err == ("FAIL minorant-diagnostics: n=5 k=3 pi_B=0.2 nu_B=0.375 "
                   "markov_lb=0.4 tv=0.5\n")
    assert out == "minorant: 1 points, empirical threshold n*=5, 1 diagnostic violations\n"


def test_verify_lemmas_exit0(capsys):
    code, out, _ = run(["verify", "lemmas"], capsys)
    assert code == 0
    assert out.count("0 violations") == 6


def test_simulate_deterministic_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--n", "3", "--q", "3", "--k", "4", "--walks", "20000",
            "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--streams", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_class1_count_and_exact_join(capsys):
    code, out, _ = run(
        ["simulate", "--n", "2", "--q", "3", "--k", "1", "--walks", "1000"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,count,freq,stderr,exact_mass"
    row1 = lines[2].split(",")
    assert row1[1] == "1000"
    assert float(row1[4]) == 1.0  # exact mass joined alongside


def test_simulate_samples_once(monkeypatch, capsys):
    import hamming_cutoff.cli as cli_mod
    import hamming_cutoff.montecarlo as mc_mod

    calls = []
    real = mc_mod.simulate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "simulate", counted)
    monkeypatch.setattr(mc_mod, "simulate", counted)
    code, _, _ = run(
        ["simulate", "--n", "3", "--q", "3", "--k", "4", "--walks", "500"], capsys
    )
    assert code == 0
    assert len(calls) == 1


def test_simulate_json(capsys):
    code, out, _ = run(
        ["simulate", "--n", "2", "--q", "3", "--k", "2", "--walks", "5000",
         "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert code == 0
    assert sum(payload["counts"]) == 5000
    assert payload["exact_mass"] == [0.25, 0.25, 0.5]


def test_simulate_leaves_exact_mass_empty_past_the_oracle_budget(capsys):
    # the benchmark's large request plans 1.81 M chain and 1.53 M spectral
    # bits, both past the default budget of 10**6
    args = ["simulate", "--n", "300", "--q", "4", "--k", "600", "--walks", "50"]
    code, out, err = run(args, capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:-1]
    assert len(rows) == 301 and all(row.endswith(",") for row in rows)
    code, out, _ = run(args + ["--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["exact_mass"] is None and sum(payload["counts"]) == 50


@pytest.mark.parametrize("n, q, k, walks", [(300, 4, 600, 131072), (3, 10 ** 400, 500, 100)],
                         ids=["n300", "q10e400"])
def test_simulate_plans_its_exact_column_before_any_step(monkeypatch, n, q, k, walks, capsys):
    # past both exact engines' bits the column stays empty with no exact
    # step, float pass or spectral power taken
    for owner, name in ((radial, "int_power_step"), (radial, "float_lockstep"),
                        (spectral, "_spectral_numerators")):
        monkeypatch.setattr(owner, name, lambda *a: pytest.fail("computed the law"))
    args = ["simulate", "--n", str(n), "--q", str(q), "--k", str(k), "--walks", str(walks)]
    code, out, err = run(args, capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:-1]
    assert len(rows) == n + 1 and all(row.endswith(",") for row in rows)
    code, out, _ = run(args + ["--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["exact_mass"] is None
    assert sum(payload["counts"]) == walks


@pytest.mark.parametrize("n, q, k", [(100, 3, 200), (3, 10 ** 400, 5)],
                         ids=["n100", "q10e400"])
def test_simulate_fills_the_exact_column_within_the_oracle_budget(n, q, k, capsys):
    # below its budget the column is kstep_oracle's masses, q past the
    # float range included (a float log of q would overflow)
    args = ["simulate", "--n", str(n), "--q", str(q), "--k", str(k), "--walks", "100"]
    exact = [float(v) for v in radial.kstep_oracle(make_scheme(n, q), k).mass]
    code, out, err = run(args, capsys)
    assert (code, err) == (0, "")
    cells = [row.split(",")[4] for row in out.splitlines()[1:-1]]
    assert cells == [format(v, ".17g") for v in exact]
    code, out, _ = run(args + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out)["exact_mass"] == exact


def test_simulate_resource_cap(capsys):
    code, _, err = run(
        ["simulate", "--n", "3", "--q", "3", "--k", "1000000", "--walks", "100000"],
        capsys,
    )
    assert code == 3


def test_simulate_step_plan_exits_3_with_no_output(monkeypatch, capsys):
    # walks*k = 10**9 is within the draw budget; 10**9 sampler steps are not
    import numpy as np

    def no_generator(*args, **kwargs):
        raise AssertionError("a refused request built a generator")

    monkeypatch.setattr(np.random, "Philox", no_generator)
    code, out, err = run(
        ["simulate", "--n", "3", "--q", "3", "--k", "1000000000", "--walks", "1"], capsys
    )
    assert code == 3
    assert out == ""
    assert "step budget" in err


def test_table_backend_auto_is_a_usage_error():
    # `table` has one default, exact; `auto` is not a table backend
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "2", "--q", "3", "--backend", "auto"])
    assert exc.value.code == 2


def test_table_dump(capsys):
    code, out, _ = run(["table", "--n", "2", "--q", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,l,value"
    assert "1,1,1/4" in lines
    assert "2,1,-1/2" in lines


def test_exact_table_streams_its_rows_without_a_whole_table(monkeypatch, capsys):
    # each row is phi_row's, over the integer rows; build_table is never called
    def refuse(*args):
        raise AssertionError("built a whole table")

    monkeypatch.setattr(cli, "build_table", refuse)
    monkeypatch.setattr(krawtchouk, "build_table", refuse)
    p = make_scheme(8, 3)
    want = "".join(f"{j},{l},{phi_hypergeometric(p, j, l)}\n"
                   for j in range(9) for l in range(9))
    assert run(["table", "--n", "8", "--q", "3"], capsys) == (0, "j,l,value\n" + want, "")


@pytest.mark.parametrize("argv", [["--n", "4096", "--q", "3"],
                                  ["--n", "100000", "--q", "3", "--backend", "float"]],
                         ids=["exact", "float"])
def test_refused_table_prints_nothing_and_creates_no_file(argv, tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, out, err = run(["table", *argv, "--out", str(out_file)], capsys)
    assert (code, out) == (3, "") and "resource cap" in err
    assert not out_file.exists()


def test_usage_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--n", "2"])  # missing required --q/--k-max
    assert exc.value.code == 2


def test_verify_reports_violations_with_exit_1(monkeypatch, capsys):
    import hamming_cutoff.verify as verify_mod
    from hamming_cutoff.verify import SuiteReport, Violation

    def fake(*args, **kwargs):
        report = SuiteReport("upper", checked=1)
        report.violations.append(Violation("upper-lemma", 3, 3, 5, None, 0.9, 0.1))
        return report

    monkeypatch.setattr(verify_mod, "verify_upper", fake)
    code, out, err = run(["verify", "upper"], capsys)
    assert code == 1
    assert "FAIL upper-lemma" in err and "n=3" in err and "k=5" in err
    assert "1 violations" in out


def test_verify_forwards_only_the_flags_given(monkeypatch, capsys):
    import hamming_cutoff.verify as verify_mod
    from hamming_cutoff.verify import SuiteReport

    seen = []

    def fake(**kwargs):
        seen.append(kwargs)
        return SuiteReport("fake")

    monkeypatch.setattr(verify_mod, "verify_upper", fake)
    monkeypatch.setattr(verify_mod, "verify_majorant", fake)
    assert main(["verify", "upper"]) == 0
    assert main(["verify", "majorant"]) == 0
    assert main(["verify", "upper", "--q", "4", "--q", "5", "--k-max", "7"]) == 0
    assert main(["verify", "majorant", "--n-max", "6", "--c", "2", "--rounding", "exact"]) == 0
    assert seen == [
        {},
        {},
        {"q_values": (4, 5), "k_max": 7},
        {"n_max": 6, "c_values": (2.0,), "rounding": "exact"},
    ]
