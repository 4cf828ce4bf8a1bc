import json
import math

import pytest

from hamming_cutoff.cli import PROFILE_HEADER, main


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


def test_profile_usage_errors(capsys):
    code, _, err = run(["profile", "--n", "2", "--q", "3", "--k-max", "4",
                        "--k-min", "9"], capsys)
    assert code == 2
    code, _, _ = run(["profile", "--n", "0", "--q", "3", "--k-max", "4"], capsys)
    assert code == 2


def test_profile_resource_cap(capsys):
    code, _, err = run(
        ["profile", "--n", "40", "--q", "6", "--k-max", "400", "--backend", "exact",
         "--bit-budget", "2000"],
        capsys,
    )
    assert code == 3
    assert "resource cap" in err


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
    import hamming_cutoff.bounds as bounds_mod

    real = bounds_mod.kstep_tv

    def tight(params, ks, backend, bit_budget=10 ** 6):
        return real(params, ks, backend, 64 if backend == "exact" else bit_budget)

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


def test_simulate_resource_cap(capsys):
    code, _, err = run(
        ["simulate", "--n", "3", "--q", "3", "--k", "1000000", "--walks", "100000"],
        capsys,
    )
    assert code == 3


def test_table_dump(capsys):
    code, out, _ = run(["table", "--n", "2", "--q", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,l,value"
    assert "1,1,1/4" in lines
    assert "2,1,-1/2" in lines


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
