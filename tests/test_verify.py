import math
from fractions import Fraction

import pytest

from hamming_cutoff import (
    ParameterError,
    kstep_oracle,
    majorant_cells,
    make_scheme,
    point_mass,
    power_step,
    radial_matrix,
    spectrum,
    tv_distance,
    tv_to_uniform,
    uniform,
    upper_bound_lemma_rhs,
    variance_phi1_kstep,
)
from hamming_cutoff.radial import int_power_step
from hamming_cutoff.verify import (
    default_sweep_grid,
    minorant_sweep,
    verify_lemma32,
    verify_lemma35,
    verify_lemma41,
    verify_lemma42,
    verify_lemma43_moments,
    verify_lemma43_variance,
    verify_majorant,
    verify_upper,
)


def test_int_step_matches_fraction_oracle():
    # the integer chain must reproduce the public Fraction reference step
    for n, q in [(3, 3), (4, 2), (2, 5)]:
        p = make_scheme(n, q)
        m = radial_matrix(p)
        d = p.degree
        num = [1] + [0] * n
        dk = 1
        ref = point_mass(p)
        for k in range(13):
            assert [Fraction(v, dk) for v in num] == list(ref.mass)
            num = int_power_step(num, n, q)
            dk *= d
            ref = power_step(ref, m)


def test_int_upper_bound_matches_public_op():
    for n, q in [(3, 3), (2, 6)]:
        p = make_scheme(n, q)
        d = p.degree
        mult = spectrum(p).mult
        for k in (0, 2, 9):
            s = sum(mult[j] * (d - j * q) ** (2 * k) for j in range(1, n + 1))
            assert Fraction(s, 4 * d ** (2 * k)) == upper_bound_lemma_rhs(p, k)


def test_verify_upper_small():
    report = verify_upper(n_max=6, q_values=(2, 3), k_max=40)
    assert report.ok
    assert report.checked == 2 * 6 * 41


def test_verify_majorant_small_and_skips():
    report = verify_majorant(
        q_values=(3, 4, 5), n_max=8, c_values=(0.5, 1.5, 3.0)
    )
    assert report.ok
    assert (1, 3) in report.skipped and (2, 3) in report.skipped
    assert (1, 4) in report.skipped


def test_verify_majorant_exact_mode():
    report = verify_majorant(
        q_values=(5,), n_max=6, c_values=(0.5, 4.0), rounding="exact"
    )
    assert report.ok
    assert report.checked > 0


def test_verify_majorant_exact_mode_needs_an_integer_step():
    # a c range narrower than one step used to check 0 cells and pass
    with pytest.raises(ParameterError, match="not an integer"):
        verify_majorant(q_values=(5,), n_max=6, c_values=(1.0,), rounding="exact")
    for bad in ((5, 2), (2,)):
        with pytest.raises(ParameterError):
            verify_majorant(q_values=bad, n_max=2, c_values=(1.0,))
    with pytest.raises(ParameterError):  # out-of-scope cells still validate c
        verify_majorant(q_values=(3,), n_max=2, c_values=(-1.0,))


def test_lemma_suites_reduced():
    assert verify_lemma32(points=2000).ok
    assert verify_lemma35(m_max=25).ok
    assert verify_lemma41(n_max=10, q_values=(2, 3)).ok
    assert verify_lemma42(n_max=10, q_values=(2, 3)).ok
    assert verify_lemma43_moments(n_max=5, q_values=(3,), k_max=20).ok
    r = verify_lemma43_variance(n_max=8, q_values=(2, 3), k_max=40)
    assert r.ok
    assert (1, 2) in r.skipped  # (n-2)(q-1) < 2 is out of the lemma's scope


def test_variance_suite_reports_the_fraction_value(monkeypatch):
    # shift a0 by 1/2 so every cell fails, then check each reported value
    import hamming_cutoff.verify as verify_mod

    real = verify_mod.linearization_phi1_squared
    monkeypatch.setattr(verify_mod, "linearization_phi1_squared",
                        lambda p: (real(p)[0] + Fraction(1, 2),) + real(p)[1:])
    r = verify_lemma43_variance(n_max=7, q_values=(2, 3, 5), k_max=30)
    assert r.checked == len(r.violations) > 0
    for v in r.violations:
        expect = variance_phi1_kstep(make_scheme(v.n, v.q), v.k).value + Fraction(1, 2)
        assert (v.lhs, v.rhs) == (float(expect), 1 / v.n)


def test_default_sweep_grid_shape():
    grid = default_sweep_grid(11, 2000)
    assert grid[0] == 11 and grid[-1] == 2000
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_minorant_sweep_small():
    sweep = minorant_sweep(
        q=3, b=1.0, c0=2.0, c=2.0, n_grid=range(4, 120, 3)
    )
    assert not sweep.diagnostic_violations
    assert sweep.n_star is not None
    # records are sorted and only schedule-admissible n survive the filter
    ns = [r.n for r in sweep.records]
    assert ns == sorted(ns)
    assert all(math.log(2 * n) >= 2.0 for n in ns)
    # bound actually matches the closed form
    assert sweep.records[0].bound == 1 - 13 * math.exp(-2.0)


def test_sweep_records_match_direct_tv():
    sweep = minorant_sweep(q=3, b=1.0, c0=2.0, c=2.0, n_grid=[20, 25])
    for rec in sweep.records:
        p = make_scheme(rec.n, 3)
        tv = float(tv_distance(kstep_oracle(p, rec.k), uniform(p)))
        assert abs(rec.tv - tv) < 1e-10


def test_majorant_cells_match_per_cell_tv():
    cs = (0.25, 1.0, 1.25, 2.5, 6.0)
    for q, n in [(3, 3), (3, 11), (4, 12), (7, 20), (8, 40)]:
        p = make_scheme(n, q)
        for rounding in ("ceil", "exact"):
            cells = majorant_cells(p, cs, rounding, "float")
            assert cells
            for r in cells:
                assert r.tv_exact == tv_to_uniform(p, r.k, "float")
