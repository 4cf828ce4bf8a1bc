import math
from fractions import Fraction

import pytest

from hamming_cutoff import (
    ParameterError,
    check_minorant,
    kstep_oracle,
    kstep_tv,
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
from hamming_cutoff import bounds, radial, spectral, verify
from hamming_cutoff.krawtchouk import scaled_rows
from hamming_cutoff.radial import int_power_step, kstep_excess
from hamming_cutoff.scheme import RadialDistribution, ResourceBudgetError
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


def test_verify_upper_plans_its_grid_before_its_first_step(monkeypatch):
    # neither the tail search nor a walk may start
    monkeypatch.setattr(verify, "_tail_start", lambda *a: pytest.fail("searched"))
    monkeypatch.setattr(verify, "kstep_excess", lambda *a: pytest.fail("walked"))
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    # the largest walk's `bit_price` from the excess start
    with pytest.raises(ResourceBudgetError, match="n=2, q=3, k=1000000 may hold 9000015 bits"):
        verify_upper(n_max=2, q_values=(3,), k_max=10 ** 6)
    with pytest.raises(ResourceBudgetError, match="n=3000, q=3, k=3 may hold 14389795 bits"):
        verify_upper(n_max=3000, q_values=(3,), k_max=3)
    with pytest.raises(ResourceBudgetError, match="q=7, k=1100"):  # its largest q: q = 2 fits
        verify_upper(n_max=100, q_values=(2, 7), k_max=1100)
    # within the bit bound, the suite's class-steps k_max (n+1) per walk
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 2 * 300 * 495 - 1)
    with pytest.raises(ResourceBudgetError, match="verify upper of 297000 class-steps"):
        verify_upper(q_values=(2, 6))
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", 10 ** 11)
    monkeypatch.setattr(radial, "STEP_CALL_BUDGET", 299)
    with pytest.raises(ResourceBudgetError, match="of 300 steps exceeds the step budget"):
        verify_upper(q_values=(2, 6))


def test_verify_upper_default_grid_fits_the_bit_budget(monkeypatch):
    # the default grid's largest walk, q = 6, n = 30, k = 300, is priced at 76,849 bits
    def past_the_plan(*a):
        raise LookupError("past the plan")

    monkeypatch.setattr(verify, "kstep_excess", past_the_plan)  # the suite's first walk
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    monkeypatch.setattr(verify, "DEFAULT_BIT_BUDGET", 76_849)
    with pytest.raises(LookupError):
        verify_upper()
    monkeypatch.setattr(verify, "DEFAULT_BIT_BUDGET", 76_848)
    with pytest.raises(ResourceBudgetError,
                       match="n=30, q=6, k=300 may hold 76849 bits, past the budget 76848$"):
        verify_upper()


def test_verify_upper_sends_a_tie_row_to_its_exact_walk(monkeypatch):
    # H(2, 2) has tv**2 = R = 1/4 at every k >= 1, and H(1, 2)'s bound is
    # attained at every k too.  The parity tail proves both rows' cells
    # from k = 1, so each walks only k = 0
    calls = []

    def recorded(params, ks, bit_budget):
        calls.append((params.n, params.q, list(ks)))
        return kstep_excess(params, ks, bit_budget)

    monkeypatch.setattr(verify, "kstep_excess", recorded)
    report = verify_upper(n_max=2, q_values=(2,), k_max=120)
    assert (report.checked, report.violations) == (2 * 121, [])
    assert calls == [(1, 2, [0]), (2, 2, [0])]
    # without a tail every cell goes to its exact walk and holds there
    calls.clear()
    monkeypatch.setattr(verify, "_tail_start", lambda params, mult, k_max: k_max + 1)
    report = verify_upper(n_max=2, q_values=(2,), k_max=120)
    assert (report.checked, report.violations) == (2 * 121, [])
    assert calls == [(1, 2, list(range(121))), (2, 2, list(range(121)))]


def test_verify_upper_reports_every_violation_of_a_shrunk_bound(monkeypatch):
    # with every multiplicity quartered the lemma's right side is 4x
    # smaller and fails on many cells; the suite must report exactly the
    # cells where the Fraction statement fails, with both sides rounded
    import dataclasses

    from hamming_cutoff import verify as verify_mod

    def quartered(p):
        s = spectrum(p)
        return dataclasses.replace(s, mult=tuple(Fraction(m, 4) for m in s.mult))

    monkeypatch.setattr(verify_mod, "_multiplicities", lambda p: quartered(p).mult)
    q_values, n_max, k_max = (2, 3, 5), 8, 40
    expect = []
    for q in q_values:
        for n in range(1, n_max + 1):
            p = make_scheme(n, q)
            sp = spectrum(p)
            uni = uniform(p)
            for k in range(k_max + 1):
                tv = tv_distance(kstep_oracle(p, k), uni)
                rhs = sum(Fraction(sp.mult[j], 4) * sp.lam[j] ** (2 * k)
                          for j in range(1, n + 1)) / 4
                if tv * tv > rhs:
                    expect.append((n, q, k, float(tv * tv), float(rhs)))
    report = verify_upper(n_max=n_max, q_values=q_values, k_max=k_max)
    assert report.checked == len(q_values) * n_max * (k_max + 1)
    got = [(v.n, v.q, v.k, v.lhs, v.rhs) for v in report.violations]
    assert {v.which for v in report.violations} == {"upper-lemma"}
    assert 0 < len(expect) < report.checked  # some cells still hold
    assert got == expect


def test_verify_upper_decides_on_the_full_sum_where_the_end_terms_fall_short(monkeypatch):
    # with d_1 and d_n shrunk 10**6-fold the two end terms of the spectral
    # sum prove no cell of this grid, so each cell goes to the full sum;
    # the suite must then report exactly where the Fraction statement with
    # the same multiplicities fails, and some cells hold on the full sum
    import dataclasses

    from hamming_cutoff import verify as verify_mod

    def shrunk(p):
        s = spectrum(p)
        mult = list(s.mult)
        for j in {1, p.n}:
            mult[j] = Fraction(mult[j], 10 ** 6)
        return dataclasses.replace(s, mult=tuple(mult))

    monkeypatch.setattr(verify_mod, "_multiplicities", lambda p: shrunk(p).mult)
    q_values, n_max, k_max = (3, 4, 5), 8, 12
    expect, by_ends = [], 0
    for q in q_values:
        for n in range(1, n_max + 1):
            p = make_scheme(n, q)
            sp = shrunk(p)
            for k, tv in kstep_tv(p, range(k_max + 1), "exact"):
                terms = [sp.mult[j] * sp.lam[j] ** (2 * k) / 4 for j in range(1, n + 1)]
                by_ends += tv * tv <= sum(terms[j] for j in {0, n - 1})
                if tv * tv > sum(terms):
                    expect.append((n, q, k, float(tv * tv), float(sum(terms))))
    report = verify_upper(n_max=n_max, q_values=q_values, k_max=k_max)
    assert report.checked == len(q_values) * n_max * (k_max + 1)
    assert by_ends == 0 and 0 < len(expect) < report.checked
    assert [(v.n, v.q, v.k, v.lhs, v.rhs) for v in report.violations] == expect


def _tail_bound(tail, k):
    # `spectral.tail`'s bound on sum|e| at k
    mu, _, coefs, rest = tail
    return coefs[k % 2] * mu ** k + sum(a * b ** k for a, b in rest)


def _uncovered(tail_of):
    # the cells n <= 10, q = 2..6, k <= 80 where the tail's bound falls
    # below the exact sum|e|
    cells = []
    for q in range(2, 7):
        for n in range(1, 11):
            p = make_scheme(n, q)
            tail = tail_of(p)
            for k, e in kstep_excess(p, range(81), math.inf):
                if _tail_bound(tail, k) < sum(map(abs, e)):
                    cells.append((n, q, k))
    return cells


def test_excess_bound_covers_the_exact_excess():
    assert _uncovered(spectral.tail) == []
    for n, q in [(1, 2), (1, 5)]:  # one term: the bound is the exact sum|e|
        p = make_scheme(n, q)
        assert spectral.tail(p)[3] == []
        assert all(_tail_bound(spectral.tail(p), k) == sum(map(abs, e))
                   for k, e in kstep_excess(p, range(20), math.inf))

    # a mutant that keeps only the dominant group, |d - jq| = mu, undershoots
    def dominant_only(p):
        return (*spectral.tail(p)[:3], [])

    assert _uncovered(dominant_only)


def test_excess_bound_takes_its_end_coefficients_exactly():
    # a_1 and a_n are sum_l w_l |K_j(l)| itself, from the Krawtchouk rows;
    # a tie's group coefficient is sum_l w_l |K_1(l) (d - q)**k + K_n(l)
    # (d - nq)**k| / mu**k at either parity of k
    for q in range(2, 7):
        for n in range(1, 13):
            p = make_scheme(n, q)
            mu, group, coefs, rest = spectral.tail(p)
            rows, w, d = scaled_rows(p), verify._multiplicities(p), p.degree
            if len(group) > 1:
                assert [coefs[k % 2] * mu ** k for k in (2, 3)] == [
                    sum(wl * abs(a * (d - q) ** k + b * (d - n * q) ** k)
                        for wl, a, b in zip(w, rows[1], rows[n])) for k in (2, 3)]
                continue
            assert coefs[0] == coefs[1]
            terms = list(rest)
            terms.insert(group[0] - 1, (coefs[0], mu))
            for j in (1, n):
                assert terms[j - 1][0] == sum(wl * abs(K) for wl, K in zip(w, rows[j]))


def _parity_holds(n, k):
    # the parity tail's condition at k >= 1 on H(n, 2)
    return sum(2 * math.comb(n, j) * (n - 2 * j) ** k for j in range(1, (n + 1) // 2)) <= n ** k


def test_parity_tail_makes_the_excess_exact():
    # on H(n, 2) from k0 on, e_l >= 0 wherever l and k share a parity, so
    # sum|e| = q**n d**k exactly; k0 is the least k >= 1 where that holds
    for n in range(1, 17):
        p = make_scheme(n, 2)
        k0 = verify._tail_start(p, verify._multiplicities(p), 300)
        assert k0 == 1 or not _parity_holds(n, k0 - 1)
        for k, e in kstep_excess(p, range(k0, k0 + 41), math.inf):
            assert sum(map(abs, e)) == 2 ** n * n ** k


def _default_grid_tails():
    schemes = [make_scheme(n, q) for q in (2, 3, 4, 5, 6) for n in range(1, 31)]
    return [(p, verify._tail_start(p, verify._multiplicities(p), 300)) for p in schemes]


def test_tail_start_is_the_least_k_its_proof_holds_from():
    # the proof at k: (max(coefs) mu**k + sum_rest a b**k)**2 <= q**(2n)
    # (sum of d_j over the group) mu**(2k) at q >= 3, ties included, the
    # parity condition at q = 2, checked at every k of the default grid,
    # k <= 300; a search up to k_max = 10**5 finds the same k0
    ties = []
    for p, k0 in _default_grid_tails():
        mult = verify._multiplicities(p)
        assert verify._tail_start(p, mult, 10 ** 5) == k0
        if p.q == 2:
            proven = [k > 0 and _parity_holds(p.n, k) for k in range(301)]
            assert proven[k0:] == [True] * (301 - k0) and not any(proven[:k0])
            continue
        mu, group, coefs, rest = spectral.tail(p)
        if len(group) > 1:
            ties.append((p.n, p.q, k0))
        right = p.size ** 2 * sum(mult[j] for j in group)
        proven = [(max(coefs) * mu ** k + sum(a * b ** k for a, b in rest)) ** 2
                  <= right * mu ** (2 * k) for k in range(301)]
        assert proven[k0:] == [True] * (301 - k0) and not any(proven[:k0])
    assert ties == [(3, 3, 1), (2, 4, 0)]


def test_tail_start_bounds_the_walked_class_steps(monkeypatch):
    # the default grid's exact walks step each row only below its tail
    # start: 115,470 class-steps, where walking every row to k = 300 takes
    # 742,500.  The guard allows 10 % more
    planned = sum((p.n + 1) * max(k0 - 1, 0) for p, k0 in _default_grid_tails())
    assert planned <= 127_017
    stepped, step = [], radial.int_power_step

    def counted(num, n, q):
        stepped.append(n + 1)
        return step(num, n, q)

    monkeypatch.setattr(radial, "int_power_step", counted)
    assert verify_upper().ok
    assert sum(stepped) == planned


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


def test_exact_rounding_over_no_offset_is_a_usage_error():
    # no offset leaves no integer step to check
    p = make_scheme(6, 5)
    with pytest.raises(ParameterError, match="at least one offset"):
        bounds.majorant_grid((p,), (), "exact")
    with pytest.raises(ParameterError, match="at least one offset"):
        verify_majorant(c_values=(), rounding="exact")
    assert next(bounds.majorant_grid((p,), ())) == []


def test_lemma_suites_reduced():
    assert verify_lemma32(points=2000).ok
    assert verify_lemma35(m_max=25).ok
    assert verify_lemma41(n_max=10, q_values=(2, 3)).ok
    assert verify_lemma42(n_max=10, q_values=(2, 3)).ok
    assert verify_lemma43_moments(n_max=5, q_values=(3,), k_max=20).ok
    r = verify_lemma43_variance(n_max=8, q_values=(2, 3), k_max=40)
    assert r.ok
    assert (1, 2) in r.skipped  # (n-2)(q-1) < 2 is out of the lemma's scope


def test_lemma32_suite_reports_each_failing_grid_point(monkeypatch):
    # e**-x scaled by 1/2 (low regime) or 2 (high regime) fails near the
    # regimes' edges; each failing x is reported with the true e**-x, |1-x|
    import types

    import numpy as np

    import hamming_cutoff.verify as verify_mod

    for factor, which, xs in ((0.5, "lemma-3.2-low", np.linspace(-10.0, 1.25, 500)),
                              (2.0, "lemma-3.2-high", np.linspace(4 / 3, 20.0, 500))):
        scaled = types.SimpleNamespace(linspace=np.linspace, abs=np.abs,
                                       exp=lambda x, f=factor: f * np.exp(x))
        monkeypatch.setattr(verify_mod, "np", scaled)
        r = verify_lemma32(points=500)
        bad = [float(x) for x in xs
               if (factor * math.exp(-x) < abs(1 - x) if factor < 1
                   else factor * math.exp(-x) > abs(1 - x))]
        assert r.checked == 1000 and 0 < len(bad) < 500
        assert [(v.which, v.c, v.lhs, v.rhs) for v in r.violations] == [
            (which, x, math.exp(-x), abs(1 - x)) for x in bad]


def test_lemma35_suite_reports_each_ratio_past_a_lowered_cap(monkeypatch):
    import dataclasses

    real = bounds.lemma35_ratio_chain

    def capped(q_case, m):
        return tuple(dataclasses.replace(r, cap=2, holds=max(r.ratios) <= 2)
                     for r in real(q_case, m))

    monkeypatch.setattr(bounds, "lemma35_ratio_chain", capped)
    r = verify_lemma35(m_max=12)
    expect = [(f"lemma-3.5-q{res.q_case}", m, res.q_case, float(res.l),
               float(max(res.ratios)), 2)
              for m in range(2, 13) for res in real(3, m) + real(4, m)
              if max(res.ratios) > 2]
    assert 0 < len(expect) < r.checked
    assert [(v.which, v.n, v.q, v.c, v.lhs, v.rhs) for v in r.violations] == expect


def test_lemma41_suite_reports_both_sides_of_a_shifted_linearization(monkeypatch):
    import hamming_cutoff.verify as verify_mod

    real = verify_mod.linearization_phi1_squared
    monkeypatch.setattr(verify_mod, "linearization_phi1_squared",
                        lambda p: (real(p)[0] + Fraction(1, 2),) + real(p)[1:])
    r = verify_lemma41(n_max=6, q_values=(2, 3))
    expect = []
    for q in (2, 3):
        for n in range(2, 7):
            for l in range(n + 1):
                phi1 = 1 - Fraction(l * q, n * (q - 1))
                expect.append(("lemma-4.1", n, q, float(l), float(phi1 * phi1),
                               float(phi1 * phi1 + Fraction(1, 2))))
    assert r.checked == len(expect)
    assert [(v.which, v.n, v.q, v.c, v.lhs, v.rhs) for v in r.violations] == expect


def test_lemma_suites_build_each_schemes_rows_once():
    # lemmas 4.1, 4.2 and 4.3(1) read the rows of 150 schemes (q = 2..6,
    # n <= 30) in three passes; the cache must hold them across passes
    from hamming_cutoff.krawtchouk import scaled_rows
    from hamming_cutoff.verify import verify_lemmas

    scaled_rows.cache_clear()
    verify_lemmas()
    info = scaled_rows.cache_info()
    assert (info.misses, info.hits) == (150, 195)


def _shifted_rows(monkeypatch, double_row1):
    """Patch the suites' Krawtchouk rows: K_0 + 1, and 2 K_1 if asked."""
    import hamming_cutoff.verify as verify_mod

    real = verify_mod.scaled_rows

    def shifted(p):
        rows = [list(row) for row in real(p)]
        rows[0] = [v + 1 for v in rows[0]]
        if double_row1:
            rows[1] = [2 * v for v in rows[1]]
        return rows

    monkeypatch.setattr(verify_mod, "scaled_rows", shifted)


def test_lemma42_suite_reports_mean_and_variance_violations(monkeypatch):
    # K_0 + 1 doubles the j = 0 sum; 2 K_1 keeps its mean 0, quadruples Var
    _shifted_rows(monkeypatch, double_row1=True)
    r = verify_lemma42(n_max=5, q_values=(2, 3))
    expect = []
    for q in (2, 3):
        for n in range(1, 6):
            expect.append(("lemma-4.2-mean", n, q, 0.0, float(2 * q ** n), float(q ** n)))
            expect.append(("lemma-4.2-var", n, q, None, 4.0, 1.0))
    assert r.checked == sum(n + 2 for n in range(1, 6)) * 2
    assert [(v.which, v.n, v.q, v.c, v.lhs, v.rhs) for v in r.violations] == expect


def test_lemma43_moment_suite_reports_every_step_of_a_shifted_row(monkeypatch):
    # sum_l num[l] (K_0[l] + 1) = 2 (n(q-1))**k against (n(q-1))**k
    _shifted_rows(monkeypatch, double_row1=False)
    r = verify_lemma43_moments(n_max=4, q_values=(2, 3), k_max=6)
    expect = [("lemma-4.3(1)", n, q, k, 0.0, float(2 * (n * (q - 1)) ** k),
               float((n * (q - 1)) ** k))
              for q in (2, 3) for n in range(1, 5) for k in range(7)]
    assert r.checked == sum((n + 1) * 7 for n in range(1, 5)) * 2
    assert [(v.which, v.n, v.q, v.k, v.c, v.lhs, v.rhs) for v in r.violations] == expect


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


def test_default_sweep_grid_appends_a_ceiling_off_its_steps():
    assert default_sweep_grid(1, 103)[-3:] == [99, 100, 103]
    assert default_sweep_grid(1, 2010)[-3:] == [1950, 2000, 2010]
    assert default_sweep_grid(1, 2000)[-2:] == [1950, 2000]  # on the grid: once


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


@pytest.mark.parametrize("q", [3, 4, 5])
def test_minorant_sweep_cells_and_check_minorant_agree(q):
    sweep = minorant_sweep(q=q, n_grid=range(1, 121))
    assert sweep.c == 3.0 and len(sweep.records) >= 110
    for rec in sweep.records:
        p = make_scheme(rec.n, q)
        cell, _ = next(bounds.minorant_grid((p,), 1.0, 3.0))
        one = check_minorant(p, 3.0, 1.0, 3.0, "float")
        assert (rec.k, rec.tv, rec.satisfied) == (cell.k, cell.tv_exact, cell.satisfied)
        assert (one.k, one.tv_exact, one.satisfied) == (cell.k, cell.tv_exact, cell.satisfied)
        exact = tv_to_uniform(p, rec.k, "exact")
        assert abs(Fraction(rec.tv) - exact) <= Fraction(bounds.float_tv_error(rec.n, rec.k))


def test_minorant_sweep_decides_a_roundoff_cell_exactly(monkeypatch):
    # a bound equal to the float tv at (n, q, k) = (12, 3, 0), which sits
    # 3.8e-17 above the exact tv: the sweep must not count it as held
    p = make_scheme(12, 3)
    tv = tv_to_uniform(p, 0, "float")
    monkeypatch.setattr(bounds, "minorant", lambda q, b, c: tv)
    sweep = minorant_sweep(q=3, n_grid=[12])
    (rec,) = sweep.records
    assert (rec.k, rec.bound) == (0, tv)
    assert not rec.satisfied and sweep.n_star is None


@pytest.mark.parametrize("q", [10 ** 400, 10 ** 700], ids=["1e400", "1e700"])
def test_minorant_sweep_at_a_huge_alphabet_has_no_false_diagnostics(q):
    # at q = 1e700, beta/sqrt(n) underflows; the event B is still {n}
    sweep = minorant_sweep(q=q, n_grid=range(1, 6))
    assert len(sweep.records) == 5 and sweep.diagnostic_violations == []
    assert all(r.pi_B >= r.markov_lb > 0.8 for r in sweep.records)


def test_minorant_sweep_default_grid_is_the_filtered_sweep_grid(monkeypatch):
    # e**c has no float past c ~ 709, so the grid is found without it
    seen = []
    monkeypatch.setattr(bounds, "minorant_grid",
                        lambda schemes, b, c: seen.append([p.n for p in schemes]) or ())
    minorant_sweep(q=4, b=1.0, c0=4.0, c=4.0)
    minorant_sweep(q=3, c=1e308, c0=math.inf)
    grid = [n for n in default_sweep_grid(1) if math.log(3 * n) >= 4.0]
    assert seen == [grid, []] and grid[0] == 19
    for c in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            minorant_sweep(c=c, c0=math.inf)


def test_minorant_sweep_past_the_float_step_budget_builds_nothing(monkeypatch):
    # n = 2,000,000 plans ~1.6e13 class-steps: refused before any law or
    # row array is built
    def refuse(*a):
        pytest.fail("built a law or a row array")

    monkeypatch.setattr(RadialDistribution, "__post_init__", refuse)
    monkeypatch.setattr(radial, "float_step_arrays", refuse)
    radial._float_marks.cache_clear()
    with pytest.raises(ResourceBudgetError, match="^float pass of .* class-steps exceeds"):
        minorant_sweep(q=3, n_grid=[2_000_000])


def test_minorant_sweep_refuses_word_lengths_below_one(monkeypatch):
    # a usage error before the log n(q-1) filter, which has no log of n <= 0
    monkeypatch.setattr(bounds, "minorant_grid", lambda *a: pytest.fail("swept"))
    for grid in ([0, 5], [-3, 40], [0]):
        with pytest.raises(ParameterError, match=r"word length n must be >= 1, got -?\d"):
            minorant_sweep(n_grid=grid)


def test_minorant_sweep_offset_defaults_to_min_c0_3():
    assert minorant_sweep(n_grid=[40]).c == 3.0
    assert minorant_sweep(c0=2.0, n_grid=[40]).c == 2.0
    assert minorant_sweep(c0=5.0, n_grid=[40]).c == 3.0


def test_majorant_cells_match_per_cell_tv():
    cs = (0.25, 1.0, 1.25, 2.5, 6.0)
    for q, n in [(3, 3), (3, 11), (4, 12), (7, 20), (8, 40)]:
        p = make_scheme(n, q)
        for rounding in ("ceil", "exact"):
            cells = next(bounds.majorant_grid((p,), cs, rounding, "float"))
            assert cells
            for r in cells:
                assert r.tv_exact == tv_to_uniform(p, r.k, "float")
