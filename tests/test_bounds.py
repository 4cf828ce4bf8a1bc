import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from hamming_cutoff import (
    ParameterError,
    ResourceBudgetError,
    check_majorant,
    check_minorant,
    class_weights,
    cutoff_schedule,
    hora_limit,
    kstep_distribution,
    kstep_oracle,
    kstep_tv,
    lemma32_check,
    lemma34_debug_sum,
    lemma35_ratio_check,
    majorant,
    make_scheme,
    minorant,
    minorant_diagnostics,
    offset_from_step,
    schedule_step,
    spectrum,
    tv_distance,
    tv_to_uniform,
    uniform,
    upper_bound_lemma_rhs,
)
from hamming_cutoff import bounds, radial
from hamming_cutoff.krawtchouk import scaled_rows
from hamming_cutoff.radial import int_power_step


def test_schedule_invariants():
    for n, q in [(2, 3), (50, 4), (500, 3)]:
        s = cutoff_schedule(make_scheme(n, q))
        assert s.a_n > 0 and s.b_n > 0
        assert abs(s.a_n / s.b_n - math.log(n * (q - 1))) < 1e-12


def test_offset_inverts_schedule():
    p = make_scheme(17, 4)
    for c in (-2.0, 0.0, 3.7):
        assert abs(offset_from_step(p, schedule_step(p, c)) - c) < 1e-12


def test_upper_bound_lemma_examples():
    p = make_scheme(2, 3)
    rhs = upper_bound_lemma_rhs(p, 2)
    assert rhs == Fraction(17, 256)
    tv = tv_distance(kstep_oracle(p, 2), uniform(p))
    assert tv * tv == Fraction(49, 1296)
    assert tv * tv <= rhs

    p = make_scheme(1, 3)
    assert upper_bound_lemma_rhs(p, 1) == Fraction(1, 8)
    tv = tv_distance(kstep_oracle(p, 1), uniform(p))
    assert tv * tv == Fraction(1, 9) <= Fraction(1, 8)


def test_upper_bound_lemma_k0():
    for n, q in [(2, 3), (4, 2), (3, 5)]:
        p = make_scheme(n, q)
        rhs = upper_bound_lemma_rhs(p, 0)
        assert rhs == Fraction(q ** n - 1, 4)
        assert (1 - Fraction(1, q ** n)) ** 2 <= rhs


def test_upper_bound_float_path():
    p = make_scheme(6, 3)
    for k in (0, 3, 40):
        ex = float(upper_bound_lemma_rhs(p, k))
        fl = upper_bound_lemma_rhs(p, k, "float")
        assert abs(ex - fl) <= 1e-12 * max(ex, 1.0)


def _lemma_rhs_per_row(p, k):
    """The float lemma RHS as it was computed per row, from `spectrum`."""
    n, q = p.n, p.q
    js = np.arange(1, n + 1, dtype=np.float64)
    logd = (
        js * math.log(q - 1)
        + math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(n - v + 1) for v in js])
    )
    lam = np.abs(np.asarray([float(v) for v in spectrum(p).lam[1:]]))
    if k == 0:
        exponents = logd
    else:
        with np.errstate(divide="ignore"):
            exponents = logd + 2 * k * np.log(lam)
    top = float(np.max(exponents))
    if top == -math.inf:
        return 0.0
    s = top + math.log(float(np.sum(np.exp(exponents - top))))
    return math.inf if s > 700 else math.exp(s) / 4


@pytest.mark.parametrize("n, q, ks", [
    (3, 3, (0, 1, 2, 7)),  # lam[2] = 0
    (9, 2, (0, 1, 5, 60)),  # log(q - 1) = 0, lam[n] = -1
    (40, 4, (0, 3, 77)),
    (1800, 5, (0, 1, 500, 2700, 6000)),  # k = 0 overflows to inf
])
def test_float_lemma_rhs_matches_per_row_formula(n, q, ks):
    p = make_scheme(n, q)
    for k in ks:
        assert upper_bound_lemma_rhs(p, k, "float") == _lemma_rhs_per_row(p, k)


def test_float_lemma_rhs_never_calls_spectrum(monkeypatch):
    def fail(params):
        raise AssertionError("spectrum called on the float path")

    monkeypatch.setattr(bounds, "spectrum", fail)
    bounds._lemma_terms.cache_clear()
    p = make_scheme(12, 3)
    assert upper_bound_lemma_rhs(p, 5, "float") > 0
    with pytest.raises(AssertionError):
        upper_bound_lemma_rhs(p, 5, "exact")


def test_lemma_terms_are_read_only():
    for arr in bounds._lemma_terms(make_scheme(10, 4)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_majorant_examples():
    # large c: decays like e^-c / 4
    c = 30.0
    assert abs(majorant(5, c) - math.exp(-c) / 4) < 1e-18
    # c -> 0+: (e - 1)/4
    assert abs(majorant(7, 1e-15) - (math.e - 1) / 4) < 1e-12
    # q = 3, c = 1 is vacuous (> 1) but still computed
    v = majorant(3, 1.0)
    assert v == 2.5 * math.expm1(math.exp(-1.0))
    assert v > 1.0
    with pytest.raises(ParameterError):
        majorant(2, 1.0)
    with pytest.raises(ParameterError):
        majorant(5, 0.0)


def test_majorant_below_the_normal_float_range_is_a_usage_error():
    # C (e**(e**-c) - 1) leaves the normal range past c ~ 707 (C = 1/4) and
    # ~ 709.3 (C = 5/2), and is 0.0 by c ~ 746
    assert majorant(5, 706.0) >= 2.0 ** -1022 and majorant(3, 709.0) >= 2.0 ** -1022
    for q, c in ((5, 708.0), (3, 710.0), (4, 744.0), (5, 746.0), (3, 1e308)):
        assert bounds.majorant_value(q, c) < 2.0 ** -1022  # the profile column's value
        with pytest.raises(ParameterError, match="normal float range"):
            majorant(q, c)
    for backend in ("auto", "exact", "float"):  # auto: exact, which has no budget
        with pytest.raises(ParameterError, match="normal float range"):
            check_majorant(make_scheme(3, 5), 1e308, backend=backend)


def test_check_majorant_examples():
    r = check_majorant(make_scheme(20, 5), 2.0)
    assert r.satisfied and r.which == "thm-q5"
    assert r.k == math.ceil(schedule_step(make_scheme(20, 5), 2.0))

    r = check_majorant(make_scheme(10, 3), 3.0)
    assert r.satisfied and r.which == "thm-q3"
    assert r.bound_value == 2.5 * math.expm1(math.exp(-3.0))

    r = check_majorant(make_scheme(5, 4), 0.5)
    assert r.which == "thm-q4"
    assert r.tv_exact ** 2 <= r.bound_value or r.vacuous


def test_check_majorant_scope():
    with pytest.raises(ParameterError):
        check_majorant(make_scheme(5, 2), 1.0)
    with pytest.raises(ParameterError):
        check_majorant(make_scheme(2, 3), 1.0)
    with pytest.raises(ParameterError):
        check_majorant(make_scheme(1, 4), 1.0)
    with pytest.raises(ParameterError):
        check_majorant(make_scheme(10, 5), 1.0, rounding="exact")


def test_majorant_grid_plans_its_pass_before_any_cell(monkeypatch):
    # the cold plan is the pass's own: sum (n+1) k_last over the float
    # schemes, refused before `_majorant_job` builds a cell
    big = make_scheme(300000, 3)
    schemes = [make_scheme(n, q) for q in (3, 5) for n in (12, 40, 300)]
    # auto: n <= 30 is an exact job, which takes no float step
    plan = sum((p.n + 1) * math.ceil(schedule_step(p, 2.0)) for p in schemes if p.n > 30)
    real_job = bounds._majorant_job
    monkeypatch.setattr(bounds, "_majorant_job", lambda *a: pytest.fail("built cells"))
    big_plan = (big.n + 1) * math.ceil(schedule_step(big, 6.0))
    with pytest.raises(ResourceBudgetError, match=f"^float pass of {big_plan} class-steps"):
        list(bounds.majorant_grid([big], (6.0,)))
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", plan - 1)
    with pytest.raises(ResourceBudgetError, match=f"^float pass of {plan} class-steps"):
        list(bounds.majorant_grid(schemes, (1.0, 2.0)))
    monkeypatch.setattr(bounds, "_majorant_job", real_job)
    monkeypatch.setattr(radial, "FLOAT_STEP_BUDGET", plan)
    reports = list(bounds.majorant_grid(schemes, (1.0, 2.0)))
    assert [len(r) for r in reports] == [2] * 6


def test_minorant_examples():
    assert minorant(3, 1.0, math.log(26)) == pytest.approx(0.5, abs=1e-12)
    assert minorant(3, 0.0, 5.0) == pytest.approx(1 - 12 * math.exp(-5), abs=1e-12)
    assert minorant(5, 0.0, 0.0) == -19.0
    for b in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            minorant(3, b, 1.0)


def test_check_minorant_vacuous_at_c0():
    p = make_scheme(30, 3)
    r = check_minorant(p, c0=2.0, b=1.0, c=0.0)
    assert r.vacuous and r.satisfied
    assert r.bound_value == 1 - 13.0
    assert r.k == math.floor(cutoff_schedule(p).a_n)


def test_check_minorant_c_range():
    with pytest.raises(ParameterError):
        check_minorant(make_scheme(30, 3), c0=2.0, b=1.0, c=3.0)
    with pytest.raises(ParameterError):
        check_minorant(make_scheme(2, 3), c0=9.0, b=1.0, c=5.0)  # c > log n(q-1)


def test_minorant_diagnostics_identities():
    for n, q, c in [(40, 3, 1.0), (100, 3, 1.0), (60, 4, 2.0)]:
        p = make_scheme(n, q)
        k = math.floor(schedule_step(p, -c))
        d = minorant_diagnostics(p, k, b=1.0, c=c)
        # B and its complement partition the space
        assert 0 <= d.pi_B <= 1 and 0 <= d.nu_B <= 1
        assert d.pi_B >= d.markov_lb - 1e-12
        assert tv_to_uniform(p, k) >= d.pi_B - d.nu_B - 1e-12
        if d.chebyshev_applicable:
            assert d.nu_B <= d.chebyshev_ub + 1e-12


def test_minorant_cells_schedule_and_vacuity():
    p = make_scheme(30, 3)
    cs = (0.0, 1.0, 3.0, math.log(60))
    cells = [check_minorant(p, math.log(60), 1.0, c, "float") for c in cs]
    for r, c in zip(cells, cs):
        assert r.which == "minorant" and r.c == c
        assert r.k == math.floor(schedule_step(p, -c))
        assert r.bound_value == minorant(3, 1.0, c) and r.vacuous == (r.bound_value < 0)
        assert r.satisfied == (r.tv_exact >= r.bound_value)
    assert check_minorant(p, math.log(60), 1.0, 1.0, "exact") == cells[1]
    for c in (-0.5, math.log(60) + 1e-9, math.nan):
        with pytest.raises(ParameterError):
            check_minorant(p, math.inf, 1.0, c)


def test_minorant_bound_at_the_float_tv_is_decided_exactly(monkeypatch):
    # at (n, q, k) = (12, 3, 0) the float tv exceeds the exact one by
    # 3.8e-17: a bound equal to it passes a plain float comparison, but the
    # band tv +- eps straddles it, so the cell is re-decided exactly
    p = make_scheme(12, 3)
    tv = tv_to_uniform(p, 0, "float")
    assert Fraction(tv) > tv_to_uniform(p, 0, "exact")
    monkeypatch.setattr(bounds, "minorant", lambda q, b, c: tv)
    r = check_minorant(p, 3.0, 1.0, 3.0, "float")
    assert r.k == 0 and r.bound_value == tv
    assert not r.satisfied


def test_minorant_failure_decided_in_float(monkeypatch):
    # a bound of 1 exceeds every tv by far more than the roundoff band, so
    # the float pass decides the failure and no exact walk is taken
    assert bounds._float_verdict(0.5, 1e-15, 0.75, lower=True) is False
    monkeypatch.setattr(bounds, "minorant", lambda q, b, c: 1.0)
    monkeypatch.setattr(bounds, "kstep_tv", lambda *a: pytest.fail("rechecked exactly"))
    p = make_scheme(30, 3)
    for r in (check_minorant(p, 3.0, 1.0, c, "float") for c in (0.0, 1.0, 3.0)):
        assert not r.satisfied and r.bound_value == 1.0
        assert r.tv_exact == next(kstep_tv(p, (r.k,), "float"))[1]


def test_minorant_value_past_the_float_range():
    assert minorant(3, 1.0, 3.0) == 1.0 - 13 * math.exp(-3.0)  # the direct form
    assert minorant(10 ** 80, 1.0, 0.0) == 1.0 - (4 * 10 ** 80 + 1.0)
    assert minorant(10 ** 400, 1.0, 0.0) == -math.inf
    # (4q+b) e**-c = 4e400 e**-1000 ~ 2e-34 is finite though 4q is not
    assert minorant(10 ** 400, 1.0, 1000.0) == pytest.approx(1.0, abs=1e-30)
    assert minorant(10 ** 400, 1.0, 921.0) == pytest.approx(
        1.0 - math.exp(math.log(4 * 10 ** 400) - 921.0), rel=1e-12)
    # the log form turns -inf exactly where float exp overflows
    log_4q = math.log(4 * 10 ** 400)
    assert -math.inf < minorant(10 ** 400, 1.0, log_4q - 709.782) < -1.79e308
    assert minorant(10 ** 400, 1.0, log_4q - 709.783) == -math.inf


@pytest.mark.parametrize("q", [10 ** 160, 10 ** 400, 10 ** 700],
                         ids=["1e160", "1e400", "1e700"])
def test_minorant_diagnostics_past_the_float_range(q):
    # (4q+b)(q-1) overflows a float from q ~ 1e154 on, so the fields come
    # from logs: beta**2 = q e**c/((4q+b)(q-1)) ~ e**c/(4q), 1/beta**2 past
    # the float range is inf; at q = 1e700 beta/sqrt(n) underflows to 0.0,
    # yet |phi_1(n)| = 1/(q-1) lies below it, so B is not empty
    p = make_scheme(3, q)
    d = minorant_diagnostics(p, math.floor(schedule_step(p, -1.0)), 1.0, 1.0, "float")
    log_beta2 = 1.0 - math.log(4 * q)
    assert d.beta == pytest.approx(math.exp(log_beta2 / 2), rel=1e-10)
    assert d.markov_lb == pytest.approx(1 - 4 * math.exp(-1.0), rel=1e-12)
    assert d.chebyshev_ub == (pytest.approx(math.exp(-log_beta2), rel=1e-10)
                              if -log_beta2 < 709 else math.inf)
    assert d.pi_B >= d.markov_lb
    assert d.pi_B == 1.0  # B = {n}, whose uniform mass ((q-1)/q)**n rounds to 1


def test_minorant_diagnostics_exact_sums_the_spectral_law():
    # nu(B) comes from the radial chain; spectral inversion stays the
    # independent check, and the diagnostics build no Krawtchouk row
    scaled_rows.cache_clear()
    cells = []
    for n, q, b, c in [(6, 3, 1.0, 0.5), (17, 4, 0.0, 2.0), (30, 3, 1.0, 3.0), (25, 5, 2.5, 1.0)]:
        p = make_scheme(n, q)
        k = math.floor(schedule_step(p, -c))
        cells.append((p, k, b, c, minorant_diagnostics(p, k, b, c, "exact")))
    assert scaled_rows.cache_info().currsize == 0
    for p, k, b, c, d in cells:
        threshold = d.beta / math.sqrt(p.n)
        in_b = [l for l in range(p.n + 1)
                if abs(1 - Fraction(l * p.q, p.degree)) < threshold]
        assert in_b
        mass = kstep_distribution(p, k).mass
        assert d.nu_B == float(sum((mass[l] for l in in_b), Fraction(0))), (p, k)


def test_minorant_diagnostics_exact_refuses_past_the_bit_budget():
    # the exact law at (300, 3), c = 0 outgrows the default bit budget, as
    # the exact recheck of the same cell would; the float law is served
    p = make_scheme(300, 3)
    k = math.floor(schedule_step(p, 0.0))
    for walk in (lambda: minorant_diagnostics(p, k, 1.0, 0.0, "exact"),
                 lambda: next(kstep_tv(p, (k,), "exact"))):
        with pytest.raises(ResourceBudgetError):
            walk()
    assert 0 <= minorant_diagnostics(p, k, 1.0, 0.0, "float").nu_B <= 1


def test_minorant_diagnostics_complement_mass():
    p = make_scheme(50, 3)
    k = math.floor(schedule_step(p, -1.0))
    d = minorant_diagnostics(p, k, b=1.0, c=1.0)
    beta = math.sqrt(3 / (13 * 2)) * math.exp(0.5)
    assert d.beta == pytest.approx(beta, rel=1e-12)
    # recompute pi(B) + pi(complement) = 1 from the class masses
    u = uniform(p)
    thr = beta / math.sqrt(50)
    inside = sum(
        (u.mass[l] for l in range(51) if abs(1 - Fraction(3 * l, 100)) < thr),
        Fraction(0),
    )
    assert d.pi_B == pytest.approx(float(inside), abs=1e-12)


def erf_quadrature(x: float, steps: int = 20001) -> float:
    """Independent oracle: Simpson quadrature of (2/sqrt(pi)) exp(-t^2)."""
    if x == 0:
        return 0.0
    h = x / (steps - 1)
    total = 0.0
    for i in range(steps):
        t = i * h
        w = 1 if i in (0, steps - 1) else (4 if i % 2 else 2)
        total += w * math.exp(-t * t)
    return 2 / math.sqrt(math.pi) * total * h / 3


def test_hora_limit_against_quadrature():
    val = hora_limit(0.0, "plus")
    assert val == hora_limit(0.0, "minus")
    assert abs(val - erf_quadrature(1 / (2 * math.sqrt(2)))) < 1e-7
    assert val == pytest.approx(0.3829249225480262, abs=1e-12)
    for c in (0.5, 2.0, 4.0):
        assert abs(
            hora_limit(c, "plus") - erf_quadrature(math.exp(-c / 2) / (2 * math.sqrt(2)))
        ) < 1e-7


def test_hora_limit_tails_and_monotonicity():
    assert hora_limit(200.0, "plus") == pytest.approx(0.0, abs=1e-12)
    assert hora_limit(200.0, "minus") == pytest.approx(1.0, abs=1e-12)
    cs = [0.1 * i for i in range(0, 120)]
    plus = [hora_limit(c, "plus") for c in cs]
    minus = [hora_limit(c, "minus") for c in cs]
    assert all(a >= b for a, b in zip(plus, plus[1:]))
    assert all(a <= b for a, b in zip(minus, minus[1:]))
    assert all(0 <= v <= 1 for v in plus + minus)
    with pytest.raises(ParameterError):
        hora_limit(1.0, "sideways")


def test_hora_limit_past_the_float_range_of_its_exponent():
    # past |c| ~ 1419, e**(|c|/2) overflows and erf reaches 1
    assert (hora_limit(1500.0, "minus"), hora_limit(-1500.0, "plus")) == (1.0, 1.0)
    assert (hora_limit(1500.0, "plus"), hora_limit(-1500.0, "minus")) == (0.0, 0.0)


def test_lemma32_examples():
    assert lemma32_check(0.0)  # equality: e^0 = |1 - 0|
    assert lemma32_check(1.25)  # e^(-5/4) ~ 0.28650 >= 1/4
    assert math.exp(-1.25) >= 0.25
    assert lemma32_check(4 / 3)  # e^(-4/3) ~ 0.26360 <= 1/3
    assert math.exp(-4 / 3) <= 1 / 3
    assert lemma32_check(1.3)  # gap between regimes: vacuously true


def test_lemma35_holds_matches_cross_multiplication_at_every_entry():
    # the chain orders each entry by a threshold on l and caps only its
    # largest n; the rule it replaces cross-multiplies every adjacent pair
    # of binomial ratios and caps the last, for all m of the suite's grid
    for q_case, base, cap in ((3, 2, 9), (4, 3, 8)):
        for m in range(2, 201):
            for res in bounds.lemma35_ratio_chain(q_case, m):
                l, center = res.l, res.l + m - 1
                terms = [(base ** (n - l) * math.comb(n, l),
                          base ** center * math.comb(n, center)) for n in res.ns]
                rule = terms[-1][0] <= cap * terms[-1][1] and all(
                    a1 * c2 <= a2 * c1 for (a1, c1), (a2, c2) in zip(terms, terms[1:]))
                assert res.holds == rule, (q_case, m, l)


def test_lemma35_walked_pair_is_the_largest_n_terms_at_every_entry():
    # the integers the chain steps l -> l+1, on which `holds` decides the
    # cap, are math.comb's (a_{n,mirror}, a_{n,center}) at the largest n
    for q_case in (3, 4):
        for m in range(2, 201):
            for res in bounds.lemma35_ratio_chain(q_case, m):
                assert res.walked == res.terms[-1], (q_case, m, res.l)


def test_lemma35_examples():
    r = lemma35_ratio_check(3, 2, 0)
    assert r.ns == (3, 4, 5)
    assert r.ratios[-1] == Fraction(16, 5)
    assert r.holds and r.cap == 9

    r = lemma35_ratio_check(4, 2, 0)
    assert r.ns == (2, 3)
    assert r.ratios[-1] == Fraction(3)
    assert r.holds and r.cap == 8

    r = lemma35_ratio_check(3, 3, 1)
    assert r.ratios[0] <= r.ratios[1] <= r.ratios[2] <= 9

    with pytest.raises(ParameterError):
        lemma35_ratio_check(3, 1, 0)
    with pytest.raises(ParameterError):
        lemma35_ratio_check(4, 5, 3)
    with pytest.raises(ParameterError):
        lemma35_ratio_check(5, 2, 0)


def test_lemma35_chain_matches_binomial_fractions():
    # reference: each entry from math.comb and the original mirror index
    for q_case, base, cap, width in ((3, 2, 9, 3), (4, 3, 8, 2)):
        for m in range(2, 61):
            chain = bounds.lemma35_ratio_chain(q_case, m)
            assert len(chain) == (m if q_case == 3 else (m - 1) // 2 + 1)
            for l, res in enumerate(chain):
                center = l + m - 1
                ns = tuple(width * m - width + t for t in range(width))
                mirrors = tuple(width * m - l - width + t for t in range(width))
                ratios = tuple(
                    Fraction(base ** hi * math.comb(n, hi),
                             base ** center * math.comb(n, center))
                    for n, hi in zip(ns, mirrors)
                )
                assert (res.q_case, res.m, res.l) == (q_case, m, l)
                assert (res.ns, res.cap) == (ns, cap)
                assert res.terms == tuple(
                    (base ** hi * math.comb(n, hi), base ** center * math.comb(n, center))
                    for n, hi in zip(ns, mirrors))
                assert res.ratios == ratios
                assert res.holds == (
                    all(r <= cap for r in ratios)
                    and all(a <= b for a, b in zip(ratios, ratios[1:]))
                )
                assert lemma35_ratio_check(q_case, m, l) == res
    with pytest.raises(ParameterError):
        bounds.lemma35_ratio_chain(3, 1)
    with pytest.raises(ParameterError):
        bounds.lemma35_ratio_chain(2, 5)


def test_lemma34_debug_sums_below_caps():
    for m in (2, 5, 20, 100):
        for l in range(0, m + 1):
            assert float(lemma34_debug_sum(3, m, l)) <= math.log(9) + 1e-12
        for l in range(0, m // 2 + 1):
            assert float(lemma34_debug_sum(4, m, l)) <= math.log(8) + 1e-12
    assert isinstance(lemma34_debug_sum(3, 4, 1), Fraction)


def test_tv_to_uniform_backends_agree():
    p = make_scheme(12, 3)
    for k in (0, 5, 31):
        assert abs(
            float(tv_to_uniform(p, k, "exact")) - tv_to_uniform(p, k, "float")
        ) < 1e-12


def _exact_tvs(p, ks):
    """Exact TV at each k of ks, from integer numerators over (n(q-1))**k."""
    n, q, big_q = p.n, p.q, p.size
    w = class_weights(p).w
    num, dk, out = [1] + [0] * n, 1, {}
    for k in range(max(ks) + 1):
        if k:
            num = int_power_step(num, n, q)
            dk *= p.degree
        if k in ks:
            t = sum(abs(num[l] * big_q - w[l] * dk) for l in range(n + 1))
            out[k] = Fraction(t, 2 * dk * big_q)
    return out


@lru_cache(maxsize=None)
def _window_tvs(n, q):
    """(params, exact TV at every 7th k of a_n +- 4 b_n)."""
    p = make_scheme(n, q)
    s = cutoff_schedule(p)
    ks = set(range(math.floor(s.a_n - 4 * s.b_n), math.ceil(s.a_n + 4 * s.b_n) + 1, 7))
    return p, _exact_tvs(p, ks)


def test_float_tv_matches_exact_across_window():
    for n, q in [(200, 3), (300, 5)]:
        p, tvs = _window_tvs(n, q)
        for k, exact in tvs.items():
            assert abs(tv_to_uniform(p, k, "float") - float(exact)) < 1e-14, (n, q, k)


def test_float_tv_error_bounds_the_observed_error():
    # the test_properties grid (n <= 8, q <= 6, k <= 40) and the windows
    cells = [(make_scheme(n, q), range(41)) for n in range(1, 9) for q in range(2, 7)]
    grids = [(p, _exact_tvs(p, set(ks))) for p, ks in cells]
    grids += [_window_tvs(200, 3), _window_tvs(300, 5)]
    for p, exact in grids:
        for k, tv in kstep_tv(p, sorted(exact), "float"):
            eps = bounds.float_tv_error(p.n, k)
            assert 0 < eps < 1e-12
            assert abs(Fraction(tv) - exact[k]) <= Fraction(eps), (p, k, tv)


def test_float_tv_error_is_inf_past_its_range():
    # 4ku = 2**-10 at k = 2**41; k = 10**400 has no float
    assert bounds.float_tv_error(3, 2 ** 41) == pytest.approx(4.8876e-4, rel=1e-4)
    assert bounds.float_tv_error(3, 2 ** 41 + 1) == math.inf
    assert bounds.float_tv_error(3, 10 ** 400) == math.inf


def test_check_majorant_float_decides_below_the_roundoff_floor(monkeypatch):
    # at c = 100 the bound (9.3e-44) is far below the float tv's roundoff;
    # only the exact tv can decide it, whichever way it goes
    p = make_scheme(3, 3)
    r = check_majorant(p, 100.0, backend="float")
    assert r.satisfied and r.tv_exact ** 2 <= r.bound_value
    monkeypatch.setattr(bounds, "majorant_constant", lambda q: Fraction(1, 10 ** 80))
    r = check_majorant(p, 100.0, backend="float")
    assert not r.satisfied and r.tv_exact ** 2 > r.bound_value


def test_tail_decided_majorant_cells_report_the_certificate_near_the_exact_tv(monkeypatch):
    # a float cell the roundoff band cannot decide is proven by the tail
    # certificate with no exact walk; its tv, the certificate's bound,
    # lies within 1e-12 relative of the exact tv and its square below the
    # bound
    real_tail, calls = bounds.tail, []

    def counted(params):
        calls.append(params)
        return real_tail(params)

    monkeypatch.setattr(bounds, "tail", counted)
    monkeypatch.setattr(bounds, "kstep_tv", lambda *a: pytest.fail("walked exactly"))
    decided = {}
    for q in range(3, 9):
        for n in range(1, 15):
            p = make_scheme(n, q)
            if not bounds.majorant_in_scope(p):
                continue
            for c in (60.0, 100.0, 300.0):
                calls.clear()
                r = check_majorant(p, c, backend="float")
                if calls:
                    decided.setdefault(p, []).append(r)
    assert {r.c for rs in decided.values() for r in rs} == {60.0, 100.0, 300.0}
    for p, reports in decided.items():
        exact = dict(radial.kstep_tv(p, sorted({r.k for r in reports}), "exact", math.inf))
        for r in reports:
            assert r.satisfied and r.tv_exact ** 2 <= r.bound_value
            assert abs(Fraction(r.tv_exact) / exact[r.k] - 1) <= 1e-12, (p, r.c)


def test_tail_powers_past_the_bit_budget_leave_the_cell_to_the_priced_recheck(monkeypatch):
    # H(10, 5) at c = 100: k = 415 and mu = 35, so each of the tail's
    # powers holds about 415 * 6 = 2490 bits.  At that budget the tail
    # proves the cell; one bit less and the cell goes to the exact
    # recheck, whose price refuses it before any step
    p = make_scheme(10, 5)
    monkeypatch.setattr(radial, "int_power_step", lambda *a: pytest.fail("stepped"))
    monkeypatch.setattr(bounds, "DEFAULT_BIT_BUDGET", 2490)
    r = check_majorant(p, 100.0, backend="float")
    assert (r.k, r.satisfied) == (415, True)
    monkeypatch.setattr(bounds, "DEFAULT_BIT_BUDGET", 2489)
    with pytest.raises(ResourceBudgetError, match="n=10, q=5, k=415 may hold 27665 bits"):
        check_majorant(p, 100.0, backend="float")


def test_minorant_event_b_matches_fraction_comparison():
    for n, q in [(3, 3), (10, 4), (57, 3), (120, 5)]:
        p = make_scheme(n, q)
        pi = uniform(p, "float").mass
        for b in (0.0, 1.0, 2.5):
            for c in [0.1 * i for i in range(61)]:
                beta = math.sqrt(q / ((4 * q + b) * (q - 1))) * math.exp(c / 2)
                threshold = beta / math.sqrt(n)
                in_b = [
                    l for l in range(n + 1)
                    if abs(1 - Fraction(l * q, p.degree)) < threshold
                ]
                d = minorant_diagnostics(p, n, b, c, "float")
                assert d.pi_B == math.fsum(pi[l] for l in in_b), (n, q, b, c)
    # past c ~ 1419, e**(c/2) and beta leave the float range: B is every class
    p = make_scheme(3, 3)
    for backend in ("float", "exact"):
        d = minorant_diagnostics(p, 2, 1.0, 1500.0, backend)
        assert d.beta == math.inf and not d.chebyshev_applicable
        assert d.pi_B == math.fsum(uniform(p, "float").mass) and d.nu_B == d.pi_B


def test_minorant_event_b_interval_matches_the_per_class_definition(monkeypatch):
    # B = {l : |d - lq| td < tn d} is taken as an interval of classes by
    # floor division; on every threshold the diagnostics form (a normal
    # float, logs at q = 10**700 where it underflows and at c > 1419 where
    # beta overflows) it holds exactly the classes of the per-class test
    event_b, seen = bounds._event_b, []

    def per_class(n, q, tn, td):
        got, d = event_b(n, q, tn, td), n * (q - 1)
        assert list(range(n + 1))[got] == [l for l in range(n + 1)
                                           if abs(d - l * q) * td < tn * d]
        seen.append((tn, td))
        return got

    monkeypatch.setattr(bounds, "_event_b", per_class)
    for q in (3, 5, 10 ** 400, 10 ** 700):
        for n in (1, 2, 5, 30):
            p = make_scheme(n, q)
            for c in (0.0, 3.0, 700.0, 1419.5, 1500.0):
                minorant_diagnostics(p, n, 1.0, c, "float")
    assert any(td > 2 ** 1074 for _, td in seen)  # threshold below the float range
    assert any(tn >= 2 ** 1024 for tn, _ in seen)  # and above it
    # thresholds on a class: |d - lq| td = tn d leaves l out
    for n, q in [(1, 2), (4, 3), (30, 5), (7, 10 ** 400)]:
        d = n * (q - 1)
        for l in range(n + 1):
            per_class(n, q, abs(d - l * q) or 1, d)
            per_class(n, q, 2 * abs(d - l * q) + 1, 2 * d)


def test_minorant_diagnostics_rejects_non_finite_offsets():
    p = make_scheme(10, 3)
    for b, c in [(math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0)]:
        with pytest.raises(ParameterError):
            minorant_diagnostics(p, 5, b, c)
