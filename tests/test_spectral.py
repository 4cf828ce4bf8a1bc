import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hamming_cutoff import (
    ParameterError,
    ResourceBudgetError,
    class_weights,
    expectation_phi,
    expectation_phi_by_sum,
    kstep_distribution,
    kstep_oracle,
    kstep_trajectory,
    linearization_phi1_squared,
    make_scheme,
    phi_row,
    point_mass,
    scaled_rows,
    spectrum,
    stationary_moments,
    tv_distance,
    uniform,
    variance_phi1_kstep,
)
from hamming_cutoff import radial, spectral
from hamming_cutoff.spectral import kstep_rounded


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"called {what}")
    return refuse


def test_spectrum_examples():
    s = spectrum(make_scheme(2, 3))
    assert s.lam == (1, Fraction(1, 4), Fraction(-1, 2))
    assert s.mult == (1, 4, 4)
    assert sum(s.mult) == 9
    assert spectrum(make_scheme(1, 2)).lam == (1, -1)


def test_spectrum_invariants():
    for n in (1, 5, 14):
        for q in (2, 3, 6):
            s = spectrum(make_scheme(n, q))
            assert s.lam[0] == 1
            assert all(s.lam[j] > s.lam[j + 1] for j in range(n))
            assert s.lam[n] == Fraction(-1, q - 1)
            assert sum(s.mult) == q ** n


def test_spectrum_multiplicities_are_the_class_weights():
    for n, q in [(1, 2), (7, 3), (30, 5), (200, 4)]:
        p = make_scheme(n, q)
        assert spectrum(p).mult == class_weights(p).w


def test_kstep_examples():
    p = make_scheme(2, 3)
    assert kstep_distribution(p, 0).mass == point_mass(p).mass
    d = kstep_distribution(p, 2)
    assert d.mass == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert [d.point_probability(l) for l in range(3)] == [
        Fraction(1, 4),
        Fraction(1, 16),
        Fraction(1, 8),
    ]


def test_keystone_equivalence_small_grid():
    for q in (2, 3, 5):
        for n in (1, 3, 6):
            p = make_scheme(n, q)
            for k in (0, 1, 2, 5, 11, 24):
                assert kstep_distribution(p, k).mass == kstep_oracle(p, k).mass


def test_exact_backend_takes_no_radial_step(monkeypatch):
    # the keystone test compares two engines only if this one never steps
    from hamming_cutoff import radial

    p = make_scheme(7, 4)
    expected = {k: kstep_oracle(p, k).mass for k in (0, 1, 9, 40)}

    def refuse(*args, **kwargs):
        raise AssertionError("spectral inversion took a radial step")

    monkeypatch.setattr(radial, "int_power_step", refuse)
    monkeypatch.setattr(radial, "power_step", refuse)
    for k, mass in expected.items():
        assert kstep_distribution(p, k, "exact").mass == mass


def _chain_floats(p, k):
    return tuple(map(float, kstep_oracle(p, k, math.inf).mass))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(2, 6), st.integers(0, 80))
def test_rounded_spectral_side_is_the_float_of_the_chain(n, q, k):
    # with the budget between the spectral sum's bits and the chain's
    # bound, the plan takes the spectral side, whose correctly rounded int
    # divisions are the floats of the chain's Fractions
    p = make_scheme(n, q)
    d = p.degree
    chain_bits = (min(n, k) + 1) * k * d.bit_length()
    sum_bits = sum(k * abs(d - j * q).bit_length() for j in range(n + 1))
    want = _chain_floats(p, k)
    assert kstep_rounded(p, k) == want  # both fit the default budget
    if sum_bits < chain_bits:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(radial, "DEFAULT_BIT_BUDGET", sum_bits)
            mp.setattr(radial, "int_power_step", _refuse("int_power_step"))
            assert kstep_rounded(p, k) == want


def test_rounded_law_at_n300_q3_k400_is_the_spectral_sum(monkeypatch):
    # 1.20 M chain bits, 0.955 M spectral bits: the simulate column fills
    p = make_scheme(300, 3)
    want = _chain_floats(p, 400)
    monkeypatch.setattr(radial, "int_power_step", _refuse("int_power_step"))
    monkeypatch.setattr(radial, "float_lockstep", _refuse("float_lockstep"))
    got = kstep_rounded(p, 400)
    assert len(got) == 301 and got == want and all(type(v) is float for v in got)


def test_rounded_law_takes_the_chain_where_its_bits_fit(monkeypatch):
    # the small simulate requests, q past the float range included
    cases = [(20, 3, 40), (100, 3, 200), (2, 3, 2), (3, 10 ** 400, 5)]
    want = [_chain_floats(make_scheme(n, q), k) for n, q, k in cases]
    monkeypatch.setattr(radial, "float_lockstep", _refuse("float_lockstep"))
    monkeypatch.setattr(spectral, "_spectral_numerators", _refuse("the spectral sum"))
    assert [kstep_rounded(make_scheme(n, q), k) for n, q, k in cases] == want


def test_rounded_chain_side_builds_no_fraction_law(monkeypatch):
    # the chain's integer numerators over d**k, one int division a class
    cases = [(20, 3, 40), (100, 3, 200), (2, 3, 2), (3, 10 ** 400, 5)]
    want = [_chain_floats(make_scheme(n, q), k) for n, q, k in cases]
    monkeypatch.setattr(radial, "kstep_oracle", _refuse("kstep_oracle"))
    assert [kstep_rounded(make_scheme(n, q), k) for n, q, k in cases] == want


def test_rounded_law_is_refused_before_any_step(monkeypatch):
    # past both engines' bits the plan takes no step, pass or power
    monkeypatch.setattr(radial, "int_power_step", _refuse("int_power_step"))
    monkeypatch.setattr(radial, "float_lockstep", _refuse("float_lockstep"))
    monkeypatch.setattr(spectral, "_spectral_numerators", _refuse("the spectral sum"))
    for n, q, k in ((300, 4, 600), (2000, 5, 5000), (3, 3, 10 ** 6), (3, 10 ** 400, 500)):
        assert kstep_rounded(make_scheme(n, q), k) is None
    with pytest.raises(ParameterError):
        kstep_rounded(make_scheme(3, 3), -1)


def test_oracle_is_the_chain_alone(monkeypatch):
    # the oracle never falls back to the spectral sum: it walks, and
    # past its bit price it raises before any step
    monkeypatch.setattr(spectral, "_spectral_numerators", _refuse("the spectral sum"))
    monkeypatch.setattr(spectral, "kstep_distribution", _refuse("the spectral sum"))
    p = make_scheme(9, 4)
    assert kstep_oracle(p, 17).mass == radial.kstep_oracle(p, 17, math.inf).mass
    assert kstep_oracle(p, 40, bit_budget=2010).mass == radial.kstep_oracle(p, 40, math.inf).mass
    steps, step = [], radial.int_power_step
    monkeypatch.setattr(radial, "int_power_step", lambda *a: steps.append(1) or step(*a))
    with pytest.raises(ResourceBudgetError, match="k=40 may hold 2010 bits, past the budget 2009$"):
        kstep_oracle(p, 40, bit_budget=2009)
    with pytest.raises(ResourceBudgetError, match="at n=300, q=3, k=400 may hold 1204301 bits"):
        kstep_oracle(make_scheme(300, 3), 400)
    assert steps == []


def test_float_backend_close_to_exact():
    for q in (2, 4, 6):
        for n in (1, 2, 5, 9):
            p = make_scheme(n, q)
            for k in (0, 1, 3, 17, 64):
                ex = kstep_distribution(p, k)
                fl = next(kstep_trajectory(p, (k,), "float"))[1]
                err = max(abs(float(a) - b) for a, b in zip(ex.mass, fl.mass))
                assert err < 1e-12
    with pytest.raises(ParameterError, match="radial.kstep_trajectory"):
        kstep_distribution(make_scheme(5, 3), 3, "float")


def test_float_backend_needs_no_table_budget():
    p = make_scheme(5000, 3)
    d = next(kstep_trajectory(p, (3,), "float"))[1]
    assert d.mass[0] == pytest.approx(1 / p.degree ** 2, rel=1e-15)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ResourceBudgetError):
        kstep_distribution(p, 3, "exact")


@pytest.mark.parametrize("n", [900, 5000])
def test_exact_rows_past_the_bit_budget_refused_before_any_row(n):
    # (n+1)**2 n log2 3 passes 10**9 bits from n = 858 on; n = 900 used to
    # build 137 MB of rows, n = 5000 to raise a usage error
    p = make_scheme(n, 3)
    before = scaled_rows.cache_info().currsize
    t0 = time.perf_counter()
    for call in (lambda: kstep_distribution(p, 3, "exact"),
                 lambda: phi_row(p, 1, "exact"), lambda: scaled_rows(p)):
        with pytest.raises(ResourceBudgetError):
            call()
    assert time.perf_counter() - t0 < 1.0
    assert scaled_rows.cache_info().currsize == before


def test_expectation_phi_examples():
    p = make_scheme(2, 3)
    assert expectation_phi(p, 0, 9) == 1
    assert expectation_phi(p, 1, 2) == Fraction(1, 16)
    assert expectation_phi(p, 2, 3) == Fraction(-1, 8)
    with pytest.raises(ParameterError):
        expectation_phi(p, 3, 1)


def test_expectation_two_paths_agree():
    for q in (2, 3, 5):
        for n in (1, 4, 6):
            p = make_scheme(n, q)
            for k in (0, 1, 7, 20):
                for j in range(n + 1):
                    assert expectation_phi(p, j, k) == expectation_phi_by_sum(p, j, k)


def test_expectation_by_sum_reads_one_row(monkeypatch):
    # the sum needs phi_j alone: no whole table is built
    monkeypatch.setattr(spectral, "build_table", _refuse("build_table"))
    for n, q in ((6, 3), (12, 5)):
        p = make_scheme(n, q)
        for j in range(n + 1):
            assert expectation_phi(p, j, 9) == expectation_phi_by_sum(p, j, 9)


def test_stationary_moments():
    m = stationary_moments(make_scheme(2, 3))
    assert m.var_phi1 == Fraction(1, 4)
    m = stationary_moments(make_scheme(3, 3))
    assert m.mean_phi == (1, 0, 0, 0)
    for n, q in [(1, 2), (4, 5), (7, 3)]:
        m = stationary_moments(make_scheme(n, q))
        assert m.mean_phi[0] == 1
        assert all(v == 0 for v in m.mean_phi[1:])
        assert m.var_phi1 == Fraction(1, n * (q - 1))


def test_linearization_examples():
    p = make_scheme(2, 3)
    a0, a1, a2 = linearization_phi1_squared(p)
    assert (a0, a1, a2) == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    # check at l = 1: (1/4)^2 == a0 + a1/4 - a2/2
    assert a0 + a1 * Fraction(1, 4) + a2 * Fraction(-1, 2) == Fraction(1, 16)
    assert linearization_phi1_squared(make_scheme(5, 2)) == (
        Fraction(1, 5),
        0,
        Fraction(4, 5),
    )
    for n, q in [(2, 3), (5, 2), (9, 6)]:
        assert sum(linearization_phi1_squared(make_scheme(n, q))) == 1
    with pytest.raises(ParameterError):
        linearization_phi1_squared(make_scheme(1, 3))


def test_variance_phi1_examples():
    assert variance_phi1_kstep(make_scheme(5, 3), 0).value == 0
    r = variance_phi1_kstep(make_scheme(4, 3), 5)
    assert r.value <= Fraction(1, 4)
    assert r.bound_holds
    # boundary case (n-2)(q-1) = 0: flag is reported, nothing guaranteed
    r = variance_phi1_kstep(make_scheme(2, 3), 7)
    assert isinstance(r.bound_holds, bool)


def test_variance_at_n1_matches_weighted_sums():
    # n = 1: phi_1 takes 1 and -1/(q-1), so phi_1**2 = 1 only at q = 2
    from hamming_cutoff import build_table

    for q in (2, 3, 5):
        p = make_scheme(1, q)
        t = build_table(p).phi
        for k in range(6):
            d = kstep_distribution(p, k)
            mean = sum(d.mass[l] * t[1][l] for l in range(2))
            second = sum(d.mass[l] * t[1][l] ** 2 for l in range(2))
            r = variance_phi1_kstep(p, k)
            assert r.value == second - mean * mean and r.bound_holds, (q, k)
    # one step from H(1, 3)'s basepoint lands on class 1, where phi_1 = -1/2
    assert variance_phi1_kstep(make_scheme(1, 3), 1).value == 0


def test_variance_matches_weighted_sums():
    # independent path: moments of phi_1 under the exact k-step masses
    from hamming_cutoff import build_table

    for n, q, k in [(4, 3, 5), (3, 2, 8), (5, 4, 2)]:
        p = make_scheme(n, q)
        t = build_table(p).phi
        d = kstep_distribution(p, k)
        mean = sum(d.mass[l] * t[1][l] for l in range(n + 1))
        second = sum(d.mass[l] * t[1][l] ** 2 for l in range(n + 1))
        assert variance_phi1_kstep(p, k).value == second - mean * mean


def test_tv_monotone_in_k_for_ergodic():
    for n, q in [(6, 3), (5, 4), (4, 5)]:
        p = make_scheme(n, q)
        u = uniform(p)
        last = tv_distance(point_mass(p), u)
        for k in range(1, 30):
            cur = tv_distance(kstep_oracle(p, k), u)
            assert cur <= last
            last = cur
