"""Property tests: the engines agree on random small schemes."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamming_cutoff import (
    kstep_distribution,
    kstep_oracle,
    kstep_trajectory,
    make_scheme,
    point_mass,
    power_step,
    radial_matrix,
    spectrum,
    tv_distance,
    uniform,
)
from hamming_cutoff import spectral, verify
from hamming_cutoff.radial import _excess_start, bit_price, kstep_excess, kstep_numerators

small_n = st.integers(1, 8)
small_k = st.integers(0, 40)
properties = settings(max_examples=150, deadline=None)


@properties
@given(small_n, st.integers(2, 6), small_k)
def test_oracle_spectral_and_fraction_step_agree(n, q, k):
    p = make_scheme(n, q)
    oracle = kstep_oracle(p, k).mass
    assert kstep_distribution(p, k, "exact").mass == oracle
    m = radial_matrix(p)
    ref = point_mass(p)
    for _ in range(k):
        ref = power_step(ref, m)
    assert ref.mass == oracle


@properties
@given(small_n, st.integers(2, 6), small_k)
def test_float_within_roundoff_of_exact(n, q, k):
    p = make_scheme(n, q)
    exact = kstep_oracle(p, k).mass
    fl = next(kstep_trajectory(p, (k,), "float"))[1].mass
    assert max(abs(float(a) - b) for a, b in zip(exact, fl)) <= 1e-12


@properties
@given(small_n, st.integers(3, 6))
def test_float_tv_non_increasing_in_k(n, q):
    p = make_scheme(n, q)
    uni = uniform(p, "float")
    tvs = [tv_distance(d, uni) for _, d in kstep_trajectory(p, range(41), "float")]
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


@properties
@given(st.integers(1, 12), st.lists(st.integers(2, 6), min_size=1, max_size=2, unique=True),
       st.integers(0, 80), st.sampled_from((1, 2, 4, 16)))
def test_verify_upper_verdicts_equal_the_exact_statement(n_max, q_values, k_max, shrink):
    # every multiplicity divided by `shrink` makes the bound fail on some
    # cells; the suite must report exactly the cells where the exact
    # statement t**2 <= q**(2n) s fails, with both sides rounded
    def shrunk(p):
        s = spectrum(p)
        return dataclasses.replace(s, mult=tuple(Fraction(m, shrink) for m in s.mult))

    expect = []
    for q in q_values:
        for n in range(1, n_max + 1):
            p = make_scheme(n, q)
            d, mult = p.degree, shrunk(p).mult
            for k, e in kstep_excess(p, range(k_max + 1), math.inf):
                t = sum(map(abs, e))
                s = sum(mult[j] * (d - j * q) ** (2 * k) for j in range(1, n + 1))
                if t * t > p.size ** 2 * s:
                    lhs, rhs = Fraction(t * t, p.size ** 2), s
                    expect.append((n, q, k, float(lhs / (4 * d ** (2 * k))),
                                   float(rhs / (4 * d ** (2 * k)))))
    with mock.patch.object(verify, "_multiplicities", lambda p: shrunk(p).mult):
        report = verify.verify_upper(n_max=n_max, q_values=q_values, k_max=k_max)
    assert report.checked == len(q_values) * n_max * (k_max + 1)
    assert [(v.n, v.q, v.k, v.lhs, v.rhs) for v in report.violations] == expect


@properties
@given(st.integers(1, 30), st.sampled_from((2, 3, 4, 5, 6, 9)), st.booleans())
def test_every_exact_state_fits_its_bit_price(n, q, excess):
    # no state either exact walk yields at k <= 300, from its own start,
    # holds more bits than `bit_price` of that k (the price sat 1-12 %
    # above these bits on the walks it was measured on)
    p = make_scheme(n, q)
    walk, start = ((kstep_excess, _excess_start(p)) if excess
                   else (kstep_numerators, [1] + [0] * n))
    for k, v in walk(p, range(301), math.inf):
        assert sum(map(int.bit_length, v)) <= bit_price(p, start, k), k


@properties
@given(st.integers(1, 30), st.integers(3, 9))
@example(3, 3)
@example(2, 4)
def test_spectral_tail_bounds_the_exact_excess(n, q):
    # coefs[k % 2] mu**k + sum_rest a b**k >= sum|e| at every k <= 300,
    # both parities; the ties H(3, 3) (k >= 1) and H(2, 4), where the
    # group is every term that does not vanish, meet it exactly
    p = make_scheme(n, q)
    mu, group, coefs, rest = spectral.tail(p)
    tie = (n, q) in ((3, 3), (2, 4))
    assert (len(group) > 1) == tie
    for k, e in kstep_excess(p, range(301), math.inf):
        t, bound = sum(map(abs, e)), coefs[k % 2] * mu ** k + sum(a * b ** k for a, b in rest)
        assert bound >= t, k
        if tie and (k or n == 2):
            assert bound == t, k
