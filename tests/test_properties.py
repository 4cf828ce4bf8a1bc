"""Property tests: the engines agree on random small schemes."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hamming_cutoff import (
    kstep_distribution,
    kstep_oracle,
    kstep_trajectory,
    make_scheme,
    point_mass,
    power_step,
    radial_matrix,
    tv_distance,
    uniform,
)

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
