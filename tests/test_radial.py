import math
from fractions import Fraction

import pytest

from hamming_cutoff import (
    ParameterError,
    ResourceBudgetError,
    enumerate_tiny,
    kstep_float_powering,
    kstep_numerators,
    kstep_oracle,
    kstep_trajectory,
    kstep_tv,
    make_scheme,
    point_mass,
    power_step,
    radial_matrix,
    reversibility_holds,
    tv_distance,
    uniform,
)
from hamming_cutoff.radial import float_step_arrays


def neighbor_census(n, q, base_word):
    """Independent oracle: classify all neighbours of a word by distance."""
    down = stay = up = 0
    d0 = sum(1 for c in base_word if c != 0)
    for i in range(n):
        for v in range(q):
            if v == base_word[i]:
                continue
            word = list(base_word)
            word[i] = v
            d = sum(1 for c in word if c != 0)
            if d == d0 - 1:
                down += 1
            elif d == d0:
                stay += 1
            else:
                up += 1
    return down, stay, up


def test_radial_matrix_examples_against_neighbor_census():
    p = make_scheme(3, 3)
    m = radial_matrix(p)
    down, stay, up = neighbor_census(3, 3, (1, 0, 0))
    assert (down, stay, up) == (1, 1, 4)
    assert (m.down[1], m.stay[1], m.up[1]) == (
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(2, 3),
    )

    p = make_scheme(2, 3)
    m = radial_matrix(p)
    down, stay, up = neighbor_census(2, 3, (1, 1))
    assert (down, stay, up) == (2, 2, 0)
    assert (m.down[2], m.stay[2], m.up[2]) == (
        Fraction(1, 2),
        Fraction(1, 2),
        0,
    )


def test_radial_matrix_full_census():
    for n, q in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 5)]:
        p = make_scheme(n, q)
        m = radial_matrix(p)
        deg = n * (q - 1)
        for l in range(n + 1):
            word = tuple([1] * l + [0] * (n - l))
            down, stay, up = neighbor_census(n, q, word)
            assert m.down[l] == Fraction(down, deg)
            assert m.stay[l] == Fraction(stay, deg)
            assert m.up[l] == Fraction(up, deg)


def test_rows_sum_to_one_and_binary_case():
    for n in (1, 4, 9):
        for q in (2, 3, 6):
            m = radial_matrix(make_scheme(n, q))
            for l in range(n + 1):
                assert m.down[l] + m.stay[l] + m.up[l] == 1
            if q == 2:
                assert all(v == 0 for v in m.stay)
            assert m.down[0] == 0 and m.up[0] == 1 and m.up[n] == 0


def test_power_step_examples():
    p = make_scheme(2, 3)
    m = radial_matrix(p)
    one = power_step(point_mass(p), m)
    assert one.mass == (0, 1, 0)
    two = power_step(one, m)
    assert two.mass == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_power_step_params_mismatch():
    with pytest.raises(ParameterError):
        power_step(point_mass(make_scheme(2, 3)), radial_matrix(make_scheme(3, 3)))


def test_uniform_is_fixed_point():
    for n in range(1, 11):
        for q in (2, 3, 6):
            p = make_scheme(n, q)
            u = uniform(p)
            assert power_step(u, radial_matrix(p)).mass == u.mass


def test_reversibility():
    for n in (1, 5, 12):
        for q in (2, 3, 6):
            assert reversibility_holds(make_scheme(n, q))


def test_kstep_oracle_examples():
    p = make_scheme(2, 3)
    assert kstep_oracle(p, 0).mass == point_mass(p).mass
    assert kstep_oracle(p, 2).mass == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 2),
    )
    assert tv_distance(kstep_oracle(p, 2), uniform(p)) == Fraction(7, 36)


def test_bit_budget_aborts():
    with pytest.raises(ResourceBudgetError):
        kstep_oracle(make_scheme(12, 3), 500, bit_budget=2000)


def test_enumerate_tiny_examples():
    assert enumerate_tiny(make_scheme(1, 3), 1).mass == (0, 1)
    p = make_scheme(3, 2)
    assert enumerate_tiny(p, 2).mass == kstep_oracle(p, 2).mass
    p = make_scheme(2, 3)
    assert enumerate_tiny(p, 4).mass == kstep_oracle(p, 4).mass


def test_enumerate_tiny_budget():
    with pytest.raises(ResourceBudgetError):
        enumerate_tiny(make_scheme(10, 3), 1, max_states=100)


def test_float_powering_matches_exact():
    for n, q, k in [(5, 3, 40), (30, 3, 300), (8, 2, 64), (6, 6, 25)]:
        p = make_scheme(n, q)
        ex = kstep_oracle(p, k)
        fl = kstep_float_powering(p, k)
        assert max(abs(float(a) - b) for a, b in zip(ex.mass, fl.mass)) < 1e-13


def test_mass_invariants_along_trajectories():
    for n, q in [(4, 3), (6, 2), (3, 6)]:
        p = make_scheme(n, q)
        m = radial_matrix(p)
        d = point_mass(p)
        for _ in range(25):
            d = power_step(d, m)
            assert all(v >= 0 for v in d.mass)
            assert d.total_mass() == 1


def test_float_step_arrays_match_radial_matrix():
    for n in (1, 2, 7, 30, 119, 300, 1000):
        for q in (2, 3, 4, 7, 16):
            p = make_scheme(n, q)
            m = radial_matrix(p)
            arrays = float_step_arrays(p)
            for exact, fl in zip((m.down, m.stay, m.up), arrays):
                assert fl.tolist() == [float(v) for v in exact]


def test_float_trajectory_matches_single_k_powering():
    p = make_scheme(25, 4)
    ks = (0, 1, 2, 9, 40, 41, 150)
    for backend, single in (("float", kstep_float_powering), ("exact", kstep_oracle)):
        got = list(kstep_trajectory(p, ks, backend))
        assert [k for k, _ in got] == list(ks)
        for k, dist in got:
            assert dist.backend == backend
            assert list(dist.mass) == list(single(p, k).mass)
        assert list(kstep_trajectory(p, (), backend)) == []
        for bad in ((3, 2), (4, 4), (-1, 2)):
            with pytest.raises(ParameterError):
                list(kstep_trajectory(p, bad, backend))
    with pytest.raises(ParameterError):
        list(kstep_trajectory(p, ks, "decimal"))


def test_kstep_tv_matches_tv_of_the_trajectory():
    # exact: equal Fractions; float: bit for bit the tv_distance glue
    for n, q in [(1, 3), (2, 2), (7, 4), (25, 3)]:
        p = make_scheme(n, q)
        ks = (0, 1, 5, 40, 77)
        for backend in ("exact", "float"):
            uni = uniform(p, backend)
            ref = [(k, tv_distance(d, uni)) for k, d in kstep_trajectory(p, ks, backend)]
            assert list(kstep_tv(p, ks, backend)) == ref
    with pytest.raises(ResourceBudgetError):
        list(kstep_tv(make_scheme(12, 3), (500,), "exact", bit_budget=2000))
    for bad in ((3, 2), (-1,)):
        with pytest.raises(ParameterError):
            list(kstep_tv(p, bad, "exact"))
    with pytest.raises(ParameterError):
        list(kstep_tv(p, (1,), "decimal"))


def test_bit_budget_trips_exactly_past_the_numerator_bits():
    p = make_scheme(9, 4)
    bits = [sum(v.bit_length() for v in num)
            for _, num in kstep_numerators(p, range(41), math.inf)]
    m = radial_matrix(p)
    ref = [point_mass(p)]  # the Fraction reference, one power_step per k
    for _ in range(40):
        ref.append(power_step(ref[-1], m))
    for k in (1, 17, 40):
        peak = max(bits[1:k + 1])
        first = bits.index(peak, 1)
        assert kstep_oracle(p, k, bit_budget=peak).mass == ref[k].mass
        with pytest.raises(ResourceBudgetError, match=f"k={first}$"):
            kstep_oracle(p, k, bit_budget=peak - 1)
    # k = 0 takes no step, so no budget applies
    assert kstep_oracle(p, 0, bit_budget=0).mass == point_mass(p).mass
