import itertools
import math
import random
from fractions import Fraction

import pytest

import numpy as np

from hamming_cutoff import (
    ParameterError,
    RadialDistribution,
    class_weights,
    cutoff_schedule,
    kstep_oracle,
    kstep_trajectory,
    make_scheme,
    point_mass,
    tv_distance,
    uniform,
)
from hamming_cutoff.scheme import _log_int, log_class_weights


def test_make_scheme_examples():
    p = make_scheme(3, 3)
    assert (p.n, p.q, p.ergodic) == (3, 3, True)
    p = make_scheme(4, 2)
    assert (p.n, p.q, p.ergodic) == (4, 2, False)


@pytest.mark.parametrize(
    "n,q", [(0, 3), (-1, 3), (3, 1), (3, 0), (2, -2), (True, 3), (3, True), (2.0, 3)]
)
def test_make_scheme_rejects_bad_domain(n, q):
    with pytest.raises(ParameterError):
        make_scheme(n, q)


def test_class_weights_examples():
    assert class_weights(make_scheme(3, 3)).w == (1, 6, 12, 8)
    assert class_weights(make_scheme(3, 3)).total == 27
    assert class_weights(make_scheme(1, 5)).w == (1, 4)
    assert class_weights(make_scheme(2, 3)).w == (1, 4, 4)


def test_class_weights_sum_to_size():
    for n in range(1, 13):
        for q in range(2, 7):
            cw = class_weights(make_scheme(n, q))
            assert sum(cw.w) == q ** n == cw.total
            assert cw.w[0] == 1 and cw.w[n] == (q - 1) ** n


def test_class_weights_equal_the_binomial_formula():
    for n in range(1, 61):
        for q in range(2, 8):
            w = class_weights(make_scheme(n, q)).w
            assert w == tuple(math.comb(n, l) * (q - 1) ** l for l in range(n + 1))
    w = class_weights(make_scheme(2000, 5)).w
    for l in (0, 1, 777, 1000, 1999, 2000):
        assert w[l] == math.comb(2000, l) * 4 ** l


def test_log_class_weights_match_the_exact_weights():
    for n, q in ((1, 2), (9, 2), (30, 3), (2000, 5)):
        p = make_scheme(n, q)
        logw = log_class_weights(p)
        exact = [_log_int(v) for v in class_weights(p).w]
        assert np.allclose(logw, exact, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            logw[0] = 0.0


def test_log_class_weights_are_not_cached():
    # its callers (`bounds._lemma_terms`, `krawtchouk._float_table`) cache
    # what they derive from it
    assert not hasattr(log_class_weights, "cache_info")


@pytest.mark.parametrize("q", [3, 5, 10 ** 400], ids=["q3", "q5", "q10e400"])
def test_float_uniform_law_reads_no_exact_class_weights(q):
    # each mass is the correctly rounded w[l] / q**n, taken as the weight
    # recurrence yields w[l]: the exact weights' cache is neither read
    # nor filled
    p = make_scheme(37, q)
    uniform.cache_clear()
    class_weights.cache_clear()
    before = class_weights.cache_info()
    mass = uniform(p, "float").mass
    assert class_weights.cache_info() == before
    expected = [wl / p.size for wl in class_weights(p).w]
    assert [v.hex() for v in mass.tolist()] == [v.hex() for v in expected]


def test_uniform_examples():
    u = uniform(make_scheme(2, 3))
    assert u.mass == (Fraction(1, 9), Fraction(4, 9), Fraction(4, 9))
    u = uniform(make_scheme(1, 2))
    assert u.mass == (Fraction(1, 2), Fraction(1, 2))
    for n in range(1, 9):
        for q in (2, 3, 5):
            assert uniform(make_scheme(n, q)).total_mass() == 1


def test_float_point_probability_past_the_float_range_of_the_weights():
    # w[l] = C(1100, l) has 988 bits at l = 350, 1009 at l = 370 and 1043
    # at l = 410 (past float64): mass / w goes through logs from 2**1000 on
    p = make_scheme(1100, 2)
    w = class_weights(p).w
    mass = np.zeros(1101)
    mass[[200, 350, 370, 410]] = 0.25, 0.75, 0.5, -0.125
    dist = RadialDistribution(p, mass, "float")
    for l in (200, 350, 370, 410):
        got = dist.point_probability(l)
        assert got == pytest.approx(float(Fraction(mass[l]) / w[l]), rel=1e-12), l
        assert got != 0.0
    assert w[410] > 2 ** 1024 and dist.point_probability(410) < 0
    assert dist.point_probability(400) == 0.0 and dist.point_probability(1) == 0.0


def test_point_mass_examples():
    assert point_mass(make_scheme(3, 3)).mass == (1, 0, 0, 0)
    assert point_mass(make_scheme(1, 2)).mass == (1, 0)


def test_tv_point_mass_vs_uniform():
    for n in range(1, 13):
        for q in range(2, 7):
            p = make_scheme(n, q)
            tv = tv_distance(point_mass(p), uniform(p))
            assert tv == 1 - Fraction(1, q ** n)


def test_tv_identity_is_zero():
    p = make_scheme(4, 3)
    d = kstep_oracle(p, 3)
    assert tv_distance(d, d) == 0


def tv_subset_oracle(a: RadialDistribution, b: RadialDistribution) -> Fraction:
    """Independent TV oracle: maximize |a(S) - b(S)| over vertex subsets."""
    params = a.params
    n, q = params.n, params.q
    w = class_weights(params).w
    per_point = []
    for word in itertools.product(range(q), repeat=n):
        l = sum(1 for c in word if c != 0)
        per_point.append(a.mass[l] / w[l] - b.mass[l] / w[l])
    best = Fraction(0)
    for bits in range(1 << len(per_point)):
        s = sum(
            (per_point[i] for i in range(len(per_point)) if bits >> i & 1),
            Fraction(0),
        )
        best = max(best, abs(s))
    return best


def test_tv_one_step_vs_uniform_matches_subset_oracle():
    p = make_scheme(1, 3)
    step = kstep_oracle(p, 1)
    assert step.mass == (0, 1)
    tv = tv_distance(step, uniform(p))
    assert tv == Fraction(1, 3)
    assert tv == tv_subset_oracle(step, uniform(p))


def test_tv_two_step_example():
    p = make_scheme(2, 3)
    assert tv_distance(kstep_oracle(p, 2), uniform(p)) == Fraction(7, 36)


def test_tv_formula_equals_subset_maximization_small():
    # every (n, q) with at most 3**2 vertices, several distributions each
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        p = make_scheme(n, q)
        for k in (0, 1, 3):
            a = kstep_oracle(p, k)
            b = uniform(p)
            assert tv_distance(a, b) == tv_subset_oracle(a, b)


def _random_distribution(p, rng):
    raw = [rng.randrange(0, 20) for _ in range(p.n + 1)]
    while sum(raw) == 0:
        raw = [rng.randrange(0, 20) for _ in range(p.n + 1)]
    total = sum(raw)
    return RadialDistribution(p, [Fraction(v, total) for v in raw], "exact")


def test_tv_is_a_metric_on_random_triples():
    rng = random.Random(7)
    p = make_scheme(5, 3)
    for _ in range(25):
        a, b, c = (_random_distribution(p, rng) for _ in range(3))
        assert tv_distance(a, b) == tv_distance(b, a)
        assert tv_distance(a, b) >= 0
        assert (tv_distance(a, b) == 0) == (a.mass == b.mass)
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


def test_exact_tv_equals_the_fraction_sum():
    rng = random.Random(11)
    p = make_scheme(30, 3)
    pairs = [(kstep_oracle(p, k), uniform(p)) for k in (0, 1, 29, 150)]
    q = make_scheme(5, 4)
    pairs += [(_random_distribution(q, rng), _random_distribution(q, rng))
              for _ in range(20)]
    for a, b in pairs:
        tv = tv_distance(a, b)
        assert isinstance(tv, Fraction)
        assert tv == sum(abs(x - y) for x, y in zip(a.mass, b.mass)) / 2


def _natural_order_tv(a, b):
    return 0.5 * math.fsum(np.abs(np.asarray(a, float) - np.asarray(b, float)))


def _float_pair(a, b):
    p = make_scheme(len(a) - 1, 3)
    return RadialDistribution(p, a, "float"), RadialDistribution(p, b, "float")


def test_float_tv_is_bit_identical_to_the_natural_order_sum():
    # fsum is correctly rounded, so summing largest first may not move a bit
    rng = np.random.default_rng(2024)
    arrays = []
    for _ in range(1500):  # zeros, equal entries and subnormals
        m = int(rng.integers(2, 60))
        a = rng.random(m) * 10.0 ** rng.uniform(-320, 0, m)
        b = rng.random(m) * 10.0 ** rng.uniform(-320, 0, m)
        a[rng.random(m) < 0.2] = 0.0
        b[rng.random(m) < 0.2] = 5e-324
        same = rng.random(m) < 0.1
        b[same] = a[same]
        arrays.append((a, b))
    for _ in range(500):  # terms across the whole range 2**-1074 .. 1
        m = int(rng.integers(2, 200))
        a = rng.random(m) * 2.0 ** -rng.integers(0, 1075, m).astype(float)
        arrays.append((a, np.zeros(m)))
    for m in (1, 2, 3, 7, 64, 501):  # half-ulp ties at the rounding point
        for a in ([1 + 2 ** -52] * m + [2 ** -53],
                  [2 ** -53] + [1 + 2 ** -52] * m,
                  [1.0] * m + [2 ** -53] * m,
                  [2 ** -53] * (2 * m) + [1.0] + [-(2 ** -106)] * m):
            arrays.append((np.array(a), np.zeros(len(a))))
    for a, b in arrays:
        assert tv_distance(*_float_pair(a, b)) == _natural_order_tv(a, b)


def test_float_tv_is_bit_identical_across_the_cutoff_windows():
    for n, q in [(500, 3), (1800, 5)]:
        p = make_scheme(n, q)
        s = cutoff_schedule(p)
        ks = range(math.floor(s.a_n - 4 * s.b_n), math.ceil(s.a_n + 4 * s.b_n) + 1, 7)
        pi = uniform(p, "float")
        for k, dist in kstep_trajectory(p, ks, "float"):
            assert tv_distance(dist, pi) == _natural_order_tv(dist.mass, pi.mass), (n, q, k)


def test_tv_params_mismatch_rejected():
    with pytest.raises(ParameterError):
        tv_distance(uniform(make_scheme(2, 3)), uniform(make_scheme(3, 3)))


def test_mixed_backend_tv_is_float():
    p = make_scheme(3, 3)
    v = tv_distance(point_mass(p, "float"), uniform(p))
    assert isinstance(v, float)
    assert abs(v - (1 - 27 ** -1)) < 1e-15


def test_float_mass_is_read_only():
    u = uniform(make_scheme(4, 3), "float")
    with pytest.raises(ValueError):
        u.mass[0] = 0.5
