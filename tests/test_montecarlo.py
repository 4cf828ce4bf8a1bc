import math

import numpy as np
import pytest

from hamming_cutoff import (
    ParameterError,
    ResourceBudgetError,
    SimConfig,
    empirical_tv,
    kstep_oracle,
    make_scheme,
    plugin_tv,
    simulate,
    simulate_literal,
)


def test_k0_all_mass_at_basepoint():
    cfg = SimConfig(make_scheme(2, 3), k=0, walks=500, seed=1)
    res = simulate(cfg)
    assert list(res.counts) == [500, 0, 0]


def test_first_step_always_leaves_basepoint():
    cfg = SimConfig(make_scheme(2, 3), k=1, walks=10 ** 4, seed=3)
    res = simulate(cfg)
    assert list(res.counts) == [0, 10 ** 4, 0]
    assert res.point_estimate.mass[1] == 1.0


def test_two_step_frequencies_within_four_sigma():
    walks = 10 ** 6
    cfg = SimConfig(make_scheme(2, 3), k=2, walks=walks, seed=42)
    res = simulate(cfg)
    exact = [0.25, 0.25, 0.5]
    for l in range(3):
        sigma = math.sqrt(exact[l] * (1 - exact[l]) / walks)
        assert abs(res.counts[l] / walks - exact[l]) < 4 * sigma


def test_same_seed_gives_same_counts():
    p = make_scheme(4, 3)
    base = simulate(SimConfig(p, k=7, walks=200_000, seed=9))
    again = simulate(SimConfig(p, k=7, walks=200_000, seed=9))
    assert np.array_equal(base.counts, again.counts)


def test_literal_counts_are_a_function_of_the_seed():
    # 70,001 walks cross a chunk boundary; k = 0 draws nothing
    p = make_scheme(3, 4)

    def counts(k, walks, seed):
        return simulate_literal(SimConfig(p, k=k, walks=walks, seed=seed)).counts

    assert np.array_equal(counts(3, 70_001, 13), counts(3, 70_001, 13))
    assert not np.array_equal(counts(3, 70_001, 13), counts(3, 70_001, 14))
    assert list(counts(0, 5000, 13)) == [5000, 0, 0, 0]


def test_literal_memory_does_not_grow_with_walks():
    import tracemalloc

    cfg = SimConfig(make_scheme(4, 3), k=3, walks=4 * 10 ** 6, seed=1)
    tracemalloc.start()
    try:
        counts = simulate_literal(cfg).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == cfg.walks
    assert peak < 16 * 2 ** 20, peak


@pytest.mark.parametrize("sampler", [simulate, simulate_literal],
                         ids=["simulate", "simulate_literal"])
def test_counts_have_the_multinomial_law_of_independent_walks(sampler):
    # over 2000 seeds, the mean and covariance of the class counts match
    # walks*nu and walks*(diag nu - nu nu^T); q = 2 has no stays, and
    # parity leaves classes with nu = 0, whose counts must be exactly 0
    seeds, walks = 2000, 30
    for n, q, k in ((4, 3, 6), (3, 2, 5), (5, 4, 7)):
        p = make_scheme(n, q)
        nu = np.array([float(v) for v in kstep_oracle(p, k).mass])
        x = np.array([sampler(SimConfig(p, k=k, walks=walks, seed=s)).counts
                      for s in range(seeds)], dtype=float)
        dev = x - walks * nu
        cov = walks * (np.diag(nu) - np.outer(nu, nu))
        live = nu > 0
        assert np.all(dev[:, ~live] == 0), (n, q, k)
        z_mean = dev.mean(axis=0)[live] / np.sqrt(np.diag(cov)[live] / seeds)
        prods = dev[:, :, None] * dev[:, None, :]  # (seed, l, m)
        pair = np.outer(live, live)
        z_cov = ((prods.mean(axis=0) - cov)[pair]
                 / np.sqrt(prods.var(axis=0)[pair] / seeds))
        assert np.max(np.abs(z_mean)) < 4.5, (n, q, k, z_mean)
        assert np.max(np.abs(z_cov)) < 4.5, (n, q, k, z_cov)


def test_cost_does_not_grow_with_walks():
    # 10**9 walks of 10 steps: the draw budget's walks*k = 10**10 walk-steps
    p, walks, k = make_scheme(30, 3), 10 ** 9, 10
    nu = np.array([float(v) for v in kstep_oracle(p, k).mass])
    counts = simulate(SimConfig(p, k=k, walks=walks, seed=5)).counts
    assert int(counts.sum()) == walks
    assert np.all(np.abs(counts - walks * nu) <= 8 * np.sqrt(walks * nu * (1 - nu)))


def test_seed_sensitivity():
    p = make_scheme(4, 3)
    a = simulate(SimConfig(p, k=5, walks=5000, seed=1))
    b = simulate(SimConfig(p, k=5, walks=5000, seed=2))
    assert not np.array_equal(a.counts, b.counts)


def test_counts_sum_and_stderr_shape():
    cfg = SimConfig(make_scheme(5, 3), k=4, walks=3000, seed=11)
    res = simulate(cfg)
    assert int(res.counts.sum()) == 3000
    assert res.stderr.shape == (6,)
    assert np.all(res.stderr >= 0)


def test_literal_graph_sampler_cross_check():
    # same law as the radial sampler, checked against exact masses
    p = make_scheme(2, 3)
    walks = 200_000
    exact = [float(v) for v in kstep_oracle(p, 2).mass]
    res = simulate_literal(SimConfig(p, k=2, walks=walks, seed=5))
    for l in range(3):
        sigma = math.sqrt(exact[l] * (1 - exact[l]) / walks)
        assert abs(res.counts[l] / walks - exact[l]) < 5 * sigma


def test_literal_sampler_budget():
    with pytest.raises(ResourceBudgetError):
        simulate_literal(SimConfig(make_scheme(20, 3), k=1, walks=10, seed=0))


def _no_generator(*args, **kwargs):
    raise AssertionError("a refused request built a generator")


def test_sampler_step_plan_refused_before_any_draw(monkeypatch):
    # walks*k = 10**9 fits the draw budget, but 10**9 steps of 2(n+1)
    # binomials would run for hours: the step plan refuses them at once
    monkeypatch.setattr(np.random, "Philox", _no_generator)
    with pytest.raises(ResourceBudgetError, match="step budget"):
        simulate(SimConfig(make_scheme(3, 3), k=10 ** 9, walks=1, seed=0))


def test_literal_sampler_draw_budget_refused_before_any_draw(monkeypatch):
    # 10**12 walk-steps on a 9-vertex graph: one draw each, ~10 h uncapped
    monkeypatch.setattr(np.random, "Philox", _no_generator)
    with pytest.raises(ResourceBudgetError, match="draw budget"):
        simulate_literal(SimConfig(make_scheme(2, 3), k=10 ** 4, walks=10 ** 8, seed=0))


def test_plugin_tv_reads_the_given_sample():
    cfg = SimConfig(make_scheme(5, 3), k=6, walks=4000, seed=8)
    assert plugin_tv(simulate(cfg)) == empirical_tv(cfg)


def test_empirical_tv_k0_exact():
    cfg = SimConfig(make_scheme(2, 3), k=0, walks=1000, seed=0)
    out = empirical_tv(cfg)
    assert out.estimate == pytest.approx(1 - 1 / 9, abs=1e-15)
    assert "bias" in out.note


def test_empirical_tv_converges_to_exact():
    from hamming_cutoff import tv_distance, uniform

    p = make_scheme(2, 3)
    exact = float(tv_distance(kstep_oracle(p, 2), uniform(p)))
    errors = []
    for walks in (10 ** 4, 10 ** 5, 10 ** 6):
        est = empirical_tv(SimConfig(p, k=2, walks=walks, seed=2024)).estimate
        errors.append(abs(est - exact))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 2e-3


def test_draw_budget_rejected_upfront():
    cfg = SimConfig(make_scheme(3, 3), k=10 ** 6, walks=10 ** 5, seed=0)
    with pytest.raises(ResourceBudgetError):
        simulate(cfg)


def test_config_validation():
    p = make_scheme(2, 3)
    with pytest.raises(ParameterError):
        SimConfig(p, k=-1, walks=10, seed=0)
    with pytest.raises(ParameterError):
        SimConfig(p, k=1, walks=0, seed=0)
    with pytest.raises(ParameterError):
        SimConfig(p, k=0, walks=2 ** 63, seed=0)
    with pytest.raises(ParameterError):
        SimConfig(p, k=1, walks=10, seed=2 ** 64)
