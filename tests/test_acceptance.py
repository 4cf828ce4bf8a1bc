"""Acceptance suite: one test per contract criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
stated runtime caps are asserted where the contract pins one.
"""

import math
import time

import numpy as np

from hamming_cutoff import (
    SimConfig,
    formulas_agree,
    kstep_distribution,
    kstep_oracle,
    make_scheme,
    orthogonality_exact,
    orthogonality_residual,
    point_mass,
    radial_matrix,
    power_step,
    simulate,
)
from hamming_cutoff.cli import main as cli_main
from hamming_cutoff.radial import enumerate_tiny_steps
from hamming_cutoff.verify import (
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


def _report(num, desc, ok, elapsed, cap=None):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc} ({elapsed:.1f}s)"
    print(line)
    assert ok, line
    if cap is not None:
        assert elapsed < cap, f"criterion {num} over runtime cap {cap}s: {elapsed:.1f}s"


def test_criterion_01_keystone_equivalence():
    t0 = time.time()
    ok = True
    for q in range(2, 7):
        for n in range(1, 11):
            p = make_scheme(n, q)
            m = radial_matrix(p)
            dist = point_mass(p)
            for k in range(65):
                if k:
                    dist = power_step(dist, m)
                spectral = kstep_distribution(p, k, "exact")
                ok = ok and spectral.mass == dist.mass
                fl = kstep_distribution(p, k, "float")
                ok = ok and max(
                    abs(float(a) - b) for a, b in zip(dist.mass, fl.mass)
                ) <= 1e-12
            if not ok:
                break
    _report(
        1,
        "spectral k-step == radial oracle exactly (n<=10, q<=6, k<=64), float within 1e-12",
        ok,
        time.time() - t0,
        cap=120,
    )


def test_criterion_02_radial_projection_certified():
    t0 = time.time()
    ok = True
    pairs = [
        (n, q)
        for q in range(2, 7)
        for n in range(1, 20)
        if q ** n <= 10 ** 4
    ]
    for n, q in pairs:
        p = make_scheme(n, q)
        m = radial_matrix(p)
        dist = point_mass(p)
        for k, full in enumerate(enumerate_tiny_steps(p, 20, max_states=10 ** 4)):
            if k:
                dist = power_step(dist, m)
            ok = ok and full.mass == dist.mass
        if not ok:
            break
    _report(
        2,
        f"literal-graph enumeration == radial oracle exactly ({len(pairs)} schemes, k<=20)",
        ok,
        time.time() - t0,
        cap=120,
    )


def test_criterion_03_krawtchouk_certificates():
    t0 = time.time()
    ok = True
    for q in range(2, 7):
        for n in range(1, 31):
            p = make_scheme(n, q)
            ok = ok and formulas_agree(p) and orthogonality_exact(p)
    worst = 0.0
    for q in range(2, 7):
        for n in range(1, 201):
            worst = max(worst, orthogonality_residual(make_scheme(n, q)))
    ok = ok and worst <= 1e-10
    _report(
        3,
        f"dual closed forms + exact orthogonality (n<=30); float Gram residual {worst:.2e} <= 1e-10 (n<=200)",
        ok,
        time.time() - t0,
    )


def test_criterion_04_upper_bound_lemma_dominance():
    t0 = time.time()
    report = verify_upper(n_max=30, q_values=(2, 3, 4, 5, 6), k_max=300)
    _report(
        4,
        f"tv^2 <= spectral upper bound on {report.checked} cells (n<=30, q<=6, k<=300), "
        f"{len(report.violations)} violations",
        report.ok,
        time.time() - t0,
    )


def test_criterion_05_theorem_majorants():
    t0 = time.time()
    cs = tuple(0.25 * i for i in range(1, 25))
    report = verify_majorant(
        q_values=(3, 4, 5, 6, 7, 8), n_max=40, c_values=cs
    )
    _report(
        5,
        f"regime majorants hold on {report.checked} cells (q in 3..8, n<=40, c in 0.25..6), "
        f"{len(report.violations)} violations",
        report.ok,
        time.time() - t0,
        cap=300,
    )


def test_criterion_06_section4_identities():
    t0 = time.time()
    r41 = verify_lemma41(n_max=30)
    r42 = verify_lemma42(n_max=30)
    r43a = verify_lemma43_moments(n_max=10, k_max=64)
    r43b = verify_lemma43_variance(n_max=20, k_max=200)
    ok = r41.ok and r42.ok and r43a.ok and r43b.ok
    _report(
        6,
        "phi_1^2 linearization, stationary moments, two-path expectations, "
        "k-step variance cap: all exact, zero violations",
        ok,
        time.time() - t0,
    )


def test_criterion_07_minorant_sweep():
    t0 = time.time()
    sweep = minorant_sweep(q=3, b=1.0, c0=3.0, c=3.0)
    bound = 1 - 13 * math.exp(-3.0)
    ok = (
        sweep.n_star is not None
        and sweep.n_star <= 2000
        and not sweep.diagnostic_violations
        and sweep.records[-1].n == 2000
        and all(r.bound == bound for r in sweep.records)
    )
    _report(
        7,
        f"minorant tv >= {bound:.5f} holds for all tested n in [{sweep.n_star}, 2000]; "
        "Markov/event diagnostics unconditional",
        ok,
        time.time() - t0,
        cap=600,
    )


def test_criterion_08_cutoff_shape(tmp_path):
    t0 = time.time()
    n, q = 500, 3
    b_n = n * (q - 1) / (2 * q)
    a_n = b_n * math.log(n * (q - 1))
    k_lo = math.floor(a_n - 4 * b_n)
    k_hi = math.ceil(a_n + 4 * b_n)
    out = tmp_path / "window.csv"
    code = cli_main(
        ["profile", "--n", "500", "--q", "3", "--k-min", str(k_lo),
         "--k-max", str(k_hi), "--backend", "float", "--out", str(out)]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    tvs = [float(r[2]) for r in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
    ok = code == 0 and tvs[0] > 0.75 and tvs[-1] < 0.25 and monotone
    _report(
        8,
        f"n=500 window: tv({k_lo})={tvs[0]:.4f} > 0.75, tv({k_hi})={tvs[-1]:.4f} < 0.25, "
        "monotone non-increasing (1e-12)",
        ok,
        time.time() - t0,
        cap=60,
    )


def test_criterion_09_monte_carlo_consistency():
    t0 = time.time()
    p = make_scheme(5, 3)
    walks, k = 10 ** 4, 10
    exact = np.array([float(v) for v in kstep_oracle(p, k).mass])
    sigma = np.sqrt(exact * (1 - exact) / walks)
    zs = []
    for seed in range(200):
        counts = simulate(SimConfig(p, k=k, walks=walks, seed=seed)).counts
        zs.extend((counts / walks - exact) / sigma)
    zs = np.array(zs)
    frac_tail = float(np.mean(np.abs(zs) > 2))
    mean_z = float(np.mean(zs))
    a = simulate(SimConfig(p, k=k, walks=200_000, seed=17, streams=1)).counts
    b = simulate(SimConfig(p, k=k, walks=200_000, seed=17, streams=4)).counts
    ok = abs(mean_z) < 0.1 and 0.03 <= frac_tail <= 0.07 and np.array_equal(a, b)
    _report(
        9,
        f"z-scores over 200 seeds: mean {mean_z:+.3f} (<0.1), |z|>2 fraction "
        f"{frac_tail:.3f} in [0.03, 0.07]; thread-count determinism bit-exact",
        ok,
        time.time() - t0,
    )


def test_criterion_10_elementary_lemma_suites():
    t0 = time.time()
    r32 = verify_lemma32(points=100_000)
    r35 = verify_lemma35(m_max=200)
    ok = r32.ok and r35.ok
    _report(
        10,
        f"exp-vs-linear comparison on 2x100000 points and {r35.checked} exact "
        "ratio chains (m<=200): zero violations",
        ok,
        time.time() - t0,
    )
