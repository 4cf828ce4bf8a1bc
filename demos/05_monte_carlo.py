#!/usr/bin/env python3
"""Seeded Monte Carlo on the distance chain, validated against exact masses.

The sampler draws the class histogram, not the walks: each step splits
every class's walks into down / stay / up moves with two binomial draws,
so its cost does not grow with the number of walks.  Counts are
reproducible bit for bit from (params, k, walks, seed); `streams` is
accepted and ignored.
"""

import numpy as np

from hamming_cutoff import (
    SimConfig,
    empirical_tv,
    kstep_oracle,
    make_scheme,
    simulate,
    simulate_literal,
    tv_distance,
    uniform,
)

p = make_scheme(5, 3)
k, walks = 10, 10 ** 5
exact = np.array([float(v) for v in kstep_oracle(p, k).mass])

res = simulate(SimConfig(p, k=k, walks=walks, seed=2024))
print(f"H({p.n}, {p.q}), k={k}, {walks} walks, seed 2024")
print("  class     exact      empirical   z-score")
for l in range(p.n + 1):
    freq = res.counts[l] / walks
    z = (freq - exact[l]) / res.stderr[l] if res.stderr[l] else 0.0
    print(f"    {l}     {exact[l]:.5f}    {freq:.5f}    {z:+.2f}")
print()

a = simulate(SimConfig(p, k=k, walks=200_000, seed=7, streams=1))
b = simulate(SimConfig(p, k=k, walks=200_000, seed=7, streams=8))
print(f"1 stream vs 8 streams, identical counts: {np.array_equal(a.counts, b.counts)}")
print()

lit = simulate_literal(SimConfig(make_scheme(2, 3), k=2, walks=50_000, seed=3))
print("literal 9-vertex graph sampler at k=2:", list(lit.counts / 50_000),
      "(exact: [0.25, 0.25, 0.5])")
print()

exact_tv = float(tv_distance(kstep_oracle(p, k), uniform(p)))
print(f"exact tv at k={k}: {exact_tv:.6f}")
print("plug-in estimates converge (positive bias shrinks like walks^-1/2):")
for w in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    est = empirical_tv(SimConfig(p, k=k, walks=w, seed=99))
    print(f"  walks={w:>8}: {est.estimate:.6f}")
print(f"note: {est.note}")
