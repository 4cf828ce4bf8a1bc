#!/usr/bin/env python3
"""Seeded Monte Carlo on the distance chain, validated against exact masses.

The sampler draws the class histogram, not the walks: each step splits
every class's walks into down / stay / up moves with two binomial draws,
so its cost does not grow with the number of walks.  Counts are
reproducible bit for bit from (params, k, walks, seed).  A per-walk
sampler on the literal q**n graph, which reads no class probability,
cross-checks it on a 9-vertex graph.
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

lit = simulate_literal(SimConfig(make_scheme(2, 3), k=2, walks=50_000, seed=3))
print("literal 9-vertex graph sampler at k=2:", (lit.counts / 50_000).tolist(),
      "(exact: [0.25, 0.25, 0.5])")
print()

exact_tv = float(tv_distance(kstep_oracle(p, k), uniform(p)))
print(f"exact tv at k={k}: {exact_tv:.6f}")
print("plug-in estimates converge (positive bias shrinks like walks^-1/2):")
for w in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    est = empirical_tv(SimConfig(p, k=k, walks=w, seed=99))
    print(f"  walks={w:>8}: {est.estimate:.6f}")
print(f"note: {est.note}")
