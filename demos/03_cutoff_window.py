#!/usr/bin/env python3
"""The cutoff window at n = 500: distance collapses over an O(n) stretch.

Around a_n = (n(q-1)/2q) log n(q-1) the distance to uniform falls from
near 1 to near 0 within a window of width b_n = n(q-1)/2q; rescaled by
c = (k - a_n)/b_n the curve approaches erf(e^(-+c/2)/(2 sqrt 2)).
"""

from hamming_cutoff import (
    cutoff_schedule,
    hora_limit,
    kstep_trajectory,
    make_scheme,
    tv_distance,
    uniform,
)

p = make_scheme(500, 3)
sched = cutoff_schedule(p)
uni = uniform(p, "float")
print(f"H({p.n}, {p.q}): a_n = {sched.a_n:.1f} steps, window b_n = {sched.b_n:.1f}")
print()

# one float trajectory serves all nine window points
cs = (-4, -3, -2, -1, 0, 1, 2, 3, 4)
ks = [round(sched.a_n + c * sched.b_n) for c in cs]
print("   c      k      tv(k)      erf limit (matching side)")
for c, (k, dist) in zip(cs, kstep_trajectory(p, ks, "float")):
    tv = tv_distance(dist, uni)
    side = "plus" if c >= 0 else "minus"
    limit = hora_limit(abs(c), side)
    print(f"  {c:+d}   {k:5d}   {tv:8.5f}   {limit:8.5f}")
print()
print("the exact finite-n curve already hugs the limiting profile;")
print("the residual gap is the O(1/n) finite-size correction.")
print()

# a second trajectory scans k upward; tv is below 1/2 by the window's end
scan = range(int(sched.a_n) - 300, ks[-1] + 1)
half = next(
    k for k, dist in kstep_trajectory(p, scan, "float")
    if tv_distance(dist, uni) < 0.5
)
print(f"tv crosses 1/2 at k = {half}; a_n = {sched.a_n:.1f} "
      f"(offset c = {(half - sched.a_n) / sched.b_n:+.3f})")
