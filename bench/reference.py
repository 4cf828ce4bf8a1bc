"""Independent references the benchmark checks the library against.

Nothing here imports `hamming_cutoff`.  The exact reference runs the
three-term recurrence of the distance chain on integer numerators over
(n(q-1))**k: from class l the walk moves down with weight l, stays with
weight l(q-2) and moves up with weight (n-l)(q-1), out of n(q-1).  The
float reference runs the same recurrence in float64, and the closed-form
columns of a profile are recomputed from their formulas.
"""

import math
from fractions import Fraction

import numpy as np


def class_sizes(n, q):
    """w[l] = C(n, l) (q-1)**l, summing to q**n."""
    return [math.comb(n, l) * (q - 1) ** l for l in range(n + 1)]


def exact_trajectory(n, q, k_max):
    """Yield (k, numerators of the class masses over (n(q-1))**k) for
    k = 0..k_max; each yielded list is fresh."""
    up = np.array([(n - l) * (q - 1) for l in range(n + 1)], dtype=object)
    stay = np.array([l * (q - 2) for l in range(n + 1)], dtype=object)
    down = np.array(list(range(n + 1)), dtype=object)
    num = np.zeros(n + 1, dtype=object)
    num[:] = 0
    num[0] = 1
    for k in range(k_max + 1):
        if k:
            new = num * stay
            new[1:] += num[:-1] * up[:-1]
            new[:-1] += num[1:] * down[1:]
            num = new
        yield k, [int(v) for v in num]


def exact_tvs(n, q, ks):
    """{k: exact TV to uniform} along one trajectory."""
    want = set(ks)
    w = class_sizes(n, q)
    return {
        k: exact_tv(n, q, k, num, w)
        for k, num in exact_trajectory(n, q, max(want))
        if k in want
    }


def exact_masses(n, q, k, num):
    """The k-step class masses as Fractions."""
    dk = (n * (q - 1)) ** k
    return [Fraction(v, dk) for v in num]


def exact_tv(n, q, k, num, w=None):
    """Exact TV to uniform, sum over the classes the walk over-weights.

    A float comparison of logs decides each class; only near-ties are
    settled with the exact integer comparison.
    """
    w = w or class_sizes(n, q)
    d = n * (q - 1)
    dk = d ** k
    big_q = q ** n
    log_dk = k * math.log(d)
    log_q = n * math.log(q)
    over_num = over_w = 0
    for l, v in enumerate(num):
        if v == 0:
            continue
        gap = (math.log(v) - log_dk) - (math.log(w[l]) - log_q)
        if gap > 1e-9 or (gap >= -1e-9 and v * big_q > w[l] * dk):
            over_num += v
            over_w += w[l]
    return Fraction(over_num, dk) - Fraction(over_w, big_q)


def float_error(value, exact):
    """|value - exact| for a float against a Fraction, as a float."""
    return float(abs(Fraction(value) - exact))


def _log_sizes(n, q):
    l = np.arange(n + 1, dtype=np.float64)
    lg = np.array([math.lgamma(v + 1) for v in range(n + 1)])
    return lg[n] - lg - lg[::-1] + l * math.log(q - 1)


def uniform_masses(n, q):
    """w[l] / q**n in float64, each correctly rounded."""
    big_q = q ** n
    return np.array([v / big_q for v in class_sizes(n, q)])


def float_trajectory(n, q, k_max):
    """Yield (k, float64 class masses) for k = 0..k_max."""
    d = n * (q - 1)
    l = np.arange(n + 1, dtype=np.float64)
    up, stay, down = (n - l) * (q - 1) / d, l * (q - 2) / d, l / d
    mass = np.zeros(n + 1)
    mass[0] = 1.0
    for k in range(k_max + 1):
        if k:
            new = mass * stay
            new[1:] += mass[:-1] * up[:-1]
            new[:-1] += mass[1:] * down[1:]
            mass = new
        yield k, mass


def float_tvs(n, q, ks):
    """{k: float64 TV to uniform} along one trajectory."""
    want = set(ks)
    uni = uniform_masses(n, q)
    return {
        k: 0.5 * math.fsum(np.abs(mass - uni).tolist())
        for k, mass in float_trajectory(n, q, max(want))
        if k in want
    }


def window_offset(n, q, k):
    """c = 2qk / (n(q-1)) - log n(q-1)."""
    d = n * (q - 1)
    return 2 * q * k / d - math.log(d)


def schedule(n, q, c):
    """Real k = (n(q-1)/2q)(log n(q-1) + c)."""
    d = n * (q - 1)
    return d / (2 * q) * (math.log(d) + c)


def _spectral_bound(log_sizes, n, q, k):
    """sqrt of (1/4) sum_{j>=1} C(n,j)(q-1)**j (1 - jq/(n(q-1)))**(2k)."""
    j = np.arange(1, n + 1)
    lam = np.abs(1.0 - j * q / (n * (q - 1)))
    expo = log_sizes[1:].copy()
    if k:
        with np.errstate(divide="ignore"):
            expo += 2 * k * np.log(lam)
    top = float(np.max(expo))
    if top == -math.inf:
        return 0.0
    s = top + math.log(float(np.sum(np.exp(expo - top))))
    return math.inf if s > 700 else math.sqrt(math.exp(s) / 4)


_MAJORANT_CONSTANT = {3: 2.5, 4: 2.25}


def profile_columns(n, q, ks, b=1.0):
    """{k: closed-form profile columns other than tv_exact}."""
    log_sizes = _log_sizes(n, q)
    out = {}
    for k in ks:
        c = window_offset(n, q, k)
        inner = math.exp(-c)
        out[k] = {
            "c_equiv": c,
            "ub_lemma": _spectral_bound(log_sizes, n, q, k),
            "majorant": math.sqrt(_MAJORANT_CONSTANT.get(q, 0.25) * math.expm1(inner)),
            "minorant": 1.0 - (4 * q + b) * inner,
            "hora_plus": math.erf(math.exp(-c / 2) / (2 * math.sqrt(2))),
            "hora_minus": math.erf(math.exp(c / 2) / (2 * math.sqrt(2))),
        }
    return out


def sweep_grid(n_max):
    """The minorant sweep's n grid up to n_max: dense, then sparser."""
    grid = list(range(1, min(101, n_max + 1)))
    grid += list(range(105, min(401, n_max + 1), 5))
    grid += list(range(420, min(1001, n_max + 1), 20))
    grid += list(range(1050, n_max + 1, 50))
    if grid[-1] != n_max:
        grid.append(n_max)
    return grid
