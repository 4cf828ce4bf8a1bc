"""Spectral engine: closed-form eigenvalues and k-step distributions.

One step of the walk scales the degree-j component of a radial function by
lam[j] = 1 - j*q/(n*(q-1)); k steps scale it by lam[j]**k.  Inverting the
transform gives the per-point probability at distance l after k steps,

    p_k(l) = q**-n * sum_j d_j * lam[j]**k * phi_j(l),

with multiplicities d_j = (q-1)**j * C(n, j).  `kstep_distribution`
evaluates this exactly, in integers: with K[j][l] = d_j phi_j(l)
(`krawtchouk.scaled_rows`) and d = n(q-1), the class mass is

    mass[l] = w[l] * sum_j K[j][l] (d - jq)**k / (q**n d**k),

and it must reproduce the radial-chain oracle bit for bit without ever
taking a radial step.  `kstep_rounded` rounds the same sum to floats
where the chain's bits would not fit its budget (`simulate`'s column).

There is no float inversion: the series' terms alternate in sign and grow
far past 1 below the cutoff, so float64 loses their cancellation.  Float
k-step laws come from powering the distance chain
(`radial.kstep_trajectory`), whose steps add only nonnegative products and
so stay at roundoff level for every (n, k).

The same sum bounds the distance to uniform at every k (`tail`, the
package's one tail certificate).  The excess over uniform is e_l = w_l
sum_{j>=1} K_j(l) (d - jq)**k, so t = sum_l |e_l| <= sum_j a_j |d -
jq|**k for any a_j >= sum_l w_l |K_j(l)|: that sum itself at j = 1,
sum_l w_l |d - ql|, and at j = n, (2(q-1))**n as K_n(l) = (-1)**l
(q-1)**(n-l), and q**n ceil(sqrt(d_j)) between, by Cauchy-Schwarz and
sum_l w_l K_j(l)**2 = q**n d_j (Diaconis 1988, Ch. 3; Levin-Peres-Wilmer
§12.1).  mu = max_{j>=1} |d - jq| is attained at j = 1 or j = n, or at
both in the two ties H(3, 3) and H(2, 4), where d - q = mu = nq - d;
a tie groups the two terms exactly, as sum_l w_l |K_1(l) + (-1)**k
K_n(l)| mu**k.

The second half of the module carries the moment identities of the
distance-1 spherical function phi_1: its square linearizes as

    phi_1**2 = a0 phi_0 + a1 phi_1 + a2 phi_2,
    (a0, a1, a2) = (1/(n(q-1)), (q-2)/(n(q-1)), (n-1)/n),

its stationary variance is 1/(n(q-1)), and its variance after k steps is
bounded by 1/n whenever (n-2)(q-1) >= 2.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import radial
from .krawtchouk import build_table, phi_row, scaled_rows
from .scheme import (
    Backend,
    ParameterError,
    RadialDistribution,
    SchemeParams,
    class_weights,
)


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalues lam[j] = 1 - j*q/(n(q-1)) and multiplicities d_j."""

    params: SchemeParams
    lam: tuple
    mult: tuple


@lru_cache(maxsize=128)
def spectrum(params: SchemeParams) -> SpectrumTable:
    """Closed-form one-step spectrum of the walk."""
    n, q = params.n, params.q
    d = params.degree
    lam = tuple(Fraction(d - j * q, d) for j in range(n + 1))
    # d_j = (q-1)**j C(n, j) are the class sizes w[j]
    return SpectrumTable(params, lam, class_weights(params).w)


def _spectral_numerators(params: SchemeParams, k: int):
    """(num, den) with mass[l] = num[l] / den exactly: num[l] = w[l] sum_j
    K[j][l] (d - jq)**k over the integer rows K = `scaled_rows`, d =
    n(q-1), and den = q**n d**k.  The package's one spectral sum."""
    n, q, d = params.n, params.q, params.degree
    rows = scaled_rows(params)
    w = class_weights(params)
    powers = [(d - j * q) ** k for j in range(n + 1)]
    sums = [sum(r[l] * p for r, p in zip(rows, powers)) for l in range(n + 1)]
    return [wl * s for wl, s in zip(w.w, sums)], w.total * d ** k


def kstep_distribution(
    params: SchemeParams, k: int, backend: Backend = "exact"
) -> RadialDistribution:
    """k-step distribution by exact spectral inversion.

    mass[l] = w[l] * sum_j K[j][l] (n(q-1) - jq)**k / (q**n (n(q-1))**k)
    over the integer rows K = `scaled_rows`, with one Fraction per class
    at the end; validated against the radial oracle, which it never calls.
    Past the rows' bit budget it raises `ResourceBudgetError`.  `backend`
    must be "exact"; any other value, "float" included, is a
    `ParameterError` (float laws: `radial.kstep_trajectory`).
    """
    if k < 0:
        raise ParameterError("step count k must be >= 0")
    if backend != "exact":
        raise ParameterError(f"spectral inversion is exact only, not {backend!r}; "
                             "float k-step laws come from radial.kstep_trajectory")
    num, den = _spectral_numerators(params, k)
    return RadialDistribution(params, tuple(Fraction(v, den) for v in num), "exact")


def kstep_rounded(params: SchemeParams, k: int):
    """The k-step law's masses, each the correctly rounded float of the
    exact mass, or None when neither exact engine fits
    `radial.DEFAULT_BIT_BUDGET`: the plan is taken in integers before any
    step, float pass or power.

    With d = n(q-1): the chain's numerators (`radial.kstep_numerators`,
    over den = d**k, walked unpriced) when their `radial.bit_price` fits;
    else the spectral sum when its powers' bits, sum_j k bitlen|d - jq|,
    fit; else None.  Each mass is one correctly rounded int division
    num[l] / den, so both engines give the float of the same rational.
    """
    if k < 0:
        raise ParameterError("step count k must be >= 0")
    n, q, d = params.n, params.q, params.degree
    budget = radial.DEFAULT_BIT_BUDGET
    if radial.bit_price(params, [1] + [0] * n, k) <= budget:
        num, den = next(radial.kstep_numerators(params, (k,), math.inf))[1], d ** k
    elif sum(k * abs(d - j * q).bit_length() for j in range(n + 1)) <= budget:
        num, den = _spectral_numerators(params, k)
    else:
        return None
    return tuple(v / den for v in num)


def tail(params: SchemeParams):
    """(mu, group, coefs, rest) with t = sum_l |e_l| <= coefs[k % 2]
    mu**k + sum(a b**k for a, b in rest) at every k >= 0 (module
    docstring): mu = max_{j>=1} |d - jq|, d = n(q-1); `group` the indices
    attaining it, (1,), (n,) or, at a tie, (1, n); `coefs` the group's
    coefficient per parity of k, sum_l w_l |K_1(l) + (-1)**k K_n(l)| at a
    tie, else a_1 or a_n; `rest` the pairs (a_j, |d - jq|) of the other
    j >= 1, in order.  The group's part of t is exactly coefs[k % 2]
    mu**k, so t >= coefs[k % 2] mu**k - sum(a b**k) too."""
    n, q, d = params.n, params.q, params.degree
    w = class_weights(params).w
    coefs = [params.size * (math.isqrt(dj - 1) + 1) for dj in w]  # a_j at j = 0..n
    coefs[n] = (2 * (q - 1)) ** n
    coefs[1] = sum(wl * abs(d - q * l) for l, wl in enumerate(w))
    bases = [abs(d - j * q) for j in range(n + 1)]
    mu = max(bases[1:])
    group = tuple(j for j in sorted({1, n}) if bases[j] == mu)
    if len(group) > 1:  # (-1)**k K_n(l) = K_n(l) (d - nq)**k / mu**k
        rows = scaled_rows(params)
        grouped = tuple(sum(wl * abs(k1 + s * kn) for wl, k1, kn in zip(w, rows[1], rows[n]))
                        for s in (1, -1))
    else:
        grouped = (coefs[group[0]],) * 2
    return mu, group, grouped, [(coefs[j], bases[j]) for j in range(1, n + 1) if j not in group]


def expectation_phi(params: SchemeParams, j: int, k: int) -> Fraction:
    """E over the k-step distribution of phi_j, in closed form: lam[j]**k."""
    if not 0 <= j <= params.n:
        raise ParameterError(f"j must lie in 0..{params.n}, got {j}")
    if k < 0:
        raise ParameterError("step count k must be >= 0")
    return spectrum(params).lam[j] ** k


def expectation_phi_by_sum(params: SchemeParams, j: int, k: int) -> Fraction:
    """Same expectation summed explicitly: sum_l mass[l] phi_j(l), exact.

    The masses come from the chain-powering oracle, which never touches an
    eigenvalue, so this path is independent of `expectation_phi`; their
    equality is a test.
    """
    if not 0 <= j <= params.n:
        raise ParameterError(f"j must lie in 0..{params.n}, got {j}")
    dist = radial.kstep_oracle(params, k)
    phi = phi_row(params, j, "exact")
    return sum((dist.mass[l] * phi[l] for l in range(params.n + 1)), Fraction(0))


@dataclass(frozen=True)
class StationaryMoments:
    """Stationary expectations of every phi_j and the variance of phi_1."""

    mean_phi: tuple
    var_phi1: Fraction


def stationary_moments(params: SchemeParams) -> StationaryMoments:
    """Weighted class sums under the uniform distribution, exact.

    Computed literally as sum_l (w[l]/q**n) phi_j(l); the closed forms
    (0 for j >= 1, variance 1/(n(q-1))) are assertions to test, not the
    implementation.
    """
    n = params.n
    w = class_weights(params)
    phi = build_table(params, "exact").phi
    means = []
    for j in range(n + 1):
        s = sum((w.w[l] * phi[j][l] for l in range(n + 1)), Fraction(0))
        means.append(s / w.total)
    second = sum(
        (w.w[l] * phi[1][l] * phi[1][l] for l in range(n + 1)), Fraction(0)
    ) / w.total
    return StationaryMoments(tuple(means), second - means[1] ** 2)


def linearization_phi1_squared(params: SchemeParams) -> tuple:
    """Coefficients (a0, a1, a2) with phi_1**2 = a0 phi_0 + a1 phi_1 + a2 phi_2."""
    n, q = params.n, params.q
    if n < 2:
        raise ParameterError(
            "the linearization needs phi_2 and so n >= 2; n=1 degenerates"
        )
    d = params.degree
    return (Fraction(1, d), Fraction(q - 2, d), Fraction(n - 1, n))


@dataclass(frozen=True)
class VariancePhi1:
    """Variance of phi_1 after k steps and whether it is <= 1/n."""

    value: Fraction
    bound_holds: bool


def variance_phi1_kstep(params: SchemeParams, k: int) -> VariancePhi1:
    """Var of phi_1 under the k-step distribution, via the linearization.

    Var = a0 + a1 lam[1]**k + a2 lam[2]**k - lam[1]**(2k).  The <= 1/n flag
    is guaranteed only when (n-2)(q-1) >= 2; outside that range it is
    reported but carries no guarantee.
    """
    if k < 0:
        raise ParameterError("step count k must be >= 0")
    n = params.n
    spec = spectrum(params)
    p1 = spec.lam[1] ** k
    if n >= 2:
        a0, a1, a2 = linearization_phi1_squared(params)
        value = a0 + a1 * p1 + a2 * (spec.lam[2] ** k) - p1 * p1
    else:
        # n = 1: phi_1**2 = (1 + (q-2) phi_1)/(q-1), the linearization
        # without its phi_2 term, whose coefficient (n-1)/n is 0
        value = (1 + (params.q - 2) * p1) / params.degree - p1 * p1
    return VariancePhi1(value, value <= Fraction(1, n))
