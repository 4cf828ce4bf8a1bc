"""Closed-form majorants/minorants for the walk's distance to uniform.

With the schedule (a_n, b_n) = ((n(q-1)/2q) log n(q-1), n(q-1)/2q), the
distance drops from near 1 to near 0 inside a window of width O(b_n)
around a_n.  This module evaluates every inequality that pins that window
down:

* the spectral upper bound   tv**2 <= (1/4) sum_{j>=1} d_j lam[j]**(2k),
* regime majorants of tv**2 at k = b_n (log n(q-1) + c):
    (1/4)(e**(e**-c) - 1) for q >= 5,
    (5/2)(...) for q = 3 (n >= 3),  (9/4)(...) for q = 4 (n >= 2),
* the minorant tv >= 1 - (4q+b) e**-c at k = b_n (log n(q-1) - c),
* Markov/Chebyshev diagnostics of the minorant proof,
* the limiting profile erf(e**(-+c/2) / (2 sqrt 2)),
* the elementary comparisons e**-x vs |1-x| and the scaled-binomial
  ratio caps (<= 9 for the q=3 family, <= 8 for the q=4 family).

Majorant checks round the scheduled step count up, minorant checks round
it down; both directions are conservative because tv is non-increasing
in k.  Bounds that are vacuous (majorant > 1, minorant < 0) are reported
satisfied-vacuously rather than dropped, so grids stay informative.

Every majorant verdict (`check_majorant`, the `verify` grid) comes from
`majorant_cells`: one scope rule, one formula, one trajectory per scheme,
float verdicts certified by an a-priori roundoff bound, else exact.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal

import numpy as np

from .radial import kstep_tv
from .scheme import Backend, ParameterError, SchemeParams, tv_distance, uniform
from .spectral import kstep_distribution, spectrum

EXACT_BACKEND_MAX_N = 30


@dataclass(frozen=True)
class CutoffSchedule:
    """Cutoff time a_n = b_n log n(q-1) and window width b_n = n(q-1)/2q."""

    params: SchemeParams
    a_n: float
    b_n: float


def cutoff_schedule(params: SchemeParams) -> CutoffSchedule:
    b_n = params.degree / (2 * params.q)
    return CutoffSchedule(params, b_n * math.log(params.degree), b_n)


def schedule_step(params: SchemeParams, c: float) -> float:
    """Real-valued k = (n(q-1)/2q)(log n(q-1) + c); negative c walks back."""
    return params.degree / (2 * params.q) * (math.log(params.degree) + c)


def offset_from_step(params: SchemeParams, k: float) -> float:
    """Invert the schedule: c = k*2q/(n(q-1)) - log n(q-1)."""
    return 2 * params.q * k / params.degree - math.log(params.degree)


def resolve_backend(params: SchemeParams, backend: str) -> Backend:
    if backend == "auto":
        return "exact" if params.n <= EXACT_BACKEND_MAX_N else "float"
    if backend in ("exact", "float"):
        return backend
    raise ParameterError(f"unknown backend {backend!r}")


def tv_to_uniform(params: SchemeParams, k: int, backend: str = "auto"):
    """Distance of the k-step distribution to uniform: `radial.kstep_tv`
    at one k, exact (a Fraction, no bit budget) or float."""
    be = resolve_backend(params, backend)
    return next(kstep_tv(params, (k,), be, math.inf))[1]


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality at a single (k, c).

    For the upper-bound family (`which` in upper-lemma/thm-*) the claim is
    tv_exact**2 <= bound_value; for `minorant` it is tv_exact >= bound_value.
    `vacuous` marks bounds that hold for free (majorant > 1, minorant < 0).
    """

    which: str
    k: int
    c: float
    tv_exact: float
    bound_value: float
    satisfied: bool
    vacuous: bool = False


@lru_cache(maxsize=128)
def _lemma_terms(params: SchemeParams):
    """log d_j and log|lam[j]| for j = 1..n, as read-only float64 arrays.

    lam[j] = (d - jq)/d is one correctly rounded division of exact
    integers, so it equals the float of the `spectrum` Fraction.
    """
    n, q, d = params.n, params.q, params.degree
    js = np.arange(1, n + 1, dtype=np.float64)
    logd = (
        js * math.log(q - 1)
        + math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(n - v + 1) for v in js])
    )
    with np.errstate(divide="ignore"):
        loglam = np.log(np.abs((d - js * q) / d))
    logd.flags.writeable = False
    loglam.flags.writeable = False
    return logd, loglam


def upper_bound_lemma_rhs(params: SchemeParams, k: int, backend: Backend = "exact"):
    """(1/4) sum_{j=1}^{n} d_j lam[j]**(2k), the spectral tv**2 bound."""
    if k < 0:
        raise ParameterError("step count k must be >= 0")
    if backend == "exact":
        spec = spectrum(params)
        return (
            sum(
                (spec.mult[j] * spec.lam[j] ** (2 * k) for j in range(1, params.n + 1)),
                Fraction(0),
            )
            / 4
        )
    if backend != "float":
        raise ParameterError(f"unknown backend {backend!r}")
    logd, loglam = _lemma_terms(params)
    # lam**0 = 1 even where lam = 0 (log -inf)
    exponents = logd if k == 0 else logd + 2 * k * loglam
    top = float(np.max(exponents))
    if top == -math.inf:
        return 0.0
    s = top + math.log(float(np.sum(np.exp(exponents - top))))
    return math.inf if s > 700 else math.exp(s) / 4


_MAJORANT_CONSTANTS = {3: Fraction(5, 2), 4: Fraction(9, 4)}


@lru_cache(maxsize=None)
def majorant_constant(q: int) -> Fraction:
    if q < 3:
        raise ParameterError("no majorant theorem covers q = 2")
    return _MAJORANT_CONSTANTS.get(q, Fraction(1, 4))


def majorant_in_scope(params: SchemeParams) -> bool:
    """The theorems' scope: q >= 5, q = 4 with n >= 2, q = 3 with n >= 3."""
    return params.q >= 3 and params.n >= {3: 3, 4: 2}.get(params.q, 1)


def majorant_value(q: int, c: float) -> float:
    """C_q (e**(e**-c) - 1) at any real c; inf for c <= -6 (past 1e174)."""
    if c <= -6.0:
        return math.inf
    return float(majorant_constant(q)) * math.expm1(math.exp(-c))


def majorant(q: int, c: float) -> float:
    """Regime majorant of tv**2 at window offset 0 < c < inf.

    (1/4)(e**(e**-c) - 1) for q >= 5, constant 5/2 for q = 3, 9/4 for q = 4.
    Values above 1 are vacuous but still returned.
    """
    if not 0 < c < math.inf:  # NaN fails too
        raise ParameterError("the majorant theorems need 0 < c < inf")
    return majorant_value(q, c)


def float_tv_error(n: int, k: int) -> float:
    """eps >= |tv_float - tv| for `radial.kstep_tv(..., "float")` at step k.

    eps = gamma_4k/2 + 3u + (3k+2)(n+1) 2**-1074, u = 2**-53, gamma_m =
    mu/(1 - mu) (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §3.1); inf once 4ku > 2**-10.  `radial.float_power_step` sums up to
    three nonnegative products of a mass and a rounded coefficient with
    two additions: <= 4 roundings per path per step, no cancellation, so
    sum_l |nu_hat - nu| <= gamma_4k, plus <= 3k(n+1) product underflows of
    2**-1075 that the stochastic steps do not grow.  The uniform masses
    are correctly rounded divisions: sum_l |pi_hat - pi| <= u +
    (n+1) 2**-1074.  With E the sum of both, the subtraction (relative u,
    exact when subnormal), `fsum` (correctly rounded) and the halving give
    |tv_float - tv| <= E/2 + (u + u**2/2)(2 + E) + 2**-1074, as
    sum_l |nu - pi| = 2 tv <= 2: at most gamma_4k/2 + 2.51u + the
    underflow term.  The spare 0.49u covers evaluating eps in float.
    """
    u = 2.0 ** -53  # unit roundoff of float64
    m = 4 * k * u
    if m > 2.0 ** -10:
        return math.inf
    return m / (1 - m) / 2 + 3 * u + (3 * k + 2) * (n + 1) * 2.0 ** -1074


def _float_verdict(tv: float, eps: float, bound: float):
    """tv**2 <= bound from tv_float +- eps: True, False, or None when
    (tv +- eps)**2 straddles it.  1 -+ 2**-50 absorbs the <= 4u rounding
    of the squares, which eps >= 3u keeps out of the subnormal range."""
    hi, lo = tv + eps, tv - eps
    if hi * hi * (1 + 2.0 ** -50) <= bound:
        return True
    if lo > 0 and lo * lo * (1 - 2.0 ** -50) > max(bound, 2.0 ** -1022):
        return False
    return None


def majorant_cells(
    params: SchemeParams,
    c_values,
    rounding: Literal["ceil", "exact"] = "ceil",
    backend: str = "auto",
) -> list:
    """The BoundReport of tv**2 <= majorant at each scheduled step.

    `ceil`: k = ceil(b_n (log n(q-1) + c)) per c.  `exact`: the literal
    theorem, at every integer k with `offset_from_step(k)` in [min c,
    max c] (schedule within 1e-9); none is a usage error.  One trajectory
    (`radial.kstep_tv`, no bit budget) serves every cell.  A float cell is
    decided in float only when (tv +- `float_tv_error`)**2 lies on one side
    of the bound; any other, pass or fail, is re-decided exactly within the
    default bit budget (`ResourceBudgetError` past it).
    """
    n, q = params.n, params.q
    if not majorant_in_scope(params):
        raise ParameterError(f"no majorant theorem covers n={n}, q={q}")
    given = [(c, majorant(q, c)) for c in c_values]  # 0 < c < inf, or a usage error
    if rounding == "ceil":
        cells = [(math.ceil(schedule_step(params, c)), c, v) for c, v in given]
    elif rounding == "exact":
        lo = schedule_step(params, min(given)[0])
        hi = schedule_step(params, max(given)[0])
        pairs = [(k, offset_from_step(params, k))
                 for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
        cells = [(k, c, majorant(q, c)) for k, c in pairs if c > 0]
        if not cells:
            raise ParameterError(
                f"schedule value {lo} is not an integer; cannot use exact mode"
            )
    else:
        raise ParameterError(f"unknown rounding {rounding!r}")
    be = resolve_backend(params, backend)
    tvs = dict(kstep_tv(params, sorted({k for k, _, _ in cells}), be, math.inf))
    verdicts = [None] * len(cells)
    if be == "float":
        verdicts = [_float_verdict(tvs[k], float_tv_error(n, k), bound)
                    for k, _, bound in cells]
        undecided = {k for (k, _, _), v in zip(cells, verdicts) if v is None}
        tvs.update(kstep_tv(params, sorted(undecided), "exact"))
    which = {3: "thm-q3", 4: "thm-q4"}.get(q, "thm-q5")
    return [
        BoundReport(which, k, c, float(tvs[k]), bound,
                    tvs[k] * tvs[k] <= bound if v is None else v, bound >= 1.0)
        for (k, c, bound), v in zip(cells, verdicts)
    ]


def check_majorant(
    params: SchemeParams,
    c: float,
    rounding: Literal["ceil", "exact"] = "ceil",
    backend: str = "auto",
) -> BoundReport:
    """`majorant_cells` at the one offset c; `exact` rounding needs an
    integer schedule value (within 1e-9), checking the literal theorem."""
    return majorant_cells(params, (c,), rounding, backend)[0]


def minorant(q: int, b: float, c: float) -> float:
    """Lower bound 1 - (4q+b) e**-c for tv at offset c below the cutoff.

    b = 0 gives the asymptotic corollary form; negative values are vacuous
    but returned.
    """
    if b < 0:
        raise ParameterError("offset parameter b must be >= 0")
    if c < 0:
        raise ParameterError("offset c must be >= 0")
    return 1.0 - (4 * q + b) * math.exp(-c)


def check_minorant(
    params: SchemeParams,
    c0: float,
    b: float,
    c: float,
    backend: str = "auto",
) -> BoundReport:
    """Report tv >= 1 - (4q+b) e**-c at k = floor(b_n (log n(q-1) - c)).

    The inequality is guaranteed by the minorant theorem only for n past
    an unspecified threshold; callers assert it only where an empirical
    sweep has established validity.
    """
    if not 0 <= c <= min(c0, math.log(params.degree)):
        raise ParameterError(
            "need 0 <= c <= min(c0, log n(q-1)) for the minorant schedule"
        )
    k = math.floor(schedule_step(params, -c))
    tv = float(tv_to_uniform(params, k, backend))
    bound = minorant(params.q, b, c)
    return BoundReport(
        which="minorant",
        k=k,
        c=c,
        tv_exact=tv,
        bound_value=bound,
        satisfied=tv >= bound or bound < 0,
        vacuous=bound < 0,
    )


@dataclass(frozen=True)
class MinorantDiagnostics:
    """Proof-level quantities behind the minorant at one (n, k, b, c)."""

    beta: float
    pi_B: float
    nu_B: float
    markov_lb: float
    chebyshev_ub: float
    chebyshev_applicable: bool
    tv_exact: float


def minorant_diagnostics(
    params: SchemeParams, k: int, b: float, c: float, backend: str = "auto"
) -> MinorantDiagnostics:
    """Mass of the small-|phi_1| event under uniform and under the walk.

    B = { classes l with |phi_1(l)| < beta/sqrt(n) } for
    beta = sqrt(q/((4q+b)(q-1))) e**(c/2).  Markov gives
    pi(B) >= 1 - 1/(beta**2 (q-1)); Chebyshev gives nu_k(B) <= 1/beta**2
    provided E phi_1 >= 2 beta/sqrt(n) and the variance cap 1/n applies,
    i.e. (n-2)(q-1) >= 2; and always tv >= pi(B) - nu_k(B).
    """
    n, q = params.n, params.q
    if not (0 <= b < math.inf and 0 <= c < math.inf):
        raise ParameterError("need finite b >= 0 and c >= 0")
    beta = math.sqrt(q / ((4 * q + b) * (q - 1))) * math.exp(c / 2)
    threshold = beta / math.sqrt(n)
    d = params.degree
    # |phi_1(l)| = |d - l q| / d < threshold, compared exactly in integers
    tn, td = threshold.as_integer_ratio()
    in_b = [l for l in range(n + 1) if abs(d - l * q) * td < tn * d]

    be = resolve_backend(params, backend)
    walk = kstep_distribution(params, k, be)
    pi = uniform(params, be)
    if be == "exact":
        pi_mass = float(sum((pi.mass[l] for l in in_b), Fraction(0)))
        nu_mass = float(sum((walk.mass[l] for l in in_b), Fraction(0)))
    else:
        pi_mass = math.fsum(pi.mass[l] for l in in_b)
        nu_mass = math.fsum(walk.mass[l] for l in in_b)
    mean_phi1 = ((d - q) / d) ** k  # E phi_1 = lam[1]**k
    applicable = mean_phi1 >= 2 * threshold and (n - 2) * (q - 1) >= 2
    return MinorantDiagnostics(
        beta=beta,
        pi_B=pi_mass,
        nu_B=nu_mass,
        markov_lb=1 - 1 / (beta * beta * (q - 1)),
        chebyshev_ub=1 / (beta * beta),
        chebyshev_applicable=applicable,
        tv_exact=float(tv_distance(walk, pi)),
    )


def hora_limit(c: float, side: Literal["plus", "minus"]) -> float:
    """Limiting distance profile erf(e**(-c/2)/(2 sqrt 2)) (plus side)
    or erf(e**(c/2)/(2 sqrt 2)) (minus side)."""
    if side == "plus":
        x = math.exp(-c / 2)
    elif side == "minus":
        x = math.exp(c / 2)
    else:
        raise ParameterError(f"side must be 'plus' or 'minus', got {side!r}")
    return math.erf(x / (2 * math.sqrt(2)))


def lemma32_check(x: float) -> bool:
    """Elementary comparison behind the majorant split.

    e**-x >= |1-x| for x <= 5/4 and e**-x <= |1-x| for x >= 4/3; between
    the two regimes no inequality is claimed and the check is vacuous.
    """
    if x <= 1.25:
        return math.exp(-x) >= abs(1 - x)
    if x >= 4 / 3:
        return math.exp(-x) <= abs(1 - x)
    return True


@dataclass(frozen=True)
class Lemma35Result:
    """One (family, m, l) entry: integer `terms` (a_{n,mirror}, a_{n,center}) per n."""

    q_case: int
    m: int
    l: int
    ns: tuple
    terms: tuple
    cap: int
    holds: bool

    @property
    def ratios(self) -> tuple:
        return tuple(Fraction(a, c) for a, c in self.terms)


def lemma35_ratio_chain(q_case: int, m: int) -> tuple:
    """Exact ratio chains a_{n, mirror}/a_{n, center}, one result per l.

    q_case 3: a_{n,j} = 2**j C(n,j), n in {3m-3, 3m-2, 3m-1}, mirror index
    n-l, center l+m-1, l = 0..m-1; chain increasing in n, cap 9.
    q_case 4: a_{n,j} = 3**j C(n,j), n in {2m-2, 2m-1}, mirror n-l,
    center l+m-1, l = 0..floor((m-1)/2); cap 8.
    Binomials are taken once, at l = 0; step l -> l+1 divides exactly,
    a_{n,hi-1} = a_{n,hi} hi / (base (n-hi+1)), a_{n,j+1} = a_{n,j} base
    (n-j) / (j+1), and `holds` cross-multiplies, so no gcd is taken.
    """
    if q_case not in (3, 4) or m < 2:
        raise ParameterError("the ratio families need q_case 3 or 4 and m >= 2")
    if q_case == 3:
        base, cap, ns, l_max = 2, 9, (3 * m - 3, 3 * m - 2, 3 * m - 1), m - 1
    else:
        base, cap, ns, l_max = 3, 8, (2 * m - 2, 2 * m - 1), (m - 1) // 2
    mirror = [base ** n for n in ns]  # hi = n at l = 0
    middle = [base ** (m - 1) * math.comb(n, m - 1) for n in ns]
    out = []
    for l in range(l_max + 1):
        terms = tuple(zip(mirror, middle))
        holds = terms[-1][0] <= cap * terms[-1][1] and all(  # if ordered, last is max
            a1 * c2 <= a2 * c1 for (a1, c1), (a2, c2) in zip(terms, terms[1:]))
        out.append(Lemma35Result(q_case, m, l, ns, terms, cap, holds))
        center = l + m - 1
        mirror = [a * (n - l) // (base * (l + 1)) for a, n in zip(mirror, ns)]
        middle = [c * base * (n - center) // (center + 1) for c, n in zip(middle, ns)]
    return tuple(out)


def lemma35_ratio_check(q_case: int, m: int, l: int) -> Lemma35Result:
    """Entry l of `lemma35_ratio_chain(q_case, m)`."""
    chain = lemma35_ratio_chain(q_case, m)
    if not 0 <= l < len(chain):
        raise ParameterError(f"family q={q_case}, m={m} needs 0 <= l < {len(chain)}")
    return chain[l]


def lemma34_debug_sum(q_case: int, m: int, l: int) -> Fraction:
    """Rational value of the integral-comparison sums, for inspection.

    q_case 3: sum_{p=l}^{2m-l-1} (p-m+2)/(p+m)  (bounded by log 9),
    q_case 4: sum_{p=l}^{m-l-1} (2p-m+3)/(p+m)  (bounded by log 8).
    """
    if m < 2:
        raise ParameterError("need m >= 2")
    if q_case == 3:
        if not 0 <= l <= m:
            raise ParameterError("q=3 sum needs 0 <= l <= m")
        return sum(
            (Fraction(p - m + 2, p + m) for p in range(l, 2 * m - l)), Fraction(0)
        )
    if q_case == 4:
        if not 0 <= l <= m // 2:
            raise ParameterError("q=4 sum needs 0 <= l <= floor(m/2)")
        return sum(
            (Fraction(2 * p - m + 3, p + m) for p in range(l, m - l)), Fraction(0)
        )
    raise ParameterError("q_case must be 3 or 4")
