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

Every majorant and minorant verdict (`check_majorant`, `check_minorant`
and the `verify` grids, through `majorant_grid` and `minorant_grid`)
takes one schedule rule and one formula per bound, then one shared
decision path, `_bound_reports`: one lockstep float pass over every
scheme, float verdicts certified by an a-priori roundoff bound; then,
for a float majorant cell that band leaves undecided, the spectral tail
certificate (`spectral.tail`) in integers; else exact, scheme by scheme.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal

import numpy as np

from .radial import (
    DEFAULT_BIT_BUDGET,
    _check_plan,
    float_lockstep,
    kstep_trajectory,
    kstep_tv,
)
from .scheme import (
    Backend,
    ParameterError,
    RadialDistribution,
    SchemeParams,
    log_class_weights,
    tv_of_gaps,
    uniform,
)
from .spectral import spectrum, tail

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
    `tv_exact` is the tv the cell was decided on: exact, or float where
    the float band decided it, or, for a cell the tail certificate proved,
    the certificate's bound U / (2 q**n d**k) >= tv (`_bound_reports`),
    within 2 rho / (1 - rho) of tv, relatively.
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

    lam[j] = (d - jq)/d is one correctly rounded division of exact (Python)
    integers, so it equals the float of the `spectrum` Fraction at any q.
    """
    n, q, d = params.n, params.q, params.degree
    js = np.arange(1, n + 1, dtype=object)
    with np.errstate(divide="ignore"):
        loglam = np.log(np.abs(np.asarray((d - js * q) / d, dtype=np.float64)))
    loglam.flags.writeable = False
    return log_class_weights(params)[1:], loglam  # d_j = w[j]


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
    return _lemma_rhs_of_log(lemma_log_sum(params, k))


def _lemma_rhs_of_log(s: float) -> float:
    """The float `upper_bound_lemma_rhs` from s = `lemma_log_sum`: e**s / 4,
    inf past s = 700."""
    return math.inf if s > 700 else math.exp(s) / 4


def lemma_log_sum(params: SchemeParams, k: int) -> float:
    """log sum_{j=1}^{n} d_j lam[j]**(2k) in float, by log-sum-exp: the
    log of 4 `upper_bound_lemma_rhs`, also where that underflows."""
    logd, loglam = _lemma_terms(params)
    # lam**0 = 1 even where lam = 0 (log -inf)
    exponents = logd if k == 0 else logd + 2 * k * loglam
    top = float(np.max(exponents))
    return top + math.log(float(np.sum(np.exp(exponents - top))))


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
    Values above 1 are vacuous but still returned.  A value below the
    smallest normal float (c past ~707.0 for q >= 5, ~709.2 for q = 4 and
    ~709.3 for q = 3) is a usage error: rounded to a subnormal or to 0, it
    is no longer the bound.
    """
    if not 0 < c < math.inf:  # NaN fails too
        raise ParameterError("the majorant theorems need 0 < c < inf")
    value = majorant_value(q, c)
    if value < sys.float_info.min:
        raise ParameterError(f"the majorant at c={c} is below the normal float range")
    return value


def float_tv_error(n: int, k: int) -> float:
    """eps >= |tv_float - tv| for `radial.kstep_tv(..., "float")` at step k,
    or for a tv taken from the masses `radial.float_lockstep` yields.

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
    A packed step rounds each class as a scheme's own step does (IEEE
    elementwise operations do not depend on the array's layout, Higham,
    §2.2; other rows and unreached classes add exact zeros), and its
    readers take each tv from its masses with the subtraction, abs and
    sorted `fsum` of `scheme.tv_distance`, so the bound holds as it stands.
    """
    if k > 2 ** 41:  # 4ku > 2**-10, decided in integers: k may be past the float range
        return math.inf
    u = 2.0 ** -53  # unit roundoff of float64
    m = 4 * k * u
    return m / (1 - m) / 2 + 3 * u + (3 * k + 2) * (n + 1) * 2.0 ** -1074


def _float_verdict(tv: float, eps: float, bound: float, lower: bool):
    """The claim at tv_float +- eps: True, False, or None when the band
    straddles the bound.  `lower`: tv >= bound; else tv**2 <= bound.

    Each rounded operation on the band (fl(tv +- eps), a square, the
    product by 1 -+ 2**-50) scales its result by a factor in [1 - u,
    1 + u], u = 2**-53, or is exact when the result is subnormal (Higham,
    §2.2).  tv**2 <= bound: 1 -+ 2**-50 absorbs the <= 4u rounding of the
    squares, which eps >= 3u keeps out of the subnormal range.  tv >=
    bound: True when fl(tv - eps)(1 - 2**-50) >= bound, which needs a
    positive fl(tv - eps) only for bound > 0 (tv >= 0 holds anyway), and
    False when fl(tv + eps)(1 + 2**-50) < bound; (1 - 2**-50)(1 + u)**2 <
    1 < (1 + 2**-50)(1 - u)**2, so each rounded test implies the real one.
    """
    hi, lo = tv + eps, tv - eps
    if lower:
        if lo * (1 - 2.0 ** -50) >= bound:
            return True
        if hi * (1 + 2.0 ** -50) < bound:
            return False
        return None
    if hi * hi * (1 + 2.0 ** -50) <= bound:
        return True
    if lo > 0 and lo * lo * (1 - 2.0 ** -50) > max(bound, 2.0 ** -1022):
        return False
    return None


def _bound_reports(jobs, backend: str, on_law=None):
    """Yield the BoundReports of each job (params, which, cells) in turn,
    one list per job: per cell (k, c, bound), tv >= bound for `which`
    "minorant" (vacuous below 0), else tv**2 <= bound (vacuous from 1).

    One lockstep pass (`radial.float_lockstep`) yields the law at every
    float job's distinct ks, and `on_law(job index, k, law)` sees each
    one; its tv is `tv_distance` to pi, the job's float uniform law.
    A float cell is decided in float only when tv +- `float_tv_error`
    lies on one side of the bound; every other cell is undecided, and so
    is every cell of an exact job, which takes no step in the pass.

    An undecided tv**2 <= bound cell of a float job then tries the tail
    certificate before any exact walk.  With (mu, _, coefs, rest) =
    `spectral.tail` and d = n(q-1), U = coefs[k % 2] mu**k + sum a b**k
    bounds 2 q**n d**k tv, so the cell holds when U**2 den <= (2 q**n
    d**k)**2 num, bound = num/den exactly: no float rounding enters.  Its
    report's tv is U / (2 q**n d**k), correctly rounded; as the group's
    part of U is exact, that lies above tv by a relative error of at most
    2 rho / (1 - rho), rho = sum a b**k / (coefs[k % 2] mu**k).  A cell
    is tried only where k bitlen(mu), about the bits of each of U's n
    powers, fits the default bit budget; past it the cell goes to the
    exact walk, whose price (n+1)(k bitlen(d) + ...) is larger still, so
    that budget refuses it before any step toward its k.

    One exact `radial.kstep_tv` walk per job, scheme by scheme, decides
    the cells left: unbudgeted for an exact job, under the default bit
    budget for a float job, whose walk raises `ResourceBudgetError`
    before any step toward a k past it.
    """
    bes = [resolve_backend(params, backend) for params, _, _ in jobs]
    tvs, pis = [{} for _ in jobs], [None] * len(jobs)
    steps = [(params, sorted({k for k, _, _ in cells}) if be == "float" else ())
             for (params, _, cells), be in zip(jobs, bes)]  # exact jobs take no step
    for i, k, mass in float_lockstep(steps):
        if pis[i] is None:
            pis[i] = uniform(steps[i][0], "float").mass
        tvs[i][k] = tv_of_gaps(np.abs(mass - pis[i]))
        if on_law is not None:
            on_law(i, k, RadialDistribution(steps[i][0], mass, "float"))
    for (params, which, cells), be, tv in zip(jobs, bes, tvs):
        lower = which == "minorant"
        verdicts = [None if be == "exact" else
                    _float_verdict(tv[k], float_tv_error(params.n, k), bound, lower)
                    for k, _, bound in cells]
        proofs = {}  # cell index -> the tv its tail proof reports
        if be == "float" and not lower and None in verdicts:
            mu, _, coefs, rest = tail(params)
            for i in [i for i, v in enumerate(verdicts)  # each power in U: ~k bitlen(mu) bits
                      if v is None and cells[i][0] * mu.bit_length() <= DEFAULT_BIT_BUDGET]:
                k, _, bound = cells[i]
                u = coefs[k % 2] * mu ** k + sum(a * b ** k for a, b in rest)
                scale, (num, den) = 2 * params.size * params.degree ** k, bound.as_integer_ratio()
                if u * u * den <= scale * scale * num:
                    verdicts[i], proofs[i] = True, u / scale
        ks = sorted({k for (k, _, _), v in zip(cells, verdicts) if v is None})
        if ks:  # the exact chain's setup is O(n) big integers
            tv.update(kstep_tv(params, ks, "exact",
                               DEFAULT_BIT_BUDGET if be == "float" else math.inf))
        yield [
            BoundReport(which, k, c, proofs.get(i, float(tv[k])), bound,
                        (tv[k] >= bound if lower else tv[k] * tv[k] <= bound)
                        if v is None else v,
                        bound < 0 if lower else bound >= 1.0)
            for i, ((k, c, bound), v) in enumerate(zip(cells, verdicts))
        ]


def _majorant_job(params: SchemeParams, given, rounding: str):
    """(params, which, cells) of tv**2 <= majorant at each scheduled step,
    for `given` (c, majorant(q, c)) pairs."""
    q = params.q
    if rounding == "ceil":
        cells = [(math.ceil(schedule_step(params, c)), c, v) for c, v in given]
    else:  # "exact"
        if not given:
            raise ParameterError("exact rounding needs at least one offset c")
        lo = schedule_step(params, min(given)[0])
        hi = schedule_step(params, max(given)[0])
        pairs = [(k, offset_from_step(params, k))
                 for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
        cells = [(k, c, majorant(q, c)) for k, c in pairs if c > 0]
        if not cells:
            raise ParameterError(
                f"schedule value {lo} is not an integer; cannot use exact mode"
            )
    return params, {3: "thm-q3", 4: "thm-q4"}.get(q, "thm-q5"), cells


def majorant_grid(
    schemes,
    c_values,
    rounding: Literal["ceil", "exact"] = "ceil",
    backend: str = "auto",
):
    """Yield each scheme's BoundReports of tv**2 <= majorant at its
    scheduled steps in turn, all from one lockstep float pass.

    `ceil`: k = ceil(b_n (log n(q-1) + c)) per c.  `exact`: the literal
    theorem, at every integer k with `offset_from_step(k)` in [min c,
    max c] (schedule within 1e-9); none is a usage error.  The cells are
    decided on the path `minorant_grid` shares: float verdicts certified
    by `float_tv_error`, else, on the float backend, the spectral tail
    certificate, else exact.

    The pass is planned cold before any cell is built: `_check_plan` on
    sum (n+1) k_last and max k_last over the float schemes, k_last the
    largest step the rounding schedules, which is the plan the pass makes
    from k0 = 0 (a resumed pass plans less)."""
    if rounding not in ("ceil", "exact"):
        raise ParameterError(f"unknown rounding {rounding!r}")
    schemes, given, lasts = tuple(schemes), {}, []
    for p in schemes:
        if not majorant_in_scope(p):
            raise ParameterError(f"no majorant theorem covers n={p.n}, q={p.q}")
        if p.q not in given:  # 0 < c < inf, or a usage error
            given[p.q] = [(c, majorant(p.q, c)) for c in c_values]
            c_top = max(given[p.q], default=(None,))[0]  # alike for every q
        if c_top is not None and resolve_backend(p, backend) == "float":
            top = schedule_step(p, c_top)
            lasts.append((p.n + 1, math.ceil(top) if rounding == "ceil"
                          else math.floor(top + 1e-9)))
    _check_plan("float pass", sum(w * k for w, k in lasts), max((k for _, k in lasts), default=0))
    return _bound_reports([_majorant_job(p, given[p.q], rounding) for p in schemes], backend)


def check_majorant(
    params: SchemeParams,
    c: float,
    rounding: Literal["ceil", "exact"] = "ceil",
    backend: str = "auto",
) -> BoundReport:
    """`majorant_grid` of the one scheme at the one offset c; `exact`
    rounding needs an integer schedule value (within 1e-9), checking the
    literal theorem.

    On the float backend a cell below the float tv's roundoff floor is
    proven by the spectral tail certificate where it can be, and its
    report's tv is then the certificate's bound (`BoundReport`); only
    the cells it cannot prove take the exact walk, under the default
    bit budget.  Float calls resume from the scheme's float checkpoint,
    so a run of one-c calls in ascending c takes max k steps in all, not
    their sum.
    """
    return next(majorant_grid((params,), (c,), rounding, backend))[0]


def _exp(x: float) -> float:
    """e**x, or inf where math.exp overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def minorant_value(q: int, b: float, c: float) -> float:
    """1 - (4q+b) e**-c at any real c, for a finite offset parameter b >= 0;
    -inf once (4q+b) e**-c leaves the float range."""
    if not 0 <= b < math.inf:  # NaN fails too
        raise ParameterError("offset parameter b must be finite and >= 0")
    try:
        return 1.0 - (4 * q + b) * math.exp(-c)
    except OverflowError:  # 4q + b or e**-c alone is past the float range
        return 1.0 - _exp(math.log(4 * q + int(b)) - c)  # b's fraction is below 4q's ulp


def minorant(q: int, b: float, c: float) -> float:
    """Lower bound 1 - (4q+b) e**-c for tv at offset c below the cutoff.

    b = 0 gives the asymptotic corollary form; negative bounds are vacuous
    but returned.
    """
    if c < 0:
        raise ParameterError("offset c must be >= 0")
    return minorant_value(q, b, c)


def _minorant_job(params: SchemeParams, b: float, c: float):
    """(params, "minorant", cells) of tv >= minorant(q, b, c), one cell."""
    if not 0 <= c <= math.log(params.degree):  # NaN fails too
        raise ParameterError("need 0 <= c <= log n(q-1) for the minorant schedule")
    k = math.floor(schedule_step(params, -c))
    return params, "minorant", [(k, c, minorant(params.q, b, c))]


def minorant_grid(schemes, b: float, c: float):
    """Yield (report, diagnostics) per scheme in turn: the BoundReport of
    tv >= minorant(q, b, c) at the one offset c on the float backend, and
    `minorant_diagnostics` at its k with nu_k read from the same lockstep
    float pass.
    """
    jobs = [_minorant_job(p, b, c) for p in schemes]
    diags = {}

    def diagnose(i, k, walk):
        diags[i] = _diagnostics(jobs[i][0], k, b, c, walk)

    for i, (r,) in enumerate(_bound_reports(jobs, "float", diagnose)):
        yield r, diags.pop(i)


def check_minorant(
    params: SchemeParams,
    c0: float,
    b: float,
    c: float,
    backend: str = "auto",
) -> BoundReport:
    """The BoundReport of tv >= minorant(q, b, c) at k = floor(b_n (log
    n(q-1) - c)), for 0 <= c <= c0 and c <= log n(q-1); a bound below 0 is
    vacuous.  Decided on the path `majorant_grid` shares: float verdicts
    certified by `float_tv_error`, else exact.

    The inequality is guaranteed by the minorant theorem only for n past
    an unspecified threshold; callers assert it only where an empirical
    sweep has established validity.  A float tv resumes from the scheme's
    float checkpoint, so `minorant_diagnostics` at the same k takes no
    further step.
    """
    if not c <= c0:
        raise ParameterError("need c <= c0 for the minorant schedule")
    return next(_bound_reports([_minorant_job(params, b, c)], backend))[0]


@dataclass(frozen=True)
class MinorantDiagnostics:
    """Proof-level quantities behind the minorant at one (n, k, b, c)."""

    beta: float
    pi_B: float
    nu_B: float
    markov_lb: float
    chebyshev_ub: float
    chebyshev_applicable: bool


def minorant_diagnostics(
    params: SchemeParams, k: int, b: float, c: float, backend: str = "auto"
) -> MinorantDiagnostics:
    """Mass of the small-|phi_1| event under uniform and under the walk.

    B = { classes l with |phi_1(l)| < beta/sqrt(n) } for
    beta = sqrt(q/((4q+b)(q-1))) e**(c/2).  Markov gives
    pi(B) >= 1 - 1/(beta**2 (q-1)); Chebyshev gives nu_k(B) <= 1/beta**2
    provided E phi_1 >= 2 beta/sqrt(n) and the variance cap 1/n applies,
    i.e. (n-2)(q-1) >= 2; and always tv >= pi(B) - nu_k(B).  nu_k is the
    law `radial.kstep_trajectory` yields at k: exact within the default
    bit budget (`ResourceBudgetError` past it, as the exact recheck of
    `check_minorant`), while a float call after `check_minorant` at the
    same k resumes from the checkpoint that call left and takes no step.
    """
    if not (0 <= b < math.inf and 0 <= c < math.inf):
        raise ParameterError("need finite b >= 0 and c >= 0")
    be = resolve_backend(params, backend)
    return _diagnostics(params, k, b, c, next(kstep_trajectory(params, (k,), be))[1])


def _diagnostics(params: SchemeParams, k: int, b: float, c: float,
                 walk) -> MinorantDiagnostics:
    """`minorant_diagnostics` with nu_k = `walk`, the law after k steps."""
    n, q, d = params.n, params.q, params.degree
    try:
        beta = math.sqrt(q / ((4 * q + b) * (q - 1))) * math.exp(c / 2)
        markov_lb = 1 - 1 / (beta * beta * (q - 1))
        chebyshev_ub = 1 / (beta * beta)
        log_beta = math.log(beta)
    except (OverflowError, ZeroDivisionError):  # (4q+b)(q-1) or e**(c/2) past float range
        # in logs: 1/(beta**2 (q-1)) = (4q+b)/(q e**c); b's fraction is below
        # the ulp of 4q + b wherever it could show
        x = math.log(4 * q + int(b)) - math.log(q) - c
        log_beta = -0.5 * (x + math.log(q - 1))
        beta = _exp(log_beta)
        markov_lb = 1 - _exp(x)
        chebyshev_ub = _exp(x + math.log(q - 1))
    # |phi_1(l)| = |d - l q| / d < threshold = beta/sqrt(n), compared
    # exactly in integers with the float threshold; where that underflows
    # (huge q) or overflows (c past ~1419), with m 2**e = e**log(threshold)
    threshold = beta / math.sqrt(n)
    if 2.0 ** -1022 <= threshold < math.inf:
        tn, td = threshold.as_integer_ratio()
        applicable = ((d - q) / d) ** k >= 2 * threshold  # E phi_1 = lam[1]**k
    else:
        log_t = log_beta - 0.5 * math.log(n)
        e = math.floor(log_t / math.log(2))
        tn, td = math.exp(log_t - e * math.log(2)).as_integer_ratio()
        tn, td = (tn << e, td) if e >= 0 else (tn, td << -e)
        applicable = d > q and k * math.log((d - q) / d) >= math.log(2) + log_t
    in_b = _event_b(n, q, tn, td)
    add = math.fsum if walk.backend == "float" else lambda v: float(sum(v, Fraction(0)))
    pi_mass, nu_mass = (add(law.mass[in_b]) for law in (uniform(params, walk.backend), walk))
    return MinorantDiagnostics(
        beta=beta,
        pi_B=pi_mass,
        nu_B=nu_mass,
        markov_lb=markov_lb,
        chebyshev_ub=chebyshev_ub,
        chebyshev_applicable=applicable and (n - 2) * (q - 1) >= 2,
    )


def _event_b(n: int, q: int, tn: int, td: int) -> slice:
    """The classes l in 0..n with |d - lq| td < tn d (d = n(q-1), tn, td
    > 0): d(td - tn) < lq td < d(td + tn), an interval, by floor division."""
    d, step = n * (q - 1), q * td
    return slice(max(0, d * (td - tn) // step + 1), max(0, -(-d * (td + tn) // step)))


def hora_limit(c: float, side: Literal["plus", "minus"]) -> float:
    """Limiting distance profile erf(e**(-c/2)/(2 sqrt 2)) (plus side)
    or erf(e**(c/2)/(2 sqrt 2)) (minus side)."""
    if side == "plus":  # erf(inf) = 1 where e**(-+c/2) overflows
        x = _exp(-c / 2)
    elif side == "minus":
        x = _exp(c / 2)
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


@dataclass
class Lemma35Result:
    """One (family, m, l) entry: the ratio chain a_{n,mirror}/a_{n,center}
    over ns, its cap and whether the chain is ordered and capped, and
    `walked`, the integers (a_{n,mirror}, a_{n,center}) at the largest n
    that the chain stepped to and decided the cap on.  Not frozen: a
    frozen init costs more than the entry's own arithmetic, and `verify
    lemmas` builds 30,198 of them."""

    q_case: int
    m: int
    l: int
    ns: tuple
    cap: int
    holds: bool
    walked: tuple

    @property
    def terms(self) -> tuple:
        """The integers (a_{n,mirror}, a_{n,center}) per n, from `math.comb`."""
        base, center = self.q_case - 1, self.l + self.m - 1
        return tuple((base ** (n - self.l) * math.comb(n, self.l),
                      base ** center * math.comb(n, center)) for n in self.ns)

    @property
    def ratios(self) -> tuple:
        return tuple(Fraction(a, c) for a, c in self.terms)


def lemma35_ratio_chain(q_case: int, m: int) -> tuple:
    """Exact ratio chains a_{n, mirror}/a_{n, center}, one result per l.

    q_case 3: a_{n,j} = 2**j C(n,j), n in {3m-3, 3m-2, 3m-1}, mirror index
    n-l, center l+m-1, l = 0..m-1; chain increasing in n, cap 9.
    q_case 4: a_{n,j} = 3**j C(n,j), n in {2m-2, 2m-1}, mirror n-l,
    center l+m-1, l = 0..floor((m-1)/2); cap 8.
    Since C(n+1, j)/C(n, j) = (n+1)/(n+1-j), adjacent n of a chain have
    ratio(n+1)/ratio(n) = base (n+1-center)/(n+1-l) exactly, so the chain
    is ordered iff base (n+1-center) >= n+1-l for each n but the last:
    with center = l+m-1, iff l <= (base (n+2-m) - n - 1)/(base - 1),
    tightest at the smallest n, one threshold on l per (family, m).  An
    ordered chain peaks at its largest n, and only that n's pair is walked
    in integers: binomials taken once, at l = 0, and stepped l -> l+1 by
    the exact divisions a_{n,hi-1} = a_{n,hi} hi / (base (n-hi+1)) and
    a_{n,j+1} = a_{n,j} base (n-j) / (j+1).  `terms` and `ratios` of a
    result are built from `math.comb` only when read.
    """
    if q_case not in (3, 4) or m < 2:
        raise ParameterError("the ratio families need q_case 3 or 4 and m >= 2")
    if q_case == 3:
        base, cap, ns, l_max = 2, 9, (3 * m - 3, 3 * m - 2, 3 * m - 1), m - 1
    else:
        base, cap, ns, l_max = 3, 8, (2 * m - 2, 2 * m - 1), (m - 1) // 2
    top, l_ordered = ns[-1], (base * (ns[0] + 2 - m) - ns[0] - 1) // (base - 1)
    mirror, middle = base ** top, base ** (m - 1) * math.comb(top, m - 1)  # hi = top at l = 0
    out = []
    for l in range(l_max + 1):
        center = l + m - 1
        holds = l <= l_ordered and mirror <= cap * middle  # ordered, and capped at top
        out.append(Lemma35Result(q_case, m, l, ns, cap, holds, (mirror, middle)))
        mirror = mirror * (top - l) // (base * (l + 1))
        middle = middle * base * (top - center) // (center + 1)
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
