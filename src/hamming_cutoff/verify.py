"""Grid verification suites: every inequality checked over whole ranges.

The exact suites run on plain integers, never on per-entry rationals.
The k-step suites factor out the common denominator (n(q-1))**k: class
masses are the integer numerators of `radial.kstep_numerators`, the
distance to uniform is the summed integer excess of
`radial.kstep_excess`, eigenvalue powers become integer powers of
n(q-1) - j*q, and each inequality reduces to big-integer comparisons
per grid cell.  Each suite computes only the integers its verdict
reads: lemma 3.5 orders its ratio chains in small integers
(`bounds.lemma35_ratio_chain`); lemma 4.1 scales phi_j(l) = K[j][l] /
d_j and the linearization by one common denominator.  Unit tests pin
the numerators to the Fraction reference `radial.power_step`, and the
suites to their Fraction statements, on subgrids.

`upper` proves each scheme's cells from a tail start k0 <= k_max + 1
on by the spectral sum alone (`_tail_start`), and walks the cells below
k0 exactly.  With d = n(q-1) the excess is e_l = w_l sum_{j>=1} K_j(l)
(d - jq)**k, and each tail is one integer check at k0, found by
doubling and bisection, from which the proof holds at every larger k.
There are two tails.

- q >= 3, the dominant group.  `spectral.tail` bounds t = sum|e_l| by
  coefs[k % 2] mu**k + sum_rest a_j |d - jq|**k, with mu = max_{j>=1}
  |d - jq| attained on its group, j = 1, j = n, or both at the ties
  H(3, 3) and H(2, 4).  A cell is proven when that bound, with
  max(coefs) for coefs[k % 2], squared is at most q**(2n) (sum of d_j
  over the group) mu**(2k), the group's terms of q**(2n) s; divided by
  mu**(2k) the left side does not increase with k and the right side is
  constant.  By Cauchy-Schwarz and the orthogonality of K_1 and K_n,
  max(coefs)**2 <= q**(2n) (d_1 + d_n) at a tie, and a_j**2 <= q**(2n)
  d_j otherwise; the rest shrinks geometrically, so a tail exists where
  that holds strictly.
- q = 2, parity.  Here d = n and the step is bipartite: K_{n-j}(l) =
  (-1)**l K_j(l) and (n - 2(n-j))**k = (-1)**k (n - 2j)**k, so at k >= 1
  the terms j and n - j cancel where l and k differ in parity, leaving
  e_l = -w_l n**k, and add where they agree, giving e_l = w_l (n**k + 2
  sum_{1<=j<n/2} K_j(l) (n - 2j)**k).  As |K_j(l)| <= C(n, j), e_l >= 0
  on that parity too once 2 sum_{1<=j<n/2} C(n, j) (n - 2j)**k <= n**k,
  which, divided by n**k, does not increase with k.  Then sum_l e_l = 0
  gives t = 2**n n**k exactly, and t**2 = 4**n d_n n**(2k) is the j = n
  term of q**(2n) s.

Below k0 each scheme walks its excess exactly (`radial.kstep_excess`).
A cell holds when t**2 is at most q**(2n) times the end terms of s (j =
1 and j = n), kept as exact running products, and is otherwise decided
on the whole of s.

The majorant and minorant suites take no backend option: each builds
its whole grid of schemes first and makes one float
`bounds.majorant_grid` or `bounds.minorant_grid` call, the decision path
`check_majorant` and `check_minorant` use, whose one lockstep float pass
steps every scheme, and whose spectral tail certificate
(`spectral.tail`, the one `upper` reads) proves the majorant cells that
pass leaves undecided.  That path decides every bound.  `minorant_sweep`
decides only the proof diagnostics itself, in float with a 1e-12 slack
each: Markov pi(B) >= its lower bound, the event bound tv >= pi(B) -
nu_k(B) and, where it applies, Chebyshev nu_k(B) <= 1/beta**2.

All suite functions return a report with the cells checked, the violations
found (empty means the inequality held everywhere) and the cells skipped
as out of a theorem's scope.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import gt, lt, mul
from typing import Optional, Sequence

from . import bounds
from ._numpy import np
from .krawtchouk import scaled_rows
from .radial import (DEFAULT_BIT_BUDGET, _check_bits, _check_plan, _excess_start,
                     kstep_excess, kstep_numerators)
from .scheme import class_weights, make_scheme
from .spectral import linearization_phi1_squared, tail


@dataclass(frozen=True)
class Violation:
    """One failed inequality: lhs compared against rhs at a grid cell."""

    which: str
    n: int
    q: int
    k: Optional[int]
    c: Optional[float]
    lhs: float
    rhs: float


@dataclass
class SuiteReport:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _multiplicities(params) -> tuple:
    """The spectral multiplicities d_j = (q-1)**j C(n, j), j = 0..n: the
    class sizes w[j], which the suites' statements read through here."""
    return class_weights(params).w


def _tail_start(params, mult: tuple, k_max: int) -> int:
    """The least k0 <= k_max from which every cell k >= k0 holds by the
    spectral sum alone (module docstring), or k_max + 1 where k_max is
    not proven.  At q >= 3 the proof at k is (max(coefs) mu**k + sum_rest
    a b**k)**2 <= q**(2n) (sum of mult[j] over the group) mu**(2k), with
    `spectral.tail`'s terms; at q = 2 it is k >= 1 and 2 sum_{1<=j<n/2}
    C(n, j) (n - 2j)**k <= n**k, and the tail needs mult[n] >= 1.  Only
    the group's mult[j] and mult[n] read the statement's `mult`.  The
    search probes k = 1, 2, 4, ... up to k_max, then bisects, so its
    cost follows k0, not k_max."""
    n = params.n
    if params.q == 2:
        if mult[n] < 1:
            return k_max + 1
        terms = [(2 * math.comb(n, j), n - 2 * j) for j in range(1, (n + 1) // 2)]

        def proven(k):
            return k > 0 and sum(a * b ** k for a, b in terms) <= n ** k
    else:
        mu, group, coefs, rest = tail(params)
        top, right = max(coefs), params.size ** 2 * sum(mult[j] for j in group)

        def proven(k):
            bound = top * mu ** k + sum(a * b ** k for a, b in rest)
            return bound * bound <= right * mu ** (2 * k)

    lo, hi = 0, 1  # not proven below lo; proven at hi, taking k_max + 1 as given
    while hi <= k_max and not proven(hi):
        lo, hi = hi + 1, 2 * hi
    return lo + bisect_left(range(lo, min(hi, k_max + 1)), True, key=proven)


def verify_upper(
    n_max: int = 30,
    q_values: Sequence[int] = (2, 3, 4, 5, 6),
    k_max: int = 300,
) -> SuiteReport:
    """tv**2 <= (1/4) sum_{j>=1} d_j lam[j]**(2k) over the whole grid, as
    t**2 <= q**(2n) s, s = sum_{j>=1} d_j (n(q-1) - jq)**(2k), in
    integers: t = sum|e| over `radial.kstep_excess`, s from eigenvalue
    powers alone.  Each scheme's cells from its tail start k0 on are
    proven by the spectral sum alone, by the dominant group of
    `spectral.tail` at q >= 3, ties included, and by parity at q = 2,
    and those below k0 on its exact walk (module docstring).  Violations
    come in (q, n, k) order, both sides correctly rounded.

    The grid is planned before its tail search and its first step:
    `ResourceBudgetError` when the `radial.bit_price` of its largest walk,
    (n_max, max q, k_max), passes `radial.DEFAULT_BIT_BUDGET` (so no walk
    is priced again; every walk stops below its tail start, yet the plan
    prices k_max), or when its class-steps, k_max (n+1) per walk, fail
    `radial._check_plan`."""
    if n_max >= 1 and q_values:
        # a bad q is a usage error
        largest = max((make_scheme(n_max, v) for v in q_values), key=lambda p: p.q)
        _check_bits("verify upper", largest, _excess_start(largest), k_max, DEFAULT_BIT_BUDGET)
        _check_plan("verify upper", len(q_values) * k_max * n_max * (n_max + 3) // 2, k_max)
    report = SuiteReport("upper")
    schemes = [make_scheme(n, q) for q in q_values for n in range(1, n_max + 1)]
    report.checked = len(schemes) * len(range(k_max + 1))
    for params in schemes:
        n, q, d, square = params.n, params.q, params.degree, params.size ** 2
        mult = _multiplicities(params)
        # q**(2n) times the end terms of s, j = 1 and j = n, running in k
        lo, hi = square * mult[1], square * mult[n] * (n > 1)
        for k, e in kstep_excess(params, range(_tail_start(params, mult, k_max)), math.inf):
            t = sum(map(abs, e))
            if t * t > lo + hi:
                s = square * sum(mult[j] * (d - j * q) ** (2 * k) for j in range(1, n + 1))
                if t * t > s:
                    denom = 4 * d ** (2 * k) * square
                    report.violations.append(Violation(
                        "upper-lemma", n, q, k, None,
                        float(Fraction(t * t, denom)), float(Fraction(s, denom)),
                    ))
            lo, hi = lo * (d - q) ** 2, hi * (d - n * q) ** 2
    return report


def verify_majorant(
    q_values: Sequence[int] = (3, 4, 5, 6, 7, 8),
    n_max: int = 40,
    c_values: Sequence[float] = tuple(0.25 * i for i in range(1, 25)),
    rounding: str = "ceil",
) -> SuiteReport:
    """tv**2 <= regime majorant at scheduled k, over an (q, n, c) grid.

    Every (q, n) in the theorems' scope goes into one float
    `bounds.majorant_grid` call, where the spectral tail certificate
    proves the cells below the float roundoff floor, at c = 100 and c =
    700 every one (an exact recheck past the default bit budget:
    `ResourceBudgetError`); the others are recorded as skipped, not
    checked.
    """
    for q in q_values:  # q >= 3 and 0 < c < inf, or a usage error
        for c in c_values:
            bounds.majorant(q, c)
    report = SuiteReport("majorant")
    schemes = []
    for q in q_values:
        for n in range(1, n_max + 1):
            params = make_scheme(n, q)
            if bounds.majorant_in_scope(params):
                schemes.append(params)
            else:
                report.skipped.append((n, q))
    grid = bounds.majorant_grid(schemes, c_values, rounding, "float")
    for params, reports in zip(schemes, grid):
        for r in reports:
            report.checked += 1
            if not r.satisfied:
                report.violations.append(Violation(
                    r.which, params.n, params.q, r.k, r.c, r.tv_exact ** 2, r.bound_value))
    return report


@dataclass(frozen=True)
class SweepRecord:
    """Minorant bound and proof diagnostics at one sweep point."""

    n: int
    k: int
    tv: float
    bound: float
    satisfied: bool
    pi_B: float
    nu_B: float
    markov_lb: float
    markov_ok: bool
    event_ok: bool
    chebyshev_ub: float
    chebyshev_ok: bool
    chebyshev_applicable: bool


@dataclass
class SweepReport:
    q: int
    b: float
    c0: float
    c: float
    records: list
    n_star: Optional[int]
    diagnostic_violations: list


def default_sweep_grid(n_min: int, n_ceiling: int = 2000) -> list:
    """Dense at small n, progressively sparser, always ending at n_ceiling."""
    grid = list(range(n_min, min(101, n_ceiling + 1)))
    grid += list(range(105, min(401, n_ceiling + 1), 5))
    grid += list(range(420, min(1001, n_ceiling + 1), 20))
    grid += list(range(1050, n_ceiling + 1, 50))
    if grid and grid[-1] != n_ceiling:
        grid.append(n_ceiling)
    return [n for n in grid if n >= n_min]


def minorant_sweep(
    q: int = 3,
    b: float = 1.0,
    c0: float = 3.0,
    c: Optional[float] = None,
    n_grid: Optional[Sequence[int]] = None,
) -> SweepReport:
    """Empirical threshold sweep for the minorant theorem.

    Records per tested n whether tv >= 1 - (4q+b) e**-c at the floored
    schedule step, plus the Markov/Chebyshev/event diagnostics that are
    unconditional: one `bounds.minorant_grid` call over the whole grid,
    the float decision path `check_minorant` uses.  c defaults to
    min(c0, 3) and must be finite.  The grid, `n_grid` or else
    `default_sweep_grid(1)`, keeps only the n with log n(q-1) >= c, which
    the schedule needs.  n_star is the smallest tested n from which the
    bound held through the end of the grid (None if it failed at the
    ceiling).
    """
    if c is None:
        c = min(c0, 3.0)
    if q < 2:
        raise bounds.ParameterError(f"alphabet size q must be >= 2, got {q}")
    if not (0 <= c <= c0 and c < math.inf):  # NaN fails too
        raise bounds.ParameterError("need 0 <= c <= c0 and a finite c")
    n_grid = set(default_sweep_grid(1) if n_grid is None else n_grid)
    if min(n_grid, default=1) < 1:
        raise bounds.ParameterError(f"word length n must be >= 1, got {min(n_grid)}")
    # the schedule needs c <= log n(q-1); quietly drop n below that
    n_grid = sorted(n for n in n_grid if math.log(n * (q - 1)) >= c)
    bounds.minorant(q, b, c)  # a bad b is a usage error before any n

    grid = bounds.minorant_grid([make_scheme(n, q) for n in n_grid], b, c)
    records = [
        SweepRecord(
            n=n,
            k=r.k,
            tv=r.tv_exact,
            bound=r.bound_value,
            satisfied=r.satisfied,
            pi_B=diag.pi_B,
            nu_B=diag.nu_B,
            markov_lb=diag.markov_lb,
            markov_ok=diag.pi_B >= diag.markov_lb - 1e-12,
            event_ok=r.tv_exact >= diag.pi_B - diag.nu_B - 1e-12,
            chebyshev_ub=diag.chebyshev_ub,
            chebyshev_ok=(not diag.chebyshev_applicable)
            or diag.nu_B <= diag.chebyshev_ub + 1e-12,
            chebyshev_applicable=diag.chebyshev_applicable,
        )
        for n, (r, diag) in zip(n_grid, grid)
    ]

    n_star = None
    for rec in reversed(records):
        if not rec.satisfied:
            break
        n_star = rec.n
    diag_violations = [
        rec for rec in records if not (rec.markov_ok and rec.event_ok and rec.chebyshev_ok)
    ]
    return SweepReport(q, b, c0, c, records, n_star, diag_violations)


def verify_lemma32(points: int = 100000) -> SuiteReport:
    """e**-x vs |1-x| on dense grids of both regimes, each grid taken in
    blocks of 8192 points so no full-length temporary is built."""
    report = SuiteReport("lemma-3.2")
    for which, lo, hi, fails in (("lemma-3.2-low", -10.0, 1.25, lt),
                                 ("lemma-3.2-high", 4.0 / 3.0, 20.0, gt)):
        grid = np.linspace(lo, hi, points)
        for xs in (grid[i:i + 8192] for i in range(0, points, 8192)):
            for x in xs[fails(np.exp(-xs), np.abs(1 - xs))]:
                report.violations.append(
                    Violation(which, 0, 0, None, float(x), math.exp(-x), abs(1 - x)))
    report.checked = 2 * points
    return report


def verify_lemma35(m_max: int = 200) -> SuiteReport:
    """Ratio caps and chain orderings for all m <= m_max, admissible l."""
    report = SuiteReport("lemma-3.5")
    for m in range(2, m_max + 1):
        for res in bounds.lemma35_ratio_chain(3, m) + bounds.lemma35_ratio_chain(4, m):
            report.checked += 1
            if not res.holds:
                report.violations.append(
                    Violation(f"lemma-3.5-q{res.q_case}", m, res.q_case, None,
                              float(res.l), float(max(res.ratios)), res.cap)
                )
    return report


def verify_lemma41(n_max: int = 30, q_values: Sequence[int] = (2, 3, 4, 5, 6)) -> SuiteReport:
    """phi_1**2 equals its three-term linearization at every l, exactly.

    Integer-scaled: with phi_j(l) = K[j][l] / d_j and m the lcm of the
    coefficients' denominators, m d_1**2 d_2 phi_1**2 == m d_1**2 d_2 (a0
    + a1 phi_1 + a2 phi_2), both sides integers.
    """
    report = SuiteReport("lemma-4.1")
    for q in q_values:
        for n in range(2, n_max + 1):
            params = make_scheme(n, q)
            coeffs = linearization_phi1_squared(params)
            m = math.lcm(*(a.denominator for a in coeffs))
            rows = scaled_rows(params)
            d1, d2 = class_weights(params).w[1:3]  # d_j = w_j
            scales = (d1 * d1 * d2, d1 * d2, d1 * d1)
            c0, c1, c2 = (int(a * m) * f for a, f in zip(coeffs, scales))
            for l, (r1, r2) in enumerate(zip(rows[1], rows[2])):
                report.checked += 1
                if r1 * r1 * m * d2 != c0 + c1 * r1 + c2 * r2:
                    phi = (1, Fraction(r1, d1), Fraction(r2, d2))
                    report.violations.append(Violation(
                        "lemma-4.1", n, q, None, float(l),
                        float(phi[1] * phi[1]), float(sum(map(mul, coeffs, phi)))))
    return report


def verify_lemma42(n_max: int = 30, q_values: Sequence[int] = (2, 3, 4, 5, 6)) -> SuiteReport:
    """Stationary means (1 for j=0, 0 for j>=1) and Var(phi_1) = 1/(n(q-1)).

    Integer-scaled form: sum_l w[l] K[j][l] equals q**n for j = 0 and 0
    for j >= 1; sum_l w[l] K[1][l]**2 equals q**n * n(q-1).
    """
    report = SuiteReport("lemma-4.2")
    for q in q_values:
        for n in range(1, n_max + 1):
            params = make_scheme(n, q)
            w = class_weights(params).w
            big_q = params.size
            rows = scaled_rows(params)
            for j in range(n + 1):
                s = sum(map(mul, w, rows[j]))
                expect = big_q if j == 0 else 0
                report.checked += 1
                if s != expect:
                    report.violations.append(
                        Violation("lemma-4.2-mean", n, q, None, float(j),
                                  float(s), float(expect))
                    )
            second = sum(map(mul, w, map(mul, rows[1], rows[1])))
            report.checked += 1
            if second != big_q * params.degree:
                report.violations.append(
                    Violation("lemma-4.2-var", n, q, None, None,
                              second / (big_q * params.degree), 1.0)
                )
    return report


def verify_lemma43_moments(
    n_max: int = 10,
    q_values: Sequence[int] = (2, 3, 4, 5, 6),
    k_max: int = 64,
) -> SuiteReport:
    """Two-path agreement E phi_j = lam[j]**k, summed vs closed form.

    Integer-scaled: sum_l num[l] K[j][l] == d_j * (n(q-1) - jq)**k where
    num are the k-step numerators over (n(q-1))**k.
    """
    report = SuiteReport("lemma-4.3(1)")
    for q in q_values:
        for n in range(1, n_max + 1):
            params = make_scheme(n, q)
            d = params.degree
            rows = scaled_rows(params)
            moments = _multiplicities(params)  # d_j (n(q-1) - jq)**k, running in k
            lam_num = [d - j * q for j in range(n + 1)]
            for k, num in kstep_numerators(params, range(k_max + 1), math.inf):
                for j, (row, expect) in enumerate(zip(rows, moments)):
                    s = sum(map(mul, num, row))
                    report.checked += 1
                    if s != expect:
                        report.violations.append(
                            Violation("lemma-4.3(1)", n, q, k, float(j), float(s), float(expect))
                        )
                moments = list(map(mul, moments, lam_num))
    return report


def verify_lemma43_variance(
    n_max: int = 20,
    q_values: Sequence[int] = (2, 3, 4, 5, 6),
    k_max: int = 200,
) -> SuiteReport:
    """Var phi_1 <= 1/n after any k steps, wherever (n-2)(q-1) >= 2.

    Integer-scaled: m d**2k Var with m = lcm(n, linearization denominators),
    d = n(q-1) and lam[i]**k = (d - iq)**k / d**k, compared with m d**2k / n.
    """
    report = SuiteReport("lemma-4.3(2)")
    for q in q_values:
        for n in range(1, n_max + 1):
            if (n - 2) * (q - 1) < 2:
                report.skipped.append((n, q))
                continue
            params = make_scheme(n, q)
            d = params.degree
            coeffs = linearization_phi1_squared(params)
            m = math.lcm(n, *(a.denominator for a in coeffs))
            a0, a1, a2 = (int(a * m) for a in coeffs)
            # running d**2k, (d-q)**k d**k, (d-2q)**k d**k and (d-q)**2k
            powers, factors = [1] * 4, (d * d, (d - q) * d, (d - 2 * q) * d, (d - q) ** 2)
            for k in range(k_max + 1):
                dk2, p1dk, p2dk, p1sq = powers
                value = a0 * dk2 + a1 * p1dk + a2 * p2dk - m * p1sq
                report.checked += 1
                if value * n > m * dk2:
                    report.violations.append(
                        Violation("lemma-4.3(2)", n, q, k, None, value / (m * dk2), 1 / n)
                    )
                powers = list(map(mul, powers, factors))
    return report


def verify_lemmas() -> list:
    """All lemma suites at their contract grids, as a list of reports."""
    return [
        verify_lemma32(),
        verify_lemma35(),
        verify_lemma41(),
        verify_lemma42(),
        verify_lemma43_moments(),
        verify_lemma43_variance(),
    ]
