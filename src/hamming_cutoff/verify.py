"""Grid verification suites: every inequality checked over whole ranges.

The exact suites run on plain integers with the common denominator
(n(q-1))**k factored out, which is orders of magnitude faster than
per-entry rationals: class masses are the integer numerators of
`radial.kstep_numerators`, eigenvalue powers become integer powers of
n(q-1) - j*q, and each inequality reduces to one big-integer comparison
per grid cell.  Unit tests pin the numerators to the Fraction reference
`radial.power_step`, and the suites to their Fraction statements, on
subgrids.

The majorant suite decides nothing itself: each (q, n) of its grid is
one `bounds.majorant_cells` call, the decision path `check_majorant` uses.

All suite functions return a report with the cells checked, the violations
found (empty means the inequality held everywhere) and the cells skipped
as out of a theorem's scope.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .krawtchouk import scaled_rows
from .radial import kstep_numerators
from .scheme import class_weights, make_scheme
from .spectral import linearization_phi1_squared, spectrum


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


def verify_upper(
    n_max: int = 30,
    q_values: Sequence[int] = (2, 3, 4, 5, 6),
    k_max: int = 300,
) -> SuiteReport:
    """tv**2 <= (1/4) sum_{j>=1} d_j lam[j]**(2k) over the whole grid."""
    report = SuiteReport("upper")
    for q in q_values:
        for n in range(1, n_max + 1):
            params = make_scheme(n, q)
            d = params.degree
            big_q = params.size
            q_sq = big_q * big_q
            w = class_weights(params).w
            mult = spectrum(params).mult
            lam_sq = [(d - j * q) ** 2 for j in range(n + 1)]
            powers = [1] * (n + 1)  # lam_num[j]**(2k)
            dk = 1
            for k, num in kstep_numerators(params, range(k_max + 1), math.inf):  # over dk
                t = sum(abs(num[l] * big_q - w[l] * dk) for l in range(n + 1))
                s = sum(mult[j] * powers[j] for j in range(1, n + 1))
                report.checked += 1
                if t * t > s * q_sq:
                    tv = t / (2 * dk * big_q)
                    report.violations.append(
                        Violation("upper-lemma", n, q, k, None, tv * tv, s / (4 * dk * dk))
                    )
                dk *= d
                powers = [p * v for p, v in zip(powers, lam_sq)]
    return report


def verify_majorant(
    q_values: Sequence[int] = (3, 4, 5, 6, 7, 8),
    n_max: int = 40,
    c_values: Sequence[float] = tuple(0.25 * i for i in range(1, 25)),
    rounding: str = "ceil",
    backend: str = "float",
) -> SuiteReport:
    """tv**2 <= regime majorant at scheduled k, over an (q, n, c) grid.

    Each (q, n) in the theorems' scope is one `bounds.majorant_cells`
    call (exact recheck past the default bit budget: `ResourceBudgetError`);
    the others are recorded as skipped, not checked.
    """
    for q in q_values:  # q >= 3 and 0 < c < inf, or a usage error
        for c in c_values:
            bounds.majorant(q, c)
    report = SuiteReport("majorant")
    for q in q_values:
        for n in range(1, n_max + 1):
            params = make_scheme(n, q)
            if not bounds.majorant_in_scope(params):
                report.skipped.append((n, q))
                continue
            for r in bounds.majorant_cells(params, c_values, rounding, backend):
                report.checked += 1
                if not r.satisfied:
                    report.violations.append(
                        Violation(r.which, n, q, r.k, r.c, r.tv_exact ** 2, r.bound_value)
                    )
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

    @property
    def ok(self) -> bool:
        return not self.diagnostic_violations and self.n_star is not None


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
    c: float = 3.0,
    n_grid: Optional[Sequence[int]] = None,
    backend: str = "float",
) -> SweepReport:
    """Empirical threshold sweep for the minorant theorem.

    Records per tested n whether tv >= 1 - (4q+b) e**-c at the floored
    schedule step, plus the Markov/Chebyshev/event diagnostics that are
    unconditional.  n_star is the smallest tested n from which the bound
    held through the end of the grid (None if it failed at the ceiling).
    """
    if q < 2:
        raise bounds.ParameterError(f"alphabet size q must be >= 2, got {q}")
    if not 0 <= c <= c0:
        raise bounds.ParameterError("need 0 <= c <= c0")
    if n_grid is None:
        n_min = max(1, math.ceil(math.exp(c) / (q - 1)))
        while math.log(n_min * (q - 1)) < c:
            n_min += 1
        n_grid = default_sweep_grid(n_min)
    # the schedule needs c <= log n(q-1); quietly drop n below that
    n_grid = sorted(n for n in set(n_grid) if math.log(n * (q - 1)) >= c)
    bound = bounds.minorant(q, b, c)

    def run(n):
        params = make_scheme(n, q)
        k = math.floor(bounds.schedule_step(params, -c))
        diag = bounds.minorant_diagnostics(params, k, b, c, backend)
        tv = diag.tv_exact
        return SweepRecord(
            n=n,
            k=k,
            tv=tv,
            bound=bound,
            satisfied=tv >= bound or bound < 0,
            pi_B=diag.pi_B,
            nu_B=diag.nu_B,
            markov_lb=diag.markov_lb,
            markov_ok=diag.pi_B >= diag.markov_lb - 1e-12,
            event_ok=tv >= diag.pi_B - diag.nu_B - 1e-12,
            chebyshev_ub=diag.chebyshev_ub,
            chebyshev_ok=(not diag.chebyshev_applicable)
            or diag.nu_B <= diag.chebyshev_ub + 1e-12,
            chebyshev_applicable=diag.chebyshev_applicable,
        )

    records = [run(n) for n in n_grid]

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
    """e**-x vs |1-x| on dense grids of both regimes."""
    report = SuiteReport("lemma-3.2")
    lo = np.linspace(-10.0, 1.25, points)
    hi = np.linspace(4.0 / 3.0, 20.0, points)
    bad_lo = lo[np.exp(-lo) < np.abs(1 - lo)]
    bad_hi = hi[np.exp(-hi) > np.abs(1 - hi)]
    report.checked = 2 * points
    for x in bad_lo:
        report.violations.append(
            Violation("lemma-3.2-low", 0, 0, None, float(x), math.exp(-x), abs(1 - x))
        )
    for x in bad_hi:
        report.violations.append(
            Violation("lemma-3.2-high", 0, 0, None, float(x), math.exp(-x), abs(1 - x))
        )
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
    """phi_1**2 equals its three-term linearization at every l, exactly."""
    report = SuiteReport("lemma-4.1")
    for q in q_values:
        for n in range(2, n_max + 1):
            params = make_scheme(n, q)
            a0, a1, a2 = linearization_phi1_squared(params)
            rows = scaled_rows(params)
            d = class_weights(params).w  # d_j = w_j
            for l in range(n + 1):
                phi1 = Fraction(rows[1][l], d[1])
                phi2 = Fraction(rows[2][l], d[2])
                report.checked += 1
                if phi1 * phi1 != a0 + a1 * phi1 + a2 * phi2:
                    report.violations.append(
                        Violation("lemma-4.1", n, q, None, float(l),
                                  float(phi1 * phi1),
                                  float(a0 + a1 * phi1 + a2 * phi2))
                    )
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
                s = sum(w[l] * rows[j][l] for l in range(n + 1))
                expect = big_q if j == 0 else 0
                report.checked += 1
                if s != expect:
                    report.violations.append(
                        Violation("lemma-4.2-mean", n, q, None, float(j),
                                  float(s), float(expect))
                    )
            second = sum(w[l] * rows[1][l] ** 2 for l in range(n + 1))
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
            mult = spectrum(params).mult
            lam_num = [d - j * q for j in range(n + 1)]
            powers = [1] * (n + 1)
            for k, num in kstep_numerators(params, range(k_max + 1), math.inf):
                for j in range(n + 1):
                    s = sum(num[l] * rows[j][l] for l in range(n + 1))
                    report.checked += 1
                    if s != mult[j] * powers[j]:
                        report.violations.append(
                            Violation("lemma-4.3(1)", n, q, k, float(j),
                                      float(s), float(mult[j] * powers[j]))
                        )
                powers = [p * v for p, v in zip(powers, lam_num)]
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
            p1 = p2 = dk = 1
            for k in range(k_max + 1):
                value = a0 * dk * dk + (a1 * p1 + a2 * p2) * dk - m * p1 * p1
                report.checked += 1
                if value * n > m * dk * dk:
                    report.violations.append(
                        Violation("lemma-4.3(2)", n, q, k, None,
                                  value / (m * dk * dk), 1 / n)
                    )
                p1 *= d - q
                p2 *= d - 2 * q
                dk *= d
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
