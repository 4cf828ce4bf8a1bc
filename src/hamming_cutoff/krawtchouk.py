"""Spherical functions of H(n, q): the Krawtchouk polynomial family.

phi_j is the degree-j member, normalized to phi_j(0) = 1 and evaluated at
integer distances l = 0..n.  Two independent closed forms are implemented:

* a terminating hypergeometric sum,
    phi_j(l) = sum_{r=0}^{j} [(-j)_r (-l)_r / ((-n)_r r!)] * (q/(q-1))**r,
* a binomial double sum,
    phi_j(l) = C(n,j)^-1 * sum_r C(l,r) C(n-l, j-r) (-1/(q-1))**r.

They must agree exactly in rational arithmetic; that agreement is a test,
not an assumption.  The exact table itself is K[j][l] / d_j over the
integer rows `scaled_rows`, a third form built in O(n**2) from the
generating function.  The float table is instead built from the three-term
recurrence in l (the radial-chain eigenfunction relation)

    (n-l)(q-1) phi(l+1) = (n(q-1) lam_j - l(q-2)) phi(l) - l phi(l-1),

because direct float summation of either closed form cancels
catastrophically once n is large.  Run one-directionally from l = 0 the
recurrence is itself unstable (the wanted solution decays relative to the
complementary one outside the oscillatory window, and roundoff excites the
grower), so it is run on the weight-symmetrized rows

    psi_j(l) = sqrt(w[l] d_j / q**n) * phi_j(l),   (unit 2-norm rows)

forward from l = 0 and backward from l = n, and the two halves are spliced
where the row's oscillatory window ends; each half only ever recurs in its
own growth direction, which keeps relative errors at the roundoff level.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Union

import numpy as np

from .scheme import (
    Backend,
    ParameterError,
    ResourceBudgetError,
    SchemeParams,
    class_weights,
)

DEFAULT_TABLE_BUDGET = 4096


def _check_indices(params: SchemeParams, j: int, l: int) -> None:
    if not (0 <= j <= params.n and 0 <= l <= params.n):
        raise ParameterError(
            f"class indices must lie in 0..{params.n}, got j={j}, l={l}"
        )


def phi_hypergeometric(params: SchemeParams, j: int, l: int) -> Fraction:
    """phi_j(l) via the terminating hypergeometric sum, exact."""
    _check_indices(params, j, l)
    n, q = params.n, params.q
    term = Fraction(1)
    total = Fraction(1)
    for r in range(min(j, l)):
        # term_{r+1} / term_r = (-j+r)(-l+r) q / ((-n+r)(r+1)(q-1))
        term *= Fraction(-(j - r) * (l - r) * q, (n - r) * (r + 1) * (q - 1))
        total += term
    return total


def _binomial_sum(n: int, q: int, j: int, l: int) -> int:
    """phi_j(l) d_j = sum_r (-1)**r C(l,r) C(n-l,j-r) (q-1)**(j-r)."""
    acc = 0
    for r in range(j + 1):
        c = math.comb(l, r) * math.comb(n - l, j - r)
        if c:
            acc += (-1) ** r * c * (q - 1) ** (j - r)
    return acc


def phi_binomial(params: SchemeParams, j: int, l: int) -> Fraction:
    """phi_j(l) via the binomial double sum, exact."""
    _check_indices(params, j, l)
    n, q = params.n, params.q
    return Fraction(_binomial_sum(n, q, j, l), math.comb(n, j) * (q - 1) ** j)


@lru_cache(maxsize=64)
def scaled_rows(params: SchemeParams) -> tuple:
    """Integer matrix K with K[j][l] = phi_j(l) * d_j, d_j = (q-1)**j C(n,j).

    The scaled values are integers, which lets grid verifiers work in pure
    integer arithmetic; K[j][l] / d_j reproduces the exact table.  Built
    in O(n**2) from sum_j K[j][l] z**j = (1 - z)**l (1 + (q-1) z)**(n-l):
    column 0 is the class weights w, and column l+1 is column l divided
    exactly by 1 + (q-1) z, then multiplied by 1 - z.
    """
    q, cols = params.q, [class_weights(params).w]
    for _ in range(params.n):
        quot = list(accumulate(cols[-1][:-1], lambda r, p: p - (q - 1) * r))
        cols.append(tuple(a - b for a, b in zip(quot + [0], [0] + quot)))
    return tuple(zip(*cols))


@dataclass(frozen=True)
class KrawtchoukTable:
    """All values phi[j][l] on the (n+1) x (n+1) grid, row-major by j."""

    params: SchemeParams
    phi: Union[tuple, np.ndarray]
    backend: Backend

    def value(self, j: int, l: int):
        _check_indices(self.params, j, l)
        return self.phi[j][l]


def _float_lambdas(params: SchemeParams) -> np.ndarray:
    n, q = params.n, params.q
    d = n * (q - 1)
    return (d - q * np.arange(n + 1, dtype=np.float64)) / d


def float_table_supported(params: SchemeParams) -> bool:
    """Whether the symmetrized rows stay inside float64 range.

    The two recurrence halves grow by at most exp(n/2 * log q) (forward,
    from psi_j(0) = sqrt(d_j/q**n)) and exp(n * beta) (backward, from the
    corner value psi_j(n)); both exponents must stay clear of overflow.
    """
    n, q = params.n, params.q
    beta = 0.5 * math.log(q * (1 + (q - 1) ** 3) / (q - 1) ** 3)
    return n * max(0.5 * math.log(q), beta) <= 650.0


def _jacobi_coefficients(params: SchemeParams):
    """Diagonal/off-diagonal of the weight-symmetrized transition matrix."""
    n, q = params.n, params.q
    d = n * (q - 1)
    ls = np.arange(n + 1, dtype=np.float64)
    diag = ls * (q - 2) / d
    off = np.sqrt((n - ls[:-1]) * (q - 1) * (ls[:-1] + 1)) / d
    return diag, off


def _oscillatory_edge(params: SchemeParams, j: int) -> float:
    """Largest l where the row still oscillates (recurrence turning point)."""
    n, q = params.n, params.q
    a = n * (q - 1) - j * q
    b = a * (q - 2) + 2 * n * (q - 1)
    disc = b * b - (q * q) * (a * a)
    if disc <= 0:
        return b / (q * q)
    return (b + math.sqrt(disc)) / (q * q)


def _splice(n: int, edge: float, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Join forward/backward halves near the oscillatory edge of a row.

    Each half is anchored to a far corner of the row, so their raw scales
    can differ by hundreds of orders of magnitude; both are rescaled around
    the candidate window before any product is formed.
    """
    mid = int(min(max(edge, 1.0), n - 1))
    lo, hi = max(mid - 2, 1), min(mid + 2, n - 1)
    cand = np.arange(lo, hi + 1)
    fm = float(np.max(np.abs(f[cand])))
    gm = float(np.max(np.abs(g[cand])))
    if fm == 0.0 or gm == 0.0 or not (math.isfinite(fm) and math.isfinite(gm)):
        raise ResourceBudgetError(f"degenerate splice window at n={n}")
    fw = f / fm
    gw = g / gm
    s = int(cand[np.argmax(np.abs(fw[cand] * gw[cand]))])
    if fw[s] == 0.0 or gw[s] == 0.0:
        raise ResourceBudgetError(f"degenerate splice at l={s}, n={n}")
    row = np.concatenate([fw[: s + 1], (fw[s] / gw[s]) * gw[s + 1 :]])
    return row / np.linalg.norm(row)


def _psi_rows(params: SchemeParams, js) -> np.ndarray:
    """Unit-norm symmetrized rows js by the two-sided spliced recurrence.

    Forward and backward sweeps run vectorized over the rows; entries past
    a row's splice point are the unstable half's garbage and are discarded
    by the splice, so overflow there is silenced and harmless.
    """
    n = params.n
    diag, off = _jacobi_coefficients(params)
    lams = _float_lambdas(params)[js]
    f = np.zeros((len(js), n + 1))
    g = np.zeros((len(js), n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        f[:, 0] = 1.0
        f[:, 1] = (lams - diag[0]) / off[0]
        for l in range(1, n):
            f[:, l + 1] = ((lams - diag[l]) * f[:, l] - off[l - 1] * f[:, l - 1]) / off[l]
        g[:, n] = 1.0
        g[:, n - 1] = (lams - diag[n]) / off[n - 1]
        for l in range(n - 1, 0, -1):
            g[:, l - 1] = ((lams - diag[l]) * g[:, l] - off[l] * g[:, l + 1]) / off[l - 1]
    psi = np.empty_like(f)
    for r, j in enumerate(js):
        psi[r] = _splice(n, _oscillatory_edge(params, j), f[r], g[r])
    return psi


@lru_cache(maxsize=8)
def _psi_table(params: SchemeParams) -> np.ndarray:
    """All unit-norm symmetrized rows, orthonormal up to roundoff."""
    psi = _psi_rows(params, np.arange(params.n + 1))
    psi.flags.writeable = False
    return psi


@lru_cache(maxsize=16)
def _log_class_weights(params: SchemeParams) -> np.ndarray:
    """log w[l] = log((q-1)**l C(n,l)) via lgamma, per class l."""
    n, q = params.n, params.q
    ls = np.arange(n + 1, dtype=np.float64)
    return (
        ls * math.log(q - 1)
        + math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(n - v + 1) for v in ls])
    )


@lru_cache(maxsize=8)
def _logscale(params: SchemeParams) -> np.ndarray:
    """logscale[j, l] = log sqrt(w[l] d_j / q**n), the psi/phi conversion."""
    logw = _log_class_weights(params)
    out = 0.5 * (logw[None, :] + logw[:, None] - params.n * math.log(params.q))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _exact_table(params: SchemeParams) -> tuple:
    """Every exact `phi_row`, O(n**2)."""
    return tuple(phi_row(params, j, "exact") for j in range(params.n + 1))


@lru_cache(maxsize=8)
def _float_table(params: SchemeParams) -> np.ndarray:
    n, q = params.n, params.q
    if n <= 2:
        phi = np.array(
            [[float(v) for v in row] for row in _exact_table(params)]
        )
    else:
        if not float_table_supported(params):
            raise ResourceBudgetError(
                f"float table out of range at n={n}, q={q}; use the exact backend"
            )
        phi = _psi_table(params) * np.exp(-_logscale(params))
        # structural values are known exactly; pin them
        phi[0, :] = 1.0
        phi[:, 0] = 1.0
        phi[:, 1] = _float_lambdas(params)
        phi[1, :] = 1.0 - np.arange(n + 1) * q / (n * (q - 1))
    phi.flags.writeable = False
    return phi


def build_table(
    params: SchemeParams,
    backend: Backend = "exact",
    max_n: int = DEFAULT_TABLE_BUDGET,
) -> KrawtchoukTable:
    """Tabulate phi_j(l) over the full grid in the requested backend."""
    if params.n > max_n:
        raise ResourceBudgetError(
            f"table for n={params.n} exceeds the budget max_n={max_n}"
        )
    if backend == "exact":
        return KrawtchoukTable(params, _exact_table(params), "exact")
    if backend == "float":
        return KrawtchoukTable(params, _float_table(params), "float")
    raise ParameterError(f"unknown backend {backend!r}")


def phi_row(params: SchemeParams, j: int, backend: Backend = "float"):
    """Single row phi_j(0..n) without building the full table.

    Exact: K[j][l] / d_j over the cached `scaled_rows`, d_j = K[j][0].
    Float: the spliced recurrence of row j alone.
    """
    _check_indices(params, j, 0)
    n = params.n
    if backend == "exact":
        row = scaled_rows(params)[j]
        return tuple(Fraction(v, row[0]) for v in row)
    if n <= 2:
        return _float_table(params)[j].copy()
    if not float_table_supported(params):
        raise ResourceBudgetError(
            f"float row out of range at n={n}; use the exact backend"
        )
    logw = _log_class_weights(params)
    scale = 0.5 * (logw + logw[j] - n * math.log(params.q))
    return _psi_rows(params, [j])[0] * np.exp(-scale)


def formulas_agree(params: SchemeParams) -> bool:
    """Exact agreement of the two closed forms on the whole grid."""
    n = params.n
    return all(
        phi_hypergeometric(params, j, l) == phi_binomial(params, j, l)
        for j in range(n + 1)
        for l in range(n + 1)
    )


def orthogonality_exact(params: SchemeParams) -> bool:
    """Check sum_l w[l] phi_j(l) phi_j'(l) == delta_jj' * q**n / d_j exactly.

    Runs on the integer-scaled rows: with K[j][l] = phi_j(l) d_j the
    identity becomes sum_l w[l] K[j][l] K[j'][l] == delta_jj' * q**n * d_j.
    """
    n = params.n
    w = class_weights(params).w
    total = params.size
    rows = scaled_rows(params)
    d = [w[j] for j in range(n + 1)]  # d_j = (q-1)**j C(n,j) = w[j]
    for j in range(n + 1):
        for jp in range(j, n + 1):
            s = sum(w[l] * rows[j][l] * rows[jp][l] for l in range(n + 1))
            expect = total * d[j] if j == jp else 0
            if s != expect:
                return False
    return True


def orthogonality_residual(params: SchemeParams) -> float:
    """Max |Gram - I| entry for the float rows, in the dimensionless form
    sqrt(d_j d_j') sum_l (w[l]/q**n) phi_j phi_j' = delta_jj'."""
    n = params.n
    if n <= 2:
        psi = _float_table(params) * np.exp(_logscale(params))
    else:
        psi = _psi_table(params)
    gram = psi @ psi.T
    return float(np.max(np.abs(gram - np.eye(n + 1))))


def eigen_residual(params: SchemeParams) -> float:
    """Max |J psi_j - lam_j psi_j| entry over all rows, with closed-form
    eigenvalues; certifies the float rows really are the eigenvectors."""
    n = params.n
    if n <= 2:
        psi = _float_table(params) * np.exp(_logscale(params))
    else:
        psi = _psi_table(params)
    diag, off = _jacobi_coefficients(params)
    lams = _float_lambdas(params)
    res = psi * diag[None, :] - psi * lams[:, None]
    res[:, :-1] += psi[:, 1:] * off[None, :]
    res[:, 1:] += psi[:, :-1] * off[None, :]
    return float(np.max(np.abs(res)))
