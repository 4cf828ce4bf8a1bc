"""Spherical functions of H(n, q): the Krawtchouk polynomial family.

phi_j is the degree-j member, normalized to phi_j(0) = 1 and evaluated at
integer distances l = 0..n.  With d_j = (q-1)**j C(n,j), two independent
closed forms of the integer d_j phi_j(l) are implemented:

* a terminating hypergeometric sum,
    phi_j(l) = sum_{r=0}^{j} [(-j)_r (-l)_r / ((-n)_r r!)] * (q/(q-1))**r,
  taken term by term in its integer form
    d_j phi_j(l) = sum_r (-1)**r C(l,r) C(n-r, j-r) q**r (q-1)**(j-r),
* a binomial double sum,
    d_j phi_j(l) = sum_r (-1)**r C(l,r) C(n-l, j-r) (q-1)**(j-r).

They must agree exactly; that agreement is a test, not an assumption, and
it runs in integers.  The exact table itself is K[j][l] / d_j over the
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

`_float_rows` is the one float row builder (table, float `phi_row`, both
residual certificates): it splices all requested rows at once, then pins
the entries known exactly.  At n <= 2 there is nothing to splice (at
(n, q) = (2, 2) the window is a zero of phi_1): phi is the float of the
exact rows there, and psi follows from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Union

from ._numpy import np
from .scheme import (
    Backend,
    ParameterError,
    ResourceBudgetError,
    SchemeParams,
    class_weights,
    log_class_weights,
)

# The exact rows hold (n+1)**2 integers of up to n log2 q bits, and they
# are what `table` holds as it writes one row at a time: at q = 3 it peaks
# at 43 MB for n = 400 (1.0e8 bits) and 110 MB for n = 800 (8.1e8 bits).
# 10**9 bits keeps n = 800, refuses n >= 858 at q = 3, and caps one
# scheme's rows near 125 MB, which every exact reader of them holds.
EXACT_TABLE_BIT_BUDGET = 10 ** 9


def _check_indices(params: SchemeParams, j: int, l: int) -> None:
    if not (0 <= j <= params.n and 0 <= l <= params.n):
        raise ParameterError(
            f"class indices must lie in 0..{params.n}, got j={j}, l={l}"
        )


def phi_hypergeometric(params: SchemeParams, j: int, l: int) -> Fraction:
    """phi_j(l) via the terminating hypergeometric sum, exact."""
    _check_indices(params, j, l)
    n, q = params.n, params.q
    return Fraction(_hypergeometric_sum(n, q, j, l), math.comb(n, j) * (q - 1) ** j)


def _hypergeometric_sum(n: int, q: int, j: int, l: int) -> int:
    """phi_j(l) d_j = sum_r (-1)**r C(l,r) C(n-r,j-r) q**r (q-1)**(j-r): the
    hypergeometric series times d_j, each term an integer."""
    return sum(
        (-1) ** r * math.comb(l, r) * math.comb(n - r, j - r) * q ** r * (q - 1) ** (j - r)
        for r in range(min(j, l) + 1)
    )


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


# `verify lemmas` walks the 150 schemes q = 2..6, n <= 30 three times
# (lemmas 4.1, 4.2, 4.3(1)), and a cache smaller than that evicts each
# pass's rows before the next pass reads them.  256 entries hold them all
# (150 builds, 195 hits) in about 1.5 MB of integers.
@lru_cache(maxsize=256)
def scaled_rows(params: SchemeParams) -> tuple:
    """Integer matrix K with K[j][l] = phi_j(l) * d_j, d_j = (q-1)**j C(n,j).

    The scaled values are integers, which lets grid verifiers work in pure
    integer arithmetic; K[j][l] / d_j reproduces the exact table.  Built
    in O(n**2) from sum_j K[j][l] z**j = (1 - z)**l (1 + (q-1) z)**(n-l):
    column 0 is the class weights w, and column l+1 is column l divided
    exactly by 1 + (q-1) z, then multiplied by 1 - z.  Rows estimated past
    `EXACT_TABLE_BIT_BUDGET` bits are refused (`ResourceBudgetError`)
    before any is built; every exact table, `phi_row` and spectral
    inversion reads them.
    """
    n, q = params.n, params.q
    bits = (n + 1) ** 2 * n * math.log2(q)
    if bits > EXACT_TABLE_BIT_BUDGET:
        raise ResourceBudgetError(
            f"exact Krawtchouk rows at n={n}, q={q} hold ~{bits:.3g} bits, "
            f"past the budget of {EXACT_TABLE_BIT_BUDGET:.3g}"
        )
    cols = [class_weights(params).w]
    for _ in range(n):
        quot = list(accumulate(cols[-1][:-1], lambda r, p: p - (q - 1) * r))
        cols.append(tuple(a - b for a, b in zip(quot + [0], [0] + quot)))
    return tuple(zip(*cols))


@dataclass(frozen=True)
class KrawtchoukTable:
    """All values phi[j][l] on the (n+1) x (n+1) grid, row-major by j."""

    params: SchemeParams
    phi: Union[tuple, np.ndarray]
    backend: Backend


def float_table_supported(params: SchemeParams) -> bool:
    """Whether the symmetrized rows stay inside float64 range.

    The two recurrence halves grow by at most exp(n/2 * log q) (forward,
    from psi_j(0) = sqrt(d_j/q**n)) and exp(n * beta) (backward, from the
    corner value psi_j(n)), beta = log(q (1 + (q-1)**-3)) / 2, the larger
    exponent; it must stay clear of overflow.  Taken in logs, so any q
    gives an answer.
    """
    n, q = params.n, params.q
    beta = 0.5 * (math.log(q) + math.log1p(1 / (q - 1) ** 3))
    return n * beta <= 650.0


def _jacobi_coefficients(params: SchemeParams):
    """Diagonal, off-diagonal and eigenvalues lam_j of the weight-symmetrized
    transition matrix.  lam_j = (d - q j)/d is one correctly rounded
    division of Python integers at any q."""
    n, q = params.n, params.q
    d = n * (q - 1)
    ls = np.arange(n + 1, dtype=np.float64)
    diag = ls * (q - 2) / d
    off = np.sqrt((n - ls[:-1]) * (q - 1) * (ls[:-1] + 1)) / d
    lam = ((d - q * np.arange(n + 1, dtype=object)) / d).astype(np.float64)
    return diag, off, lam


def _float_rows(params: SchemeParams, js: np.ndarray):
    """(psi, phi) of rows js: unit-norm symmetrized rows and phi rows.

    Forward and backward sweeps run vectorized over the rows; entries past
    a row's splice point are the unstable half's garbage and are discarded
    by the splice, so overflow there is silenced and harmless.  Each half
    is anchored to a far corner of the row, so their raw scales can differ
    by hundreds of orders of magnitude; both are rescaled over a window
    around the row's oscillatory edge (the recurrence's turning point)
    before any product is formed, and joined where |f g| peaks in it.
    """
    n, q = params.n, params.q
    if n > 2 and not float_table_supported(params):  # refused before any array is built
        raise ResourceBudgetError(
            f"float table out of range at n={n}, q={q}; use the exact backend"
        )
    logw = log_class_weights(params)
    logscale = 0.5 * (logw[None, :] + logw[js][:, None] - n * math.log(q))
    if n <= 2:
        phi = np.array([[float(v) for v in phi_row(params, j, "exact")] for j in js])
        return phi * np.exp(logscale), phi
    diag, off, lam = _jacobi_coefficients(params)
    shift = lam[js][None, :] - diag[:, None]  # shift[l] = lam_j - diag[l]
    # l-major, so each step reads and writes contiguous rows
    f = np.zeros((n + 1, len(js)))
    g = np.zeros((n + 1, len(js)))
    with np.errstate(over="ignore", invalid="ignore"):
        f[0] = 1.0
        f[1] = shift[0] / off[0]
        for l in range(1, n):
            f[l + 1] = (shift[l] * f[l] - off[l - 1] * f[l - 1]) / off[l]
        g[n] = 1.0
        g[n - 1] = shift[n] / off[n - 1]
        for l in range(n - 1, 0, -1):
            g[l - 1] = (shift[l] * g[l] - off[l] * g[l + 1]) / off[l - 1]
    f, g = f.T, g.T

    # oscillatory edge: the larger root of the turning-point quadratic,
    # its coefficients in exact integers
    a = n * (q - 1) - q * js.astype(object)
    b = a * (q - 2) + 2 * n * (q - 1)
    disc = np.maximum(b * b - (q * q) * (a * a), 0)
    edge = (b.astype(np.float64) + np.sqrt(disc.astype(np.float64))) / (q * q)

    # splice window l in [mid - 2, mid + 2], clipped to 1..n-1
    mid = np.minimum(np.maximum(edge, 1.0), n - 1).astype(np.int64)
    cand = np.clip(mid[:, None] + np.arange(-2, 3), 1, n - 1)
    fm = np.max(np.abs(np.take_along_axis(f, cand, 1)), axis=1)
    gm = np.max(np.abs(np.take_along_axis(g, cand, 1)), axis=1)
    if not np.all((fm > 0) & (gm > 0) & np.isfinite(fm) & np.isfinite(gm)):
        raise ResourceBudgetError(f"degenerate splice window at n={n}")
    rows = np.arange(len(js))
    # from here each (n+1)**2 array is reused in place, the same IEEE
    # operations in the same order: `table --n 1000 --q 3 --backend float`
    # peaked at 100 MB when each made a new one
    del shift
    with np.errstate(over="ignore", invalid="ignore"):
        f /= fm[:, None]
        g /= gm[:, None]
        peak = np.abs(np.take_along_axis(f, cand, 1) * np.take_along_axis(g, cand, 1))
        s = cand[rows, np.argmax(peak, axis=1)]
        fs, gs = f[rows, s], g[rows, s]
        if not np.all((fs != 0) & (gs != 0)):
            raise ResourceBudgetError(
                f"degenerate splice at l={s[(fs == 0) | (gs == 0)][0]}, n={n}"
            )
        g *= (fs / gs)[:, None]
        psi = np.where(np.arange(n + 1) <= s[:, None], f, g)
    del f, g
    # one dot per row, the order np.linalg.norm sums in
    psi /= np.sqrt([row.dot(row) for row in psi])[:, None]

    np.negative(logscale, out=logscale)
    phi = np.multiply(psi, np.exp(logscale, out=logscale), out=logscale)
    # structural values are known exactly; pin them (phi_1(l) = phi_l(1) = lam_l)
    phi[js == 0, :] = 1.0
    phi[:, 0] = 1.0
    phi[:, 1] = lam[js]
    phi[js == 1, :] = lam
    return psi, phi


@lru_cache(maxsize=8)
def _float_table(params: SchemeParams) -> tuple:
    """Read-only (psi, phi) of every row; psi is orthonormal up to roundoff."""
    psi, phi = _float_rows(params, np.arange(params.n + 1))
    psi.flags.writeable = False
    phi.flags.writeable = False
    return psi, phi


def build_table(params: SchemeParams, backend: Backend = "exact") -> KrawtchoukTable:
    """Tabulate phi_j(l) over the full grid in the requested backend.

    Exact: every `phi_row`, O(n**2), uncached.  An exact table past the
    `scaled_rows` bit budget is refused (`ResourceBudgetError`) before
    any row is built.
    """
    if backend == "exact":
        rows = tuple(phi_row(params, j, "exact") for j in range(params.n + 1))
        return KrawtchoukTable(params, rows, "exact")
    if backend == "float":
        return KrawtchoukTable(params, _float_table(params)[1], "float")
    raise ParameterError(f"unknown backend {backend!r}")


def phi_row(params: SchemeParams, j: int, backend: Backend = "float"):
    """Single row phi_j(0..n) without building the full table.

    Exact: K[j][l] / d_j over the cached `scaled_rows`, d_j = K[j][0].
    Float: row j of `_float_rows` alone, bit for bit the table's row.
    """
    _check_indices(params, j, 0)
    if backend == "exact":
        row = scaled_rows(params)[j]
        return tuple(Fraction(v, row[0]) for v in row)
    if backend == "float":
        return _float_rows(params, np.array([j]))[1][0]
    raise ParameterError(f"unknown backend {backend!r}")


def formulas_agree(params: SchemeParams) -> bool:
    """Agreement of the two closed forms on the whole grid, in integers."""
    n, q = params.n, params.q
    return all(
        _hypergeometric_sum(n, q, j, l) == _binomial_sum(n, q, j, l)
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
    psi = _float_table(params)[0]
    gram = psi @ psi.T
    return float(np.max(np.abs(gram - np.eye(params.n + 1))))


def eigen_residual(params: SchemeParams) -> float:
    """Max |J psi_j - lam_j psi_j| entry over all rows, with closed-form
    eigenvalues; certifies the float rows really are the eigenvectors."""
    psi = _float_table(params)[0]
    diag, off, lams = _jacobi_coefficients(params)
    res = psi * diag[None, :] - psi * lams[:, None]
    res[:, :-1] += psi[:, 1:] * off[None, :]
    res[:, 1:] += psi[:, :-1] * off[None, :]
    return float(np.max(np.abs(res)))
