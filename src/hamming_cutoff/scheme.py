"""Distance-class combinatorics for the Hamming graph H(n, q).

Vertices are the q**n length-n words over a q-letter alphabet; two words
are adjacent when they differ in exactly one coordinate.  The walk started
at the all-zero word stays invariant under coordinate/letter symmetries,
so every distribution handled here is stored radially: one mass per
distance class l = 0..n, where class l holds w[l] = (q-1)**l * C(n, l)
vertices.  The per-point probability on class l is mass[l] / w[l].

Two arithmetic backends coexist.  ``exact`` keeps every mass a
`fractions.Fraction` (the ground-truth path); ``float`` keeps a read-only
numpy float64 vector (the fast path for n in the hundreds or thousands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal, Union

from ._numpy import np

Backend = Literal["exact", "float"]

MassVector = Union[tuple, "np.ndarray"]


class ParameterError(ValueError):
    """An argument left the supported parameter domain."""


class ResourceBudgetError(RuntimeError):
    """A computation would exceed a configured size budget."""


@dataclass(frozen=True)
class SchemeParams:
    """Word length n >= 1 and alphabet size q >= 2."""

    n: int
    q: int

    def __post_init__(self):
        for v in (self.n, self.q):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParameterError("n and q must be integers")
        if self.n < 1:
            raise ParameterError(f"word length n must be >= 1, got {self.n}")
        if self.q < 2:
            raise ParameterError(f"alphabet size q must be >= 2, got {self.q}")

    @property
    def ergodic(self) -> bool:
        """True iff the walk mixes to uniform: q >= 3 (q = 2 is bipartite)."""
        return self.q >= 3

    @property
    def degree(self) -> int:
        """Vertex degree n*(q-1), the one-step probability denominator."""
        return self.n * (self.q - 1)

    @property
    def size(self) -> int:
        """Number of vertices, q**n."""
        return self.q ** self.n


def make_scheme(n: int, q: int) -> SchemeParams:
    """Validate (n, q) and return the scheme parameters."""
    return SchemeParams(n, q)


@dataclass(frozen=True)
class ClassWeights:
    """Exact class sizes w[l] = (q-1)**l * C(n, l), summing to q**n."""

    params: SchemeParams
    w: tuple
    total: int


def _weights(params: SchemeParams):
    """Yield w[0], ..., w[n] by the exact recurrence w[l+1] = w[l] (n-l)
    (q-1) / (l+1), whose division is exact because w[l] (n-l) = (l+1)
    C(n, l+1) (q-1)**l.  Only the current weight is held."""
    n, q = params.n, params.q
    wl = 1
    yield wl
    for l in range(n):
        wl = wl * (n - l) * (q - 1) // (l + 1)
        yield wl


@lru_cache(maxsize=128)
def class_weights(params: SchemeParams) -> ClassWeights:
    """Sizes of the distance classes around the basepoint, as big integers
    (`_weights`), cached for the exact paths that read them again."""
    return ClassWeights(params, tuple(_weights(params)), params.size)


def log_class_weights(params: SchemeParams) -> np.ndarray:
    """log w[l] = log((q-1)**l C(n, l)) via lgamma, as a read-only float64
    array: `class_weights` for float paths, where w[l] may overflow.  Not
    cached: its callers cache what they derive from it."""
    n, q = params.n, params.q
    ls = np.arange(n + 1, dtype=np.float64)
    logw = (
        ls * math.log(q - 1)
        + math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(n - v + 1) for v in ls])
    )
    logw.flags.writeable = False
    return logw


@dataclass(frozen=True)
class RadialDistribution:
    """A probability distribution stored as one mass per distance class.

    ``mass[l]`` is the total probability carried by the w[l] vertices at
    distance l from the basepoint; entries are Fractions (exact backend)
    or a read-only float64 array (float backend).
    """

    params: SchemeParams
    mass: MassVector
    backend: Backend

    def __post_init__(self):
        if self.backend == "float":
            arr = np.array(self.mass, dtype=np.float64)  # own copy, frozen
            arr.flags.writeable = False
            object.__setattr__(self, "mass", arr)
        elif self.backend == "exact":
            object.__setattr__(self, "mass", tuple(self.mass))
        else:
            raise ParameterError(f"unknown backend {self.backend!r}")
        if len(self.mass) != self.params.n + 1:
            raise ParameterError("mass vector must have n+1 entries")

    def point_probability(self, l: int):
        """Probability of any single vertex at distance l: mass[l] / w[l]."""
        w = class_weights(self.params).w[l]
        m = self.mass[l]
        if self.backend == "exact":
            return m / w
        # w can exceed float range for large n; go through logs if needed
        fw = float(w) if w < 2 ** 1000 else math.inf
        if math.isfinite(fw):
            return m / fw
        if m == 0.0:
            return 0.0
        return math.copysign(math.exp(math.log(abs(m)) - _log_int(w)), m)

    def total_mass(self):
        """Sum of the class masses (1 for a normalized distribution)."""
        if self.backend == "exact":
            return sum(self.mass, Fraction(0))
        return math.fsum(self.mass)


def _log_int(v: int) -> float:
    """Natural log of a positive big integer without float overflow."""
    if v.bit_length() <= 900:
        return math.log(v)
    shift = v.bit_length() - 900
    return math.log(v >> shift) + shift * math.log(2.0)


@lru_cache(maxsize=256)
def uniform(params: SchemeParams, backend: Backend = "exact") -> RadialDistribution:
    """The stationary distribution: mass[l] = w[l] / q**n.

    Exact: Fractions of the cached `class_weights`.  Float: each mass is
    the correctly rounded quotient of w[l] and q**n, taken as `_weights`
    yields w[l], so no exact weight is cached or held past its class.
    """
    if backend == "exact":
        cw = class_weights(params)
        mass = tuple(Fraction(wl, cw.total) for wl in cw.w)
    else:
        total = params.size
        mass = np.array([wl / total for wl in _weights(params)], dtype=np.float64)
    return RadialDistribution(params, mass, backend)


def point_mass(params: SchemeParams, backend: Backend = "exact") -> RadialDistribution:
    """The k = 0 distribution, concentrated on the basepoint class."""
    n = params.n
    if backend == "exact":
        mass = (Fraction(1),) + (Fraction(0),) * n
    else:
        mass = np.zeros(n + 1)
        mass[0] = 1.0
    return RadialDistribution(params, mass, backend)


def tv_distance(a: RadialDistribution, b: RadialDistribution):
    """Total variation distance (1/2) sum_l |a.mass[l] - b.mass[l]|.

    Exact (a Fraction) when both operands use the exact backend, float64
    otherwise.  Equals the max over vertex subsets of the probability
    discrepancy because per-point values are constant on classes.  The
    float sum is `math.fsum` (correctly rounded, Shewchuk 1997) of the
    terms taken largest first, which keeps its list of partials short: at
    n = 500 the terms of a cutoff-window row span ~780 binades, and taken
    in class order that list grows long enough to dominate a float profile.
    """
    if a.params != b.params:
        raise ParameterError("distributions live on different schemes")
    if a.backend == "exact" and b.backend == "exact":
        return sum((abs(x - y) for x, y in zip(a.mass, b.mass)), Fraction(0)) / 2
    ax = np.asarray(a.mass, dtype=np.float64)
    bx = np.asarray(b.mass, dtype=np.float64)
    return tv_of_gaps(np.abs(ax - bx))


def tv_of_gaps(gaps: np.ndarray) -> float:
    """`tv_distance`'s float sum: half the `math.fsum` of gaps = |a.mass -
    b.mass|, largest first (sorted in place: the order sets the cost only)."""
    gaps.sort()
    return 0.5 * math.fsum(gaps[::-1].tolist())
