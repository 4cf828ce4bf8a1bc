"""Ground-truth engine: exact powering of the radial birth-death chain.

Projected onto distance classes, one step of the walk from class l moves

    down with probability l / (n(q-1)),
    stays with probability l(q-2) / (n(q-1)),
    up   with probability (n-l) / n,

because a vertex at distance l has l neighbours one class down, l(q-2)
sideways and (n-l)(q-1) one class up, each taken with probability
1/(n(q-1)).  The counting itself is certified against a brute-force
enumerator of the literal q**n-vertex graph (`enumerate_tiny`).

Exact powering keeps integer numerators over the common denominator
(n(q-1))**k (`kstep_numerators`), so no step pays a gcd; `radial_matrix`
and `power_step` are the Fraction reference for one step.  `kstep_tv`
turns either backend's trajectory into the distance to uniform.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scheme import (
    Backend,
    ParameterError,
    RadialDistribution,
    ResourceBudgetError,
    SchemeParams,
    class_weights,
    point_mass,
    uniform,
)

DEFAULT_BIT_BUDGET = 10 ** 6
DEFAULT_STATE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class RadialMatrix:
    """Tridiagonal transition probabilities of the distance chain."""

    params: SchemeParams
    down: tuple
    stay: tuple
    up: tuple


def radial_matrix(params: SchemeParams) -> RadialMatrix:
    """Exact down/stay/up probabilities for every current class l."""
    n, q = params.n, params.q
    d = params.degree
    down = tuple(Fraction(l, d) for l in range(n + 1))
    stay = tuple(Fraction(l * (q - 2), d) for l in range(n + 1))
    up = tuple(Fraction(n - l, n) for l in range(n + 1))
    return RadialMatrix(params, down, stay, up)


def power_step(dist: RadialDistribution, m: RadialMatrix) -> RadialDistribution:
    """One convolution step on the distance chain.

    mass'[l] = mass[l-1] up[l-1] + mass[l] stay[l] + mass[l+1] down[l+1];
    exact when the input is exact.  No k-step engine calls it.
    """
    if dist.params != m.params:
        raise ParameterError("distribution and matrix live on different schemes")
    n = dist.params.n
    old = dist.mass
    new = []
    for l in range(n + 1):
        acc = old[l] * m.stay[l]
        if l > 0:
            acc += old[l - 1] * m.up[l - 1]
        if l < n:
            acc += old[l + 1] * m.down[l + 1]
        new.append(acc)
    return RadialDistribution(dist.params, new, dist.backend)


def _sorted_steps(ks) -> tuple:
    ks = tuple(ks)
    if any(k < 0 for k in ks):
        raise ParameterError("step count k must be >= 0")
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ParameterError("step counts must be sorted and distinct")
    return ks


def int_power_step(num: list, n: int, q: int) -> list:
    """`power_step` multiplied through by n(q-1): numerators over
    (n(q-1))**k in, numerators over (n(q-1))**(k+1) out."""
    out = []
    for l in range(n + 1):
        acc = num[l] * (l * (q - 2))
        if l > 0:
            acc += num[l - 1] * ((n - l + 1) * (q - 1))
        if l < n:
            acc += num[l + 1] * (l + 1)
        out.append(acc)
    return out


def kstep_numerators(params: SchemeParams, ks, bit_budget=DEFAULT_BIT_BUDGET):
    """Yield (k, num) for sorted, distinct ks; num[l] = mass[l] (n(q-1))**k.

    The package's one exact k-step loop, max(ks) integer steps in all.
    Raises `ResourceBudgetError` once the sum of the numerators' bit
    lengths exceeds `bit_budget` (`math.inf`: no bound).
    """
    n, q = params.n, params.q
    bounded = bit_budget < math.inf  # the bit count costs ~20 % of a step
    num = [1] + [0] * n
    done = 0
    for k in _sorted_steps(ks):
        for step in range(done + 1, k + 1):
            num = int_power_step(num, n, q)
            if bounded and sum(v.bit_length() for v in num) > bit_budget:
                raise ResourceBudgetError(
                    f"exact numerators exceeded {bit_budget} bits at n={n}, k={step}"
                )
        done = k
        yield k, num


def kstep_trajectory(
    params: SchemeParams, ks, backend: Backend, bit_budget=DEFAULT_BIT_BUDGET
):
    """Yield (k, distribution) for sorted, distinct ks in one pass.

    Exact: Fractions over `kstep_numerators`, bounded by `bit_budget`.
    Float: the package's one float k-step loop, O(n * max(ks)) work.
    """
    if backend == "exact":
        d = params.degree
        for k, num in kstep_numerators(params, ks, bit_budget):
            dk = d ** k
            mass = tuple(Fraction(v, dk) for v in num)
            yield k, RadialDistribution(params, mass, "exact")
        return
    if backend != "float":
        raise ParameterError(f"unknown backend {backend!r}")
    down, stay, up = float_step_arrays(params)
    mass = point_mass(params, "float").mass
    done = 0
    for k in _sorted_steps(ks):
        for _ in range(k - done):
            mass = float_power_step(mass, down, stay, up)
        done = k
        yield k, RadialDistribution(params, mass, "float")


def kstep_tv(params: SchemeParams, ks, backend: Backend, bit_budget=DEFAULT_BIT_BUDGET):
    """Yield (k, tv to uniform) for sorted, distinct ks in one pass.

    tv = (1/2) sum_l |mass[l] - w[l]/q**n|, both laws being constant on
    classes (Levin-Peres-Wilmer, *Markov Chains and Mixing Times*, Prop.
    4.2).  Exact: the Fraction sum_l |num[l] q**n - w[l] D| / (2 q**n D),
    D = (n(q-1))**k, over `kstep_numerators`; no distribution is built.
    Float: `scheme.tv_distance` of the float trajectory, bit for bit.
    """
    if backend == "exact":
        w, big_q, d = class_weights(params).w, params.size, params.degree
        for k, num in kstep_numerators(params, ks, bit_budget):
            dk = d ** k
            t = sum(abs(v * big_q - wl * dk) for v, wl in zip(num, w))
            yield k, Fraction(t, 2 * big_q * dk)
        return
    pi = uniform(params, "float").mass
    for k, dist in kstep_trajectory(params, ks, backend):
        yield k, 0.5 * math.fsum(np.abs(dist.mass - pi))


def kstep_oracle(
    params: SchemeParams, k: int, bit_budget=DEFAULT_BIT_BUDGET
) -> RadialDistribution:
    """k exact steps of the distance chain from the basepoint."""
    return next(kstep_trajectory(params, (k,), "exact", bit_budget))[1]


def enumerate_tiny_steps(
    params: SchemeParams, k_max: int, max_states: int = DEFAULT_STATE_BUDGET
):
    """Yield the brute-force distribution at k = 0, 1, ..., k_max in turn.

    Works on the literal q**n-vertex graph with integer numerators over the
    implicit denominator (n(q-1))**k: a step replaces the value at x by the
    sum over coordinates i of (column-sum over letter values at i) minus
    n * value(x).  Each step is compressed by distance class and must equal
    `kstep_oracle` exactly.
    """
    if k_max < 0:
        raise ParameterError("step count k must be >= 0")
    n, q = params.n, params.q
    if params.size > max_states:
        raise ResourceBudgetError(
            f"q**n = {params.size} exceeds the state budget {max_states}"
        )
    shape = (q,) * n
    state = np.zeros(shape, dtype=object)
    state[(0,) * n] = 1

    nonzero = (np.arange(q) != 0).astype(np.int64)
    dist = np.zeros(shape, dtype=np.int64)
    for axis in range(n):
        idx = [1] * n
        idx[axis] = q
        dist = dist + nonzero.reshape(idx)
    masks = [dist == l for l in range(n + 1)]

    denominator = 1
    for k in range(k_max + 1):
        if k:
            acc = np.zeros(shape, dtype=object)
            for axis in range(n):
                acc = acc + state.sum(axis=axis, keepdims=True)
            state = acc - n * state
            denominator *= params.degree
        mass = tuple(
            Fraction(int(state[m].sum()), denominator) for m in masks
        )
        yield RadialDistribution(params, mass, "exact")


def enumerate_tiny(
    params: SchemeParams, k: int, max_states: int = DEFAULT_STATE_BUDGET
) -> RadialDistribution:
    """Brute-force k-step distribution on the literal q**n-vertex graph."""
    for dist in enumerate_tiny_steps(params, k, max_states):
        pass
    return dist


def float_step_arrays(params: SchemeParams):
    """down/stay/up rows as float64 arrays, for the float powering engine.

    Each entry is one correctly rounded division of two exact integers, so
    it equals the float of the matching `radial_matrix` Fraction.
    """
    n, q = params.n, params.q
    d = params.degree
    l = np.arange(n + 1)
    return l / d, l * (q - 2) / d, (n - l) / n


def float_power_step(mass: np.ndarray, down, stay, up) -> np.ndarray:
    """One float radial step; all coefficients nonnegative, so no
    cancellation and errors stay at the roundoff level for any k."""
    new = mass * stay
    new[1:] += mass[:-1] * up[:-1]
    new[:-1] += mass[1:] * down[1:]
    return new


def kstep_float_powering(params: SchemeParams, k: int) -> RadialDistribution:
    """k float steps of the distance chain from the basepoint.

    The float k-step engine: O(n k) work, stable at any (n, k), because
    every step only adds nonnegative products.
    """
    return next(kstep_trajectory(params, (k,), "float"))[1]


def reversibility_holds(params: SchemeParams) -> bool:
    """Detailed balance w[l] up[l] == w[l+1] down[l+1], exactly."""
    m = radial_matrix(params)
    w = class_weights(params).w
    return all(
        w[l] * m.up[l] == w[l + 1] * m.down[l + 1] for l in range(params.n)
    )
