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
and `power_step` are the Fraction reference for one step.  The uniform
law is stationary, so the excess e = num q**n - w (n(q-1))**k of the
k-step law over it obeys the same integer step (`kstep_excess`); both
walk one loop, which prices each requested k's bits before it steps
toward it (`bit_price`, the one price every reader of an exact walk's
bits calls).  Float powering has one loop too, `float_lockstep`: it
packs the schemes of a whole grid end to end in one array, steps them
all with one `float_power_step` call per step, each row resuming from
the latest state an earlier float trajectory on its scheme yielded, and
yields the masses.  Elementwise IEEE arithmetic rounds the same at any
array layout and a neighbouring row adds exact zeros, so a row's masses
are bit for bit those of its scheme walked alone.  Both loops yield
states, not distances, and plan before they build or step anything
(`_check_plan`): a pass or walk past `FLOAT_STEP_BUDGET` class-steps or
`STEP_CALL_BUDGET` steps raises `ResourceBudgetError`.  `kstep_tv` turns
the exact excess, or the float masses, into the distance to uniform.
"""

import heapq
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .scheme import (
    Backend,
    ParameterError,
    RadialDistribution,
    ResourceBudgetError,
    SchemeParams,
    class_weights,
    tv_of_gaps,
    uniform,
)

DEFAULT_BIT_BUDGET = 10 ** 6
DEFAULT_STATE_BUDGET = 10 ** 6
FLOAT_STEP_BUDGET = 10 ** 11
"""Most class-steps, sum over rows of (last k - resumed k0)(n+1), one
`float_lockstep` pass may plan, and (last k)(n+1) one exact walk.  The
largest passes asked of the package are dense grids of every n <= 2000
at c = 3 (`minorant_sweep(q, 1, c=3, n_grid=range(1, 2001))`): 4.4e9
class-steps at q = 3 (66 s in process), 6.0e9 at q = 5 (119 s) and
7.3e9 at q = 8.  The default minorant sweeps plan <= 1.6e8, default
`verify majorant` 6.0e5 and the n = 500 window 9.1e5 (float or exact).
10**11 leaves ten times the largest of these, yet refuses 10**12 steps
of H(3, 3) (4e12 class-steps), where `bounds.float_tv_error` is inf past
k = 2**41 anyway.  Narrow rows pay a per-step overhead of microseconds,
so at small n this bounds the work, not the time: `STEP_CALL_BUDGET`
bounds the steps."""
STEP_CALL_BUDGET = 10 ** 7
"""Most steps, max over rows of last k - resumed k0, one `float_lockstep`
pass may plan: each is one `float_power_step` call, 2.3-3.9 us of
dispatch however narrow the rows, which `FLOAT_STEP_BUDGET` does not
see (10**6 steps of H(3, 3), `profile --n 3 --q 3 --k-min 1000000
--k-max 1000000 --backend float`, took 2.5-4.1 s with 0.2-0.3 s of
start-up over 8 runs on a 2-core Intel Xeon).  The largest passes asked
of the package take about 1.1e4 steps (dense grids of every n <= 2000
at c = 3, q <= 8), the n = 500 window 1818, and the n = 10**5 cutoff
window of ROADMAP item 7 about 5.4e5 (k = b_n (log n(q-1) + 4) at q =
3).  10**7 leaves 18 times the largest of these, 25-40 s of narrow
steps, and refuses the 10**10 steps of a profile of H(3, 3) that plans
only 4e10 class-steps.  The exact chain (`_int_chain`) plans its walk by
the same two budgets, and `montecarlo.simulate` its k sampler steps of
2(n+1) binomial draws each: 20-32 us a step at n = 3, 27-49 us at n =
300, 79-111 us at n = 2000 (q = 5) and 215-236 us at n = 9999, with 1
or 1000 walks (in process, 3 runs each, same 2-core Xeon).  Its draw
budget walks*k <= 10**10 leaves at most 1000 walks at 10**7 steps, so a
sampler run the rule admits takes at most about 8 min at n <= 300, 18
min at n = 2000 and 40 min at n = 9999, the widest row the class-step
budget lets run 10**7 steps.  The longest sampler run the package asks
for is 5000 steps (`simulate --n 2000 --q 5 --k 5000` in CI)."""


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


def _sorted_steps(ks):
    """ks as a sequence, checked to be sorted, distinct and >= 0.  A
    `range` is checked from its ends and step and returned unbuilt, so a
    grid of 10**10 steps costs nothing until a planning check refuses it;
    any other iterable becomes a tuple."""
    if isinstance(ks, range):
        low = min(ks[0], ks[-1]) if ks else 0
        ordered = not ks or ks.step > 0 or ks[0] == ks[-1]
    else:
        ks = tuple(ks)
        low = min(ks, default=0)
        ordered = all(a < b for a, b in zip(ks, ks[1:]))
    if low < 0:
        raise ParameterError("step count k must be >= 0")
    if not ordered:
        raise ParameterError("step counts must be sorted and distinct")
    return ks


def _check_plan(what: str, class_steps: int, steps: int) -> None:
    """The planning rule of both k-step loops and of the class-histogram
    sampler (`montecarlo.simulate`), applied once before the first step:
    `ResourceBudgetError` past `FLOAT_STEP_BUDGET` class-steps or past
    `STEP_CALL_BUDGET` steps."""
    if class_steps > FLOAT_STEP_BUDGET:
        raise ResourceBudgetError(
            f"{what} of {class_steps} class-steps exceeds the budget {FLOAT_STEP_BUDGET}"
        )
    if steps > STEP_CALL_BUDGET:
        raise ResourceBudgetError(
            f"{what} of {steps} steps exceeds the step budget {STEP_CALL_BUDGET}"
        )


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


def _check_bit_budget(bit_budget) -> None:
    if bit_budget < 0:
        raise ParameterError(f"bit budget must be >= 0, got {bit_budget}")


def bit_price(params: SchemeParams, start: list, k: int) -> int:
    """At least sum_l bitlen(v[l]), v the state k `int_power_step`s from
    `start`: each column of the step is nonnegative and sums to d =
    n(q-1), and a step widens the support by at most one class, so this
    is (min(n, top + k) + 1)(k bitlen(d) + bitlen(||start||_1)), top the
    last nonzero class of `start`.  The one price of an exact walk's bits."""
    top = next((l for l in range(len(start) - 1, -1, -1) if start[l]), 0)
    norm = sum(map(abs, start))
    return (min(params.n, top + k) + 1) * (k * params.degree.bit_length() + norm.bit_length())


def _check_bits(what: str, params: SchemeParams, start: list, k: int, bit_budget) -> None:
    """`ResourceBudgetError` when `bit_price` passes `bit_budget`."""
    price = bit_price(params, start, k)
    if price > bit_budget:
        raise ResourceBudgetError(f"{what} at n={params.n}, q={params.q}, k={k} may hold "
                                  f"{price} bits, past the budget {bit_budget}")


def _int_chain(params: SchemeParams, vec: list, ks, bit_budget, what: str):
    """The package's one exact k-step loop: yield (k, vec after k steps)
    for sorted, distinct ks, max(ks) `int_power_step`s in all.

    Before any step: a negative `bit_budget` is a `ParameterError`, and
    a walk past `_check_plan`'s budgets (max(ks)(n+1) class-steps, max(ks)
    steps) a `ResourceBudgetError`.  Before any step toward each k > 0,
    so after every earlier k is served: `ResourceBudgetError` when the
    `bit_price` of k steps from vec passes a finite `bit_budget`.  The
    price rises with k, so the walk prices max(ks) once, and each k only
    when that price is past the budget.
    """
    _check_bit_budget(bit_budget)
    n, q = params.n, params.q
    ks = _sorted_steps(ks)
    if not ks:
        return
    _check_plan(what, ks[-1] * (n + 1), ks[-1])
    start, done = vec, 0
    tight = bit_budget < math.inf and bit_price(params, start, ks[-1]) > bit_budget
    for k in ks:
        if k and tight:
            _check_bits(what, params, start, k, bit_budget)
        for _ in range(k - done):
            vec = int_power_step(vec, n, q)
        done = k
        yield k, vec


def kstep_numerators(params: SchemeParams, ks, bit_budget=DEFAULT_BIT_BUDGET):
    """Yield (k, num) for sorted, distinct ks; num[l] = mass[l] (n(q-1))**k.
    `_int_chain` from the point mass, priced against `bit_budget`."""
    return _int_chain(params, [1] + [0] * params.n, ks, bit_budget, "exact numerators walk")


def _excess_start(params: SchemeParams) -> list:
    """q**n delta_0 - w, `kstep_excess`'s state at k = 0."""
    return [params.size * (l == 0) - v for l, v in enumerate(class_weights(params).w)]


def kstep_excess(params: SchemeParams, ks, bit_budget=DEFAULT_BIT_BUDGET):
    """Yield (k, e) for sorted, distinct ks; e[l] = num[l] q**n - w[l] D,
    D = (n(q-1))**k: the excess over uniform, in integers over q**n D.

    `int_power_step` maps w D**k to w D**(k+1) (the uniform law is
    stationary), so `_int_chain` walks e from `_excess_start`, priced
    against `bit_budget`.  sum(map(abs, e)) = 2 tv q**n D.
    """
    return _int_chain(params, _excess_start(params), ks, bit_budget, "exact excess walk")


_MARKS_LOCK = threading.Lock()  # guards every `_float_marks` holder


@lru_cache(maxsize=32)
def _float_marks(params: SchemeParams) -> list:
    """The latest float state a trajectory on this scheme yielded, as a
    one-slot holder [k, mass] ([0, None] until one is recorded).

    Each mass is the read-only array of a yielded law and is never
    written; every later yield on the scheme overwrites the slot.  32
    schemes are kept, one (n+1)-class state each.  A pass holds its rows'
    holders until it ends, so a scheme the cache drops mid-pass costs at
    most one more state.
    """
    return [0, None]


def kstep_trajectory(
    params: SchemeParams, ks, backend: Backend, bit_budget=DEFAULT_BIT_BUDGET
):
    """Yield (k, distribution) for sorted, distinct ks in one pass.

    Exact: Fractions over `kstep_numerators`, priced against `bit_budget`.
    Float: the one-row case of `float_lockstep`: O(n (max(ks) - k0)) work
    from the scheme's latest checkpoint k0 when 0 < k0 <= min(ks), else
    from k0 = 0, with the masses bit for bit those of a walk from k = 0.
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
    for _, k, mass in float_lockstep(((params, ks),)):
        yield k, RadialDistribution(params, mass, "float")


def float_lockstep(jobs):
    """Yield (i, k, mass) for each job i = (params, ks), ks sorted and
    distinct: the package's one float k-step loop, which only plans,
    resumes, packs and steps; mass is the law's read-only masses.

    A row resumes from its scheme's latest state k0 (`_float_marks`) when
    0 < k0 <= min(ks), else from the point mass at k0 = 0, and each state
    it yields at k > 0 overwrites that holder.  A pass past
    `FLOAT_STEP_BUDGET` or `STEP_CALL_BUDGET`, planned from each row's n,
    ks and k0, raises `ResourceBudgetError` (`_check_plan`) before any
    array is built.  The rows lie end to end in one zero-guarded array
    (down[0] = up[n] = 0, so no mass crosses between rows), and one
    `float_power_step` call into the other of two reused buffers steps
    every row short of its last k.  Rows are sorted by the steps they have
    left, so finished rows leave as a prefix.  Events (k - k0, row, k),
    merged in order from the rows' own sorted ks, drive the pass: step up
    to each event, then yield its row.  IEEE elementwise operations round
    the same at any layout and a neighbouring row adds an exact 0.0, so
    each mass is bit for bit that of the scheme walked alone from k = 0.
    """
    rows = []  # (steps left, job index, params, ks, k0, start masses, holder)
    for i, (params, ks) in enumerate(jobs):
        ks = _sorted_steps(ks)
        if not ks:
            continue
        holder = _float_marks(params)
        with _MARKS_LOCK:
            k0, start = holder
        if not 0 < k0 <= ks[0]:
            k0, start = 0, (1.0,)  # the point mass: 1.0 at class 0, zeros after
        rows.append((ks[-1] - k0, i, params, ks, k0, start, holder))
    if not rows:
        return
    _check_plan("float pass", sum(row[0] * (row[2].n + 1) for row in rows),
                max(row[0] for row in rows))
    rows.sort(key=lambda row: row[:2])

    def schedule(j, row):  # row j's events (k - k0, j, k), already in order
        return ((k - row[4], j, k) for k in row[3])

    events = heapq.merge(*(schedule(j, row) for j, row in enumerate(rows)))
    offs = list(accumulate((row[2].n + 1 for row in rows), initial=1))  # row j: offs[j]:offs[j+1]
    down, stay, up, *bufs = arrays = np.zeros((6, offs[-1] + 1))  # bufs: 2 masses, scratch
    for j, row in enumerate(rows):
        arrays[:3, offs[j]:offs[j + 1]] = float_step_arrays(row[2])
        bufs[0][offs[j]:offs[j] + len(row[5])] = row[5]
    done = lo = cur = 0  # steps taken; rows[:lo] are finished; bufs[cur] holds the masses
    live = None
    for until, j, k in events:
        if done < until:
            while rows[lo][0] <= done:  # drop finished rows
                lo += 1
            if live != lo:  # views of the live rows' classes a..b-1, from either buffer
                live, a, b = lo, offs[lo], offs[-1]
                ops = [(bufs[s][a:b], stay[a:b], bufs[s][a - 1:b - 1], up[a - 1:b - 1],
                        bufs[s][a + 1:b + 1], down[a + 1:b + 1], bufs[1 - s][a:b],
                        bufs[2][a:b]) for s in (0, 1)]
            for _ in range(until - done):  # step up to the next event
                float_power_step(*ops[cur])
                cur = 1 - cur
            done = until
        i, holder = rows[j][1], rows[j][6]
        mass = bufs[cur][offs[j]:offs[j + 1]].copy()
        mass.flags.writeable = False
        if k:
            with _MARKS_LOCK:
                holder[:] = k, mass
        yield i, k, mass


def kstep_tv(params: SchemeParams, ks, backend: Backend, bit_budget=DEFAULT_BIT_BUDGET):
    """Yield (k, tv to uniform) for sorted, distinct ks in one pass.

    tv = (1/2) sum_l |mass[l] - w[l]/q**n|, both laws being constant on
    classes (Levin-Peres-Wilmer, *Markov Chains and Mixing Times*, Prop.
    4.2).  Exact: the Fraction sum(map(abs, e)) / (2 q**n (n(q-1))**k)
    over `kstep_excess`, priced against `bit_budget`; no distribution is
    built.  Float: `scheme.tv_of_gaps` of |mass - pi| over the one-row
    `float_lockstep` pass, pi the float uniform law fetched after its plan:
    bit for bit `scheme.tv_distance`; no distribution is built.
    A negative `bit_budget` is a `ParameterError` before any step on
    either backend, though only the exact one reads it.
    """
    _check_bit_budget(bit_budget)
    if backend == "exact":
        big_q, d = params.size, params.degree
        for k, e in kstep_excess(params, ks, bit_budget):
            yield k, Fraction(sum(map(abs, e)), 2 * big_q * d ** k)
        return
    if backend != "float":
        raise ParameterError(f"unknown backend {backend!r}")
    pi = None
    for _, k, mass in float_lockstep(((params, ks),)):
        if pi is None:
            pi = uniform(params, "float").mass
        yield k, tv_of_gaps(np.abs(mass - pi))


def kstep_oracle(
    params: SchemeParams, k: int, bit_budget=DEFAULT_BIT_BUDGET
) -> RadialDistribution:
    """k exact steps of the distance chain from the basepoint."""
    return next(kstep_trajectory(params, (k,), "exact", bit_budget))[1]


def enumerate_tiny_steps(params: SchemeParams, k_max: int):
    """Yield the brute-force distribution at k = 0, 1, ..., k_max in turn.

    Works on the literal q**n-vertex graph with integer numerators over the
    implicit denominator (n(q-1))**k: a step replaces the value at x by the
    sum over coordinates i of (column-sum over letter values at i) minus
    n * value(x).  Each step is compressed by distance class and must equal
    `kstep_oracle` exactly.  A graph of more than `DEFAULT_STATE_BUDGET`
    vertices is refused (`ResourceBudgetError`) before any array is built.
    """
    if k_max < 0:
        raise ParameterError("step count k must be >= 0")
    n, q = params.n, params.q
    if params.size > DEFAULT_STATE_BUDGET:
        raise ResourceBudgetError(
            f"q**n = {params.size} exceeds the state budget {DEFAULT_STATE_BUDGET}"
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


def enumerate_tiny(params: SchemeParams, k: int) -> RadialDistribution:
    """Brute-force k-step distribution on the literal q**n-vertex graph."""
    for dist in enumerate_tiny_steps(params, k):
        pass
    return dist


@lru_cache(maxsize=32)
def float_step_arrays(params: SchemeParams):
    """down/stay/up rows as one read-only (3, n+1) float64 array, for the
    float powering engine; every trajectory on a scheme reads the same.

    Each entry is one correctly rounded division of two exact (Python)
    integers, so it equals the float of the matching `radial_matrix`
    Fraction at any q.
    """
    n, q = params.n, params.q
    d = params.degree
    l = np.arange(n + 1, dtype=object)
    rows = np.array([l / d, l * (q - 2) / d, (n - l) / n], dtype=np.float64)
    rows.flags.writeable = False
    return rows


def float_power_step(mass, stay, prev, up, nxt, down, out, tmp) -> np.ndarray:
    """One float radial step into `out`, allocating nothing: (mass stay +
    prev up) + nxt down per class, prev and nxt the masses one class
    below and above (`tmp` is scratch).  No coefficient is negative, so
    nothing cancels and errors stay at the roundoff level for any k."""
    np.multiply(mass, stay, out=out)
    np.multiply(prev, up, out=tmp)
    out += tmp
    np.multiply(nxt, down, out=tmp)
    out += tmp
    return out


def reversibility_holds(params: SchemeParams) -> bool:
    """Detailed balance w[l] up[l] == w[l+1] down[l+1], exactly."""
    m = radial_matrix(params)
    w = class_weights(params).w
    return all(
        w[l] * m.up[l] == w[l + 1] * m.down[l + 1] for l in range(params.n)
    )
