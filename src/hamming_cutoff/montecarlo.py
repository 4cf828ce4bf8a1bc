"""Stochastic oracle: seeded sampling of the distance chain.

`simulate` samples the class histogram, not the walks.  Given their
classes, walks move independently, so the count vector c is itself a
Markov chain: each step, the walks in class l split into down / stay / up
moves by one multinomial draw, taken as two binomials (down, then up among
the rest).  The histogram after k steps therefore has exactly the law of
`walks` independent walks, Multinomial(walks, nu_k), at O((n+1) k) cost
however many walks are asked for.  Results are a pure function of
(params, k, walks, seed).

A literal-graph sampler, `simulate_literal`, exists for tiny state spaces
purely to cross-check it in distribution.  It samples walk by walk: each
walk is a vertex index in [0, q**n), read as n base-q digits.  One
Philox(key=seed) generator is read in order.  Walks go in consecutive
chunks of `_BLOCK`, and for each chunk and each step one integer in
[0, n(q-1)) per walk picks the coordinate and the shift, so its counts
too are a pure function of (params, k, walks, seed).

Budgets are module constants, checked before the first draw, so a
refused request builds no generator (`ResourceBudgetError`).  Both
samplers cap walks*k at `DEFAULT_DRAW_BUDGET` (`_check_draws`): the
literal sampler's work, one draw per walk-step.  `simulate` also plans
its own work, k steps of 2(n+1) binomials, by `radial._check_plan`, the
rule of the k-step loops: k(n+1) class-steps within `FLOAT_STEP_BUDGET`
and k steps within `STEP_CALL_BUDGET`.  `simulate_literal` refuses
q**n past `LITERAL_STATE_BUDGET` vertices.
"""

from dataclasses import dataclass

import numpy as np

from .radial import _check_plan
from .scheme import (
    ParameterError,
    RadialDistribution,
    ResourceBudgetError,
    SchemeParams,
    tv_distance,
    uniform,
)

DEFAULT_DRAW_BUDGET = 10 ** 10  # walks*k, the walk-steps a sample stands for
LITERAL_STATE_BUDGET = 10 ** 4  # q**n, the vertices `simulate_literal` tabulates
_BLOCK = 1 << 16  # walks per literal chunk; bounds memory, fixed so counts stay seeded


@dataclass(frozen=True)
class SimConfig:
    """One reproducible experiment: (params, k, walks, seed)."""

    params: SchemeParams
    k: int
    walks: int
    seed: int

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError("step count k must be >= 0")
        if self.walks < 1:
            raise ParameterError("need at least one walk")
        if self.walks >= 2 ** 63:  # the class counts are int64
            raise ParameterError("walks must be < 2**63")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class EmpiricalResult:
    """Per-class visit counts at step k with multinomial standard errors."""

    config: SimConfig
    counts: np.ndarray
    point_estimate: RadialDistribution
    stderr: np.ndarray


def _result(cfg: SimConfig, counts: np.ndarray) -> EmpiricalResult:
    """The class frequencies of `counts` with their multinomial standard errors."""
    freq = counts / cfg.walks
    stderr = np.sqrt(freq * (1 - freq) / cfg.walks)
    return EmpiricalResult(cfg, counts, RadialDistribution(cfg.params, freq, "float"), stderr)


def _check_draws(cfg: SimConfig) -> None:
    """Both samplers' cap, before the first draw: `ResourceBudgetError`
    past `DEFAULT_DRAW_BUDGET` walk-steps walks*k."""
    if cfg.walks * cfg.k > DEFAULT_DRAW_BUDGET:
        raise ResourceBudgetError(
            f"walks*k = {cfg.walks * cfg.k} exceeds the draw budget {DEFAULT_DRAW_BUDGET}"
        )


def simulate(cfg: SimConfig) -> EmpiricalResult:
    """Sample the k-step class histogram of cfg.walks walks; deterministic per seed.

    Before the first draw, walks*k is capped by `_check_draws`, and the
    sampler's own work, k steps of 2(n+1) binomials, by
    `radial._check_plan` (k(n+1) class-steps, k steps).  Per step, from
    Philox(key=seed): down_l ~ Bin(c_l, l/(n(q-1))), then up_l ~
    Bin(c_l - down_l, (n-l)(q-1)/(n(q-1) - l)), the up probability given
    not down (0 where that denominator is 0, i.e. q = 2 and l = n).  Each
    probability is one correctly rounded division of exact integers.
    """
    n, q, d = cfg.params.n, cfg.params.q, cfg.params.degree
    _check_draws(cfg)
    _check_plan("class-histogram sampler", cfg.k * (n + 1), cfg.k)
    p_down = np.array([l / d for l in range(n + 1)])
    p_up = np.array([(n - l) * (q - 1) / (d - l) if d > l else 0.0
                     for l in range(n + 1)])
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = cfg.walks
    for _ in range(cfg.k):
        down = gen.binomial(counts, p_down)
        up = gen.binomial(counts - down, p_up)
        counts -= down + up
        counts[:-1] += down[1:]  # down[0] = 0
        counts[1:] += up[:-1]  # up[n] = 0
    return _result(cfg, counts)


@dataclass(frozen=True)
class EmpiricalTV:
    estimate: float
    note: str


def plugin_tv(result: EmpiricalResult) -> EmpiricalTV:
    """Plug-in TV estimate between the empirical walk law and uniform.

    The plug-in estimator is positively biased near stationarity (it sees
    sampling noise as distance), hence the attached warning note.
    """
    return EmpiricalTV(
        tv_distance(result.point_estimate, uniform(result.config.params, "float")),
        "plug-in TV estimate; positively biased once the walk nears uniform",
    )


def empirical_tv(cfg: SimConfig) -> EmpiricalTV:
    """Sample `cfg` and return its `plugin_tv`."""
    return plugin_tv(simulate(cfg))


def simulate_literal(cfg: SimConfig) -> EmpiricalResult:
    """Cross-check sampler on the literal q**n graph (tiny spaces only).

    Each step draws r in [0, n(q-1)) per walk: coordinate r // (q-1) moves
    from letter a to (a + 1 + r % (q-1)) mod q, a uniform other letter.
    The class of a vertex is its number of nonzero digits, read from a
    q**n table; no class probability is used, so it agrees with `simulate`
    in distribution only.  Before the first draw, q**n past
    `LITERAL_STATE_BUDGET` and walks*k past `_check_draws`'s cap (one
    draw per walk-step) raise `ResourceBudgetError`.
    """
    params = cfg.params
    n, q = params.n, params.q
    if params.size > LITERAL_STATE_BUDGET:
        raise ResourceBudgetError(
            f"q**n = {params.size} exceeds the literal-state budget {LITERAL_STATE_BUDGET}"
        )
    _check_draws(cfg)
    weight = np.zeros(1, dtype=np.int64)  # nonzero digits of each vertex
    for _ in range(n):  # prepend one digit: vertex a * q**i + v
        weight = ((np.arange(q) > 0)[:, None] + weight[None, :]).ravel()
    place = q ** np.arange(n, dtype=np.int64)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, cfg.walks, _BLOCK):
        v = np.zeros(min(_BLOCK, cfg.walks - start), dtype=np.int64)
        for _ in range(cfg.k):
            coord, shift = np.divmod(gen.integers(params.degree, size=v.size), q - 1)
            p = place[coord]
            a = v // p % q
            v += ((a + 1 + shift) % q - a) * p
        counts += np.bincount(weight[v], minlength=n + 1)
    return _result(cfg, counts)
