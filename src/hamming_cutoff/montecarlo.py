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
purely to cross-check it in distribution.  It samples walk by walk, in
fixed blocks of 65536: the block starting at walk `start` reads the
Philox(key=seed) double stream from element 4*start*k on
(`Philox.advance(m)` skips 4*m doubles), and walk i, step t of that block
is element (i - start)*k + t of its slice, so its counts too are a pure
function of (params, k, walks, seed).
"""

from dataclasses import dataclass

import numpy as np

from .scheme import (
    ParameterError,
    RadialDistribution,
    ResourceBudgetError,
    SchemeParams,
    tv_distance,
    uniform,
)

DEFAULT_DRAW_BUDGET = 10 ** 10
_BLOCK = 1 << 16  # walks per counter block; fixed so partitioning never matters
_SUB_BLOCK_DRAWS = 1 << 22  # doubles drawn at once (32 MB); bounds memory only


@dataclass(frozen=True)
class SimConfig:
    """One reproducible experiment: (params, k, walks, seed).

    `streams` is validated and otherwise unused: counts never depended on
    it, and the histogram sampler has no blocks to spread over workers.
    """

    params: SchemeParams
    k: int
    walks: int
    seed: int
    streams: int = 1

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError("step count k must be >= 0")
        if self.walks < 1:
            raise ParameterError("need at least one walk")
        if self.walks >= 2 ** 63:  # the class counts are int64
            raise ParameterError("walks must be < 2**63")
        if self.streams < 1:
            raise ParameterError("need at least one stream")
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class EmpiricalResult:
    """Per-class visit counts at step k with multinomial standard errors."""

    config: SimConfig
    counts: np.ndarray
    point_estimate: RadialDistribution
    stderr: np.ndarray


def _sub_blocks(cfg: SimConfig, start: int, stop: int):
    """Yield (lo, hi, u): walks [start + lo, start + hi) and their uniforms.

    One generator draws the canonical stream slice of walks [start, stop)
    in row-major sub-blocks of at most `_SUB_BLOCK_DRAWS` doubles, the
    same doubles as one (stop - start, k) array in bounded memory.
    """
    bg = np.random.Philox(key=cfg.seed)
    bg.advance(start * cfg.k)
    gen = np.random.Generator(bg)
    rows = max(1, _SUB_BLOCK_DRAWS // cfg.k)
    for lo in range(0, stop - start, rows):
        hi = min(lo + rows, stop - start)
        yield lo, hi, gen.random((hi - lo, cfg.k))


def simulate(cfg: SimConfig, max_draws: int = DEFAULT_DRAW_BUDGET) -> EmpiricalResult:
    """Sample the k-step class histogram of cfg.walks walks; deterministic per seed.

    `max_draws` caps walks*k, the walk-steps the sample stands for; the
    sampler itself draws 2(n+1) binomials per step.  Per step, from
    Philox(key=seed): down_l ~ Bin(c_l, l/(n(q-1))), then up_l ~
    Bin(c_l - down_l, (n-l)(q-1)/(n(q-1) - l)), the up probability given
    not down (0 where that denominator is 0, i.e. q = 2 and l = n).  Each
    probability is one correctly rounded division of exact integers.
    """
    if cfg.walks * cfg.k > max_draws:
        raise ResourceBudgetError(
            f"walks*k = {cfg.walks * cfg.k} exceeds the draw budget {max_draws}"
        )
    n, q, d = cfg.params.n, cfg.params.q, cfg.params.degree
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

    freq = counts / cfg.walks
    stderr = np.sqrt(freq * (1 - freq) / cfg.walks)
    estimate = RadialDistribution(cfg.params, freq, "float")
    return EmpiricalResult(cfg, counts, estimate, stderr)


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


def empirical_tv(cfg: SimConfig, max_draws: int = DEFAULT_DRAW_BUDGET) -> EmpiricalTV:
    """Sample `cfg` and return its `plugin_tv`."""
    return plugin_tv(simulate(cfg, max_draws))


def simulate_literal(cfg: SimConfig, max_states: int = 10 ** 4) -> EmpiricalResult:
    """Cross-check sampler on the literal q**n graph (tiny spaces only).

    Each step resamples one coordinate to a different letter; one uniform
    per step encodes both choices, read in the block layout of the module
    docstring.  It agrees with `simulate` in distribution only.
    """
    params = cfg.params
    n, q = params.n, params.q
    if params.size > max_states:
        raise ResourceBudgetError(
            f"q**n = {params.size} exceeds the literal-state budget {max_states}"
        )
    deg = params.degree
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, cfg.walks, _BLOCK):
        stop = min(start + _BLOCK, cfg.walks)
        size = stop - start
        words = np.zeros((size, n), dtype=np.int64)
        if cfg.k:
            for lo, hi, u in _sub_blocks(cfg, start, stop):
                sub = words[lo:hi]  # a view
                rows = np.arange(hi - lo)
                for t in range(cfg.k):
                    v = (u[:, t] * deg).astype(np.int64)
                    coord = v // (q - 1)
                    shift = v % (q - 1)
                    old = sub[rows, coord]
                    sub[rows, coord] = (old + 1 + shift) % q
                del u  # free this sub-block before the next is drawn
        dist = np.count_nonzero(words, axis=1)
        counts += np.bincount(dist, minlength=n + 1)
    freq = counts / cfg.walks
    stderr = np.sqrt(freq * (1 - freq) / cfg.walks)
    estimate = RadialDistribution(params, freq, "float")
    return EmpiricalResult(cfg, counts, estimate, stderr)
