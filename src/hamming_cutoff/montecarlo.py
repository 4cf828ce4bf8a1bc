"""Stochastic oracle: seeded walk sampling on the distance chain.

Walks are simulated on the radial projection (down/stay/up draws per
step), exploiting the same symmetry as the exact engines.  The random
stream is counter-based.  Walks run in fixed blocks of 65536; the block
starting at walk `start` reads the Philox(key=seed) double stream from
element 4*start*k on (`Philox.advance(m)` skips 4*m doubles), and walk i,
step t of that block is element (i - start)*k + t of its slice.  Blocks
never overlap, so results are a pure function of (params, k, walks, seed)
and bit-identical for any worker count.  A literal-graph sampler exists
for tiny state spaces purely to cross-check the radial sampler.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .radial import radial_matrix
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
    """One reproducible experiment: (params, k, walks, seed, streams)."""

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


def _thresholds(params: SchemeParams):
    m = radial_matrix(params)
    t_down = np.array([float(v) for v in m.down])
    t_stay = np.array([float(u + v) for u, v in zip(m.down, m.stay)])
    return t_down, t_stay


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


def _block_counts(cfg: SimConfig, start: int, stop: int, t_down, t_stay) -> np.ndarray:
    """Counts for walks [start, stop), reading the canonical stream slice."""
    n = cfg.params.n
    state = np.zeros(stop - start, dtype=np.int64)
    if cfg.k:
        for lo, hi, u in _sub_blocks(cfg, start, stop):
            sub = state[lo:hi]  # a view
            for t in range(cfg.k):
                ut = u[:, t]
                sub[:] = sub - (ut < t_down[sub]) + (ut >= t_stay[sub])
            del u, ut  # free this sub-block before the next is drawn
    return np.bincount(state, minlength=n + 1)


def simulate(cfg: SimConfig, max_draws: int = DEFAULT_DRAW_BUDGET) -> EmpiricalResult:
    """Sample cfg.walks radial walks of cfg.k steps; deterministic per seed."""
    if cfg.walks * cfg.k > max_draws:
        raise ResourceBudgetError(
            f"walks*k = {cfg.walks * cfg.k} exceeds the draw budget {max_draws}"
        )
    t_down, t_stay = _thresholds(cfg.params)
    blocks = [
        (start, min(start + _BLOCK, cfg.walks))
        for start in range(0, cfg.walks, _BLOCK)
    ]

    def run(block):
        return _block_counts(cfg, block[0], block[1], t_down, t_stay)

    if cfg.streams > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.streams) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = [run(b) for b in blocks]
    counts = np.sum(parts, axis=0)

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
    per step encodes both choices.  Stream layout matches `simulate` (the
    block at walk `start` reads from element 4*start*k; its walk i, step t
    is element (i - start)*k + t of that slice) but the draws mean
    different things, so the two samplers agree only in distribution, not
    pathwise.
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
