"""Timing grids over the fast path and the SVD route, plus a learner demo.

Cells are timed around the decomposition call only (instance generation
excluded) with a monotonic clock, run sequentially to avoid interference.
Records stay in memory. ``fit_scaling`` gives the log-log slope of median
time against m, and ``normalized_flatness`` the last/first ratio of median
time over m*(n+nx+ny)^2, the fast path's expected cost, which stays near 1
when the scaling holds.
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

from .fast_eigh import LowRankFactor, WeightedData, fast_eigh, svd_route
from .kernels import _ValueRecord, thin_svd
from .learner import (
    IRREGULAR,
    REGULAR,
    LabeledBatch,
    MetricModel,
    UpdateConfig,
    classify,
    distance,
    update,
)

ALGORITHMS = ("feigh", "svd")

# Floor for measured wall time; keeps logs and ratios defined on coarse clocks.
_MIN_SECONDS = 1e-9


class BenchConfig(_ValueRecord):
    """One grid run: sizes, ranks and repetition.

    The combined rank n + nx + ny must lie in [1, m_grid[0]], and seed is a
    nonnegative integer. The first repeat is treated as warm-up and excluded
    from summaries whenever repeats >= 3.
    """

    _fields = ("m_grid", "n", "nx", "ny", "repeats", "seed", "algorithms")

    def __init__(
        self,
        m_grid: tuple[int, ...],
        n: int = 1,
        nx: int = 1,
        ny: int = 1,
        repeats: int = 11,
        seed: int = 0,
        algorithms: tuple[str, ...] = ("feigh", "svd"),
    ):
        for name, value in (("n", n), ("nx", nx), ("ny", ny), ("repeats", repeats),
                            ("seed", seed)):
            if not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        grid = tuple(m_grid)
        if not all(isinstance(m, numbers.Integral) for m in grid):
            raise TypeError(f"m_grid entries must be integers, got {grid!r}")
        m_grid = tuple(int(m) for m in grid)
        algorithms = tuple(algorithms)
        if not m_grid:
            raise ValueError("m_grid must not be empty")
        if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
            raise ValueError("m_grid must be strictly ascending")
        if m_grid[0] < 1:
            raise ValueError("m_grid entries must be positive")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        unknown = set(algorithms) - set(ALGORITHMS)
        if unknown or not algorithms:
            raise ValueError(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        if min(n, nx, ny) < 0:
            raise ValueError(f"ranks must be >= 0, got {(n, nx, ny)}")
        total = n + nx + ny
        if not 1 <= total <= m_grid[0]:
            raise ValueError(
                f"combined rank must lie in [1, {m_grid[0]}] (the smallest m), got {total}"
            )
        self.__dict__.update(
            m_grid=m_grid, n=n, nx=nx, ny=ny, repeats=repeats, seed=seed, algorithms=algorithms
        )


class BenchRecord(_ValueRecord):
    """One timed cell."""

    _fields = ("algorithm", "m", "n", "nx", "ny", "repeat", "seconds")

    def __init__(
        self, algorithm: str, m: int, n: int, nx: int, ny: int, repeat: int, seconds: float
    ):
        if not 0.0 < seconds < math.inf:
            raise ValueError(f"seconds must be positive and finite, got {seconds}")
        self.__dict__.update(
            algorithm=algorithm, m=m, n=n, nx=nx, ny=ny, repeat=repeat, seconds=seconds
        )


def generate_instance(seed, m: int, n: int, nx: int, ny: int):
    """Deterministic random instance: orthonormalized Gaussian basis,
    symmetrized Gaussian core, Gaussian data blocks, alpha = 1.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.
    """
    if n + nx + ny > m:
        raise ValueError(f"combined rank {n + nx + ny} exceeds dimension {m}")
    rng = np.random.default_rng(seed)
    if n > 0:
        q = thin_svd(rng.standard_normal((m, n))).U
    else:
        q = np.zeros((m, 0))
    g = rng.standard_normal((n, n))
    b = (g + g.T) / 2.0
    x = rng.standard_normal((m, nx))
    y = rng.standard_normal((m, ny))
    return 1.0, LowRankFactor(1.0, q, b), WeightedData(x, y)


def run_grid(cfg: BenchConfig) -> list[BenchRecord]:
    """Time every (algorithm, m, repeat) cell of the grid.

    The svd baseline handles nonnegative weights only, so its instances carry
    the whole combined rank in the positive block (n = ny = 0); records state
    the shapes actually run. An error in any cell propagates.
    """
    records: list[BenchRecord] = []
    # Cell-major order: repeats of one cell run back to back so the allocator
    # and caches warm up, and the discarded first repeat absorbs the cold run.
    for algorithm in cfg.algorithms:
        if algorithm == "svd":
            n, nx, ny = 0, cfg.n + cfg.nx + cfg.ny, 0
        else:
            n, nx, ny = cfg.n, cfg.nx, cfg.ny
        for m in cfg.m_grid:
            for rep in range(cfg.repeats):
                alpha, factor, data = generate_instance([cfg.seed, m, rep], m, n, nx, ny)
                start = time.perf_counter()
                if algorithm == "feigh":
                    fast_eigh(alpha, factor, data)
                else:
                    svd_route(alpha, data.X)
                elapsed = time.perf_counter() - start
                records.append(
                    BenchRecord(algorithm, m, n, nx, ny, rep, max(elapsed, _MIN_SECONDS))
                )
    return records


def _grouped_seconds(records: list[BenchRecord]) -> dict[tuple[str, int], list[float]]:
    """Per-(algorithm, m) seconds with the warm-up repeat dropped when possible."""
    cells: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for r in records:
        cells.setdefault((r.algorithm, r.m), []).append((r.repeat, r.seconds))
    out = {}
    for key, pairs in cells.items():
        pairs.sort()
        seconds = [s for _, s in pairs]
        if len(seconds) >= 3:
            seconds = [s for rep, s in pairs if rep != 0]
        out[key] = seconds
    return out


def _median_curve(records: list[BenchRecord], algorithm: str) -> list[tuple[int, float]]:
    grouped = _grouped_seconds([r for r in records if r.algorithm == algorithm])
    return sorted((m, float(np.median(s))) for (_, m), s in grouped.items())


def fit_scaling(records: list[BenchRecord]) -> dict[str, float]:
    """Log-log slope of median seconds vs m over the top half of the grid,
    per algorithm. Requires at least 4 grid points."""
    slopes = {}
    for algorithm in sorted({r.algorithm for r in records}):
        curve = _median_curve(records, algorithm)
        if len(curve) < 4:
            raise ValueError(
                f"need at least 4 grid points for {algorithm}, got {len(curve)}"
            )
        top = curve[len(curve) // 2:]
        lx = np.log([m for m, _ in top])
        ly = np.log([s for _, s in top])
        slopes[algorithm] = float(np.polyfit(lx, ly, 1)[0])
    return slopes


def normalized_flatness(records: list[BenchRecord]) -> dict[str, float]:
    """Last/first ratio of the normalized median curve over the top half of
    the grid; near 1 when the m*(n+nx+ny)^2 scaling holds."""
    ratios = {}
    for algorithm in sorted({r.algorithm for r in records}):
        denom = {r.m: r.m * (r.n + r.nx + r.ny) ** 2
                 for r in records if r.algorithm == algorithm}
        curve = _median_curve(records, algorithm)
        if len(curve) < 2:
            raise ValueError(f"need at least 2 grid points for {algorithm}")
        top = [(m, s / denom[m]) for m, s in curve[len(curve) // 2:]]
        ratios[algorithm] = top[-1][1] / top[0][1]
    return ratios


def demo_learner(
    m: int,
    rank_cap: int,
    iters: int,
    seed: int,
    decay: float = 0.9,
    gain: float = 0.25,
) -> dict:
    """Train the streaming metric on a seeded two-cluster stream.

    Each step folds in 4 regular points, weight +1 along one latent
    direction, and 4 irregular points, weight -1 along an orthogonal one;
    both classes have comparable Euclidean norms so the untrained metric
    cannot separate them. After
    training, the threshold is the median training distance and accuracy is
    measured on a fresh test draw. The learning constants are experimental
    knobs with no canonical values; tune them per scenario.
    """
    rng = np.random.default_rng(seed)
    basis = thin_svd(rng.standard_normal((m, 2))).U
    reg_dir, irr_dir = basis[:, 0], basis[:, 1]

    def draw(count: int, direction: np.ndarray) -> np.ndarray:
        # Amplitudes bounded away from zero: a zero-amplitude "irregular"
        # point is indistinguishable from regular noise for any metric.
        signal = rng.uniform(0.7, 2.7, count) * rng.choice((-1.0, 1.0), count)
        noise = 0.1 * rng.standard_normal((count, m))
        return signal[:, None] * direction + noise

    # Fixed probe sets: per-iteration curves track the model, not the draw.
    probe_reg = draw(20, reg_dir)
    probe_irr = draw(20, irr_dir)

    per_class = 4
    model = MetricModel.identity(m, 1.0)
    cfg = UpdateConfig(decay=decay, gain=gain, rank_cap=rank_cap)
    training: list[np.ndarray] = []
    iterations = []
    for step in range(iters):
        reg = draw(per_class, reg_dir)
        irr = draw(per_class, irr_dir)
        vectors = np.vstack([reg, irr])
        weights = np.concatenate([np.ones(per_class), -np.ones(per_class)])
        model = update(model, LabeledBatch(vectors, weights), cfg)
        training.extend(vectors)
        iterations.append(
            {
                "step": step,
                "regular_distance": float(np.median([distance(model, x) for x in probe_reg])),
                "irregular_distance": float(np.median([distance(model, x) for x in probe_irr])),
            }
        )

    ef = model.eigen
    spectrum = ef.full_spectrum()
    report = {
        "m": m,
        "rank_cap": rank_cap,
        "iters": iters,
        "seed": seed,
        "decay": decay,
        "gain": gain,
        "model": {
            "alpha": float(ef.alpha),
            "rank": int(ef.rank),
            "min_eigenvalue": float(spectrum[-1]),
            "max_eigenvalue": float(spectrum[0]),
        },
        "iterations": iterations,
        "threshold": None,
        "accuracy": None,
    }
    if iters > 0:
        threshold = float(np.median([distance(model, x) for x in training]))
        test_reg = draw(100, reg_dir)
        test_irr = draw(100, irr_dir)
        hits = sum(classify(model, x, threshold) == REGULAR for x in test_reg)
        hits += sum(classify(model, x, threshold) == IRREGULAR for x in test_irr)
        report["threshold"] = threshold
        report["accuracy"] = hits / 200.0
    return report
