"""Streaming Mahalanobis-style metric over an implicit low-rank matrix.

The model keeps ``A = alpha*I + Q B Q^T`` positive definite, scores points by
``sqrt(x^T A^{-1} x)`` in O(m n), and folds signed-weight batches in as
``decay*A + gain * sum_i w_i x_i x_i^T`` followed by eigenvalue flooring and
rank truncation. Model snapshots are immutable; updates return new ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fast_eigh import (
    DimensionError,
    EigenFactor,
    LowRankFactor,
    WeightedData,
    dense_fallback,
    factor_to_eig,
    fast_eigh,
)
from .kernels import _unchecked
from .truncation import truncate

REGULAR = "regular"
IRREGULAR = "irregular"

# Scoring is a matrix-vector product over E. With OpenBLAS on an x86-64 Xeon,
# m = 4096 and rank 32, it ran ~25% faster from a cache-line (64-byte)
# aligned start than from the 16-byte alignment malloc guarantees, so where E
# happened to land decided the scoring speed.
_ALIGN = 64


def _aligned(a: np.ndarray) -> np.ndarray:
    """``a`` itself if C-contiguous and 64-byte aligned, else such a copy."""
    if a.flags.c_contiguous and a.ctypes.data % _ALIGN == 0:
        return a
    buf = np.empty(a.nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


@dataclass(frozen=True)
class UpdateConfig:
    """Knobs of one streaming update.

    decay scales the previous matrix (in (0, 1]); gain scales the batch
    weights; rank_cap bounds the number of explicit eigenpairs kept after the
    update; floor is the smallest eigenvalue allowed after the update
    (defaults to 1e-12 times the decayed base coefficient when None).
    """

    decay: float
    gain: float
    rank_cap: int
    floor: float | None = None

    def __post_init__(self):
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {self.decay}")
        if self.gain < 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain}")
        if self.rank_cap < 0:
            raise ValueError(f"rank_cap must be >= 0, got {self.rank_cap}")
        if self.floor is not None and self.floor <= 0.0:
            raise ValueError(f"floor must be > 0, got {self.floor}")


@dataclass(frozen=True)
class LabeledBatch:
    """Vectors with signed weights: positive marks regular, negative irregular."""

    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.atleast_2d(np.asarray(self.vectors, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.vectors.shape[0] != self.weights.shape[0]:
            raise DimensionError(
                f"{self.vectors.shape[0]} vectors but {self.weights.shape[0]} weights"
            )
        if self.weights.size and not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @classmethod
    def empty(cls, m: int) -> "LabeledBatch":
        return cls(np.zeros((0, m)), np.zeros(0))

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class UpdateStats:
    """What the last update had to intervene on."""

    floored: int
    truncated: bool
    tau: int | None = None


@dataclass(frozen=True)
class MetricModel:
    """Immutable snapshot: the factored matrix plus its eigen form.

    The cached eigen form makes distance evaluation O(m n) and is refreshed by
    every update. Both fields represent the same matrix; positive definiteness
    (all eigenvalues > 0) is an invariant.
    """

    factor: LowRankFactor
    eigen: EigenFactor
    stats: UpdateStats | None = None

    def __post_init__(self):
        if self.eigen.alpha <= 0.0:
            raise ValueError("model must be positive definite: alpha <= 0")
        if self.eigen.D.size and float(self.eigen.alpha + self.eigen.D[-1]) <= 0.0:
            raise ValueError("model must be positive definite: nonpositive eigenvalue")

    @classmethod
    def identity(cls, m: int, alpha: float = 1.0) -> "MetricModel":
        return cls.from_factor(LowRankFactor.identity(m, alpha))

    @classmethod
    def from_factor(cls, factor: LowRankFactor) -> "MetricModel":
        eigen = factor_to_eig(factor.alpha, factor.Q, factor.B)
        return cls(factor, _unchecked(EigenFactor, eigen.alpha, _aligned(eigen.E), eigen.D))

    @property
    def dim(self) -> int:
        return self.factor.dim

    @property
    def rank(self) -> int:
        return self.factor.rank


def distance(model: MetricModel, x) -> float:
    """Mahalanobis-style distance ``sqrt(x^T A^{-1} x)`` in O(m n).

    Uses the eigen form of the inverse:
    ``A^{-1} = (1/alpha) (I - E E^T) + E diag(1/(alpha+d_i)) E^T``.
    A finite ``x`` too large for the squared distance returns ``inf``.

    Raises
    ------
    ValueError
        If ``x`` contains NaN or infinite entries.
    """
    x = np.asarray(x, dtype=float)
    ef = model.eigen
    if x.shape != (ef.dim,):
        raise DimensionError(f"x must have shape ({ef.dim},), got {x.shape}")
    proj = ef.E.T @ x
    d2 = float(x @ x) / ef.alpha
    if proj.size:
        d2 += float(proj**2 @ (1.0 / (ef.alpha + ef.D) - 1.0 / ef.alpha))
    if not math.isfinite(d2):
        # only reached on overflow or bad input, so the O(m) scan is off the hot path
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite entries")
        return math.inf
    return math.sqrt(max(d2, 0.0))


def classify(model: MetricModel, x, threshold: float) -> str:
    """``REGULAR`` iff the distance does not exceed the threshold.

    Raises ``ValueError`` for a non-finite ``x``, as ``distance`` does.
    """
    return REGULAR if distance(model, x) <= threshold else IRREGULAR


def _floor_spectrum(ef: EigenFactor, floor: float) -> tuple[EigenFactor, int]:
    """Raise every full eigenvalue below ``floor`` up to it."""
    full = ef.alpha + ef.D
    floored_explicit = int(np.count_nonzero(full < floor))
    new_alpha = float(max(ef.alpha, floor))
    alpha_raised = ef.alpha < floor
    if floored_explicit == 0 and not alpha_raised:
        return ef, 0
    new_d = np.maximum(full, floor) - new_alpha
    # The subtraction can make alpha + d round back below the floor; nudge
    # such entries up so the reconstructed eigenvalue honors it exactly.
    low = new_alpha + new_d < floor
    if np.any(low):
        d_floor = floor - new_alpha
        while new_alpha + d_floor < floor:
            d_floor = np.nextafter(d_floor, np.inf)
        new_d = np.where(low, np.maximum(new_d, d_floor), new_d)
    order = np.argsort(-new_d, kind="stable")
    count = floored_explicit + (ef.dim - ef.rank if alpha_raised else 0)
    return _unchecked(EigenFactor, new_alpha, ef.E[:, order], new_d[order]), count


def update(model: MetricModel, batch: LabeledBatch, cfg: UpdateConfig) -> MetricModel:
    """One streaming step: decay, signed batch, flooring, rank truncation.

    Composes ``decay*A + gain * sum_i w_i x_i x_i^T``, eigendecomposes it on
    the fast path (dense fallback when the combined rank reaches m), floors
    the full spectrum at ``cfg.floor`` to restore positive definiteness, and
    truncates back to ``cfg.rank_cap`` explicit pairs when the rank grew past
    it. Zero-weight vectors are dropped; an effectively empty batch is pure
    decay and skips the decomposition entirely.
    """
    m = model.dim
    if batch.vectors.shape[1:] != (m,) and len(batch) > 0:
        raise DimensionError(
            f"batch vectors have dimension {batch.vectors.shape[1]}, model has {m}"
        )
    decayed_alpha = float(cfg.decay * model.factor.alpha)
    data = WeightedData.from_weighted(batch.vectors, cfg.gain * batch.weights, dim=m)
    nx, ny = data.X.shape[1], data.Y.shape[1]

    if nx + ny == 0:
        ef = _unchecked(EigenFactor, decayed_alpha, model.eigen.E, cfg.decay * model.eigen.D)
    else:
        decayed = _unchecked(
            LowRankFactor, decayed_alpha, model.factor.Q, cfg.decay * model.factor.B
        )
        eigh = fast_eigh if model.rank + nx + ny <= m else dense_fallback
        ef = eigh(decayed_alpha, decayed, data)

    floor = cfg.floor if cfg.floor is not None else 1e-12 * decayed_alpha
    ef, floored = _floor_spectrum(ef, floor)

    if ef.rank > cfg.rank_cap:
        factor, result = truncate(ef, cfg.rank_cap)
        # aligned here, so the snapshot below need not rebuild the eigenfactor
        ef = _unchecked(EigenFactor, factor.alpha, _aligned(factor.Q), np.diag(factor.B).copy())
        # truncation re-bases d onto the window's geometric mean, which can
        # round a floored eigenvalue back below the floor by an ulp
        ef, refloored = _floor_spectrum(ef, floor)
        stats = UpdateStats(floored=floored + refloored, truncated=True, tau=result.tau)
    else:
        stats = UpdateStats(floored=floored, truncated=False)
    return _snapshot(ef, stats)


def _snapshot(ef: EigenFactor, stats: UpdateStats) -> MetricModel:
    """The model of ``ef``, its factor and eigen form sharing one aligned E."""
    e = _aligned(ef.E)
    if e is not ef.E:
        ef = _unchecked(EigenFactor, ef.alpha, e, ef.D)
    return MetricModel(_unchecked(LowRankFactor, ef.alpha, e, np.diag(ef.D)), ef, stats)
