"""Streaming Mahalanobis-style metric over an implicit low-rank matrix.

The model keeps ``A = alpha*I + Q B Q^T`` positive definite, scores points by
``sqrt(x^T A^{-1} x)`` in O(m n), and folds signed-weight batches in as
``decay*A + gain * sum_i w_i x_i x_i^T`` followed by eigenvalue flooring and
rank truncation. Model snapshots are immutable; updates return new ones.

In ``update`` the values decide and E is written once. The batch becomes
``WeightedData`` by one product per sign, ``vectors[kept].T @
diag(sqrt(|w|))``, which writes X and Y in C order without a transposing
copy. Flooring, window selection and re-flooring all run on
``(alpha, d, m)``; flooring keeps the order of d, so their result is the
index array of the kept columns of the step's eigenvectors. On the fast path
those are the small core's eigenvectors V, and the model's E is
``Q @ V[:n, kept] + U @ V[n:, kept]``, written straight into a
64-byte-aligned array; the decay-only and dense paths gather their kept
columns once into such an array.

A fast step pays for four O(m r^2) kernels, r = n + nx + ny: the block Gram
of ``[Q X Y]``, the r-by-r ``eigh``, the lift and the Gram of the new E.
Everything else works on r-sized arrays and costs the same at any m; below
r of about 32 it is most of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fast_eigh import (
    DimensionError,
    EigenFactor,
    LowRankFactor,
    WeightedData,
    _core_eig,
    dense_fallback,
    factor_to_eig,
)
from .kernels import _take_columns, _unchecked
from .truncation import _select

REGULAR = "regular"
IRREGULAR = "irregular"

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
    """What the last update did and had to intervene on.

    ``path`` is the decomposition that ran: ``"fast"``, ``"dense"`` (the
    combined rank exceeded m) or ``"decay"`` (an effectively empty batch).
    On the fast path, ``route`` is ``"gram"`` or ``"two-pass"``,
    ``novelty_ratio`` is ``sigma_min(R) / ||Z||_F`` on the Gram route, and
    ``dropped`` counts the novelty directions the two-pass route cut at
    ``RANK_EPS``; off the fast path they are None, None and 0.
    ``orthogonality`` is ``||E^T E - I||_F`` of the new E, as the check of
    the fast path's ``EigenFactor`` measured it; None on the paths that run
    no such check. ``alpha`` is the new base coefficient and ``condition``
    the ratio of the largest to the smallest eigenvalue of the full
    spectrum, the implicit alpha block included. ``window_log_variance`` is
    the variance of the log-eigenvalues in the window that truncation
    replaced by their geometric mean, None when nothing was truncated.
    """

    path: str
    floored: int
    truncated: bool
    tau: int | None = None
    route: str | None = None
    novelty_ratio: float | None = None
    dropped: int = 0
    orthogonality: float | None = None
    alpha: float | None = None
    condition: float | None = None
    window_log_variance: float | None = None


@dataclass(frozen=True)
class MetricModel:
    """Immutable snapshot: the factored matrix plus its eigen form.

    The cached eigen form makes distance evaluation O(m n) and is refreshed by
    every update. Both fields represent the same matrix; positive definiteness
    (all eigenvalues > 0) is an invariant. ``_weights`` holds the scoring
    weights ``1/(alpha + d_i) - 1/alpha`` of ``distance``, computed once.
    """

    factor: LowRankFactor
    eigen: EigenFactor
    stats: UpdateStats | None = None
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eigen.alpha <= 0.0:
            raise ValueError("model must be positive definite: alpha <= 0")
        if self.eigen.D.size and float(self.eigen.alpha + self.eigen.D[-1]) <= 0.0:
            raise ValueError("model must be positive definite: nonpositive eigenvalue")
        ef = self.eigen
        object.__setattr__(self, "_weights", 1.0 / (ef.alpha + ef.D) - 1.0 / ef.alpha)

    @classmethod
    def identity(cls, m: int, alpha: float = 1.0) -> "MetricModel":
        return cls.from_factor(LowRankFactor.identity(m, alpha))

    @classmethod
    def from_factor(cls, factor: LowRankFactor) -> "MetricModel":
        return cls(factor, factor_to_eig(factor.alpha, factor.Q, factor.B))

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
        d2 += float(proj**2 @ model._weights)
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


def _floor_spectrum(alpha: float, d: np.ndarray, m: int, floor: float):
    """Raise every eigenvalue of ``alpha*I + E diag(d) E^T`` on R^m that is
    below ``floor`` up to it, on the values alone.

    Returns ``(new_alpha, new_d, count)``; ``count`` includes the implicit
    eigenvalues when alpha was raised. Every step is monotone in d, so a
    descending d stays descending and E keeps its column order.
    """
    full = alpha + d
    floored_explicit = int(np.count_nonzero(full < floor))
    alpha_raised = alpha < floor
    if floored_explicit == 0 and not alpha_raised:
        return alpha, d, 0
    new_alpha = float(max(alpha, floor))
    new_d = np.maximum(full, floor) - new_alpha
    # The subtraction can make alpha + d round back below the floor; nudge
    # such entries up so the reconstructed eigenvalue honors it exactly.
    low = new_alpha + new_d < floor
    if low.any():
        d_floor = floor - new_alpha
        while new_alpha + d_floor < floor:
            d_floor = np.nextafter(d_floor, np.inf)
        new_d = np.where(low, np.maximum(new_d, d_floor), new_d)
    count = floored_explicit + (m - d.size if alpha_raised else 0)
    return new_alpha, new_d, count


def _condition(alpha: float, d: np.ndarray, m: int) -> float:
    """Largest over smallest eigenvalue of ``alpha*I + E diag(d) E^T`` on R^m,
    d descending; inf unless the smallest is positive."""
    top, bottom = (alpha + d[0], alpha + d[-1]) if d.size else (alpha, alpha)
    if d.size < m:
        top, bottom = max(top, alpha), min(bottom, alpha)
    return float(top / bottom) if bottom > 0.0 else math.inf


def update(model: MetricModel, batch: LabeledBatch, cfg: UpdateConfig) -> MetricModel:
    """One streaming step: decay, signed batch, flooring, rank truncation.

    Composes ``decay*A + gain * sum_i w_i x_i x_i^T``, eigendecomposes it on
    the fast path (dense fallback when the combined rank exceeds m), floors
    the full spectrum at ``cfg.floor`` to restore positive definiteness, and
    truncates back to ``cfg.rank_cap`` explicit pairs when the rank grew past
    it. Zero-weight vectors are dropped; an effectively empty batch is pure
    decay and skips the decomposition entirely. Every decision is made on the
    eigenvalues; the new E is then written once, with only the kept columns.
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
        path, alpha, d, basis = "decay", decayed_alpha, cfg.decay * model.eigen.D, model.eigen.E
    else:
        decayed = _unchecked(
            LowRankFactor, decayed_alpha, model.factor.Q, cfg.decay * model.factor.B
        )
        if model.rank + nx + ny <= m:
            path, alpha = "fast", decayed_alpha
            core = _core_eig(decayed, data)
            d = core.eig.D
        else:
            path = "dense"
            ef = dense_fallback(decayed_alpha, decayed, data)
            alpha, d, basis = ef.alpha, ef.D, ef.E

    floor = cfg.floor if cfg.floor is not None else 1e-12 * decayed_alpha
    alpha, d, floored = _floor_spectrum(alpha, d, m, floor)
    columns, tau, variance = np.arange(d.size), None, None
    if d.size > cfg.rank_cap:
        new_alpha, columns, tau, variance = _select(alpha, d, m, cfg.rank_cap)
        # truncation re-bases d onto the window's geometric mean, which can
        # round a floored eigenvalue back below the floor by an ulp
        alpha, d, refloored = _floor_spectrum(
            new_alpha, alpha + d[columns] - new_alpha, m, floor
        )
        floored += refloored

    if path == "fast":
        ef = EigenFactor(alpha, core.lift(model.factor.Q, core.eig.E[:, columns]), d)
        route, ratio, dropped = core.route, core.novelty_ratio, core.dropped
    else:
        ef = _unchecked(EigenFactor, alpha, _take_columns(basis, columns), d)
        route, ratio, dropped = None, None, 0
    stats = UpdateStats(path, floored, tau is not None, tau, route, ratio, dropped,
                        ef.orthogonality, ef.alpha, _condition(ef.alpha, ef.D, m), variance)
    return MetricModel(_unchecked(LowRankFactor, ef.alpha, ef.E, np.diag(ef.D)), ef, stats)
