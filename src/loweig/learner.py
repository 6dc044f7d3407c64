"""Streaming Mahalanobis-style metric over an implicit low-rank matrix.

The model stores ``A = alpha*I + E diag(D) E^T``, positive definite, once as
that eigen form. It scores points by ``sqrt(x^T A^{-1} x)`` in O(m n), folds
in signed-weight batches as ``decay*A + gain * sum_i w_i x_i x_i^T``, then
floors and truncates. Snapshots are immutable; updates return new ones.

In ``update`` the values decide and E is written once. Flooring, window
selection and re-flooring all run on ``(alpha, d, m)``; flooring keeps the
order of d, so their result is the index array of the kept columns of the
step's eigenvectors. On the fast path those are the small core's
eigenvectors V, and the model's E is ``Q @ V[:n, kept] + U @ V[n:, kept]``,
Q the previous E, written into a 64-byte-aligned array by the lift of
``fast_eigh`` (its module docstring counts the passes over m-row data); the
decay-only and dense paths gather their kept columns once into such an
array.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np

from .fast_eigh import (
    DimensionError,
    EigenFactor,
    LowRankFactor,
    WeightedData,
    _check_descending,
    _core_eig,
    _lifted,
    dense_fallback,
    factor_to_eig,
)
from .kernels import _Record, _ValueRecord, _take_columns, _unchecked
from .truncation import _select

REGULAR = "regular"
IRREGULAR = "irregular"


class UpdateConfig(_ValueRecord):
    """Knobs of one streaming update.

    decay scales the previous matrix (in (0, 1]); gain scales the batch
    weights; rank_cap bounds the number of explicit eigenpairs kept after the
    update; floor is the smallest eigenvalue allowed after the update
    (defaults to 1e-12 times the decayed base coefficient when None).
    """

    _fields = ("decay", "gain", "rank_cap", "floor")

    def __init__(self, decay: float, gain: float, rank_cap: int, floor: float | None = None):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must lie in (0, 1], got {decay}")
        if not 0.0 <= gain < math.inf:
            raise ValueError(f"gain must be finite and >= 0, got {gain}")
        if not isinstance(rank_cap, numbers.Integral):
            raise TypeError(f"rank_cap must be an integer, got {rank_cap!r}")
        if rank_cap < 0:
            raise ValueError(f"rank_cap must be >= 0, got {rank_cap}")
        if floor is not None and not 0.0 < floor < math.inf:
            raise ValueError(f"floor must be finite and > 0, got {floor}")
        self.__dict__.update(decay=decay, gain=gain, rank_cap=rank_cap, floor=floor)


class LabeledBatch(_Record):
    """Vectors with signed weights: positive marks regular, negative irregular."""

    _fields = ("vectors", "weights")

    def __init__(self, vectors: np.ndarray, weights: np.ndarray):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if vectors.shape[0] != weights.shape[0]:
            raise DimensionError(f"{vectors.shape[0]} vectors but {weights.shape[0]} weights")
        if weights.size and not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.__dict__.update(vectors=vectors, weights=weights)

    @classmethod
    def empty(cls, m: int) -> "LabeledBatch":
        return cls(np.zeros((0, m)), np.zeros(0))


class UpdateStats(_ValueRecord):
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

    _fields = (
        "path", "floored", "truncated", "tau", "route", "novelty_ratio", "dropped",
        "orthogonality", "alpha", "condition", "window_log_variance",
    )

    def __init__(
        self,
        path: str,
        floored: int,
        truncated: bool,
        tau: int | None = None,
        route: str | None = None,
        novelty_ratio: float | None = None,
        dropped: int = 0,
        orthogonality: float | None = None,
        alpha: float | None = None,
        condition: float | None = None,
        window_log_variance: float | None = None,
    ):
        self.__dict__.update(
            path=path, floored=floored, truncated=truncated, tau=tau, route=route,
            novelty_ratio=novelty_ratio, dropped=dropped, orthogonality=orthogonality,
            alpha=alpha, condition=condition, window_log_variance=window_log_variance,
        )


class MetricModel(_Record):
    """Immutable snapshot ``alpha*I + E diag(D) E^T``, stored as its eigen form.

    The eigen form, all an update reads, scores in O(m n). ``factor`` is a view
    of it built on first use: ``LowRankFactor(alpha, E, diag(D))``, Q being E.
    Positive definiteness is an invariant. ``_weights`` holds the scoring
    weights ``1/(alpha + d_i) - 1/alpha`` of ``distance``, computed once; it
    is not a field, so the repr leaves it out."""

    _fields = ("eigen", "stats")

    def __init__(self, eigen: EigenFactor, stats: UpdateStats | None = None):
        if not isinstance(eigen, EigenFactor):
            raise TypeError(f"eigen must be an EigenFactor, got {type(eigen).__name__}")
        if eigen.alpha <= 0.0:
            raise ValueError("model must be positive definite: alpha <= 0")
        if eigen.D.size and float(eigen.alpha + eigen.D[-1]) <= 0.0:
            raise ValueError("model must be positive definite: nonpositive eigenvalue")
        weights = 1.0 / (eigen.alpha + eigen.D) - 1.0 / eigen.alpha
        self.__dict__.update(eigen=eigen, stats=stats, _weights=weights)

    @classmethod
    def identity(cls, m: int, alpha: float = 1.0) -> "MetricModel":
        return cls.from_factor(LowRankFactor.identity(m, alpha))

    @classmethod
    def from_factor(cls, factor: LowRankFactor) -> "MetricModel":
        return cls(factor_to_eig(factor.alpha, factor.Q, factor.B))

    @cached_property
    def factor(self) -> LowRankFactor:
        return _unchecked(LowRankFactor, self.eigen.alpha, self.eigen.E, np.diag(self.eigen.D))

    @property
    def dim(self) -> int:
        return self.eigen.dim

    @property
    def rank(self) -> int:
        return self.eigen.rank


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

    Raises ``ValueError`` for a non-finite ``x``, as ``distance`` does, and
    for a NaN ``threshold``.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
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
    prev, m = model.eigen, model.dim
    decayed_alpha = float(cfg.decay * prev.alpha)
    data = WeightedData.from_weighted(batch.vectors, cfg.gain * batch.weights, dim=m)
    nx, ny = data.X.shape[1], data.Y.shape[1]

    if nx + ny == 0:
        path, alpha, d, basis = "decay", decayed_alpha, cfg.decay * prev.D, prev.E
    else:
        decayed = _unchecked(LowRankFactor, decayed_alpha, prev.E, np.diag(cfg.decay * prev.D))
        if prev.rank + nx + ny <= m:
            path, alpha, core = "fast", decayed_alpha, _core_eig(decayed, data)
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
        _check_descending(d)
        ef = _lifted(alpha, *core.lift(core.eig.E[:, columns]), d)
        route, ratio, dropped = core.route, core.novelty_ratio, core.dropped
    else:
        ef = _unchecked(EigenFactor, alpha, _take_columns(basis, columns), d)
        route, ratio, dropped = None, None, 0
    stats = UpdateStats(path, floored, tau is not None, tau, route, ratio, dropped,
                        ef.orthogonality, ef.alpha, _condition(ef.alpha, ef.D, m), variance)
    return MetricModel(ef, stats)
