"""Streaming Mahalanobis-style metric over an implicit low-rank matrix.

The model stores ``A = alpha*I + E diag(D) E^T``, positive definite, as that
eigen form. It scores points by ``sqrt(x^T A^{-1} x)`` in O(m n), folds in
signed-weight batches as ``decay*A + gain * sum_i w_i x_i x_i^T``, then
floors and truncates. Snapshots are immutable; updates return new ones.

In ``update`` the values decide. Flooring, window selection and re-flooring
all run on ``(alpha, d, m)``; flooring keeps the order of d, so their result
is the index array of the kept columns of the step's eigenvectors.

A snapshot holds E as ``B W``, the deferred rotation of Brand (2006, "Fast
low-rank modifications of the thin singular value decomposition", LAA 415):
B is an append-only m-by-b basis (the last compacted E, then each later
step's ``Z = [X Y]``), G its measured Gram ``B^T B`` and W a b-by-r
coefficient. A Gram-route step sums the block Gram of ``[B Z]``, its one
pass over the m rows, and writes Z after B if it defers. The Gram's ``B^T
Z`` and ``Z^T Z`` extend G and give ``P = W^T (B^T Z)`` for the core of
``fast_eigh``; the kept core eigenvectors V give ``W' = [[W (V1 - P C)],
[C]]`` with ``C = R^-1 V2``, and the check of E is ``||W'^T G' W' -
I||_F``, all on b-sized arrays.

The step compacts instead, writing ``E = B' W'`` in one ``kernels._rotate``
pass under the measured check of E, when B would grow past
``_DEFER_GROWTH`` times the columns of the E it started from, or when the
rounding bound of the deferred check passes ``_DEFER_ROUNDING`` of its
tolerance; that E starts the next B. A step off the Gram route (two-pass
route, scaled data, dense fallback) compacts the previous snapshot by
reading its ``eigen``, then runs as ``fast_eigh`` or ``dense_fallback``
does and writes its E, the dense path by gathering the kept columns; where
the Gram route declined on ``[B Z]``, the step goes straight to the
two-pass route rather than try it again on ``[E Z]``. A decay-only step
touches no m-row data: it keeps B and takes W's kept columns. A deferred
snapshot builds ``eigen`` on first read, by the compaction's pass and
check, and caches it. A Gram-route step never reads it, so reading E
changes neither that step's work nor any step's result. Every snapshot,
whatever its path, is checked positive definite on alpha and the last d.
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
    _gram_core,
    _in_band,
    _lifted,
    _signs,
    _svqr,
    _two_pass_core,
    dense_fallback,
    factor_to_eig,
)
from .kernels import (
    _Record,
    _ValueRecord,
    _aligned_empty,
    _block_gram,
    _norm,
    _rotate,
    _self_gram,
    _take_columns,
    _unchecked,
)
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
    a fast step that wrote E measured it, or on a deferred step ``||W^T G W
    - I||_F`` of ``E = B W``; None on the paths that run no such check.
    ``alpha`` is the new base coefficient and ``condition``
    the ratio of the largest to the smallest eigenvalue of the full
    spectrum, the implicit alpha block included. ``window_log_variance`` is
    the variance of the log-eigenvalues in the window that truncation
    replaced by their geometric mean, None when nothing was truncated.
    ``compacted`` tells whether the step wrote the new E over the m rows,
    rather than holding it as ``B W`` or, decaying only, keeping B.
    """

    _fields = (
        "path", "floored", "truncated", "tau", "route", "novelty_ratio", "dropped",
        "orthogonality", "alpha", "condition", "window_log_variance", "compacted",
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
        compacted: bool = False,
    ):
        self.__dict__.update(
            path=path, floored=floored, truncated=truncated, tau=tau, route=route,
            novelty_ratio=novelty_ratio, dropped=dropped, orthogonality=orthogonality,
            alpha=alpha, condition=condition, window_log_variance=window_log_variance,
            compacted=compacted,
        )


# B is compacted once a step would grow it past this many times the columns
# of the E it started from. A deferred step's block Gram reads all of B, and
# a compaction's pass reads it once more; of 2, 3 and 4, 2 gave the lowest
# median and mean step on the benchmark's learner stream (CHANGES.md).
_DEFER_GROWTH = 2

# A deferred step's check ||W^T G W - I||_F is trusted while its rounding bound
# stays below this share of the check's tolerance; past it, as when W grows
# on a B whose columns nearly repeat, the step compacts and measures E.
_DEFER_ROUNDING = 0.1
_EPS = float(np.finfo(float).eps)


class _Basis:
    """The columns of B, shared by the snapshots of one stream.

    A snapshot's B is the first b columns of ``array``: an E the library
    wrote (read-only, with b its width), or the transpose of a
    ``width``-by-m buffer, whose rows each hold one column of B. The first
    update of a snapshot to ``claim`` column b appends its batch there in
    place; any other copies the b columns into a fresh buffer first, so no
    snapshot's B ever changes. ``dict.setdefault`` makes a claim atomic.
    """

    __slots__ = ("array", "width", "claims")

    def __init__(self, array: np.ndarray, width: int):
        self.array, self.width, self.claims = array, width, {}

    def claim(self, b: int) -> bool:
        token = object()
        return self.claims.setdefault(b, token) is token


class _Rotation(_Record):
    """A snapshot's eigen form with ``E = B W`` held as its factors: B the
    first b columns of ``basis.array``, ``gram`` its Gram ``G = B^T B`` as
    the Grams summed it and ``coef`` the b-by-r W."""

    _fields = ("alpha", "D", "basis", "b", "gram", "coef")

    @classmethod
    def of(cls, ef: EigenFactor, gram: np.ndarray | None = None) -> "_Rotation":
        """B = E and W = I for a checked E, G its Gram as measured, by
        ``_self_gram`` when not given."""
        r = ef.rank
        identity = np.eye(r)
        gram = _self_gram(ef.E) if gram is None else gram
        return _unchecked(cls, ef.alpha, ef.D, _Basis(ef.E, _DEFER_GROWTH * r), r, gram, identity)


class MetricModel(_Record):
    """Immutable snapshot ``alpha*I + E diag(D) E^T``, stored as its eigen form.

    The eigen form, all an update reads, scores in O(m n). A snapshot that
    ``update`` left deferred holds E as ``B W``; ``eigen`` is then built on
    first read, by one pass of ``B @ W`` under the measured check of E, and
    cached. ``factor`` is a view of it built on first use:
    ``LowRankFactor(alpha, E, diag(D))``, Q being E. Positive definiteness
    is an invariant. ``_weights`` holds the scoring weights ``1/(alpha + d_i)
    - 1/alpha`` of ``distance``, computed once; it is not a field, so the
    repr leaves it out."""

    _fields = ("eigen", "stats")

    def __init__(self, eigen: EigenFactor, stats: UpdateStats | None = None):
        if not isinstance(eigen, EigenFactor):
            raise TypeError(f"eigen must be an EigenFactor, got {type(eigen).__name__}")
        self.__dict__.update(_snapshot(_Rotation.of(eigen), stats), eigen=eigen)

    @classmethod
    def identity(cls, m: int, alpha: float = 1.0) -> "MetricModel":
        return cls.from_factor(LowRankFactor.identity(m, alpha))

    @classmethod
    def from_factor(cls, factor: LowRankFactor) -> "MetricModel":
        return cls(factor_to_eig(factor.alpha, factor.Q, factor.B))

    @cached_property
    def eigen(self) -> EigenFactor:
        held = self._held
        return _lifted(held.alpha, *_rotate([held.basis.array[:, :held.b]], held.coef), held.D)

    @cached_property
    def factor(self) -> LowRankFactor:
        return _unchecked(LowRankFactor, self.eigen.alpha, self.eigen.E, np.diag(self.eigen.D))

    @property
    def dim(self) -> int:
        return self._held.basis.array.shape[0]

    @property
    def rank(self) -> int:
        return self._held.D.size


def _snapshot(held: _Rotation, stats: UpdateStats | None) -> dict:
    """A snapshot's instance state besides ``eigen``, or ``ValueError``
    unless it is positive definite."""
    if held.alpha <= 0.0:
        raise ValueError("model must be positive definite: alpha <= 0")
    if held.D.size and float(held.alpha + held.D[-1]) <= 0.0:
        raise ValueError("model must be positive definite: nonpositive eigenvalue")
    weights = 1.0 / (held.alpha + held.D) - 1.0 / held.alpha
    return {"stats": stats, "_weights": weights, "_held": held}


def _model(held: _Rotation, stats: UpdateStats, eigen: EigenFactor | None = None) -> MetricModel:
    """A snapshot the library derived from a valid one, checked only for
    positive definiteness; without eigen, E is built on first read."""
    model = object.__new__(MetricModel)
    if eigen is not None:
        model.__dict__["eigen"] = eigen
    model.__dict__.update(_snapshot(held, stats))
    return model


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
    eigenvalues; the kept columns of the new E are then held as ``B W`` or
    written once.
    """
    held, m = model._held, model.dim
    decayed_alpha = float(cfg.decay * held.alpha)
    data = WeightedData.from_weighted(batch.vectors, cfg.gain * batch.weights, dim=m)
    nx, ny = data.X.shape[1], data.Y.shape[1]
    core = deferred = None
    if nx + ny and held.D.size + nx + ny <= m:
        deferred = _deferred_core(held, cfg.decay, data)

    if nx + ny == 0:
        path, alpha, d = "decay", decayed_alpha, cfg.decay * held.D
    elif deferred is not None and deferred[0] is not None:
        path, alpha, core = "fast", decayed_alpha, deferred[0]
    else:
        # compact first, then decompose as fast_eigh or the dense path does
        prev = model.eigen
        decayed = _unchecked(LowRankFactor, decayed_alpha, prev.E, np.diag(cfg.decay * prev.D))
        if prev.rank + nx + ny > m:
            path = "dense"
            ef = dense_fallback(decayed_alpha, decayed, data)
            alpha, d, basis = ef.alpha, ef.D, ef.E
        else:
            path, alpha = "fast", decayed_alpha
            if deferred is None:  # Z to be scaled: fast_eigh's own choice of route
                core = _core_eig(decayed, data)
            else:
                # the Gram route declined on [B Z]; on [E Z] its novelty
                # ratio is the same up to rounding, so it is not tried again
                core = _two_pass_core(prev.E, decayed.B, (data.X, data.Y), _signs(data))
            deferred = None
    if core is not None:
        d = core.eig.D

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

    def stats(orthogonality, compacted):
        route = (core.route, core.novelty_ratio, core.dropped) if core else (None, None, 0)
        return UpdateStats(path, floored, tau is not None, tau, *route, orthogonality,
                           alpha, _condition(alpha, d, m), variance, compacted)

    if path == "decay":
        held = _unchecked(_Rotation, alpha, d, held.basis, held.b, held.gram,
                          held.coef[:, columns])
        return _model(held, stats(None, False))
    if path == "dense":
        ef = _unchecked(EigenFactor, alpha, _take_columns(basis, columns), d)
        return _model(_Rotation.of(ef), stats(None, True), ef)
    _check_descending(d)
    v = core.eig.E[:, columns]
    if deferred is None:
        e, gram = core.lift(v)
    else:
        # W' = [[W (V1 - P C)], [C]] and G' = [[G, B^T Z], [Z^T B, Z^T Z]]
        n, b, k, basis = held.D.size, held.b, nx + ny, deferred[1]
        coef = core.coef(v)
        coef = np.concatenate([held.coef @ coef[:n], coef[n:]])
        if b + k <= held.basis.width:
            gram = np.empty((b + k, b + k))
            gram[:b, :b], gram[:b, b:] = held.gram, deferred[2]
            gram[b:, :b], gram[b:, b:] = deferred[2].T, deferred[3]
            orthogonality = _deferred_orthogonality(gram, coef)
            if orthogonality is not None:
                if basis is None:
                    basis = _appended(held.basis, b, (data.X, data.Y))
                held = _unchecked(_Rotation, alpha, d, basis, b + k, gram, coef)
                return _model(held, stats(orthogonality, False))
        e, gram = _rotate(core.parts, coef)
    ef = _lifted(alpha, e, gram.copy(), d)
    return _model(_Rotation.of(ef, gram), stats(ef.orthogonality, True), ef)


def _deferred_core(held: _Rotation, decay: float, data: WeightedData):
    """``(core, basis, B^T Z, Z^T Z)`` of a step on ``E = B W`` from the
    block Gram of ``[B Z]``, with ``P = W^T (B^T Z)``: core is the Gram
    route's, or None where that route declines, for such a step compacts
    and takes the two-pass route. The result is None where ``fast_eigh``
    would scale Z. When B is held in a buffer with room for Z, Z is
    appended to it first, and the core's parts are B and that Z, read from
    the returned basis. Else basis is None and the parts are B, X and Y: B
    is a compacted E, whose step copies E and Z into a buffer only if it
    defers, or B is full and the step compacts."""
    b, blocks = held.b, (data.X, data.Y)
    k = data.X.shape[1] + data.Y.shape[1]
    parts, basis = (held.basis.array[:, :b], *blocks), None
    if b + k <= held.basis.array.shape[1]:
        basis = _appended(held.basis, b, blocks)
        parts = (basis.array[:, :b], basis.array[:, b:b + k])
    core_b = np.diag(decay * held.D)
    with np.errstate(over="ignore", invalid="ignore"):
        qz, zz = _block_gram(parts[0], parts[1:])
        p = held.coef.T @ qz
        trace = float(zz.trace())
        if not _in_band(data.dim, zz, trace, _norm(p)):
            return None
        gram = _svqr(core_b, p, zz, trace, 1.0, _signs(data))
    return _gram_core(core_b, parts, gram), basis, qz, zz


def _deferred_orthogonality(gram: np.ndarray, coef: np.ndarray) -> float | None:
    """``||W^T G W - I||_F`` of ``E = B W``, or None unless it passes the
    check's tolerance with a rounding bound inside ``_DEFER_ROUNDING`` of it.
    Both products, and the later ``B @ W``, round within about ``sqrt(b) eps
    |W|^T |G| |W|`` (the probabilistic bound of Higham & Mary 2019, SISC 41),
    which grows with W where B's columns nearly repeat."""
    b, r = coef.shape
    ortho = coef.T @ (gram @ coef)
    ortho.reshape(-1)[::r + 1] -= 1.0
    norm, tol = _norm(ortho), 1e-10 * math.sqrt(max(1, r))
    size = np.abs(coef)
    bound = 2.0 * math.sqrt(b) * _EPS * _norm(size.T @ (np.abs(gram) @ size))
    return norm if norm <= tol and bound <= _DEFER_ROUNDING * tol else None


def _appended(basis: _Basis, b: int, blocks) -> _Basis:
    """The basis whose first columns are B's b and then the blocks': basis
    itself when this step claims column b of its buffer, else a fresh buffer
    of the same width with B copied in. Rows of a buffer are contiguous, so
    each block is written as its transpose: one long copy per column."""
    k = sum(x.shape[1] for x in blocks)
    if b + k > basis.array.shape[1] or not basis.claim(b):
        rows = _aligned_empty((basis.width, basis.array.shape[0]))
        rows[:b] = basis.array[:, :b].T
        basis = _Basis(rows.T, basis.width)
    rows = basis.array.T
    for x in blocks:
        rows[b:b + x.shape[1]] = x.T
        b += x.shape[1]
    return basis
