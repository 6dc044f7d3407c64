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
B is the last compacted E, left where its compaction (or the caller) wrote
it, followed by each later step's ``Z = [X Y]``, which a buffer of batch
rows shared by the stream's snapshots holds, one column of B per row; G is
B's measured Gram ``B^T B`` and W a b-by-r coefficient. A batch enters B
once: where the batch rows have room for it, a fast step writes each kept
vector's signed row ``sqrt(gain |w_i|) x_i`` straight into the buffer
after them, those of positive weight first, then those of negative
weight, each in input order, which is ``[X Y]^T`` of ``WeightedData``
entry for entry. It hands B's parts, that Z and W to
``fast_eigh._gram_route``, the one code of the Gram route, as
``fast_eigh`` hands it Q, X and Y: it sums the block Gram of ``[B Z]``,
the step's one pass over the m rows, which is also the test that Z is
finite, forms ``P = W^T (B^T Z)``, scales Z where its Gram leaves the safe
band, and builds the core. A step that reads X and Y instead (no room
left, the two-pass route after a decline, the dense path) builds them
from the same signed rows, in C order. The core carries
W, so its coefficients of the kept eigenvectors V on ``[B Z]`` are ``W' =
[[W (V1 - P C)], [C]]``, ``C = R^-1 V2``. What this module keeps is the
buffer and the ``B W`` bookkeeping: the Gram's ``B^T Z`` and ``Z^T Z``,
returned where Z was not scaled, extend G, and the check of E is
``||W'^T G' W' - I||_F``, all on b-sized arrays.

The step compacts instead, writing ``E = B' W'`` in one ``kernels._rotate``
pass, as ``fast_eigh`` lifts, under the measured check of E, when the batch
rows would outgrow ``_DEFER_GROWTH - 1`` times the columns of the compacted
E, when Z was scaled, or when the rounding bound of the deferred check
passes ``_DEFER_ROUNDING`` of its tolerance; that E starts the next B, and
no buffer holds a copy of it. A step off the Gram route (two-pass route,
dense fallback) compacts the previous snapshot by reading its ``eigen``,
then runs as ``fast_eigh``'s two-pass route or ``dense_fallback`` does and
writes its E, the dense path by gathering the kept columns; where the Gram
route declined on ``[B Z]``, the step goes straight to the two-pass route
rather than try it again on ``[E Z]``. The Gram route's guard reads the
loss of orthogonality that the snapshot's last check measured, kept with
it, so a batch near span(E) that would amplify that loss takes the two-pass
route. A decay-only step touches no m-row data: it keeps B and takes W's
kept columns. A deferred snapshot builds ``eigen`` on first read, by the
compaction's pass and check, and caches it. A Gram-route step never reads
it, so reading E changes neither that step's work nor any step's result.
Every snapshot, whatever its path, is checked positive definite on alpha
and the last d.
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
    _derived_factor,
    _gram_route,
    _lifted,
    _signed_pairs,
    _signed_rows,
    _signs,
    _two_pass_core,
    dense_fallback,
    factor_to_eig,
)
from .kernels import (
    _Record,
    _ValueRecord,
    _aligned_empty,
    _norm,
    _orthonormal_tolerance,
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
        if weights.ndim != 1:
            raise DimensionError(f"weights must be one-dimensional, got shape {weights.shape}")
        if vectors.shape[0] != weights.shape[0]:
            raise DimensionError(f"{vectors.shape[0]} vectors but {weights.shape[0]} weights")
        if not np.isfinite(weights).all():
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
    """The batch rows of one stream's B, shared by its snapshots.

    ``rows`` is a ``(_DEFER_GROWTH - 1) * n``-by-m buffer, n the columns of
    the compacted E that starts B: row i holds column n + i of B, so a
    snapshot's B is that E followed by ``rows[:j].T``. The first update of a
    snapshot to ``claim`` row j appends its batch there in place; any other
    copies the j rows into a fresh buffer first, so no snapshot's B ever
    changes. ``dict.setdefault`` makes a claim atomic. A step that claimed
    row j but whose snapshot does not hold the rows it wrote there (it
    compacted, or it raised) releases the claim when it ends, so a later
    step of that snapshot appends in place.
    """

    __slots__ = ("rows", "claims")

    def __init__(self, rows: np.ndarray):
        self.rows, self.claims = rows, {}

    def claim(self, j: int) -> bool:
        token = object()
        return self.claims.setdefault(j, token) is token

    def release(self, j: int) -> None:
        """Give back the claim on row j (none on a buffer no step claimed)."""
        self.claims.pop(j, None)


class _Rotation(_Record):
    """A snapshot's eigen form with ``E = B W`` held as its factors: B the
    compacted ``E0`` (where the compaction wrote it) followed by the first
    j batch rows of ``basis`` (None until a step defers), ``gram`` its Gram
    ``G = B^T B`` as the Grams summed it, ``coef`` the b-by-r W and ``loss``
    the last check's ``||E^T E - I||_F`` (0 where no check measured E)."""

    _fields = ("alpha", "D", "E0", "basis", "j", "gram", "coef", "loss")

    @classmethod
    def of(cls, ef: EigenFactor, gram: np.ndarray | None = None) -> "_Rotation":
        """B = E and W = I for a checked E, G its Gram as measured, by
        ``_self_gram`` when not given."""
        gram = _self_gram(ef.E) if gram is None else gram
        return _unchecked(cls, ef.alpha, ef.D, ef.E, None, 0, gram, np.eye(ef.D.size),
                          ef.orthogonality or 0.0)

    def parts(self) -> tuple:
        """B as the parts a block Gram or a lift reads: E0, then the rows."""
        return (self.E0, self.basis.rows[:self.j].T) if self.j else (self.E0,)


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
        return _lifted(held.alpha, *_rotate(held.parts(), held.coef), held.D)

    @cached_property
    def factor(self) -> LowRankFactor:
        ef = self.eigen
        return _derived_factor(ef.alpha, ef.E, np.diag(ef.D), ef.orthogonality)

    @property
    def dim(self) -> int:
        return self._held.E0.shape[0]

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
    # full descends, so the eigenvalues below the floor are its last ones
    floored_explicit = int(full[::-1].searchsorted(floor))
    alpha_raised = alpha < floor
    if floored_explicit == 0 and not alpha_raised:
        return alpha, d, 0
    new_alpha = float(max(alpha, floor))
    new_d = np.maximum(full, floor, out=full)
    new_d -= new_alpha
    # The subtraction can make alpha + d round back below the floor; nudge
    # such entries up so the reconstructed eigenvalue honors it exactly.
    # new_alpha + new_d descends too, so they are the last ones.
    if new_d.size and new_alpha + new_d[-1] < floor:
        d_floor = floor - new_alpha
        while new_alpha + d_floor < floor:
            d_floor = math.nextafter(d_floor, math.inf)
        np.maximum(new_d, d_floor, out=new_d, where=new_alpha + new_d < floor)
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
    held = model._held
    m = held.E0.shape[0]
    pairs = _signed_pairs(batch.vectors, batch.weights, m, cfg.gain)
    k = len(pairs[1])
    # a fast step writes its batch's rows after B's where they fit
    basis = _basis_for(held, k) if k and held.D.size + k <= m else None
    out = None
    try:
        out = _step(model, m, cfg, pairs, basis)
        return out
    finally:
        # a claimed row j stays claimed only while a snapshot holds the rows
        # written there
        if basis is not None and (out is None or out._held.basis is not basis):
            basis.release(held.j)


def _step(model: MetricModel, m: int, cfg: UpdateConfig, pairs, basis: _Basis | None):
    """``update`` of model, of dimension m, by the batch of ``_signed_pairs``,
    its signed rows written into basis from row j where basis is given."""
    held, (_, kept, nx) = model._held, pairs
    decayed_alpha = float(cfg.decay * held.alpha)
    k = len(kept)
    path, alpha, core, grown = "fast", decayed_alpha, None, None
    if k == 0:
        path, d = "decay", cfg.decay * held.D
    elif held.D.size + k > m:
        # compact first, then decompose as the dense path does
        path, data, prev = "dense", WeightedData._of(pairs), model.eigen
        decayed = _derived_factor(decayed_alpha, prev.E, np.diag(cfg.decay * prev.D), held.loss)
        ef = dense_fallback(decayed_alpha, decayed, data)
        alpha, d, e = ef.alpha, ef.D, ef.E
    else:
        core, grown = _fast_core(model, cfg.decay, pairs, basis)
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
        held = _unchecked(_Rotation, alpha, d, held.E0, held.basis, held.j, held.gram,
                          held.coef[:, columns], held.loss)
        return _model(held, stats(None, False))
    if path == "dense":
        ef = _unchecked(EigenFactor, alpha, _take_columns(e, columns), d)
        return _model(_Rotation.of(ef), stats(None, True), ef)
    _check_descending(d)
    coef = core.coef(core.eig.E[:, columns])
    if grown is not None:
        orthogonality = _deferred_orthogonality(grown, coef)
        if orthogonality is not None:
            held = _unchecked(_Rotation, alpha, d, held.E0, basis, held.j + k, grown, coef,
                              orthogonality)
            return _model(held, stats(orthogonality, False))
    e, gram = _rotate(core.parts, coef)
    ef = _lifted(alpha, e, gram.copy(), d)
    return _model(_Rotation.of(ef, gram), stats(ef.orthogonality, True), ef)


def _fast_core(model: MetricModel, decay: float, pairs, basis: _Basis | None):
    """``(core, grown)`` of a fast step on ``E = B W``: core is
    ``_gram_route``'s on B's parts and Z with W as Q's coefficient; where
    that route declines, it is the two-pass route's on the compacted E,
    for on ``[E Z]`` the novelty ratio is the same up to rounding. Where
    basis is given, the batch's signed rows are written into its rows from
    j and Z is read from there; grown is then the Gram of the grown B,
    ``G' = [[G, B^T Z], [Z^T B, Z^T Z]]``, unless Z was scaled or the route
    declined. Else Z is ``WeightedData``'s X and Y, as on the two-pass
    route, and grown is None. The block Gram of ``[B Z]`` is the test that
    written rows are finite; behind a failure ``WeightedData`` names a
    non-finite or overflowing batch, as ``from_weighted`` does."""
    held, (_, kept, nx) = model._held, pairs
    j, k, r = held.j, len(kept), held.D.size
    signs, data = _signs(nx, k - nx), None
    b = np.zeros((r, r))
    b.reshape(-1)[::r + 1] = decay * held.D
    with np.errstate(over="ignore", invalid="ignore"):
        if basis is None:
            data = WeightedData._of(pairs)
            blocks = (data.X, data.Y)
        else:
            z = basis.rows[j:j + k]
            _signed_rows(pairs, z)
            blocks = (z.T,)
        try:
            core, grams = _gram_route(b, held.parts(), blocks, signs, held.loss, held.coef)
        except ValueError:
            if basis is not None:
                WeightedData._of(pairs)
            raise
    if core is None:
        data = WeightedData._of(pairs) if data is None else data
        return _two_pass_core(model.eigen.E, b, (data.X, data.Y), signs), None
    if basis is None or grams is None:
        return core, None
    (bz, zz), n = grams, held.gram.shape[0]
    grown = np.empty((n + k, n + k))
    grown[:n, :n], grown[:n, n:] = held.gram, bz
    grown[n:, :n], grown[n:, n:] = bz.T, zz
    return core, grown


def _deferred_orthogonality(gram: np.ndarray, coef: np.ndarray) -> float | None:
    """``||W^T G W - I||_F`` of ``E = B W``, or None unless it passes the
    check's tolerance with a rounding bound inside ``_DEFER_ROUNDING`` of it.
    Both products, and the later ``B @ W``, round within about ``sqrt(b) eps
    |W|^T |G| |W|`` (the probabilistic bound of Higham & Mary 2019, SISC 41),
    which grows with W where B's columns nearly repeat."""
    b, r = coef.shape
    ortho = coef.T @ (gram @ coef)
    ortho.reshape(-1)[::r + 1] -= 1.0
    norm, tol = _norm(ortho), _orthonormal_tolerance(r)
    size = np.abs(coef)
    bound = 2.0 * math.sqrt(b) * _EPS * _norm(size.T @ (np.abs(gram) @ size))
    return norm if norm <= tol and bound <= _DEFER_ROUNDING * tol else None


def _basis_for(held: _Rotation, k: int) -> _Basis | None:
    """The basis into whose rows from j a step on held writes its k batch
    rows: None where they would outgrow ``(_DEFER_GROWTH - 1) * n`` rows,
    for held's m-by-n E0; held's own when this step claims its row j; else
    a fresh buffer of that many rows, with held's j rows copied in."""
    basis, j, (m, n) = held.basis, held.j, held.E0.shape
    if j + k > (_DEFER_GROWTH - 1) * n:
        return None
    if basis is None or not basis.claim(j):
        rows = _aligned_empty(((_DEFER_GROWTH - 1) * n, m))
        if j:
            rows[:j] = basis.rows[:j]
        basis = _Basis(rows)
    return basis
