"""Eigendecomposition of ``alpha*I + Q B Q^T + X X^T - Y Y^T`` in O(m r^2).

``augment`` absorbs the signed outer products of ``Z = [X Y]`` in one pass:
the novelty U of Z outside span(Q) is orthonormalized and appended to the
basis, and the small core picks up the signed cross terms. The core's
eigenvectors V are then rotated up as ``Q @ V[:n] + U @ V[n:]``, written
once into the result, so ``fast_eigh`` never builds ``[X Y]`` or ``[Q U]``;
``learner.update`` runs the same steps and rotates only the columns it keeps.
``factor_to_eig`` does the rotation for a basis given whole. ``svd_route``
and ``dense_fallback`` are the nonnegative-weight baseline and the O(m^3)
always-correct path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    DimensionError,
    SymEig,
    _aligned_empty,
    _as_matrix,
    _check_orthonormal,
    _fro,
    _residual,
    _unchecked,
    symmetric_eig,
    thin_svd,
)

# Singular directions of the projected-out novelty block at or below
# 1e-12 * max(sigma_max, ||X||_F) are dropped: their left vectors are
# arbitrary for (near-)zero singular values and need not be orthogonal to the
# existing basis, while their contribution to the product is O(eps_rank^2).
RANK_EPS = 1e-12


@dataclass(frozen=True)
class LowRankFactor:
    """Implicit symmetric matrix ``alpha*I + Q B Q^T``.

    Q is m-by-n with orthonormal columns, B is n-by-n symmetric, n <= m.
    """

    alpha: float
    Q: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        if not math.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        m, n = self.Q.shape
        if n > m:
            raise DimensionError(f"Q must be tall, got {m} x {n}")
        if self.B.shape != (n, n):
            raise DimensionError(f"B must be {n} x {n}, got {self.B.shape}")
        _check_orthonormal(self.Q, "Q")
        if _fro(self.B - self.B.T) > 1e-12 * max(1.0, _fro(self.B)):
            raise ValueError("B is not symmetric within tolerance")

    @classmethod
    def identity(cls, m: int, alpha: float) -> "LowRankFactor":
        """The rank-zero factor ``alpha*I`` on R^m."""
        return cls(alpha, np.zeros((m, 0)), np.zeros((0, 0)))

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def rank(self) -> int:
        return self.Q.shape[1]


@dataclass(frozen=True)
class WeightedData:
    """Signed-weight batch, pre-split into positive and negative parts.

    X holds columns ``sqrt(w_i) * x_i`` for positive weights, Y holds
    ``sqrt(-w_i) * x_i`` for negative weights, so the batch contributes
    ``X X^T - Y Y^T``.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _as_matrix(self.X, "X"))
        object.__setattr__(self, "Y", _as_matrix(self.Y, "Y"))
        if self.X.shape[0] != self.Y.shape[0]:
            raise DimensionError(
                f"X and Y row counts differ: {self.X.shape[0]} vs {self.Y.shape[0]}"
            )

    @classmethod
    def from_weighted(cls, vectors, weights, dim: int | None = None) -> "WeightedData":
        """Build from raw (vector, weight) pairs; zero weights are dropped."""
        w = np.asarray(weights, dtype=float)
        arr = np.asarray(vectors, dtype=float)
        if arr.size == 0:
            if dim is None:
                raise DimensionError("dim is required for an empty batch")
            arr = arr.reshape(0, dim)
        if arr.ndim != 2 or w.ndim != 1 or arr.shape[0] != w.shape[0]:
            raise DimensionError("vectors must be (count, m) matching weights (count,)")
        pos = w > 0.0
        neg = w < 0.0
        x = (arr[pos] * np.sqrt(w[pos])[:, None]).T
        y = (arr[neg] * np.sqrt(-w[neg])[:, None]).T
        return cls(np.ascontiguousarray(x), np.ascontiguousarray(y))

    @classmethod
    def empty(cls, m: int) -> "WeightedData":
        return cls(np.zeros((m, 0)), np.zeros((m, 0)))

    @property
    def dim(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class EigenFactor:
    """Thin eigendecomposition ``alpha*I + E diag(D) E^T``.

    E is m-by-r with orthonormal columns and D is sorted descending; the full
    spectrum is {alpha + d_i} plus alpha with multiplicity m - r.
    """

    alpha: float
    E: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "E", _as_matrix(self.E, "E"))
        object.__setattr__(self, "D", np.asarray(self.D, dtype=float))
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        r = self.E.shape[1]
        if self.D.shape != (r,):
            raise DimensionError(f"D must have length {r}, got {self.D.shape}")
        if self.D.size and np.any(np.diff(self.D) > 0.0):
            raise ValueError("D must be sorted descending")
        _check_orthonormal(self.E, "E")

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    @property
    def rank(self) -> int:
        return self.E.shape[1]

    def full_spectrum(self) -> np.ndarray:
        """All m eigenvalues, descending, with the implicit alpha block expanded."""
        m, r = self.E.shape
        values = np.concatenate([self.alpha + self.D, np.full(m - r, self.alpha)])
        return np.sort(values)[::-1]


def augment(q, b, x, sign) -> tuple[np.ndarray, np.ndarray]:
    """Absorb signed outer products: ``Q B Q^T + x W x^T = Qc Bc Qc^T``.

    ``sign`` is +1, -1 or a vector of +-1, one per column of ``x``; W is the
    diagonal matrix of those signs. With ``x = Q P + U R`` (P the part inside
    span(q), U the orthonormal novelty), the core is the block matrix
    ``[[B + P W P^T, P W R^T], [R W P^T, R W R^T]]`` and ``Qc = [Q U]``.
    Near-zero novelty directions are dropped (the returned basis may grow by
    fewer than ``x.shape[1]`` columns).

    Raises
    ------
    DimensionError
        If the combined rank would exceed the row count; use
        ``dense_fallback`` in that regime.
    """
    u, bc = _augment(q, b, (x,), sign)
    return np.hstack([q, u]), bc


def _augment(q, b, blocks, sign) -> tuple[np.ndarray, np.ndarray]:
    """Novelty basis U and core Bc of ``augment`` for ``Z = [blocks]``,
    validating every array.

    Returns U rather than ``[Q U]``, and Z is never concatenated: the
    projection residual is written in place into one buffer.
    """
    q = _as_matrix(q, "q")
    b = _as_matrix(b, "b")
    blocks = [_as_matrix(x, "x") for x in blocks]
    m, n = q.shape
    k = sum(x.shape[1] for x in blocks)
    w = np.asarray(sign, dtype=float)
    if w.ndim == 0:
        w = np.full(k, w)
    if w.shape != (k,) or np.any(np.abs(w) != 1.0):
        raise ValueError(f"sign must be +1, -1 or {k} values of +-1, got {sign}")
    if n + k > m:
        raise DimensionError(
            f"combined rank {n + k} exceeds dimension {m}; use dense_fallback"
        )
    p, res = _residual(q, blocks)
    svd = thin_svd(res)
    smax = float(svd.S[0]) if svd.S.size else 0.0
    eps_rank = RANK_EPS * max(smax, math.hypot(*(_fro(x) for x in blocks)))
    kp = int(np.count_nonzero(svd.S > eps_rank))
    u = svd.U[:, :kp]
    r = svd.S[:kp, None] * svd.V[:, :kp].T
    pw = p * w
    cross = pw @ r.T
    bc = np.block([[b + pw @ p.T, cross], [cross.T, (r * w) @ r.T]])
    return u, (bc + bc.T) / 2.0


def _rotate(q: np.ndarray, v: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """``[q u] @ v`` written once into a fresh 64-byte-aligned array, without
    building ``[q u]``."""
    n = q.shape[1]
    out = _aligned_empty((q.shape[0], v.shape[1]))
    np.matmul(q, v[:n], out=out)
    if u is not None and u.shape[1]:
        out += u @ v[n:]
    return out


def factor_to_eig(alpha: float, q_a, b_a) -> EigenFactor:
    """Turn ``alpha*I + Qa Ba Qa^T`` into a thin eigendecomposition.

    Diagonalizes the small core and rotates its eigenvectors up through the
    orthonormal basis.
    """
    q_a = _as_matrix(q_a, "q_a")
    eig = symmetric_eig(b_a)
    return EigenFactor(alpha, _rotate(q_a, eig.E), eig.D)


def _core_eig(factor: LowRankFactor, data: WeightedData) -> tuple[np.ndarray, SymEig]:
    """``fast_eigh`` before its rotation: the novelty basis U and the core's
    eigendecomposition, whose eigenvectors up in R^m are ``[Q U] @ eig.E``."""
    m = factor.dim
    if data.dim != m:
        raise DimensionError(f"data dimension {data.dim} does not match factor {m}")
    sign = np.concatenate([np.ones(data.X.shape[1]), -np.ones(data.Y.shape[1])])
    u, b_a = _augment(factor.Q, factor.B, (data.X, data.Y), sign)
    return u, symmetric_eig(b_a)


def fast_eigh(alpha: float, factor: LowRankFactor, data: WeightedData) -> EigenFactor:
    """Thin eigendecomposition of ``alpha*I + Q B Q^T + X X^T - Y Y^T``.

    The identity coefficient is the ``alpha`` argument; ``factor.alpha`` is
    not consulted, so callers can fold any scaling of the base matrix into
    ``alpha`` and ``B`` before the call. Cost is O(m (n + nx + ny)^2).

    Raises
    ------
    DimensionError
        If n + nx + ny > m; use ``dense_fallback`` there instead.
    """
    u, eig = _core_eig(factor, data)
    return EigenFactor(alpha, _rotate(factor.Q, eig.E, u), eig.D)


def svd_route(alpha: float, x) -> EigenFactor:
    """Eigendecomposition of ``alpha*I + X X^T`` through the thin SVD of X.

    Only covers the all-nonnegative-weight case (no subtracted block):
    eigenvalues are ``alpha + s_i^2`` with the left singular vectors as
    eigenvectors. Baseline for benchmarks and for cross-checking the general
    pipeline.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    svd = thin_svd(x)
    smax = float(svd.S[0]) if svd.S.size else 0.0
    eps_rank = RANK_EPS * max(smax, _fro(np.asarray(x, dtype=float)))
    kp = int(np.count_nonzero(svd.S > eps_rank))
    return _unchecked(EigenFactor, alpha, svd.U[:, :kp], svd.S[:kp] ** 2)


def _dense_matrix(alpha: float, factor: LowRankFactor, data: WeightedData) -> np.ndarray:
    """Entrywise ``alpha*I + Q B Q^T + X X^T - Y Y^T`` as a dense m-by-m array."""
    m = factor.dim
    if data.dim != m:
        raise DimensionError(f"data dimension {data.dim} does not match factor {m}")
    a = alpha * np.eye(m)
    a += factor.Q @ factor.B @ factor.Q.T
    a += data.X @ data.X.T
    a -= data.Y @ data.Y.T
    return (a + a.T) / 2.0


def dense_fallback(alpha: float, factor: LowRankFactor, data: WeightedData) -> EigenFactor:
    """Materialize the full matrix and decompose it densely, O(m^3).

    Always applicable; returns all m eigenpairs as an EigenFactor with
    ``alpha = 0`` and rank m. This is the recommended path when the combined
    rank approaches m, and the reference the fast path is tested against.
    """
    eig = symmetric_eig(_dense_matrix(alpha, factor, data))
    return _unchecked(EigenFactor, 0.0, eig.E, eig.D)
