"""Dense kernels: thin SVD, symmetric eigensolver, projection.

Everything here is sized for small-to-moderate matrices (the low-rank cores
and the tall-skinny novelty blocks of the update pipeline). The SVD and the
eigensolver are LAPACK (``gesdd`` and ``syevd``) through ``numpy.linalg``,
which scales extreme magnitudes internally; a ``numpy.linalg.LinAlgError``
from either propagates unchanged. This module adds input validation and the
output conventions the pipeline relies on: descending order, and an
orthonormal V for the SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class DimensionError(ValueError):
    """Input shapes violate an operation's dimensional preconditions."""


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD ``A = U @ diag(S) @ V.T`` of an m-by-k matrix, m >= k.

    U is m-by-k with orthonormal columns, S is nonnegative and sorted
    descending, V is k-by-k orthogonal.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.shape[1] != self.S.shape[0] or self.V.shape != (self.S.shape[0],) * 2:
            raise DimensionError("inconsistent thin-SVD factor shapes")
        if self.S.size and (np.any(self.S < 0.0) or np.any(np.diff(self.S) > 0.0)):
            raise ValueError("singular values must be nonnegative and descending")


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition ``B = E @ diag(D) @ E.T`` of a symmetric matrix.

    E is orthogonal, D is sorted descending.
    """

    E: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if self.E.shape != (self.D.shape[0],) * 2:
            raise DimensionError("inconsistent eigendecomposition shapes")
        if self.D.size and np.any(np.diff(self.D) > 0.0):
            raise ValueError("eigenvalues must be sorted descending")


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {a.shape}")
    # A NaN or infinite entry makes the sum non-finite, so a finite sum proves
    # every entry finite without an m-by-r temporary; a sum that overflowed
    # from finite entries falls through to the exact scan.
    if not math.isfinite(a.sum()) and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _safe_scale(a: np.ndarray) -> float:
    """Power-of-2 factor pulling extreme magnitudes into a safe band.

    Entry squares must stay inside the normal double range or Gram products
    silently flush to zero/inf; dividing by an exact power of 2 costs no
    rounding. Returns 1.0 for empty, zero, or already-safe input.
    """
    if a.size == 0:
        return 1.0
    amax = float(max(a.max(), -a.min()))
    if amax == 0.0 or 1e-70 <= amax <= 1e70:
        return 1.0
    return 2.0 ** math.floor(math.log2(amax))


def _fro(a: np.ndarray) -> float:
    scale = _safe_scale(a)
    if scale == 1.0:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a / scale)) * scale


# Scoring is a matrix-vector product over E. With OpenBLAS on an x86-64 Xeon,
# m = 4096 and rank 32, it ran ~25% faster from a cache-line (64-byte)
# aligned start than from the 16-byte alignment malloc guarantees, so where E
# happened to land decided the scoring speed.
_ALIGN = 64


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """Uninitialized C-contiguous float array starting on a 64-byte boundary."""
    nbytes = 8 * shape[0] * shape[1]
    buf = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    return buf[start:start + nbytes].view(np.float64).reshape(shape)


def _take_columns(a: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``a[:, columns]`` gathered once into a fresh 64-byte-aligned array."""
    out = _aligned_empty((a.shape[0], columns.size))
    # mode="clip" writes straight into out; "raise" would stage a copy
    return np.take(a, columns, axis=1, out=out, mode="clip")


def _check_orthonormal(a: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless the columns of ``a`` are orthonormal."""
    n = a.shape[1]
    if _fro(a.T @ a - np.eye(n)) > 1e-10 * math.sqrt(max(1, n)):
        raise ValueError(f"{name} does not have orthonormal columns")


def _unchecked(cls, *values):
    """``cls(*values)`` for a frozen dataclass, skipping ``__post_init__``: for
    results the library computes from inputs it has already validated."""
    obj = object.__new__(cls)
    for field, value in zip(fields(cls), values, strict=True):
        object.__setattr__(obj, field.name, value)
    return obj


def thin_svd(a) -> ThinSvd:
    """Thin SVD of a tall matrix (LAPACK ``gesdd``).

    Parameters
    ----------
    a : array_like, shape (m, k) with m >= k
        Matrix to decompose. May be rank deficient; the left vectors attached
        to (near-)zero singular values are still orthonormal.

    Returns
    -------
    ThinSvd
        Factors with ``U @ diag(S) @ V.T`` reconstructing ``a``.
    """
    a = _as_matrix(a, "a")
    m, k = a.shape
    if k > m:
        raise DimensionError(f"thin_svd expects m >= k, got {m} x {k}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return ThinSvd(u, s, vt.T)


def symmetric_eig(b) -> SymEig:
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Parameters
    ----------
    b : array_like, shape (k, k)
        Symmetric up to roundoff; it is symmetrized as ``(b + b.T) / 2``
        before decomposing.

    Returns
    -------
    SymEig
        Orthogonal eigenvectors and descending eigenvalues. The ascending
        eigenvalues of ``-b`` are the descending ones of ``b``, so exact ties
        keep their input order.
    """
    b = _as_matrix(b, "b")
    k = b.shape[0]
    if b.shape[1] != k:
        raise DimensionError(f"symmetric_eig expects a square matrix, got {b.shape}")
    if _fro(b - b.T) > 1e-12 * max(1.0, _fro(b)):
        raise ValueError("input is not symmetric within tolerance")
    d, e = np.linalg.eigh(-(b + b.T) / 2.0)
    return SymEig(e, -d)


def orthonormal_residual(q, x) -> tuple[np.ndarray, np.ndarray]:
    """Split ``x`` into its component inside span(q) and the residual.

    Returns ``(p, xres)`` with ``x == q @ p + xres`` and ``q.T @ xres ~ 0``.
    Two projection passes are used: a single pass loses orthogonality when
    ``x`` lies nearly inside span(q), and ``p`` accumulates both passes so the
    additive split stays exact to roundoff.
    """
    return _residual(q, (x,))


def _residual(q, blocks) -> tuple[np.ndarray, np.ndarray]:
    """``orthonormal_residual`` of the column blocks ``[x1 x2 ...]`` taken
    together. The residual is written in place into one fresh buffer, so the
    blocks are never concatenated."""
    q = _as_matrix(q, "q")
    blocks = [_as_matrix(x, "x") for x in blocks]
    m = q.shape[0]
    for x in blocks:
        if x.shape[0] != m:
            raise DimensionError(f"row counts differ: q has {m}, x has {x.shape[0]}")
    _check_orthonormal(q, "q")
    p = np.hstack([q.T @ x for x in blocks])
    res = q @ p
    start = 0
    for x in blocks:
        cols = res[:, start:start + x.shape[1]]
        np.subtract(x, cols, out=cols)
        start += x.shape[1]
    p2 = q.T @ res
    res -= q @ p2
    return p + p2, res
