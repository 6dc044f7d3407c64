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

import numpy as np


class DimensionError(ValueError):
    """Input shapes violate an operation's dimensional preconditions."""


class _Record:
    """Base of the library's immutable records.

    A subclass names its fields in ``_fields`` and sets them once, in its own
    ``__init__``, through ``self.__dict__``; assignment and deletion raise
    ``AttributeError``. The repr lists the fields as ``Name(f=value, ...)``.
    Records compare and hash by identity: most hold arrays, for which
    field-wise ``==`` has no single truth value. Plain classes rather than
    frozen dataclasses, because generating a dataclass's methods compiles and
    runs source code for each class when its module is imported.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class _ValueRecord(_Record):
    """A record without arrays, equal to another of its class when every
    field is, and hashed by its fields (a list field makes it unhashable)."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


class ThinSvd(_Record):
    """Thin SVD ``A = U @ diag(S) @ V.T`` of an m-by-k matrix, m >= k.

    U is m-by-k with orthonormal columns, S is nonnegative and sorted
    descending, V is k-by-k orthogonal.
    """

    _fields = ("U", "S", "V")

    def __init__(self, U: np.ndarray, S: np.ndarray, V: np.ndarray):
        if U.shape[1] != S.shape[0] or V.shape != (S.shape[0],) * 2:
            raise DimensionError("inconsistent thin-SVD factor shapes")
        if S.size and (np.any(S < 0.0) or np.any(np.diff(S) > 0.0)):
            raise ValueError("singular values must be nonnegative and descending")
        self.__dict__.update(U=U, S=S, V=V)


class SymEig(_Record):
    """Eigendecomposition ``B = E @ diag(D) @ E.T`` of a symmetric matrix.

    E is orthogonal, D is sorted descending.
    """

    _fields = ("E", "D")

    def __init__(self, E: np.ndarray, D: np.ndarray):
        if E.shape != (D.shape[0],) * 2:
            raise DimensionError("inconsistent eigendecomposition shapes")
        if D.size > 1 and (D[1:] > D[:-1]).any():
            raise ValueError("eigenvalues must be sorted descending")
        self.__dict__.update(E=E, D=D)


def _as_2d(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")


def _as_matrix(a, name: str) -> np.ndarray:
    a = _as_2d(a, name)
    _check_finite(a, name)
    return a


def _safe_scale(*arrays: np.ndarray) -> float:
    """Power-of-2 factor pulling the arrays' extreme magnitudes into a safe band.

    Entry squares must stay inside the normal double range or Gram products
    silently flush to zero/inf; dividing by an exact power of 2 costs no
    rounding. One factor serves all the arrays, set by their largest entry.
    Returns 1.0 for empty, zero, or already-safe input.
    """
    amax = max((float(max(a.max(), -a.min())) for a in arrays if a.size), default=0.0)
    if amax == 0.0 or 1e-70 <= amax <= 1e70:
        return 1.0
    return 2.0 ** math.floor(math.log2(amax))


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)``, its sum of squares rounded alike, without its
    Python-level dispatch. Unscaled: it overflows or underflows where the
    squares do, with numpy's warning unless the caller silences it."""
    x = a.ravel(order="K")
    return math.sqrt(x @ x)


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


# Products over the m rows are taken in row blocks of about this many bytes
# of operands, so a block's operands and result stay in cache. With OpenBLAS
# on an x86-64 Xeon (1 thread), writing Q V1 + X C_x + Y C_y for m = 2^18 and
# 2 columns each took 12 ms as three whole products, ~3.7 ms as three
# products per block of 5461 rows, and ~2.6 ms as one product per block from
# a packed panel (fast_eigh's thin kernels, ``_panels``). Panels of 128 KB
# instead of 512 KB made that lift ~20% slower.
_BLOCK_BYTES = 1 << 19


# An array of at most this many columns is thin: fast_eigh's block Gram and
# lift pack it into panels, and _self_gram takes its Gram by gemm (the
# crossovers are in the fast_eigh module docstring and _self_gram's).
_PANEL_MAX_WIDTH = 12


def _block_rows(width: int) -> int:
    """Rows in one row block of products over ``width`` columns."""
    return max(256, _BLOCK_BYTES // (8 * max(width, 1)))


def _row_blocks(m: int, width: int) -> list[slice]:
    """Row blocks covering ``range(m)`` for products over ``width`` columns;
    the first is the largest."""
    rows = _block_rows(width)
    return [slice(i, i + rows) for i in range(0, m, rows)]


def _panels(parts, width: int):
    """Yield ``(rows, panel)`` for each of ``_row_blocks(m, width)``: the
    panel is ``[parts][rows].T``, the row block of every part copied once,
    transposed, into one reused C-order buffer with a row per column."""
    m = parts[0].shape[0]
    step = _block_rows(width)
    buf = np.empty((sum(x.shape[1] for x in parts), min(step, m)))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        panel = buf[:, :min(step, m - start)]
        np.concatenate([x[rows].T for x in parts], out=panel)
        yield rows, panel


def _self_gram(a: np.ndarray) -> np.ndarray:
    """``a^T a``, equal to ``a.T @ a`` up to rounding.

    numpy sends ``a.T @ a`` to BLAS ``syrk``, because both operands share one
    buffer, and OpenBLAS runs ``syrk`` slowly on a few columns. A thin ``a``
    (2 to ``_PANEL_MAX_WIDTH`` columns, at least one row) is multiplied by a
    copy of itself instead, one ``_row_blocks`` block at a time through one
    reused buffer, so numpy calls ``gemm``; an array that fits in one block
    is copied whole. With OpenBLAS on an x86-64 Xeon (1 thread) at m = 4096,
    2^15 and 2^18, gemm took 0.40-0.85x syrk's time from 2 to 8 columns,
    0.80-1.23x at 12 and 1.2-1.7x from 16 up; at 2^18 rows, ~1.8-2.0 ms
    against ~3.1-3.4 ms at 6 columns and ~0.8 against ~1.3-1.5 ms at 2.
    """
    m, k = a.shape
    if not (m and 1 < k <= _PANEL_MAX_WIDTH):
        return a.T @ a
    rows = _block_rows(k)
    if m <= rows:
        return a.T @ a.copy()
    buf = a[:rows].copy()
    g = a[:rows].T @ buf
    for start in range(rows, m, rows):
        block = a[start:start + rows]
        copy = buf[:block.shape[0]]
        np.copyto(copy, block)
        g += block.T @ copy
    return g


def _take_columns(a: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``a[:, columns]`` gathered once into a fresh 64-byte-aligned array,
    returned read-only."""
    out = _aligned_empty((a.shape[0], columns.size))
    # mode="clip" writes straight into out; "raise" would stage a copy
    np.take(a, columns, axis=1, out=out, mode="clip")
    out.flags.writeable = False
    return out


def _check_orthonormal(a: np.ndarray, name: str) -> float:
    """``||a^T a - I||_F``, or ``ValueError`` unless the columns of ``a`` are
    finite and orthonormal.

    The Gram is ``_self_gram(a)``: ``gemm`` over row blocks on a thin ``a``,
    numpy's ``a.T @ a`` otherwise. Finiteness is read off it: its diagonal
    entry ``sum_i a_ij^2`` is finite exactly when column j is finite and no
    square overflowed, however the sum is split into blocks. So the O(m n)
    scan runs only when the norm of the Gram minus I is not finite, and
    raises the same message as ``_as_matrix``.
    """
    n = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        dev = _self_gram(a)
        dev.reshape(-1)[::n + 1] -= 1.0  # the Gram minus I, in place
        # unscaled: a norm that overflows is inf, over the tolerance like the
        # true one; one that underflows is within it, like the true one
        norm = _norm(dev)
    if norm <= 1e-10 * math.sqrt(max(1, n)):
        return norm
    if not math.isfinite(norm):
        _check_finite(a, name)
    raise ValueError(f"{name} does not have orthonormal columns")


def _check_symmetric(b: np.ndarray, name: str) -> bool:
    """True if exactly symmetric (~4-5 us at k = 2..40; the tolerance test takes
    ~16-23 us), False if only within 1e-12 relative, else ``ValueError``."""
    exact = bool((b == b.T).all())
    if not exact and _fro(b - b.T) > 1e-12 * max(1.0, _fro(b)):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return exact


def _unchecked(cls, *values):
    """``cls(*values)`` for a record, skipping the conversions and checks of
    its ``__init__``: for results the library computes from inputs it has
    already validated."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, values, strict=True))
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
        Symmetric up to roundoff; unless it is exactly symmetric, it is
        symmetrized as ``(b + b.T) / 2`` before decomposing.

    Returns
    -------
    SymEig
        Orthogonal eigenvectors and descending eigenvalues. The ascending
        eigenvalues of ``-b`` are the descending ones of ``b``, so exact ties
        keep their input order.
    """
    b = _as_matrix(b, "b")
    if b.shape[1] != b.shape[0]:
        raise DimensionError(f"symmetric_eig expects a square matrix, got {b.shape}")
    if not _check_symmetric(b, "input"):
        b = (b + b.T) / 2.0
    d, e = np.linalg.eigh(-b)
    return _unchecked(SymEig, e, -d)  # eigh's d ascends, so -d descends


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
    together."""
    q, blocks = _checked_blocks(q, blocks)
    _check_orthonormal(q, "q")
    return _project(q, blocks)


def _checked_blocks(q, blocks) -> tuple[np.ndarray, list[np.ndarray]]:
    """``q`` and the blocks as finite float matrices with q's row count."""
    q = _as_matrix(q, "q")
    blocks = [_as_matrix(x, "x") for x in blocks]
    m = q.shape[0]
    for x in blocks:
        if x.shape[0] != m:
            raise DimensionError(f"row counts differ: q has {m}, x has {x.shape[0]}")
    return q, blocks


def _project(q: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass projection of checked blocks. The residual is written in place
    into one fresh buffer, so the blocks are never concatenated."""
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
