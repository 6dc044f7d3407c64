"""Dense kernels, and every pass of the library over the m rows.

The SVD and the eigensolver are LAPACK (``gesdd`` and ``syevd``) through
``numpy.linalg``, which scales extreme magnitudes internally; a
``numpy.linalg.LinAlgError`` from either propagates unchanged. This module
adds input validation and the output conventions the pipeline relies on:
descending order, and an orthonormal V for the SVD.

The O(m r^2) passes are the block Gram of ``[Q X Y]`` (``_block_gram``, Q
given as one or more leading parts), the lift ``E = [Q X Y] @ coef``
(``_rotate``) and the Gram ``A^T A`` of an orthonormality check
(``_self_gram``). Each loops over the same row blocks,
``_row_blocks(m, width)``: m cut into even blocks of about ``_BLOCK_BYTES``
of operands, so a block stays in cache and no tail of a few rows costs a
block's calls. The kernel is chosen by the width alone (Goto & van de Geijn
2008, "Anatomy of high-performance matrix multiplication"):

- Up to ``_PANEL_MAX_WIDTH`` columns, each row block of the parts is copied
  once into a reused ``(width, rows)`` C-order panel (``_panels``), and one
  BLAS call per block does the work: ``panel @ panel[n:].T`` for the Gram,
  ``out[rows] = panel.T @ coef`` for the lift.
- Wider, each block takes one product per pair of arrays, summed in place;
  there the products are wide enough for BLAS and a packing copy only adds
  traffic.

From 2 to ``_PANEL_MAX_WIDTH`` columns a check's Gram is summed by
``_add_gram``, one ``gemm`` per block against a copy of the block (numpy's
``syrk`` is slow on a few columns): for the lift's E, each block just after
it is written and still in cache; for any other array, by ``_self_gram``.
The Gram of an E of any other width is one more pass, ``_self_gram`` after
the lift, unless the caller checks E without it: ``fast_eigh`` reads the
check of a wide E off ``E^T E = K^T G K`` for ``E = [Q X Y] K``, G the Gram
of ``[Q X Y]`` that the per-block kernel sums whole when asked, Q^T Q
included.
"""

from __future__ import annotations

import ctypes
import math
from itertools import accumulate

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


# _safe_scale's band: an array whose largest magnitude lies in it has normal
# entry squares, and is left unscaled
_SAFE_LOW, _SAFE_HIGH = 1e-70, 1e70


def _safe_scale(*arrays: np.ndarray) -> float:
    """Power-of-2 factor pulling the arrays' extreme magnitudes into the safe band.

    Entry squares must stay inside the normal double range or Gram products
    silently flush to zero/inf; dividing by an exact power of 2 costs no
    rounding. One factor serves all the arrays, set by their largest entry.
    Returns 1.0 for empty, zero, or already-safe input.
    """
    amax = max((float(max(a.max(), -a.min())) for a in arrays if a.size), default=0.0)
    if amax == 0.0 or _SAFE_LOW <= amax <= _SAFE_HIGH:
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


# Scoring is a matrix-vector product over E, and it measured faster from a
# cache-line (64-byte) aligned start than from the 16-byte alignment malloc
# guarantees, so where E happened to land decided the scoring speed (figures
# in CHANGES.md).
_ALIGN = 64


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """Uninitialized C-contiguous float array starting on a 64-byte boundary,
    found by ctypes (``ndarray.ctypes`` builds a Python object per access)."""
    size = shape[0] * shape[1]
    buf = np.empty(size + _ALIGN // 8)
    start = -ctypes.addressof(ctypes.c_char.from_buffer(buf)) % _ALIGN // 8
    return buf[start:start + size].reshape(shape)


# Products over the m rows are taken in row blocks of about this many bytes
# of operands, so a block's operands and result stay in cache: a thin lift so
# blocked measured well ahead of whole products, and smaller blocks measured
# slower (figures in CHANGES.md).
_BLOCK_BYTES = 1 << 19


# An array of at most this many columns is thin: the block Gram and the lift
# pack it into panels, and its Gram is summed by gemm.
_PANEL_MAX_WIDTH = 12


def _block_rows(width: int) -> int:
    """Rows in a full row block of products over ``width`` columns."""
    return max(256, _BLOCK_BYTES // (8 * max(width, 1)))


def _row_blocks(m: int, width: int) -> list[slice]:
    """The row blocks of every pass over ``range(m)`` with ``width`` columns,
    ``ceil(m / c)`` rows each for ``c = round(m / _block_rows(width))`` (at
    least 1) but the last, which is shorter by less than c: no tail of a few
    rows costs a block's calls. The first is the largest."""
    count = max(1, round(m / _block_rows(width)))
    starts = range(0, m, max(1, -(-m // count)))
    return [*map(slice, starts, [*starts[1:], m])]


def _panels(parts, blocks: list[slice]):
    """Yield ``(rows, panel)`` for each row block, the panel ``[parts][rows].T``
    copied into the start of one reused flat buffer: it is C-contiguous, and
    free for other use once read, until the next block."""
    total = sum(x.shape[1] for x in parts)
    buf = np.empty(total * blocks[0].stop)
    for rows in blocks:
        panel = buf[:total * (rows.stop - rows.start)].reshape(total, -1)
        np.concatenate([x[rows].T for x in parts], out=panel)
        yield rows, panel


def _gemm_gram(k: int) -> bool:
    """Whether ``_add_gram`` sums the Gram of k columns, not ``syrk``, which
    measured slower than gemm on a few columns (crossover in CHANGES.md)."""
    return 1 < k <= _PANEL_MAX_WIDTH


def _add_gram(g, block: np.ndarray, copy: np.ndarray) -> np.ndarray:
    """``g + block^T block`` (g None for 0) by one ``gemm`` of the block with
    its copy, written into ``copy``, a buffer of its shape: numpy sends
    ``block.T @ block``, one buffer, to ``syrk``, slow on a few columns."""
    np.copyto(copy, block)
    return block.T @ copy if g is None else np.add(g, block.T @ copy, out=g)


def _self_gram(a: np.ndarray) -> np.ndarray:
    """``a^T a`` up to rounding: ``_add_gram`` over row blocks if ``_gemm_gram``
    and a has rows, else numpy's ``syrk``."""
    m, k = a.shape
    if not (m and _gemm_gram(k)):
        return a.T @ a
    blocks = _row_blocks(m, k)
    buf, g = np.empty((blocks[0].stop, k)), None
    for rows in blocks:
        g = _add_gram(g, a[rows], buf[:rows.stop - rows.start])
    return g


def _block_gram(lead, blocks,
                whole: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(Q^T Z, Z^T Z, G)`` for ``Q = [lead]`` and ``Z = [blocks]``,
    concatenating neither, summed over row blocks: one product of each thin
    panel with its Z rows, or else each pair's product into a view of the
    result taken once. G is None, except where ``whole`` asks for it and the
    per-block kernel runs: then it is the Gram of ``[Q Z]`` whole, Q^T Q
    summed with the rest, and the first two are views of it. Non-finite
    results are the caller's to test, under its ``np.errstate``."""
    parts = [*lead, *blocks]
    widths = [x.shape[1] for x in parts]
    n, width, m = sum(widths[:len(lead)]), sum(widths), parts[0].shape[0]
    if width > _PANEL_MAX_WIDTH:
        if whole:
            g = _pairwise_gram(parts, 0)[1]
            return g[:n, n:], g[n:, n:], g
        return (*_pairwise_gram(parts, len(lead)), None)
    grams = (panel @ panel[n:].T for _, panel in _panels(parts, _row_blocks(m, width)))
    g = next(grams)
    for block in grams:
        g += block
    # gemm need not round (i, j) and (j, i) alike; the mean of the two is
    # exactly symmetric and leaves the diagonal as it is
    zz = g[n:] + g[n:].T
    zz /= 2.0
    return g[:n], zz, None


def _pairwise_gram(parts, lead):
    """``_block_gram`` as one product per row block and pair of parts: each
    of the first ``lead`` parts (Q's) with each later part, and each later
    part with itself and every part after it."""
    ends = [*accumulate([x.shape[1] for x in parts])]
    spans = [*map(slice, [0, *ends[:-1]], ends)]
    n = spans[lead].start
    g = np.zeros((ends[-1], ends[-1] - n))
    cols = [slice(s.start - n, s.stop - n) for s in spans]
    pairs = [(parts[i], parts[j], g[spans[i], cols[j]])
             for i in range(len(parts)) for j in range(max(i, lead), len(parts))
             if parts[i].shape[1] and parts[j].shape[1]]
    for rows in _row_blocks(parts[0].shape[0], ends[-1]):
        for a, b, out in pairs:
            out += a[rows].T @ b[rows]
    # The diagonal blocks of Z^T Z are sums of products a^T a, which BLAS
    # (syrk) returns exactly symmetric; the blocks below them are mirrored.
    for i in range(lead, len(parts)):
        for j in range(i + 1, len(parts)):
            g[spans[j], cols[i]] = g[spans[i], cols[j]].T
    return g[:n], g[n:]


def _rotate(parts, coef: np.ndarray,
            measure: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``(E, E^T E)`` for ``E = [parts] @ coef``, written once into a fresh
    64-byte-aligned read-only array (a basis checked once cannot change before
    it is used), without concatenating the parts: thin inputs are packed one
    row block at a time. If ``_gemm_gram(k)``, each block of E is added to the
    Gram while in cache, copied into its panel (E has no more columns than
    the parts) or the per-block products' buffer; any other E takes
    ``_self_gram`` after the lift, unless ``measure`` is false, for a caller
    that checks E from the Grams it has: then its Gram is None. Nothing that
    overflows warns: the check of the Gram names it."""
    q, (m, n), (width, k) = parts[0], parts[0].shape, coef.shape
    out, fuse, gram = _aligned_empty((m, k)), _gemm_gram(k), None
    blocks = _row_blocks(m, width + k)
    with np.errstate(over="ignore", invalid="ignore"):
        if n < width <= _PANEL_MAX_WIDTH:  # thin, with columns besides q's
            for r, panel in _panels(parts, blocks):
                o = out[r]
                np.matmul(panel.T, coef, out=o)
                if fuse:
                    gram = _add_gram(gram, o, panel[:k].reshape(o.shape))
        else:
            terms, start = [], n
            for x in parts[1:]:
                if x.shape[1]:
                    terms.append((x, coef[start:start + x.shape[1]]))
                start += x.shape[1]
            # one row block of a product, kept in cache until it is added
            tmp = np.empty_like(out[blocks[0]]) if blocks else None
            for r in blocks:
                o = out[r]
                t = tmp[:o.shape[0]]
                np.matmul(q[r], coef[:n], out=o)
                for x, c in terms:
                    np.matmul(x[r], c, out=t)
                    o += t
                if fuse:
                    gram = _add_gram(gram, o, t)
        if gram is None and measure:
            gram = _self_gram(out)
    out.flags.writeable = False
    return out, gram


def _take_columns(a: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``a[:, columns]`` gathered once into a fresh 64-byte-aligned array,
    returned read-only."""
    out = _aligned_empty((a.shape[0], columns.size))
    # mode="clip" writes straight into out; "raise" would stage a copy
    np.take(a, columns, axis=1, out=out, mode="clip")
    out.flags.writeable = False
    return out


def _orthonormal_tolerance(k: int) -> float:
    """The largest ``||a^T a - I||_F`` that passes for a basis of k columns."""
    return 1e-10 * math.sqrt(max(1, k))


def _check_orthonormal(a: np.ndarray, name: str, gram: np.ndarray | None = None) -> float:
    """``||a^T a - I||_F``, or ``ValueError`` unless a has finite orthonormal
    columns, from ``gram = a^T a`` however summed (``_self_gram(a)`` if None),
    which becomes the Gram minus I. A diagonal entry ``sum_i a_ij^2`` is finite
    exactly when column j is finite and no square overflowed, so a scan names
    a (as ``_as_matrix`` does) only behind a norm that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _self_gram(a) if gram is None else gram
        n = gram.shape[0]
        gram.reshape(-1)[::n + 1] -= 1.0
        # unscaled: a norm that overflows is inf, over the tolerance like the
        # true one; one that underflows is within it, like the true one
        norm = _norm(gram)
    if norm <= _orthonormal_tolerance(n):
        return norm
    if not math.isfinite(norm):
        _check_finite(a, name)
    raise ValueError(f"{name} does not have orthonormal columns")


def _check_symmetric(b: np.ndarray, name: str) -> bool:
    """True if exactly symmetric, False if within 1e-12 relative, else ``ValueError``."""
    exact = bool((b == b.T).all())
    if not exact and _fro(b - b.T) > 1e-12 * max(1.0, _fro(b)):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return exact


def _symmetric_square(b, n: int, name: str) -> np.ndarray:
    """b as a finite n-by-n array, exactly symmetric: b itself if it is, else
    ``(b + b.T) / 2``. ``DimensionError`` for another shape, ``ValueError``
    for a non-finite b or one not symmetric within 1e-12 relative."""
    b = _as_matrix(b, name)
    if b.shape != (n, n):
        raise DimensionError(f"{name} must be {n} x {n}, got {b.shape}")
    return b if _check_symmetric(b, name) else (b + b.T) / 2.0


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
        Finite and symmetric within 1e-12 relative; unless it is exactly
        symmetric, it is symmetrized as ``(b + b.T) / 2`` before decomposing.

    Returns
    -------
    SymEig
        Orthogonal eigenvectors and descending eigenvalues. The ascending
        eigenvalues of ``-b`` are the descending ones of ``b``, so exact ties
        keep their input order.
    """
    b = _as_2d(b, "b")
    return _eigh(_symmetric_square(b, b.shape[0], "b"))


def _eigh(b: np.ndarray) -> SymEig:
    """``symmetric_eig`` of a b already checked finite and exactly symmetric."""
    d, e = np.linalg.eigh(-b)
    return _unchecked(SymEig, e, -d)  # eigh's d ascends, so -d descends


def orthonormal_residual(q, x) -> tuple[np.ndarray, np.ndarray]:
    """Split ``x`` into its component inside span(q) and the residual.

    Returns ``(p, xres)`` with ``x == q @ p + xres`` and ``q.T @ xres ~ 0``.
    Two projection passes are used: a single pass loses orthogonality when
    ``x`` lies nearly inside span(q), and ``p`` accumulates both passes so the
    additive split stays exact to roundoff.
    """
    q, blocks = _checked_blocks(q, (x,))
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
