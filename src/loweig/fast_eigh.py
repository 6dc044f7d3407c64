"""Eigendecomposition of ``alpha*I + Q B Q^T + X X^T - Y Y^T`` in O(m r^2).

The signed outer products of ``Z = [X Y]`` are absorbed in one augmentation:
with ``Z = Q P + U R`` (P inside span(Q), U the orthonormal novelty), the
small core is ``[[B + P W P^T, P W R^T], [R W P^T, R W R^T]]``, W the +-1
signs. Its eigenvectors V are lifted to R^m as ``Q V1 + U V2``, written once
into a 64-byte-aligned result; ``[X Y]`` and ``[Q U]`` are never built.
``fast_eigh`` and ``learner.update`` share these steps; ``update`` keeps only
some columns, and on the Gram route it may hold them as a product instead of
lifting them (the ``learner`` module docstring). P and R come from one of two
routes, and ``_Core`` holds what either gives: the core's eigenpairs, the
parts the lift multiplies and the coefficients of V on them (``_Core.coef``).

- The Gram route, tried first. One Gram of ``[Q X Y]``, summed block by
  block, gives ``P = Q^T Z`` and ``Z^T Z``; one ``eigh`` of
  ``S = Z^T Z - P^T P = V diag(lam) V^T`` gives ``R = diag(sqrt(lam)) V^T``
  for the core and ``R^-1 = V diag(lam^-1/2)`` for the lift, the SVQR step
  (Stathopoulos & Wu 2002; CholeskyQR2, Fukaya et al. 2014, takes the
  Cholesky factor of S). U is never formed: with ``C = R^-1 V2`` the lift is
  ``Q (V1 - P C) + X C_x + Y C_y``, the second pass over the m-row data.
  ``_gram_route`` runs this route from the block Gram to its ``_Core``,
  scaling and band test included, for ``fast_eigh`` and for the learner
  alike. The learner's Q is ``B W``, never formed: Q's parts are then B's,
  P is ``W^T (B^T Z)``, and the core carries W, Q's coefficient on those
  parts, so its lift coefficient on B is ``W (V1 - P C)``.
- The two-pass route: Z is projected out of span(Q) twice and the residual
  goes through a thin SVD, which drops directions at or below ``RANK_EPS``.

From the same S as CholeskyQR, the Gram route loses orthogonality as
``eps * kappa(R)^2`` (Yamamoto et al. 2015, ETNA 44): it runs only when
``lam_min >= GRAM_MIN_RATIO^2 * ||Z||_F^2 > 0``. It also passes on Q's own
loss, amplified: ``E^T E - I = W^T (Q^T Q - I) W`` with ``W = [I, -P R^-1]
V`` and ``||W||_2^2 <= 1 + ||P||_F^2 / lam_min``. So it runs only while
``loss * (1 + ||P||_F^2 / lam_min)`` is at most half the check's tolerance
for the n + k columns of E, loss being Q's ``||Q^T Q - I||_F`` as its
factor's check measured it (``LowRankFactor.orthogonality``); the two-pass
route keeps E's loss at Q's. Novelty near span(Q), exact cancellation
(``X == Y``), rank-deficient or zero Z and, for a Q that has lost
orthogonality, Z near span(Q) go the two-pass way, as does the public
``augment``, which returns ``[Q U]``. ``factor_to_eig`` lifts a basis
given whole. ``svd_route`` and ``dense_fallback`` are the nonnegative-weight
baseline and the O(m^3) always-correct path.

On the Gram route a call makes two passes over the m-row data, the block
Gram and the lift, which also sums E's Gram for its check when E has 2 to
12 columns, plus one r-by-r ``eigh`` and a fixed cost on r-sized arrays;
the ``kernels`` module docstring says how the passes are blocked.

Each invariant is verified once per array, where the array enters, and is
read off a Gram the call computes anyway where one exists:

=============================  ===================  =========================
check                          where it runs        what supplies it
=============================  ===================  =========================
Q finite and orthonormal       ``LowRankFactor``    ``_self_gram(Q)``
B finite and symmetric         ``LowRankFactor``    a scan of B
X, Y finite                    ``WeightedData``     a scan of X and Y
Q's parts, X, Y finite; scale  ``_scaled_gram``     the Gram of ``[Q X Y]``
E's loss from Q's <= tol / 2   ``_svqr`` (route)    Q's check, P and lam_min
core finite (no overflow)      ``_core_eig``        ``symmetric_eig``'s scan
E finite and orthonormal       ``_lifted``          ``_rotate``'s Gram of E
E = ``B W`` orthonormal        ``learner.update``   ``W^T G W``, G of Grams
dense matrix finite            ``_dense_matrix``    ``_finite_core``'s scan
=============================  ===================  =========================

The learner's Q is ``B W``, so there Q's parts are B's, and the Gram is
that of ``[B X Y]``.

``_lifted`` builds the result of ``fast_eigh``, ``factor_to_eig`` and the
learner's compactions (which also check their floored D). A learner step
that defers its lift checks ``E = B W`` by ``W^T G W``, G the Gram of B as
measured block by block, while that product's rounding bound stays well
inside the tolerance; the ``E`` a reader materializes later gets the
measured check. Behind a non-finite dense matrix, scans of Q, B, X and Y
name an array changed after its record was built. A Gram's diagonal
entry ``sum_i a_ij^2`` is finite exactly when column j is finite and no
square overflowed, so the O(m r) finiteness scans run only behind a
non-finite Gram, to name the array; a B changed after its factor was built
is likewise scanned only behind a non-finite core. The fast path does not
test Q again: the check of E also catches a Q changed after its factor was
built. Every column of the lift is kept, and on the Gram route
``E^T E - I = W^T (Q^T Q - I) W`` with ``W = [I, -P R^-1] V``, whose
singular values are all >= 1, so ``||E^T E - I|| >= ||Q^T Q - I||``. Bases
the library builds (the lifted E, ``factor_to_eig``'s E and the learner's
gathered columns) are read-only, so the learner's next-step Q, checked as
the previous step's E, cannot change before it is used. The public
``augment`` and ``orthonormal_residual`` take raw arrays and keep their own
checks.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    DimensionError,
    SymEig,
    _SAFE_HIGH,
    _SAFE_LOW,
    _Record,
    _as_2d,
    _as_matrix,
    _block_gram,
    _check_finite,
    _check_orthonormal,
    _checked_blocks,
    _eigh,
    _fro,
    _norm,
    _orthonormal_tolerance,
    _project,
    _rotate,
    _safe_scale,
    _symmetric_square,
    _unchecked,
    symmetric_eig,
    thin_svd,
)

# Singular directions of the projected-out novelty block at or below
# 1e-12 * max(sigma_max, ||X||_F) are dropped: their left vectors are
# arbitrary for (near-)zero singular values and need not be orthogonal to the
# existing basis, while their contribution to the product is O(eps_rank^2).
RANK_EPS = 1e-12

# The Gram route is taken only when sigma_min(R) >= GRAM_MIN_RATIO * ||Z||_F.
# Its orthogonality loss grows as eps * kappa(R)^2 (Yamamoto et al. 2015), so
# nearer to span(Q) the two-pass route with its SVD is used instead.
GRAM_MIN_RATIO = 1e-2


class LowRankFactor(_Record):
    """Implicit symmetric matrix ``alpha*I + Q B Q^T``.

    Q is m-by-n with orthonormal columns, B is n-by-n symmetric, n <= m. A B
    symmetric only within tolerance is stored as ``(B + B.T) / 2``.
    ``orthogonality`` is ``||Q^T Q - I||_F`` as the check in ``__init__``
    measured it, or for a factor the library derived, as its source's check
    did; None where no check measured it, which the Gram route's guard
    reads as 0.
    """

    _fields = ("alpha", "Q", "B")
    orthogonality = None  # not a field: set by the check, so not in the repr

    def __init__(self, alpha: float, Q: np.ndarray, B: np.ndarray):
        alpha = float(alpha)
        Q = _as_2d(Q, "Q")
        if not math.isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        m, n = Q.shape
        if n > m:
            raise DimensionError(f"Q must be tall, got {m} x {n}")
        B = _symmetric_square(B, n, "B")
        self.__dict__.update(alpha=alpha, Q=Q, B=B, orthogonality=_check_orthonormal(Q, "Q"))

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


def _derived_factor(alpha: float, q: np.ndarray, b: np.ndarray, orthogonality) -> LowRankFactor:
    """``LowRankFactor(alpha, q, b)`` without its checks, for arrays derived
    from checked ones, carrying the orthogonality its source measured."""
    factor = _unchecked(LowRankFactor, alpha, q, b)
    factor.__dict__["orthogonality"] = orthogonality
    return factor


class WeightedData(_Record):
    """Signed-weight batch, pre-split into positive and negative parts.

    X holds columns ``sqrt(w_i) * x_i`` for positive weights, Y holds
    ``sqrt(-w_i) * x_i`` for negative weights, so the batch contributes
    ``X X^T - Y Y^T``.
    """

    _fields = ("X", "Y")

    def __init__(self, X: np.ndarray, Y: np.ndarray):
        X = _as_matrix(X, "X")
        Y = _as_matrix(Y, "Y")
        if X.shape[0] != Y.shape[0]:
            raise DimensionError(f"X and Y row counts differ: {X.shape[0]} vs {Y.shape[0]}")
        self.__dict__.update(X=X, Y=Y)

    @classmethod
    def from_weighted(cls, vectors, weights, dim: int | None = None) -> "WeightedData":
        """Build from raw (vector, weight) pairs; zero weights are dropped
        and a NaN or infinite weight raises ``ValueError``.

        ``dim``, when given, is the vectors' length, and it sets the row
        count of an empty batch; vectors of any other length raise
        ``DimensionError``.

        Each of X and Y is written in C order by one product, see
        ``_weighted_columns``; a non-finite vector leaves non-finite entries,
        which the check of X or Y rejects. Finite vectors whose products
        with the weights' square roots overflow raise ``ValueError`` naming
        the overflow.
        """
        w = np.asarray(weights, dtype=float)
        arr = np.asarray(vectors, dtype=float)
        if arr.size == 0:
            if dim is None:
                raise DimensionError("dim is required for an empty batch")
            arr = arr.reshape(0, dim)
        if arr.ndim != 2 or w.ndim != 1 or arr.shape[0] != w.shape[0]:
            raise DimensionError("vectors must be (count, m) matching weights (count,)")
        if dim is not None and arr.shape[1] != dim:
            raise DimensionError(f"vectors have length {arr.shape[1]}, dim is {dim}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        pos = w > 0.0
        neg = w < 0.0
        try:
            return cls(_weighted_columns(arr[pos], w[pos]), _weighted_columns(arr[neg], -w[neg]))
        except ValueError:
            if not np.isfinite(arr[pos | neg]).all():
                raise
            raise ValueError("the scaled batch overflows float64") from None

    @classmethod
    def empty(cls, m: int) -> "WeightedData":
        return cls(np.zeros((m, 0)), np.zeros((m, 0)))

    @property
    def dim(self) -> int:
        return self.X.shape[0]


def _weighted_columns(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(rows * sqrt(w)[:, None]).T`` in C order, as ``rows.T @ diag(sqrt(w))``.

    BLAS reads the rows transposed, so no transposing copy is made. Every
    entry is ``rows[i, j] * sqrt(w[i])`` plus exact zeros, the elementwise
    product. A non-finite row still gives non-finite entries (``inf * 0``
    spreads NaN along its row of the result), which the caller's check
    names, so the product raises no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return rows.T @ np.diag(np.sqrt(w))


class EigenFactor(_Record):
    """Thin eigendecomposition ``alpha*I + E diag(D) E^T``.

    E is m-by-r with orthonormal columns and D is sorted descending; the full
    spectrum is {alpha + d_i} plus alpha with multiplicity m - r.
    ``orthogonality`` is ``||E^T E - I||_F`` as the check in ``__init__`` or
    ``_lifted`` measured it, and None for a factor built without that check.
    """

    _fields = ("alpha", "E", "D")
    orthogonality = None  # not a field: set by the check, so not in the repr

    def __init__(self, alpha: float, E: np.ndarray, D: np.ndarray):
        alpha = _finite_alpha(alpha)
        E = _as_2d(E, "E")
        D = np.asarray(D, dtype=float)
        r = E.shape[1]
        if D.shape != (r,):
            raise DimensionError(f"D must have length {r}, got {D.shape}")
        _check_descending(D)
        self.__dict__.update(alpha=alpha, E=E, D=D, orthogonality=_check_orthonormal(E, "E"))

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


def _finite_alpha(alpha) -> float:
    """``float(alpha)``, or ``ValueError`` unless it is finite."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return alpha


def _check_descending(d: np.ndarray) -> None:
    """``ValueError`` unless d is finite and descending, read off its ends."""
    if d.size and not (math.isfinite(d[0]) and math.isfinite(d[-1]) and (d[1:] <= d[:-1]).all()):
        raise ValueError("D must be finite and sorted descending")


def _lifted(alpha, e: np.ndarray, gram: np.ndarray, d: np.ndarray) -> EigenFactor:
    """``EigenFactor(alpha, e, d)`` for e and its Gram as ``_rotate`` returns
    them: alpha is checked as there, e's orthonormality from the Gram, and d
    is the caller's to check (a ``symmetric_eig``'s is finite, descending)."""
    ef = _unchecked(EigenFactor, _finite_alpha(alpha), e, d)
    ef.__dict__["orthogonality"] = _check_orthonormal(e, "E", gram)
    return ef


def augment(q, b, x, sign) -> tuple[np.ndarray, np.ndarray]:
    """Absorb signed outer products: ``Q B Q^T + x W x^T = Qc Bc Qc^T``.

    ``sign`` is +1, -1 or a vector of +-1, one per column of ``x``; W is the
    diagonal matrix of those signs. With ``x = Q P + U R`` (P the part inside
    span(q), U the orthonormal novelty), the core is the block matrix
    ``[[B + P W P^T, P W R^T], [R W P^T, R W R^T]]`` and ``Qc = [Q U]``.
    U comes from the two-pass route, so near-zero novelty directions are
    dropped (the returned basis may grow by fewer than ``x.shape[1]``
    columns).

    Raises
    ------
    DimensionError
        If the combined rank would exceed the row count; use
        ``dense_fallback`` in that regime.
    """
    q, blocks = _checked_blocks(q, (x,))
    b = _symmetric_square(b, q.shape[1], "b")
    k = blocks[0].shape[1]
    w = np.asarray(sign, dtype=float)
    if w.ndim == 0:
        w = np.full(k, w)
    if w.shape != (k,) or (np.abs(w) != 1.0).any():
        raise ValueError(f"sign must be +1, -1 or {k} values of +-1, got {sign}")
    _check_rank(*q.shape, k)
    _check_orthonormal(q, "q")
    u, bc, _ = _two_pass(q, b, blocks, w)
    return np.hstack([q, u]), _finite_core(bc)


def _check_rank(m, n, k) -> None:
    """``DimensionError`` unless n columns and k more fit in m rows."""
    if n + k > m:
        raise DimensionError(f"combined rank {n + k} exceeds dimension {m}; use dense_fallback")


def _signed_core(b, p, r, w) -> np.ndarray:
    """The core ``[[B + P W P^T, P W R^T], [R W P^T, R W R^T]]`` of
    ``Z = Q P + U R`` with column signs w, symmetrized, hence exactly
    symmetric. Each block is written in place into one array. It may
    overflow, silently under the caller's ``np.errstate``;
    ``_core_symmetric_eig`` tests it."""
    n = p.shape[0]
    pw = p * w
    bc = np.empty((n + r.shape[0],) * 2)
    top = bc[:n, :n]
    np.matmul(pw, p.T, out=top)
    top += b
    np.matmul(pw, r.T, out=bc[:n, n:])
    bc[n:, :n] = bc[:n, n:].T
    np.matmul(r * w, r.T, out=bc[n:, n:])
    core = bc + bc.T
    core /= 2.0
    return core


def _finite_core(bc: np.ndarray) -> np.ndarray:
    """``bc``, a core or the dense matrix, or ``ValueError`` if it overflowed:
    its factors are finite, but near 1e154 and above their squares are not."""
    if not np.all(np.isfinite(bc)):
        raise ValueError("the spectrum overflows float64 at this data scale")
    return bc


def _two_pass(q, b, blocks, w):
    """Novelty basis U, core and dropped count of the two-pass route: the
    residual of Z after two projections, then its thin SVD. Singular values
    at or below ``RANK_EPS`` of the scale are dropped with their directions.
    The residual is orthogonal to Q, so ``||Z||_F = hypot(||P||_F, ||S||)``
    comes from r-sized arrays, with no further pass over Z."""
    p, res = _project(q, blocks)
    svd = thin_svd(res)
    kp = _rank_cut(svd.S, math.hypot(_fro(p), _fro(svd.S)))
    r = svd.S[:kp, None] * svd.V[:, :kp].T
    with np.errstate(over="ignore", invalid="ignore"):
        core = _signed_core(b, p, r, w)
    return svd.U[:, :kp], core, svd.S.size - kp


def _rank_cut(s: np.ndarray, norm: float) -> int:
    """Count of s above ``RANK_EPS * max(s_max, norm)``, norm the data's."""
    return int(np.count_nonzero(s > RANK_EPS * max(s.max(initial=0.0), norm)))


def _svqr(b, p, zz, trace, scale, norm, w, loss):
    """``(P, R^-1, core, ratio)`` of the Gram route from ``P = Q^T Z`` and
    ``Z^T Z`` of ``Z / scale``, the trace of ``Z^T Z``, ``norm = ||P||_F``
    and Q's loss of orthogonality ``loss = ||Q^T Q - I||_F``, under the
    caller's ``np.errstate``; P and R^-1 are scaled back exactly.

    With the eigenpairs ``V diag(lam) V^T`` of ``Z^T Z - P^T P`` and
    ``sigma = sqrt(lam) * scale``, R is ``diag(sigma) V^T``, formed only for
    the core, and ``R^-1 = V diag(1 / sigma)``. None when Z is zero, when
    ``ratio = sigma_min(R) / ||Z||_F`` is below ``GRAM_MIN_RATIO``, or when
    the lift could amplify ``loss`` past half the check's tolerance."""
    lam, v = np.linalg.eigh(zz - p.T @ p)
    # a product, not lam_min / trace, which is 0 / 0 for a zero Z
    if not (trace > 0.0 and lam[0] >= GRAM_MIN_RATIO**2 * trace):
        return None
    # E^T E - I = W^T (Q^T Q - I) W with ||W||_2^2 <= 1 + ||P||_F^2 / lam_min
    if loss * (1.0 + norm * norm / float(lam[0])) > 0.5 * _orthonormal_tolerance(sum(p.shape)):
        return None
    sigma = np.sqrt(lam)
    if scale != 1.0:
        p, sigma = p * scale, sigma * scale
    core = _signed_core(b, p, sigma[:, None] * v.T, w)
    return p, v / sigma, core, math.sqrt(lam[0] / trace)


# _scaled_gram keeps the unscaled Gram when the trace t of the k-by-k Z^T Z
# lies in [k * m * _GRAM_LOW, _GRAM_HIGH]. Its largest diagonal entry d, from
# t / k to t, then lies in [m * _GRAM_LOW, _GRAM_HIGH], so max|z| lies inside
# _safe_scale's band [_SAFE_LOW, _SAFE_HIGH], whose scale is 1.0, and no entry
# of Z^T Z (each bounded by the diagonal) overflowed. The factor 2 on each
# side covers the Gram's rounding.
_GRAM_LOW = 2.0 * _SAFE_LOW**2
_GRAM_HIGH = _SAFE_HIGH**2 / 2.0


def _scaled_gram(lead, blocks, q_coef=None):
    """``(L^T Z, P, Z^T Z, trace, scale, norm)`` for ``Z = [blocks] / scale``
    and Q held as its leading parts ``L = [lead]``, or as ``L W`` for
    ``q_coef`` W: ``P = Q^T Z`` (``W^T L^T Z``), the trace of ``Z^T Z``,
    ``scale = _safe_scale(*blocks)``, an exact power of 2 that keeps the
    products from overflowing or going subnormal, and ``norm = ||P||_F``.

    The unscaled Gram comes first, and its trace and the norm of P decide
    the scale: a finite norm and a trace in the band above give scale 1.0,
    and then the parts are finite (a non-finite entry of Z makes the trace
    NaN or inf, one of L a norm of P that is). Any other input (zero,
    extreme or non-finite) gets scans of the parts, which name a non-finite
    one, and ``_safe_scale``; the Gram is redone on the scaled blocks. The
    orthonormality of Q was tested where it was built; here P gives only
    the bound ``||Q^T Z||_F <= ||Z||_F`` for free. It runs under the
    caller's ``np.errstate``.
    """
    def gram(blocks):
        lz, zz = _block_gram(lead, blocks)
        return lz, lz if q_coef is None else q_coef.T @ lz, zz, float(zz.trace())

    lz, p, zz, trace = gram(blocks)
    norm, scale, m = _norm(p), 1.0, lead[0].shape[0]
    if not (math.isfinite(norm) and m * zz.shape[0] * _GRAM_LOW <= trace <= _GRAM_HIGH):
        for name, parts in (("q", lead), ("x", blocks)):
            for a in parts:
                _check_finite(a, name)
        scale = _safe_scale(*blocks)
        if scale != 1.0:
            lz, p, zz, trace = gram([x / scale for x in blocks])
        norm = _norm(p) if np.isfinite(p).all() else math.nan
    # An orthonormal Q has ||Q^T Z||_F <= ||Z||_F (Bessel). A Q scaled up in
    # place after it was built breaks that, and by 1e50 or so the core
    # overflows before the check of E could name Q. By the band above, the
    # norm of a finite P that overflows or underflows lands on the same side
    # of the bound as the true one.
    if not norm <= 2.0 * math.sqrt(trace):
        raise ValueError("q does not have orthonormal columns")
    return lz, p, zz, trace, scale, norm


class _Core(_Record):
    """Eigendecomposition of the core and what lifts its eigenvectors to R^m.

    An eigenvector ``v = [v1; v2]`` of the core lifts to ``Q v1 + U v2``,
    which is ``_rotate(parts, coef(v))``. ``parts`` are the arrays the lift
    multiplies: ``[Q U]`` on the two-pass route, and ``[Q X Y]`` on the
    Gram route, which never forms U: with ``C = R^-1 v2`` the lift is
    ``Q (v1 - P C) + X C_x + Y C_y``. ``q_coef`` is W where Q is held as
    ``B W``, its leading parts being B's, and None where they are Q.
    """

    _fields = ("route", "eig", "parts", "p", "rinv", "novelty_ratio", "dropped", "q_coef")

    def __init__(self, route: str, eig: SymEig, parts: tuple, p: np.ndarray | None = None,
                 rinv: np.ndarray | None = None, novelty_ratio: float | None = None,
                 dropped: int = 0, q_coef: np.ndarray | None = None):
        self.__dict__.update(route=route, eig=eig, parts=parts, p=p, rinv=rinv,
                             novelty_ratio=novelty_ratio, dropped=dropped, q_coef=q_coef)

    def coef(self, v: np.ndarray) -> np.ndarray:
        """The coefficients of the lift of v on the parts: v itself on the
        two-pass route, ``[v1 - P C; C]`` with ``C = R^-1 v2`` on the Gram
        route, its top block ``W (v1 - P C)`` where Q is ``B W``."""
        if self.rinv is None:
            return v
        n = self.p.shape[0]
        c = self.rinv @ v[n:]
        top = v[:n] - self.p @ c
        return np.concatenate([top if self.q_coef is None else self.q_coef @ top, c])


def factor_to_eig(alpha: float, q_a, b_a) -> EigenFactor:
    """Turn ``alpha*I + Qa Ba Qa^T`` into a thin eigendecomposition.

    Diagonalizes the small core and rotates its eigenvectors up through the
    orthonormal basis. A non-finite ``q_a`` makes E non-finite, which the
    check of E reads off its Gram, so ``q_a`` is scanned only then, to name
    it.
    """
    q_a = _as_2d(q_a, "q_a")
    b_a = np.asarray(b_a, dtype=float)
    r = q_a.shape[1]
    if b_a.shape != (r, r):
        raise DimensionError(f"b_a must be {r} x {r} for q_a of shape {q_a.shape}, "
                             f"got {b_a.shape}")
    eig = _eigh(_symmetric_square(b_a, r, "b_a"))
    try:
        return _lifted(alpha, *_rotate([q_a], eig.E), eig.D)
    except ValueError:
        _check_finite(q_a, "q_a")
        raise


def _common_dim(factor: LowRankFactor, data: WeightedData) -> int:
    """The factor's dimension, or ``DimensionError`` unless the data's matches."""
    if data.dim != factor.dim:
        raise DimensionError(f"data dimension {data.dim} does not match factor {factor.dim}")
    return factor.dim


def _core_eig(factor: LowRankFactor, data: WeightedData) -> _Core:
    """``fast_eigh`` before its lift: the route taken and the core's
    eigendecomposition, ``_gram_route``'s for a Z that is not empty and
    that route takes, else the two-pass route's."""
    m = _common_dim(factor, data)
    q, b, blocks = factor.Q, factor.B, (data.X, data.Y)
    w = _signs(data)
    _check_rank(m, q.shape[1], w.size)
    core = None
    if w.size:
        core, _ = _gram_route(b, (q,), blocks, w, factor.orthogonality or 0.0)
    return _two_pass_core(q, b, blocks, w) if core is None else core


def _signs(data: WeightedData) -> np.ndarray:
    """The +-1 signs of the columns of ``Z = [X Y]``."""
    return np.array([1.0] * data.X.shape[1] + [-1.0] * data.Y.shape[1])


def _gram_route(b, lead, blocks, w, loss, q_coef=None):
    """``(core, grams)`` of the Gram route for the core b, Q held as in
    ``_scaled_gram``, Z as ``[blocks]`` with signs w and Q's loss of
    orthogonality ``loss``: core is the route's ``_Core`` on the parts
    ``[lead blocks]`` and grams is ``(L^T Z, Z^T Z)`` as summed, or None
    where Z was scaled; ``(None, None)`` where ``_svqr`` declines. Products
    that overflow on extreme data raise no warning here; the checks name
    them."""
    with np.errstate(over="ignore", invalid="ignore"):
        lz, p, zz, trace, scale, norm = _scaled_gram(lead, blocks, q_coef)
        gram = _svqr(b, p, zz, trace, scale, norm, w, loss)
    if gram is None:
        return None, None
    p, rinv, bc, ratio = gram
    core = _Core("gram", _core_symmetric_eig(b, bc), (*lead, *blocks), p, rinv, ratio,
                 q_coef=q_coef)
    return core, (lz, zz) if scale == 1.0 else None


def _two_pass_core(q, b, blocks, w) -> _Core:
    """The two-pass route's ``_Core`` for the factor ``(q, b)`` and the blocks
    of Z with signs w."""
    u, bc, dropped = _two_pass(q, b, blocks, w)
    return _Core("two-pass", _core_symmetric_eig(b, bc), (q, u), dropped=dropped)


def _core_symmetric_eig(b: np.ndarray, bc: np.ndarray) -> SymEig:
    """``symmetric_eig`` of a core built from b. Its scan is the finiteness
    test, behind which b and then ``_finite_core``'s overflow are named."""
    try:
        return symmetric_eig(bc)
    except ValueError:
        _check_finite(b, "b")
        _finite_core(bc)
        raise


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
    core = _core_eig(factor, data)
    return _lifted(alpha, *_rotate(core.parts, core.coef(core.eig.E)), core.eig.D)


def svd_route(alpha: float, x) -> EigenFactor:
    """Eigendecomposition of ``alpha*I + X X^T`` through the thin SVD of X.

    Only covers the all-nonnegative-weight case (no subtracted block):
    eigenvalues are ``alpha + s_i^2`` with the left singular vectors as
    eigenvectors. Baseline for benchmarks and for cross-checking the general
    pipeline.
    """
    alpha = _finite_alpha(alpha)
    svd = thin_svd(x)
    kp = _rank_cut(svd.S, _fro(svd.S))
    return _unchecked(EigenFactor, alpha, svd.U[:, :kp], svd.S[:kp] ** 2)


def _dense_matrix(alpha: float, factor: LowRankFactor, data: WeightedData) -> np.ndarray:
    """Entrywise ``alpha*I + Q B Q^T + X X^T - Y Y^T`` as a dense m-by-m array,
    exactly symmetric, with no warning. Behind a non-finite result, a scan
    names a Q, B, X or Y changed after its record was built, and
    ``_finite_core`` names an overflow of finite ones."""
    a = _finite_alpha(alpha) * np.eye(_common_dim(factor, data))
    with np.errstate(over="ignore", invalid="ignore"):
        a += factor.Q @ factor.B @ factor.Q.T
        a += data.X @ data.X.T
        a -= data.Y @ data.Y.T
        a = (a + a.T) / 2.0
    try:
        return _finite_core(a)
    except ValueError:
        for name, x in (("Q", factor.Q), ("B", factor.B), ("X", data.X), ("Y", data.Y)):
            _check_finite(x, name)
        raise


def dense_fallback(alpha: float, factor: LowRankFactor, data: WeightedData) -> EigenFactor:
    """Materialize the full matrix and decompose it densely, O(m^3).

    Always applicable; returns all m eigenpairs as an EigenFactor with
    ``alpha = 0`` and rank m. This is the recommended path when the combined
    rank approaches m, and the reference the fast path is tested against.
    """
    eig = _eigh(_dense_matrix(alpha, factor, data))
    return _unchecked(EigenFactor, 0.0, eig.E, eig.D)
