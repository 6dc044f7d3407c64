"""Output checks computed with numpy alone, independently of loweig.

Every check takes plain arrays and raises ``CheckError`` naming the first
property that does not hold. None of them calls into loweig, so a fault in
the library cannot hide itself by also being present in its referee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerances. The loweig kernels reach ~1e-14; these leave room for
# the reference computations' own rounding on m = 2^18 rows.
ORTHO_TOL = 1e-9
EIG_TOL = 1e-9
DIST_TOL = 1e-8


class CheckError(AssertionError):
    """An output of loweig disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_orthonormal(e: np.ndarray, name: str = "E") -> None:
    r = e.shape[1]
    err = float(np.linalg.norm(e.T @ e - np.eye(r)))
    _require(err <= ORTHO_TOL * math.sqrt(max(1, r)), f"{name}^T {name} - I has norm {err:.3e}")


def check_descending(d: np.ndarray) -> None:
    _require(bool(np.all(np.diff(d) <= 0.0)), "D is not sorted descending")


def _apply_signed(alpha, q, b, x, y, e):
    """``(alpha*I + Q B Q^T + X X^T - Y Y^T) @ e`` without forming the matrix."""
    return alpha * e + q @ (b @ (q.T @ e)) + x @ (x.T @ e) - y @ (y.T @ e)


def check_eigh(alpha, q, b, x, y, e, d) -> None:
    """Checks a thin eigendecomposition ``alpha*I + E diag(D) E^T`` of
    ``alpha*I + Q B Q^T + X X^T - Y Y^T``.

    The reference spectrum is ``eigvalsh`` of the core obtained by projecting
    the low-rank part onto an orthonormal basis of span([Q X Y]) from
    ``numpy.linalg.qr``.
    """
    check_orthonormal(e)
    check_descending(d)
    basis, _ = np.linalg.qr(np.hstack([q, x, y]))
    pq, px, py = basis.T @ q, basis.T @ x, basis.T @ y
    core = pq @ b @ pq.T + px @ px.T - py @ py.T
    ref = np.sort(np.linalg.eigvalsh((core + core.T) / 2.0))[::-1]
    scale = max(1.0, abs(alpha), float(np.max(np.abs(ref), initial=0.0)))
    _require(ref.shape == d.shape, f"rank {d.shape[0]} differs from reference rank {ref.shape[0]}")
    gap = float(np.max(np.abs(ref - d), initial=0.0))
    _require(gap <= EIG_TOL * scale, f"D differs from eigvalsh of the core by {gap:.3e}")
    resid = _apply_signed(alpha, q, b, x, y, e) - e * (alpha + d)
    err = float(np.linalg.norm(resid))
    _require(err <= EIG_TOL * scale * math.sqrt(max(1, d.size)), f"eigen-residual {err:.3e}")


@dataclass(frozen=True)
class ModelArrays:
    """A learner model as plain arrays: the factor ``f_alpha*I + Q B Q^T`` and
    the eigen form ``alpha*I + E diag(D) E^T`` that should equal it."""

    f_alpha: float
    Q: np.ndarray
    B: np.ndarray
    alpha: float
    E: np.ndarray
    D: np.ndarray


def check_update(prev: ModelArrays, vectors, weights, decay, gain, rank_cap, floor,
                 new: ModelArrays) -> None:
    """Checks one learner step from ``prev`` to ``new``.

    The new model must be positive definite, hold at most ``rank_cap`` pairs,
    have a factor equal to its eigen form, and every explicit pair strictly
    above the floor must be an eigenpair of
    ``decay*A_prev + gain * sum_i w_i x_i x_i^T``.
    """
    lam = new.alpha + new.D
    _require(new.alpha > 0.0 and bool(np.all(lam > 0.0)), "model is not positive definite")
    _require(new.E.shape[1] <= rank_cap, f"rank {new.E.shape[1]} exceeds rank_cap {rank_cap}")
    _require(new.f_alpha == new.alpha, "factor and eigen form have different alpha")
    check_orthonormal(new.E)
    check_orthonormal(new.Q, "Q")
    check_descending(new.D)
    w = gain * np.asarray(weights, dtype=float)
    vt = np.asarray(vectors, dtype=float)
    # A floored value reads floor + O(eps * alpha) after the re-basing on alpha.
    kept = lam > floor + 1e-12 * max(new.alpha, float(np.max(lam, initial=0.0)))
    ek, lk = new.E[:, kept], lam[kept]
    pq = prev.Q
    applied = decay * (prev.f_alpha * ek + pq @ (prev.B @ (pq.T @ ek)))
    applied += vt.T @ (w[:, None] * (vt @ ek))
    prev_top = float(np.max(np.abs(np.linalg.eigvalsh(prev.B)), initial=0.0))
    scale = max(
        float(np.max(np.abs(lam), initial=0.0)),
        decay * (prev.f_alpha + prev_top) + float(np.abs(w) @ np.einsum("ij,ij->i", vt, vt)),
    )
    err = float(np.linalg.norm(applied - ek * lk))
    _require(err <= EIG_TOL * scale * math.sqrt(max(1, lk.size)), f"kept pairs residual {err:.3e}")
    probe = np.hstack([new.Q, new.E])
    diff = new.Q @ (new.B @ (new.Q.T @ probe)) - new.E @ (new.D[:, None] * (new.E.T @ probe))
    err = float(np.linalg.norm(diff))
    _require(err <= EIG_TOL * scale * math.sqrt(probe.shape[1]), f"factor and eigen form differ by {err:.3e}")


def reference_distances(alpha, q, b, points) -> np.ndarray:
    """``sqrt(x^T A^{-1} x)`` for each row x, with ``A = alpha*I + Q B Q^T``.

    Uses ``A^{-1} = (I - Q Q^T)/alpha + Q (alpha*I + B)^{-1} Q^T`` and a small
    solve with the n-by-n core, never the eigen form.
    """
    p = points @ q
    outside = np.einsum("ij,ij->i", points, points) - np.einsum("ij,ij->i", p, p)
    inside = np.einsum("ij,ij->i", p, np.linalg.solve(alpha * np.eye(b.shape[0]) + b, p.T).T)
    return np.sqrt(np.maximum(outside / alpha + inside, 0.0))


def check_distances(alpha, q, b, points, dists) -> None:
    ref = reference_distances(alpha, q, b, points)
    got = np.asarray(dists, dtype=float)
    _require(got.shape == ref.shape, "wrong number of distances")
    err = float(np.max(np.abs(got - ref) / np.maximum(ref, 1e-300), initial=0.0))
    _require(err <= DIST_TOL, f"distance differs from the reference by {err:.3e} (relative)")
