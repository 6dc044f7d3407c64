"""Brute-force dense references for tests and acceptance checks.

These paths share the dense builder and the dense eigensolver kernel with
``dense_fallback`` but none of the low-rank bookkeeping, so agreement with
the fast pipeline is a meaningful check; the solver itself is vouched for by
solver-independent identities (trace, Frobenius, eigen-residuals) in the test
suite.
"""

from __future__ import annotations

import numpy as np

from .fast_eigh import LowRankFactor, WeightedData, _dense_matrix
from .kernels import symmetric_eig

DEFAULT_MAX_DIM = 512


def materialize(
    alpha: float,
    factor: LowRankFactor,
    data: WeightedData,
    max_dim: int = DEFAULT_MAX_DIM,
) -> np.ndarray:
    """Entrywise ``alpha*I + Q B Q^T + X X^T - Y Y^T`` as a dense m-by-m array.

    Guarded by ``max_dim``: this is a test-scale reference, not a production
    path.
    """
    if factor.dim > max_dim:
        raise ValueError(f"dimension {factor.dim} exceeds the oracle bound {max_dim}")
    return _dense_matrix(alpha, factor, data)


def dense_spectrum(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense symmetric matrix, descending.

    Returns ``(values, vectors)`` with vectors in columns. ``symmetric_eig``
    makes the square, finiteness and symmetry checks.
    """
    eig = symmetric_eig(a)
    return eig.D, eig.E
