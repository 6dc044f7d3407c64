"""Thin eigendecomposition of alpha*I + Q B Q^T + X X^T - Y Y^T in O(m r^2),
with log-spectrum rank truncation, a streaming metric learner, dense
reference oracles, and a timing harness."""

from .kernels import (
    DimensionError,
    SymEig,
    ThinSvd,
    orthonormal_residual,
    symmetric_eig,
    thin_svd,
)
from .fast_eigh import (
    EigenFactor,
    LowRankFactor,
    WeightedData,
    augment,
    dense_fallback,
    factor_to_eig,
    fast_eigh,
    svd_route,
)
from .truncation import (
    Spectrum,
    SpectrumBlock,
    TruncationResult,
    select_tau,
    truncate,
)
from .learner import (
    IRREGULAR,
    REGULAR,
    LabeledBatch,
    MetricModel,
    UpdateConfig,
    UpdateStats,
    classify,
    distance,
    update,
)
from .oracle import dense_spectrum, materialize
from .bench import (
    ALGORITHMS,
    BenchConfig,
    BenchRecord,
    demo_learner,
    fit_scaling,
    generate_instance,
    normalized_flatness,
    read_records_csv,
    run_grid,
    write_records_csv,
)

__all__ = [
    "ALGORITHMS",
    "BenchConfig",
    "BenchRecord",
    "DimensionError",
    "EigenFactor",
    "IRREGULAR",
    "LabeledBatch",
    "LowRankFactor",
    "MetricModel",
    "REGULAR",
    "Spectrum",
    "SpectrumBlock",
    "SymEig",
    "ThinSvd",
    "TruncationResult",
    "UpdateConfig",
    "UpdateStats",
    "WeightedData",
    "augment",
    "classify",
    "demo_learner",
    "dense_fallback",
    "dense_spectrum",
    "distance",
    "factor_to_eig",
    "fast_eigh",
    "fit_scaling",
    "generate_instance",
    "materialize",
    "normalized_flatness",
    "orthonormal_residual",
    "read_records_csv",
    "run_grid",
    "select_tau",
    "svd_route",
    "symmetric_eig",
    "thin_svd",
    "truncate",
    "update",
    "write_records_csv",
]

__version__ = "0.1.0"
