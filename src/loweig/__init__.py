"""Thin eigendecomposition of alpha*I + Q B Q^T + X X^T - Y Y^T in O(m r^2),
with log-spectrum rank truncation, a streaming metric learner, dense
reference oracles, and a timing harness.

``import loweig`` loads only ``kernels`` and ``fast_eigh``, which every
caller needs. The names of ``truncation``, ``learner``, ``oracle`` and
``bench`` resolve on first use (PEP 562): the first lookup imports the
submodule that defines the name and binds the name here, so later lookups
are plain attribute reads. ``fast_eigh`` stays an eager import: it keeps
``loweig.fast_eigh`` the function rather than the submodule of that name,
which the import system would otherwise bind when another submodule
imports it.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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

# Each name loaded on first use, mapped to the submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "truncation": ("Spectrum", "SpectrumBlock", "TruncationResult", "select_tau", "truncate"),
        "learner": (
            "IRREGULAR",
            "REGULAR",
            "LabeledBatch",
            "MetricModel",
            "UpdateConfig",
            "UpdateStats",
            "classify",
            "distance",
            "update",
        ),
        "oracle": ("dense_spectrum", "materialize"),
        "bench": (
            "ALGORITHMS",
            "BenchConfig",
            "BenchRecord",
            "demo_learner",
            "fit_scaling",
            "generate_instance",
            "normalized_flatness",
            "run_grid",
        ),
    }.items()
    for name in names
}

# The public names: those imported above (not the kernels submodule, which
# the import binds here too) and the lazy ones.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY)
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
