"""Spans around the calls into each loweig module, recorded from outside.

``Tracer.install`` replaces the public functions in the namespaces where their
callers look them up (the package for the benchmark's own calls, the
``loweig.fast_eigh`` and ``loweig.learner`` modules for the library's internal
calls) and the ``__post_init__`` validators of the factor types;
``uninstall`` puts the originals back. The library itself is not changed.

Each call becomes a span with a parent; a span's self time is its duration
minus the time covered by its child spans. ``fast_eigh.mflop`` and
``fast_eigh.mb_moved`` are computed from argument shapes, not measured: they
count the flops and the bytes of m-row operands of the dense products each
traced call performs (a LAPACK-style count for ``thin_svd``, whatever
algorithm runs inside it).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module whose global is replaced, attribute)
_TARGETS = (
    ("fast_eigh.fast_eigh", "loweig", "fast_eigh"),
    ("fast_eigh.fast_eigh", "loweig.learner", "fast_eigh"),
    ("fast_eigh.augment", "loweig.fast_eigh", "augment"),
    ("fast_eigh.factor_to_eig", "loweig.fast_eigh", "factor_to_eig"),
    ("fast_eigh.factor_to_eig", "loweig.learner", "factor_to_eig"),
    ("kernels.symmetric_eig", "loweig.fast_eigh", "symmetric_eig"),
    ("kernels.thin_svd", "loweig.fast_eigh", "thin_svd"),
    ("kernels.orthonormal_residual", "loweig.fast_eigh", "orthonormal_residual"),
    ("truncation.truncate", "loweig.learner", "truncate"),
    ("learner.update", "loweig", "update"),
    ("learner.distance", "loweig", "distance"),
)
_VALIDATED = ("LowRankFactor", "WeightedData", "EigenFactor")
MEGA = 1e6


def _cost(name, args, result):
    """(flops, bytes) of the m-row work a call does, from shapes only."""
    if name == "kernels.orthonormal_residual":
        (m, n), k = args[0].shape, args[1].shape[1]
        # Gram check of q, then two passes of p = q^T x; x -= q p.
        return 2 * m * n * n + 8 * m * n * k, 8 * m * (n + 2 * (2 * n + 3 * k))
    if name == "kernels.thin_svd":
        m, k = args[0].shape
        return 4 * m * k * k, 8 * m * 2 * k
    if name == "fast_eigh.augment":
        m, n = args[0].shape
        k = result[0].shape[1] - n
        return 0, 8 * m * 2 * (n + k)  # hstack([q, u])
    if name == "fast_eigh.factor_to_eig":
        m, r = args[1].shape
        return 2 * m * r * r, 8 * m * 2 * r
    if name == "fast_eigh.validate":
        obj = args[0]
        if type(obj).__name__ == "WeightedData":
            return 0, 8 * obj.X.shape[0] * (obj.X.shape[1] + obj.Y.shape[1])
        m, r = (obj.Q if hasattr(obj, "Q") else obj.E).shape
        return 2 * m * r * r, 8 * m * r
    return 0, 0


class Tracer:
    """Records spans while installed; ``finish_op`` folds them per operation."""

    def __init__(self):
        self._saved = []
        self._stack = []  # [index, start, child seconds]
        self.spans = []  # (name, parent index, start, end, self seconds)
        self._flops = 0
        self._bytes = 0
        self._dims = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tracer.spans[index] = (name, parent, frame[1], end, dur - frame[2])
            flops, nbytes = _cost(name, args, result)
            tracer._flops += flops
            tracer._bytes += nbytes
            if name == "kernels.symmetric_eig":
                tracer._dims.append(args[0].shape[0])
            return result

        return traced

    def install(self):
        import loweig  # noqa: F401  (loads the submodules)

        targets = [(name, sys.modules.get(module), attr) for name, module, attr in _TARGETS]
        for cls_name in _VALIDATED:
            cls = getattr(sys.modules["loweig.fast_eigh"], cls_name, None)
            targets.append(("fast_eigh.validate", cls, "__post_init__"))
        for name, owner, attr in targets:
            # A function the library no longer has is a layer that reads 0.
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def start_op(self):
        self.spans.clear()
        self._flops = self._bytes = 0
        self._dims.clear()

    def finish_op(self) -> dict:
        """Per-operation totals: ``<span>.self_s``, ``<span>.calls`` and the
        computed work counters."""
        totals = defaultdict(float)
        for name, _, _, _, self_s in self.spans:
            totals[name + ".self_s"] += self_s
            totals[name + ".calls"] += 1
        totals["fast_eigh.mflop"] = self._flops / MEGA
        totals["fast_eigh.mb_moved"] = self._bytes / MEGA
        totals["kernels.symmetric_eig.dim"] = max(self._dims, default=0)
        return dict(totals)
