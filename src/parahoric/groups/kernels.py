"""Kernel selection: compiled Cython core when available, else pure Python.

Set PARAHORIC_PURE_PYTHON=1 to force the fallback (used by the benchmark
and the differential tests).
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("PARAHORIC_PURE_PYTHON"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

IMPLEMENTATION = _impl.IMPLEMENTATION
mat_identity = _impl.mat_identity
mat_mul = _impl.mat_mul
flag_key = _impl.flag_key
line_canon = _impl.line_canon
FlagOrbit = _impl.FlagOrbit
BudgetExceeded = _kernels_py.BudgetExceeded  # the package-wide class, raised by both kernels
