"""Kernel selection: the compiled core where it is exact, else pure Python.

Both kernels have one interface: `mat_mul(a, b, n, mod)`, `IMPLEMENTATION`,
and a `FlagOrbit(n, mod, p, k)` whose only methods are the three passes the
package runs, `build`, `quotient` and `left_orbit_labels`, plus its length.
The compiled kernel `_kernels` (built by setup.py from the hand-written C++
source `_kernels.cpp`) serves an instance only when its fixed-size buffers,
C `int` arithmetic and one-word packing can hold it; every other instance
goes to `_kernels_py`.  So a compiled build never changes a count and never
refuses an instance the Python kernel runs.  `IMPLEMENTATION` names the
kernel that loaded ("compiled" or "python"); `kernel_for` returns the one
that serves an instance, and `FlagOrbit` builds an orbit on it.  Set
PARAHORIC_PURE_PYTHON=1 to skip the compiled kernel altogether.
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
mat_identity = _kernels_py.mat_identity
BudgetExceeded = _kernels_py.BudgetExceeded  # the package-wide class, raised by both kernels


def kernel_for(n: int, mod: int, k: int | None = None):
    """The kernel module for n x n matrices over Z/mod; give the flag length k
    when a `FlagOrbit` is wanted, whose packing needs more room."""
    if _impl is _kernels_py:
        return _kernels_py
    if n > 4:  # fixed int[16] matrix buffers
        return _kernels_py
    if n * (mod - 1) ** 2 >= 2**31:  # mul_arr sums a row times a column in a C int
        return _kernels_py
    # FlagOrbit packs a matrix, and a flag key of n (line) or 3n (line in a
    # plane) entries, into one 64-bit word of bits(mod)-bit fields
    bits = max(1, (mod - 1).bit_length())
    if k is not None and bits * max(n * n, n if k == 1 else 3 * n) > 64:
        return _kernels_py
    return _impl


def FlagOrbit(n: int, mod: int, p: int, k: int):
    """A flag orbit from the kernel that can hold (n, mod, k)."""
    return kernel_for(n, mod, k).FlagOrbit(n, mod, p, k)
