"""Build script: compiles the flag-orbit kernel `parahoric.groups._kernels`.

With Cython installed, the extension is cythonized from `_kernels.pyx`.
Without it, the generated `_kernels.cpp` (tracked next to the `.pyx`) is
compiled directly by the system C++ compiler, so a plain
`python setup.py build_ext --inplace` or `pip install` builds the kernel
with no Cython.  The extension is optional: where it cannot be built (no
compiler, no Python headers) the build still succeeds and the package runs
on the pure-Python kernel.
"""

from setuptools import Extension, setup

KERNEL = "parahoric.groups._kernels"
SOURCE = "src/parahoric/groups/_kernels"

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [Extension(KERNEL, [SOURCE + ".cpp"], language="c++")]
else:
    ext_modules = cythonize(
        [Extension(KERNEL, [SOURCE + ".pyx"])],
        compiler_directives={
            "language_level": 3,
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
        },
    )
for ext in ext_modules:
    ext.optional = True  # cythonize does not carry this attribute over

setup(ext_modules=ext_modules)
