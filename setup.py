"""Build script: compiles the flag-orbit kernel `parahoric.groups._kernels`.

The kernel is one hand-written C++ source on the CPython API,
`src/parahoric/groups/_kernels.cpp`, built by the system C++ compiler
(`python setup.py build_ext --inplace` for a source checkout, or
`pip install`).  The extension is optional: where it cannot be built (no
compiler, no Python headers) the build still succeeds and the package runs
on the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "parahoric.groups._kernels", ["src/parahoric/groups/_kernels.cpp"],
    language="c++", optional=True,
)])
