"""Kernel tests: the compiled kernel (`_kernels.cpp`) against the pure-Python
one (`_kernels_py`), bit for bit, their one interface (three flag-orbit
passes), their shared handling of flags outside the orbit, and the
per-instance routing between them."""

import importlib.machinery
import importlib.util
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from parahoric.concave import ConcaveFunction, enumerate_overgroups, pseudo_borel_function
from parahoric.groups import _kernels_py as kpy
from parahoric.groups import kernels
from parahoric.groups.group import build_group
from parahoric.groups.subgroups import subgroup_gens

ROOT = Path(__file__).resolve().parents[1]
CASES = [(2, 27, 3, 1), (3, 25, 5, 2), (3, 81, 3, 2), (4, 9, 3, 2), (2, 3**9, 3, 1)]
# beyond the compiled kernel's range: (type, p, h) -> (n, mod)
OUT_OF_RANGE = {("A2", 3, 5): (3, 243), ("C2", 3, 3): (4, 27), ("C2", 5, 2): (4, 25)}


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel module: the build next to the sources if there is
    one, else one built by this checkout's setup.py into a temporary
    directory.  Skips only where neither exists (no C++ compiler)."""
    try:
        from parahoric.groups import _kernels
        return _kernels
    except ImportError:
        pass
    if not (ROOT / "setup.py").is_file():
        pytest.skip("compiled kernel not built, and no setup.py to build it")
    out = tmp_path_factory.mktemp("kernel-build")
    subprocess.run([sys.executable, "setup.py", "build_ext",
                    "--build-lib", str(out), "--build-temp", str(out / "temp")],
                   cwd=ROOT, capture_output=True)
    built = [path for path in (out / "parahoric" / "groups").glob("_kernels.*")
             if any(path.name.endswith(s) for s in importlib.machinery.EXTENSION_SUFFIXES)]
    if not built:
        pytest.skip("compiled kernel not built, and setup.py could not build it")
    spec = importlib.util.spec_from_file_location("parahoric.groups._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["compiled", "python"])
def kernel(request):
    """Each kernel module in turn, for properties both must have."""
    return request.getfixturevalue("compiled") if request.param == "compiled" else kpy


def test_implementation_reported():
    assert kernels.IMPLEMENTATION in ("compiled", "python")


@pytest.mark.parametrize("n,mod,p,k", CASES)
def test_mat_mul_matches(compiled, n, mod, p, k):
    rng = random.Random(n * mod)
    for _ in range(300):
        a = tuple(rng.randrange(-mod, mod) for _ in range(n * n))
        b = tuple(rng.randrange(-mod, mod) for _ in range(n * n))
        assert compiled.mat_mul(a, b, n, mod) == kpy.mat_mul(a, b, n, mod)


@pytest.mark.parametrize("args", [("A1", "sc", 3, 3), ("A2", "sc", 5, 2),
                                  ("C2", "sc", 3, 2), ("A2", "adjoint", 5, 2),
                                  ("A1", "sc", 3, 9)])
def test_flag_orbits_match(compiled, args):
    # the same points in the same order, and the same quotient and left labels
    # for every overgroup of B; each fibre is labelled by its least point
    g = build_group(*args)
    fast = compiled.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    slow = kpy.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    assert fast.build(g.gens(), max_points=10**5) == slow.build(g.gens(), max_points=10**5)
    fb = pseudo_borel_function(g.rs, g.h)
    left = subgroup_gens(g, fb)
    if g.h > 4:  # beyond enumerate_overgroups; for A1 the overgroups are f(-a) = 0..h
        fs = [ConcaveFunction.make(g.rs, g.h, {(1,): 0, (-1,): k}) for k in range(g.h + 1)]
    else:
        fs = enumerate_overgroups(fb)
    for f in fs:
        qf = fast.quotient(subgroup_gens(g, f))
        assert qf == slow.quotient(subgroup_gens(g, f))
        least = {}
        for i, c in enumerate(qf):
            least.setdefault(c, i)
        assert all(least[c] == c for c in least)
        lf = slow.left_orbit_labels(left, qf)
        assert fast.left_orbit_labels(left, qf) == lf
        assert fast.left_orbit_labels(left, array("i", qf)) == lf


def test_quotient_refuses_generators_without_the_stabilizer(kernel):
    # SL2(Z/25): u_{-a}(1) alone moves the base flag through 25 of the 30
    # points, but does not generate an overgroup of B, so its translates meet
    g = build_group("A1", "sc", 5, 2)
    orbit = kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    assert orbit.build(g.gens(), max_points=100) == 30
    lower = [g.u((-1,), 1)]
    assert kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k).build(lower, max_points=100) == 25
    with pytest.raises(ValueError, match="translates of the base fiber meet"):
        orbit.quotient(lower)
    with pytest.raises(IndexError):  # no base point before the orbit is built
        kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k).quotient(g.gens())


def test_left_orbit_labels_refuses_bad_labels(kernel):
    # a label must be a point index, and a point of its own fibre
    g = build_group("A1", "sc", 3, 2)  # SL2(Z/9): 12 points
    orbit = kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    orbit.build(g.gens(), max_points=100)
    with pytest.raises(ValueError, match="point indices"):
        orbit.left_orbit_labels(g.gens(), [12] * 12)
    with pytest.raises(ValueError, match="own fiber"):
        orbit.left_orbit_labels(g.gens(), [1, 0] + list(range(2, 12)))
    assert orbit.left_orbit_labels(g.gens(), list(range(12))) == [0] * 12


def test_budget_exception_shared():
    g = build_group("C2", "sc", 3, 2)
    orbit = kernels.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    with pytest.raises(kernels.BudgetExceeded):
        orbit.build(g.gens(), max_points=100)


def test_products_beyond_c_int_use_python_kernel():
    # SL2(Z/3^10): 2 * (3^10 - 1)^2 overflows the compiled kernel's C int sums
    g = build_group("A1", "sc", 3, 10)
    rng = random.Random(310)
    roots = sorted(g.rs.roots)

    def element():
        m = g.identity
        for _ in range(3):
            m = g.mul(m, g.u(rng.choice(roots), rng.randrange(g.mod)))
        return m

    for _ in range(200):
        a, b = element(), element()
        assert g.mul(a, b) == kpy.mat_mul(a, b, g.n, g.mod)
    assert kernels.kernel_for(g.n, g.mod) is kpy
    assert g.describe()["kernel"] == "python"


@pytest.mark.parametrize("type_label,p,h", sorted(OUT_OF_RANGE))
def test_flag_orbits_beyond_packing_use_python_kernel(type_label, p, h):
    # reps or keys of these instances need more than one 64-bit word
    g = build_group(type_label, "sc", p, h)
    assert (g.n, g.mod) == OUT_OF_RANGE[type_label, p, h]
    orbit = kernels.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    with pytest.raises(kernels.BudgetExceeded):
        orbit.build(g.gens(), max_points=50)
    assert isinstance(orbit, kpy.FlagOrbit)
    assert g.describe()["kernel"] == "python"


def test_in_range_instances_use_loaded_kernel():
    for args in [("A1", "sc", 3, 3), ("A2", "adjoint", 5, 2), ("C2", "sc", 3, 2)]:
        assert build_group(*args).describe()["kernel"] == kernels.IMPLEMENTATION


def test_flags_outside_the_orbit_raise_key_error(kernel):
    # the B-orbit of the standard flag of SL3(Z/25) is that one point;
    # u_{-a}(1) moves the flag off it, in the base fibre walk of a quotient
    # and in a left pass alike
    g = build_group("A2", "sc", 5, 2)
    borel = subgroup_gens(g, pseudo_borel_function(g.rs, g.h))
    orbit = kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    assert orbit.build(borel, max_points=10) == 1
    lower = [g.u(g.rs.neg_simples[0], 1)]
    for _ in range(2):  # a failed lookup adds no point
        with pytest.raises(KeyError):
            orbit.quotient(lower)
        with pytest.raises(KeyError):
            orbit.left_orbit_labels(lower, [0])
    assert len(orbit) == 1
    assert orbit.quotient(borel) == [0]
    assert orbit.left_orbit_labels(borel, [0]) == [0]


def test_one_kernel_interface(kernel):
    """A FlagOrbit offers len() and the three passes the package runs, and
    nothing else; the compiled module exports only mat_mul, FlagOrbit and
    IMPLEMENTATION.  A stale build that still has other methods fails."""
    g = build_group("A1", "sc", 3, 2)  # SL2(Z/9): 12 points
    orbit = kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    assert {name for name in dir(orbit) if not name.startswith("_")} == {
        "build", "quotient", "left_orbit_labels"}
    assert len(orbit) == 0
    orbit.build(g.gens(), max_points=100)
    assert len(orbit) == 12
    exports = {name for name in dir(kernel) if not name.startswith("_")}
    interface = {"mat_mul", "FlagOrbit", "IMPLEMENTATION"}
    assert exports == interface if kernel is not kpy else interface <= exports
