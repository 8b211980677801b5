"""Kernel tests: the compiled kernel (`_kernels.cpp`) against the pure-Python
one (`_kernels_py`), bit for bit, their shared handling of points outside the
orbit and of representative indices, and the per-instance routing between
them."""

import importlib.machinery
import importlib.util
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from parahoric.groups import _kernels_py as kpy
from parahoric.groups import kernels
from parahoric.groups.group import build_group

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
    from parahoric.concave import generated_function, pseudo_borel_function
    from parahoric.groups.subgroups import subgroup_gens

    g = build_group(*args)
    fast = compiled.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    slow = kpy.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    assert fast.build(g.gens(), max_points=10**5) == slow.build(g.gens(), max_points=10**5)
    assert list(fast.reps) == slow.reps
    fb = pseudo_borel_function(g.rs, g.h)
    fd = generated_function(fb, set(g.rs.neg_simples))
    extra = [
        g.u(a, g.p ** fd[a])
        for a in sorted(g.rs.negative_roots)
        if fd[a] < g.h
    ]
    qf = fast.quotient(extra)
    assert qf == slow.quotient(extra)
    left = subgroup_gens(g, fb)
    assert fast.left_orbit_labels(left, qf) == slow.left_orbit_labels(left, qf)
    assert fast.left_orbit_labels(left, array("i", qf)) == slow.left_orbit_labels(left, qf)


def test_flag_key_consistency(compiled):
    # canonical flag coordinates agree entrywise between implementations
    g = build_group("A2", "sc", 5, 2)
    rng = random.Random(7)
    gens = g.gens()
    m = g.identity
    for _ in range(300):
        m = g.mul(m, rng.choice(gens))
        kf = compiled.flag_key(m, g.n, g.mod, g.p, g.flag_k)
        ks = kpy.flag_key(m, g.n, g.mod, g.p, g.flag_k)
        assert tuple(kf) == tuple(ks)


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
        assert kernels.mat_mul(a, b, g.n, g.mod) == kpy.mat_mul(a, b, g.n, g.mod)
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
    # u_{-a}(1) moves the flag off it
    from parahoric.concave import pseudo_borel_function
    from parahoric.groups.subgroups import subgroup_gens

    g = build_group("A2", "sc", 5, 2)
    orbit = kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    assert orbit.build(subgroup_gens(g, pseudo_borel_function(g.rs, g.h)), max_points=10) == 1
    lower = g.u(g.rs.neg_simples[0], 1)
    for _ in range(2):  # a failed lookup adds no point
        with pytest.raises(KeyError):
            orbit.locate(lower)
        with pytest.raises(KeyError):
            orbit.apply_left(lower, 0)
        with pytest.raises(KeyError):
            orbit.apply_right(0, lower)
    assert len(orbit) == 1
    assert orbit.locate(g.identity) == 0


def test_reps_is_a_sequence(kernel):
    g = build_group("A1", "sc", 3, 2)  # SL2(Z/9): 12 points
    orbit = kernel.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    orbit.build(g.gens(), max_points=100)
    reps = orbit.reps
    listed = list(reps)
    assert len(reps) == len(listed) == 12
    assert [reps[i] for i in range(12)] == listed
    assert reps[-1] == listed[11] and reps[-12] == listed[0]
    assert all(0 <= x < g.mod for rep in listed for x in rep)
    for i in (12, -13):
        with pytest.raises(IndexError):
            reps[i]
        with pytest.raises(IndexError):
            orbit.apply_left(g.identity, i)
