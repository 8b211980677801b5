"""Kernel tests: the compiled kernel against the pure-Python one, the
per-instance routing between them, and the freshness of the generated C++."""

import importlib.machinery
import importlib.util
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from parahoric.groups import _kernels_py as kpy
from parahoric.groups import kernels
from parahoric.groups.group import build_group

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ROOT / "src" / "parahoric" / "groups"
CASES = [(2, 27, 3, 1), (3, 25, 5, 2), (3, 81, 3, 2), (4, 9, 3, 2)]
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


def test_implementation_reported():
    assert kernels.IMPLEMENTATION in ("cython", "python")


@pytest.mark.parametrize("n,mod,p,k", CASES)
def test_mat_mul_matches(compiled, n, mod, p, k):
    rng = random.Random(n * mod)
    for _ in range(300):
        a = tuple(rng.randrange(-mod, mod) for _ in range(n * n))
        b = tuple(rng.randrange(-mod, mod) for _ in range(n * n))
        assert compiled.mat_mul(a, b, n, mod) == kpy.mat_mul(a, b, n, mod)


@pytest.mark.parametrize("args", [("A1", "sc", 3, 3), ("A2", "sc", 5, 2),
                                  ("C2", "sc", 3, 2), ("A2", "adjoint", 5, 2)])
def test_flag_orbits_match(compiled, args):
    g = build_group(*args)
    fast = compiled.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    slow = kpy.FlagOrbit(g.n, g.mod, g.p, g.flag_k)
    fast.build(g.gens(), max_points=10**5)
    slow.build(g.gens(), max_points=10**5)
    assert len(fast) == len(slow)
    # same point set: every slow representative locates in the fast orbit
    for i in range(0, len(slow), 37):
        fast.locate(slow.reps[i])
    # identical partition data for a quotient + left-orbit pass
    from parahoric.concave import generated_function, pseudo_borel_function
    from parahoric.groups.subgroups import subgroup_gens

    fb = pseudo_borel_function(g.rs, g.h)
    fd = generated_function(fb, set(g.rs.neg_simples))
    extra = [
        g.u(a, g.p ** fd[a])
        for a in sorted(g.rs.negative_roots)
        if fd[a] < g.h
    ]
    qf = fast.quotient(extra)
    qs = slow.quotient(extra)
    assert len(set(qf)) == len(set(qs))
    lf = fast.left_orbit_labels(subgroup_gens(g, fb), qf)
    ls = slow.left_orbit_labels(subgroup_gens(g, fb), qs)
    assert len(set(lf)) == len(set(ls))


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


def test_generated_cpp_matches_pyx():
    # every source line Cython quoted into _kernels.cpp is that line of _kernels.pyx
    pyx = (GROUPS / "_kernels.pyx").read_text().splitlines()
    cpp = (GROUPS / "_kernels.cpp").read_text()
    marker = "             # <<<<<<<<<<<<<<"
    blocks = re.findall(r'/\* "parahoric/groups/_kernels\.pyx":(\d+)\n(.*?)\*/', cpp, re.S)
    assert len(blocks) > 300
    for line, block in blocks:
        quoted = [row for row in block.splitlines() if row.endswith(marker)]
        assert len(quoted) == 1, f"_kernels.cpp block for line {line} has no marked line"
        assert quoted[0][len(" * "):-len(marker)] == pyx[int(line) - 1].rstrip(), (
            f"_kernels.cpp is stale at _kernels.pyx:{line}; regenerate it with Cython"
        )
