import hashlib
import math
import random
from collections import Counter

import pytest

from parahoric.closure import orbit_labels
from parahoric.concave import (
    ConcaveFunction,
    enumerate_overgroups,
    generated_function,
    minimal_overgroup,
    pseudo_borel_function,
)
from parahoric.groups.checks import (
    lu_factor,
    verify_exterior_class_absorption,
    verify_product_representatives,
    verify_overgroup_classification,
    verify_parahoric_axioms,
    verify_pseudo_borel_conjugacy,
    verify_rank1_classes,
    verify_reduction_kernel,
)
from parahoric.groups.cosets import FlagSpace, brute_force_double_cosets, double_coset_count_flags
from parahoric.groups import _kernels_py, group as group_module
from parahoric.groups.group import FiniteParahoricGroup, GroupBuildError, build_group
from parahoric.groups.kernels import BudgetExceeded, FlagOrbit
from parahoric.groups.subgroups import double_class, mulclose, solvable_order, subgroup_gens
from parahoric.root_system import build_root_system, positive_systems


def test_build_group_orders(sl2_9, sl2_25):
    assert sl2_9.order() == 648
    assert len(mulclose(sl2_9, sl2_9.gens())) == 648
    assert sl2_25.order() == 120 * 5**3
    g1 = build_group("A1", "sc", 3, 1)
    assert g1.order() == 24
    a2 = build_group("A2", "sc", 5, 2)
    assert a2.order() == 372000 * 5**8


def test_build_group_rejections():
    with pytest.raises(GroupBuildError):
        build_group("A1", "sc", 2, 2)
    with pytest.raises(GroupBuildError):
        build_group("A1", "sc", 9, 2)
    with pytest.raises(GroupBuildError):
        build_group("B2", "sc", 3, 2)
    with pytest.raises(GroupBuildError):
        build_group("C2", "adjoint", 3, 2)
    with pytest.raises(GroupBuildError):
        build_group("A2", "frobenius", 5, 2)
    # p = 3 for A2 is constructible (absorption hypotheses are checked separately)
    build_group("A2", "sc", 3, 2)


@pytest.mark.parametrize("args", [
    ("A1", "sc", 3, 2), ("A1", "adjoint", 3, 2), ("A1", "sc", 5, 2),
    ("A2", "sc", 5, 2), ("A2", "adjoint", 5, 2), ("C2", "sc", 3, 2),
    ("A1", "sc", 3, 10),
], ids=lambda a: "-".join(map(str, a)))
def test_inverse_of_random_products(args):
    """inv is a two-sided inverse and an involution, and canon is idempotent,
    on random words in the generators (SL2(Z/3^10) runs on the Python kernel)."""
    g = build_group(*args)
    if args[3] == 10:
        assert g.kernel is _kernels_py
    rng = random.Random(repr(args))
    gens = g.gens()
    for _ in range(40):
        x = g.identity
        for _ in range(rng.randrange(1, 12)):
            x = g.mul(x, rng.choice(gens))
        x_inv = g.inv(x)
        assert g.mul(x, x_inv) == g.identity == g.mul(x_inv, x)
        assert g.inv(x_inv) == x
        assert g.canon(x) == x
        # a scalar multiple of x is the same class on adjoint groups
        s = rng.choice([v for v in range(1, g.mod) if v % g.p])
        y = tuple(v * s % g.mod for v in x)
        assert g.canon(g.canon(y)) == g.canon(y) == (x if g.isogeny == "adjoint" else y)


def test_group_build_rejects_non_additive_root_element(monkeypatch):
    """u_a(1) u_a(-1) = 1 is checked at build: here N_a = E01 + E10 has
    N_a^2 = 1, so u_a(-x) would not invert u_a(x)."""
    data = dict(group_module._TYPE_DATA["A1"])
    data["positions"] = lambda: {(1,): [(0, 1, 1), (1, 0, 1)], (-1,): [(1, 0, 1)]}
    monkeypatch.setitem(group_module._TYPE_DATA, "A1", data)
    with pytest.raises(GroupBuildError, match="not additive"):
        FiniteParahoricGroup("A1", "sc", 3, 2)


def test_valuation(sl2_9):
    alpha = (1,)
    assert sl2_9.valuation(sl2_9.u(alpha, 3), alpha) == 1
    assert sl2_9.valuation(sl2_9.u(alpha, 1), alpha) == 0
    assert sl2_9.valuation(sl2_9.u(alpha, 0), alpha) == math.inf
    with pytest.raises(ValueError):
        sl2_9.valuation(sl2_9.weyl_rep(alpha), alpha)


def test_subgroup_orders(sl2_9):
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    assert solvable_order(g, fb) == 54 == len(mulclose(g, subgroup_gens(g, fb)))
    whole = ConcaveFunction.make(g.rs, 2, {a: 0 for a in g.rs.roots})
    assert len(mulclose(g, subgroup_gens(g, whole))) == 648
    fd = generated_function(fb, {(-1,)})
    assert solvable_order(g, fd) == 162 == len(mulclose(g, subgroup_gens(g, fd)))


def test_subgroup_order_reverses_pointwise_order(sl2_9):
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    fa = minimal_overgroup(fb, (-1,))
    pb = frozenset(mulclose(g, subgroup_gens(g, fb)))
    pa = frozenset(mulclose(g, subgroup_gens(g, fa)))
    assert fa.leq(fb) and pa > pb


def test_flag_space_counts(flags_sl2_9, flags_pgl2_9, flags_sp4_9, flags_pgl3_25):
    assert len(flags_sl2_9) == 12
    assert len(flags_pgl2_9) == 12
    assert len(flags_sp4_9) == 12960
    assert len(flags_pgl3_25) == 23250


def _overgroup_cases():
    """(group fixture, index into enumerate_overgroups) for every overgroup of
    B in SL2(Z/25), Sp4(Z/9), PGL3(Z/25) and SL3(Z/27)."""
    for name, dynkin, rank, h in [("sl2_25", "A", 1, 2), ("sp4_9", "C", 2, 2),
                                  ("pgl3_25", "A", 2, 2), ("sl3_27", "A", 2, 3)]:
        fb = pseudo_borel_function(build_root_system(dynkin, rank), h)
        yield from ((name, k) for k in range(len(enumerate_overgroups(fb))))


@pytest.mark.parametrize("group,k", list(_overgroup_cases()))
def test_coset_count_is_index_of_base_fibre(request, group, k):
    """[G : P_f] = |G/B| / |P_f/B|, with P_f/B the orbit of the standard flag
    under P_f, built on its own, and every fibre of G/B -> G/P_f has that size."""
    g = request.getfixturevalue(group)
    flags = request.getfixturevalue(f"flags_{group}")
    f = enumerate_overgroups(pseudo_borel_function(g.rs, g.h))[k]
    fibre = FlagOrbit(g.n, g.mod, g.p, g.flag_k).build(subgroup_gens(g, f), len(flags))
    assert flags.coset_count(f) == len(flags) // fibre
    assert set(Counter(flags.quotient_labels(f)).values()) == {fibre}


def test_flag_budget_refusal(sp4_9):
    # refused from |G|/|B| before the orbit is built, naming the CLI flag
    with pytest.raises(BudgetExceeded, match=r"\|G/B\| = 12960 exceeds the coset budget 1000 "
                       r"\(--budget-cosets\)"):
        FlagSpace(sp4_9, budget=1000)


def test_every_budget_refusal_is_budget_exceeded(sl2_9, sp4_9):
    """Closures, double classes, the positive-system walk and the flag orbit
    all refuse a budget with the one exception class."""
    with pytest.raises(BudgetExceeded):
        mulclose(sl2_9, sl2_9.gens(), maxsize=10)
    with pytest.raises(BudgetExceeded):
        double_class(sl2_9, sl2_9.identity, sl2_9.gens(), [], cap=10)
    with pytest.raises(BudgetExceeded):
        positive_systems(build_root_system("A", 3), cap=10)
    with pytest.raises(BudgetExceeded):
        FlagSpace(sp4_9, budget=100)


def test_orbit_labels_partition_by_first_item():
    """Orbits of x -> x + 4 on Z/12, labelled by the first item met in each."""
    labels = orbit_labels([5, 1, 9, 0], lambda x: [(x + 4) % 12])
    assert labels == {5: 5, 9: 5, 1: 5, 0: 0, 4: 0, 8: 0}  # 4 and 8 lie outside the items
    assert list(dict.fromkeys(labels.values())) == [5, 0]
    with pytest.raises(BudgetExceeded):
        orbit_labels([0], lambda x: [(x + 1) % 12], cap=5)


def test_brute_force_refuses_elements_not_closed(sl2_9):
    """A class that leaves the element set is refused as soon as it leaves,
    not counted and not reported as a budget refusal."""
    g = sl2_9
    elements = {g.u((1,), x) for x in range(g.mod)}
    with pytest.raises(ValueError, match="not closed"):
        brute_force_double_cosets(g, elements, [g.u((-1,), 1)], [])
    # the 54 elements of B under all of G's generators: the escaping class
    # outgrows the element set, which must not read as a budget refusal
    borel = mulclose(g, subgroup_gens(g, pseudo_borel_function(g.rs, 2)))
    assert len(borel) == 54
    with pytest.raises(ValueError, match="not closed"):
        brute_force_double_cosets(g, borel, g.gens(), [])


@pytest.mark.parametrize("group", ["sl2_9", "pgl2_9", "sl2_25", "pgl3_25", "sl3_25", "sp4_9"])
def test_torus_elements_count(request, group):
    g = request.getfixturevalue(group)
    assert len(g.torus_elements()) == g.torus_order()


def test_double_cosets_match_brute_force(sl2_9, flags_sl2_9):
    """The flag route and the element-level partition agree on SL2(Z/9)."""
    g = sl2_9
    elements = mulclose(g, g.gens())
    fb = pseudo_borel_function(g.rs, 2)
    fd = generated_function(fb, {(-1,)})
    b_gens = subgroup_gens(g, fb)
    bd_gens = subgroup_gens(g, fd)
    cases = [(b_gens, fb), (b_gens, fd), (bd_gens, fb), (bd_gens, fd)]
    for left_gens, right_f in cases:
        flag_count = double_coset_count_flags(flags_sl2_9, left_gens, right_f)
        brute = brute_force_double_cosets(
            g, elements, left_gens, subgroup_gens(g, right_f)
        )
        assert flag_count == brute
    assert double_coset_count_flags(flags_sl2_9, b_gens, fb) == 4


def test_double_cosets_swap_symmetry(sl2_9, flags_sl2_9):
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    fd = generated_function(fb, {(-1,)})
    ab = double_coset_count_flags(flags_sl2_9, subgroup_gens(g, fb), fd)
    ba = double_coset_count_flags(flags_sl2_9, subgroup_gens(g, fd), fb)
    assert ab == ba == 2


def test_double_cosets_trivial_cases(sl2_9, flags_sl2_9):
    g = sl2_9
    whole = ConcaveFunction.make(g.rs, 2, {a: 0 for a in g.rs.roots})
    assert double_coset_count_flags(flags_sl2_9, g.gens(), whole) == 1
    # G \ G / G is one class, labelled by its least point
    assert set(flags_sl2_9.double_coset_labels(subgroup_gens(g, whole), whole)) == {0}


def test_double_cosets_fallback_route(sl2_9, flags_sl2_9):
    """A right side not containing B can only be counted on the element
    route; the count must match the flag route with the sides swapped."""
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    u_minus = [g.u((-1,), 1)]
    via_elements = brute_force_double_cosets(g, mulclose(g, g.gens()),
                                             subgroup_gens(g, fb), u_minus)
    # swap: U- on the left, B on the right goes through the flag space
    swapped = double_coset_count_flags(flags_sl2_9, u_minus, fb)
    assert via_elements == swapped == 4


def test_double_cosets_representatives_deterministic(sl2_9, flags_sl2_9):
    """Each class is labelled by its least point, its representative in G/B,
    the same on every call."""
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    l1 = flags_sl2_9.double_coset_labels(subgroup_gens(g, fb), fb)
    l2 = flags_sl2_9.double_coset_labels(subgroup_gens(g, fb), fb)
    assert list(l1) == list(l2)
    assert sorted(set(l1)) == [0, 1, 7, 9]
    assert all(l1[lab] == lab == min(i for i, x in enumerate(l1) if x == lab) for lab in set(l1))


def test_counts_independent_of_generating_description(sl2_9, flags_sl2_9):
    """Double-coset counts agree whether a side is described by its concave
    generators or by its full element list."""
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    fd = generated_function(fb, {(-1,)})
    bd_elements = sorted(mulclose(g, subgroup_gens(g, fd)))
    lean = double_coset_count_flags(flags_sl2_9, subgroup_gens(g, fd), fb)
    fat = double_coset_count_flags(flags_sl2_9, bd_elements, fb)
    assert lean == fat == 2


def test_inclusion_matches_pointwise_order():
    """f <= f' pointwise iff P_f contains P_f', across whole intervals."""
    cases = [build_group("A1", "sc", 3, 3), build_group("A2", "sc", 3, 2)]
    for g in cases:
        fb = pseudo_borel_function(g.rs, g.h)
        fs = enumerate_overgroups(fb)
        if g.rs.rank > 1:
            fs = [f for f in fs if f.is_solvable()]  # keep closures small
        sets = {f.values: frozenset(mulclose(g, subgroup_gens(g, f))) for f in fs}
        for f1 in fs:
            for f2 in fs:
                assert f1.leq(f2) == (sets[f1.values] >= sets[f2.values])


def test_lu_factor(sl2_9):
    g = sl2_9
    m = g.mul(g.u((1,), 4), g.mul(g.coroot((1,), 2), g.u((-1,), 6)))
    l, d, u = lu_factor(g, m)
    assert g.mul(g.mul(l, d), u) == m
    with pytest.raises(ValueError):
        lu_factor(g, g.weyl_rep((1,)))


AXIOM_CASES = {
    "sl2_27": ("A1", "sc", 3, 3),
    "sl2_25": ("A1", "sc", 5, 2),
    "sl3_25": ("A2", "sc", 5, 2),
    "sp4_9": ("C2", "sc", 3, 2),
    "pgl2_9": ("A1", "adjoint", 3, 2),
    "pgl3_25": ("A2", "adjoint", 5, 2),
}


def _axiom_group(case):
    if case in AXIOM_CASES:
        return build_group(*AXIOM_CASES[case])
    # negative control "sl3_9-moved-root": u_{a1+a2} moved onto u_{a1}'s entry
    g = FiniteParahoricGroup("A2", "sc", 3, 2)
    g.positions[(1, 1)] = [(0, 1, 1)]
    return g


def _shifts(*pairs):
    """depth0_shifts from (root, v0, order) triples."""
    return {str(a): {"v0": v0, "order": order} for a, v0, order in pairs}


_A2_ROOTS = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
_NO_FAILURES = ({}, hashlib.sha256(b"[]").hexdigest())

# Exact reports, recorded from the Gaussian-elimination inverse and the
# generic commutator: checked, depth0_shifts, and the failures as a count by
# kind plus the sha256 of the repr of the full ordered list.
GOLDEN_AXIOM_REPORTS = {
    "sl2_27": (58, _shifts(((-1,), 1, 18), ((1,), 1, 9)), *_NO_FAILURES),
    "sl2_25": (32, _shifts(((-1,), 0, 20), ((1,), 0, 20)), *_NO_FAILURES),
    "sl3_25": (192, _shifts(*[(a, 0, 20) for a in _A2_ROOTS]), *_NO_FAILURES),
    "sp4_9": (320, _shifts(((-2, -1), 1, 6), ((-1, -1), 1, 6), ((-1, 0), 1, 6),
                           ((0, -1), 1, 6), ((0, 1), 1, 3), ((1, 0), 1, 3),
                           ((1, 1), 1, 3), ((2, 1), 1, 3)), *_NO_FAILURES),
    "pgl2_9": (32, _shifts(((-1,), 1, 3), ((1,), 1, 3)), *_NO_FAILURES),
    "pgl3_25": (192, _shifts(*[(a, 0, 20) for a in _A2_ROOTS]), *_NO_FAILURES),
    "sl3_9-moved-root": (
        192,
        _shifts(((-1, -1), 2, 1), ((-1, 0), 1, 6), ((0, -1), 1, 6),
                ((0, 1), 1, 3), ((1, 0), 1, 3), ((1, 1), 2, 1)),
        {"commute": 168, "wedge-factor": 336, "projection": 18, "H-order": 2, "H-depth": 2},
        "707927a699b45e5123b79b9f4d868fbd9ce1bd692a216d69cc53428f822763ce",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_AXIOM_REPORTS))
def test_parahoric_axiom_reports_golden(case):
    report = verify_parahoric_axioms(_axiom_group(case))
    failures = report["failures"]
    got = (report["checked"], report["depth0_shifts"], dict(Counter(f[0] for f in failures)),
           hashlib.sha256(repr(failures).encode()).hexdigest())
    assert got == GOLDEN_AXIOM_REPORTS[case]
    assert report["pass"] == (case != "sl3_9-moved-root")


@pytest.mark.parametrize("args", [("A1", "sc", 3, 2), ("A1", "adjoint", 3, 2),
                                  ("A1", "sc", 5, 2), ("A1", "sc", 3, 1)])
def test_parahoric_axioms_small(args):
    report = verify_parahoric_axioms(build_group(*args))
    assert report["pass"], report["failures"][:5]


# Full reports of the double-class checks; `instance` is the group's own
# description, so the pins hold on either kernel.
REPORT_CASES = {**AXIOM_CASES, "sl2_9": ("A1", "sc", 3, 2)}
GOLDEN_RANK1_FAILURES = {
    "sl2_9": [],
    "pgl2_9": [],
    "sl2_25": [],
    # U_{-a,2} does not refine U_{-a,1} into (U, B)-classes at h = 3
    "sl2_27": [("uclass", 1, 0, 9, False, True), ("uclass", 1, 0, 18, False, True),
               ("uclass", 1, 9, 0, False, True), ("uclass", 1, 9, 18, False, True),
               ("uclass", 1, 18, 0, False, True), ("uclass", 1, 18, 9, False, True)],
}


def test_rank1_classes():
    for case, failures in GOLDEN_RANK1_FAILURES.items():
        g = build_group(*REPORT_CASES[case])
        assert verify_rank1_classes(g) == {
            "instance": g.describe(), "failures": failures, "pass": not failures,
        }, case
    with pytest.raises(ValueError):
        verify_rank1_classes(build_group("A2", "sc", 5, 2))


def test_absorption_small(sl2_9, flags_sl2_9):
    report = verify_exterior_class_absorption(sl2_9, flags=flags_sl2_9)
    assert report["pass"]
    assert report["results"]["B"]["exterior_classes"] == 1


def _absorbed(b_classes, rub_classes):
    return {left: {"exterior_classes": n, "classes_without_alpha": 0,
                   "coarse_classes_without_common_alpha": 0}
            for left, n in (("B", b_classes), ("RuB", rub_classes))}


@pytest.mark.parametrize("group,b_classes,rub_classes", [
    ("sl2_27", 3, 3), ("sl3_25", 14, 65), ("pgl3_25", 14, 65), ("sp4_9", 50, 71),
])
def test_absorption_reports_golden(group, b_classes, rub_classes):
    """Full absorption results for L = B and L = R_u(B): exterior (L, B)
    classes, and no class or class mod B_Delta without a simple root."""
    g = build_group(*AXIOM_CASES[group])
    report = verify_exterior_class_absorption(g)
    assert report == {"instance": g.describe(), "pass": True,
                      "results": _absorbed(b_classes, rub_classes)}


def test_absorption_hypothesis_rejection():
    with pytest.raises(ValueError):
        verify_exterior_class_absorption(build_group("A2", "sc", 3, 2))


def test_product_representatives_equal_and_mixed_moduli(sl2_9, sl2_25):
    # (1, 1): 9 classes; (2, 1), one factor Borel-level: the rank-1 statement;
    # mixed moduli at reduced budget: 1 x 5 factor-wise representatives
    for factors, values, classes in (([sl2_9, sl2_9], [1, 1], 9),
                                     ([sl2_9, sl2_9], [2, 1], 3),
                                     ([sl2_9, sl2_25], [2, 1], 5)):
        assert verify_product_representatives(factors, values) == {
            "factors": [f.describe() for f in factors],
            "classes": classes,
            "products": classes,
            "per_class_hits": [1],
            "pass": True,
        }


def test_overgroup_classification():
    # N(B) = P_1 in SL2(Z/9) (see the ledger), so SL2 reports witnesses
    cases = {
        "sl2_9": (3, [({"-1": 2}, (1, 0, 3, 1))]),
        "pgl2_9": (3, []),
        "sl2_27": (4, [({"-1": 3}, (1, 0, 9, 1)), ({"-1": 2}, (1, 0, 3, 1))]),
    }
    for case, (size, witnesses) in cases.items():
        g = build_group(*REPORT_CASES[case])
        assert verify_overgroup_classification(g) == {
            "instance": g.describe(),
            "interval_size": size,
            "concave_count": size,
            "matches": True,
            "self_normalizing": not witnesses,
            "normalizer_witnesses": witnesses,
            "pass": not witnesses,
        }, case


def test_pseudo_borel_conjugacy(sl2_9):
    assert verify_pseudo_borel_conjugacy(sl2_9)["pass"]
    assert verify_pseudo_borel_conjugacy(build_group("A2", "sc", 3, 2))["pass"]


def test_reduction_kernel():
    r = verify_reduction_kernel("A1", "sc", 3, 3)
    assert r["pass"] and r["kernel"] == 27
    r = verify_reduction_kernel("A1", "adjoint", 3, 2)
    assert r["pass"] and r["kernel"] == 27


def test_sp4_symplectic_and_weyl(sp4_9):
    g = sp4_9
    J = (0, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 0)
    for a in g.rs.roots:
        assert g._is_symplectic(g.u(a, 5))
    for a in g.rs.simple_roots:
        assert g._is_symplectic(g.weyl_rep(a))


def test_root_values(sl2_9, pgl2_9):
    t = sl2_9.coroot((1,), 2)
    assert sl2_9.root_value(t, (1,)) == 4  # alpha(alpha_vee(t)) = t^2
    tg = pgl2_9.torus_gens()[0]
    assert pgl2_9.root_value(tg, (1,)) == pgl2_9.unit_gen
