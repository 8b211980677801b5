import json

import pytest

from parahoric.concave import (
    ConcaveFunction,
    enumerate_overgroups,
    pseudo_borel_function,
)
from parahoric import steinberg
from parahoric.groups.cosets import double_coset_count_flags
from parahoric.groups.group import build_group
from parahoric.groups.subgroups import subgroup_gens
from parahoric.steinberg import (
    SemidirectQuotient,
    faithfulness_report,
    generic_bound_check,
    one_st_inner,
    regular_orbit_count,
    st_dim,
    st_inner,
    verify_multiplicity_freeness,
)


def test_perm_inner_and_symmetry(sl2_9, flags_sl2_9):
    """(1_L, 1_L') = #(L'\\G/L), symmetric in L and L'."""
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    whole = ConcaveFunction.make(g.rs, 2, {a: 0 for a in g.rs.roots})

    def perm_inner(f_left, f_right):
        return double_coset_count_flags(flags_sl2_9, subgroup_gens(g, f_left), f_right)

    assert perm_inner(whole, whole) == 1
    assert perm_inner(fb, fb) == 4
    for f in enumerate_overgroups(fb):
        assert perm_inner(fb, f) == perm_inner(f, fb)


def test_st_dim_values(sl2_9):
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    assert st_dim(g, fb) == 8  # [G:B] - [G:P1] = 12 - 4
    whole = ConcaveFunction.make(g.rs, 2, {a: 0 for a in g.rs.roots})
    assert st_dim(g, whole) == 1
    assert sum(st_dim(g, f) for f in enumerate_overgroups(fb)) == 12


def test_st_dim_interval_sum_sl3():
    # sum of Steinberg dimensions over the full interval is [G:B]; the
    # non-solvable members (parabolics, G) exercise the index-based orders
    g = build_group("A2", "sc", 3, 2)
    fb = pseudo_borel_function(g.rs, 2)
    fs = enumerate_overgroups(fb)
    assert len(fs) == 10
    from parahoric.groups.cosets import FlagSpace
    from parahoric.groups.subgroups import solvable_order

    flags = FlagSpace(g)
    total = sum(st_dim(g, f, flags=flags) for f in fs)
    assert total == g.order() // solvable_order(g, fb) == 1404


def test_interval_realizes_distinct_subgroups_sl3():
    """The ten enumerated descriptors cut out ten distinct subgroups of
    SL3(Z/9), distinguished by flag-based membership of root generators,
    with containment matching the pointwise order.  m lies in P_f iff
    adding it to the generators of P_f leaves [G : P_f] unchanged."""
    from parahoric.groups.cosets import FlagSpace

    g = build_group("A2", "sc", 3, 2)
    fb = pseudo_borel_function(g.rs, 2)
    fs = enumerate_overgroups(fb)
    flags = FlagSpace(g)

    def contains(f, m):
        cosets = set(flags.orbit.quotient(subgroup_gens(g, f) + [m]))
        return len(cosets) == flags.coset_count(f)

    probes = [g.u(a, g.p**i) for a in g.rs.negative_roots for i in range(g.h)]
    signatures = {}
    for f in fs:
        sig = tuple(contains(f, m) for m in probes)
        signatures[f.values] = sig
        # each generator of P_f passes its own membership test
        for a in g.rs.roots:
            if f[a] < g.h:
                assert contains(f, g.u(a, g.p ** f[a]))
    assert len(set(signatures.values())) == len(fs)
    for f1 in fs:
        for f2 in fs:
            weaker = all(
                b or not a
                for a, b in zip(signatures[f2.values], signatures[f1.values])
            )
            if f1.leq(f2):
                assert weaker  # P_{f1} contains P_{f2}: every probe carries over


def test_st_inner_small(sl2_9, flags_sl2_9):
    g = sl2_9
    fb = pseudo_borel_function(g.rs, 2)
    whole = ConcaveFunction.make(g.rs, 2, {a: 0 for a in g.rs.roots})
    assert st_inner(g, whole, whole, flags=flags_sl2_9) == 1
    assert st_inner(g, fb, fb, flags=flags_sl2_9) == 2
    assert st_inner(g, fb, whole, flags=flags_sl2_9) == 0  # distinct components
    assert one_st_inner(g, fb, flags=flags_sl2_9) == 2


# (st_B, st_B), (1_B, st_B), (st_B, st_G) and dim st_P for every P in the
# interval [B, G], in the order of enumerate_overgroups, recorded from the
# per-function alternating sums; each list of dims sums to |G/B|.
GOLDEN_STEINBERG = {
    "sl2_25": (2, 2, 0, [1, 5, 24]),
    "pgl2_9": (1, 1, 0, [1, 3, 8]),
    "sl3_25": (1, 1, 0, [1, 30, 30, 125, 744, 744, 2976, 744, 2976, 14880]),
    "pgl3_25": (1, 1, 0, [1, 30, 30, 125, 744, 744, 2976, 744, 2976, 14880]),
    "sp4_9": (2, 2, 0, [1, 39, 39, 81, 80, 240, 1040, 960, 1840, 960, 1920, 5760]),
    "sl3_27": (3, 3, 0, [1, 12, 12, 27, 104, 104, 208, 104, 208, 624, 936, 936, 1872, 936,
                         936, 5616, 936, 1872, 5616, 16848]),
}


@pytest.mark.parametrize("group", list(GOLDEN_STEINBERG))
def test_steinberg_values_golden(request, group):
    g = request.getfixturevalue(group)
    flags = request.getfixturevalue(f"flags_{group}")
    fb = pseudo_borel_function(g.rs, g.h)
    whole = ConcaveFunction.make(g.rs, g.h, {a: 0 for a in g.rs.roots})
    dims = [st_dim(g, f, flags=flags) for f in enumerate_overgroups(fb)]
    got = (st_inner(g, fb, fb, flags=flags), one_st_inner(g, fb, flags=flags),
           st_inner(g, fb, whole, flags=flags), dims)
    assert got == GOLDEN_STEINBERG[group]
    assert sum(dims) == len(flags)


def test_st_dim_without_flags_builds_one_flag_space(monkeypatch, sp4_9):
    """Given no flag space, st_dim builds one only if some L_I is neither
    solvable nor G, and then only one: for the fourth overgroup of B in
    Sp4(Z/9), two of its L_I need the flag space."""
    built = []
    real = steinberg.FlagSpace
    monkeypatch.setattr(steinberg, "FlagSpace", lambda g: built.append(g) or real(g))
    fs = enumerate_overgroups(pseudo_borel_function(sp4_9.rs, sp4_9.h))
    assert [st_dim(sp4_9, fs[k]) for k in (3, 7)] == [81, 960]
    assert len(built) == 1


def test_regular_orbit_counts(sl2_9, pgl2_9, sl2_25, pgl3_25):
    assert regular_orbit_count(sl2_9) == 2
    assert regular_orbit_count(pgl2_9) == 1
    assert regular_orbit_count(sl2_25) == 2
    assert regular_orbit_count(pgl3_25) == 1
    assert regular_orbit_count(build_group("A2", "sc", 5, 2)) == 1  # cubes cover
    with pytest.raises(ValueError):
        regular_orbit_count(build_group("A1", "sc", 3, 1))


@pytest.mark.parametrize(
    "group, elements, st_st, one_st",
    [
        # the sc A1 torus acts through squares, trivial mod 3: image is a point
        pytest.param("sl2_9", 3, 2, 2, id="sl2_9"),
        pytest.param("pgl3_25", 400, 1, 1, id="pgl3_25"),
        pytest.param("sl3_25", 400, 1, 1, id="sl3_25"),
        pytest.param("sp4_9", 18, 2, 2, id="sp4_9"),
        pytest.param("sl2_25", 10, 2, 2, id="sl2_25"),
    ],
)
def test_quotient_group_routes(request, group, elements, st_st, one_st):
    """The generator walk reproduces the values of a walk over all elements."""
    g = request.getfixturevalue(group)
    q = SemidirectQuotient(g, sorted(g.rs.neg_simples))
    assert len(q.elements) == elements
    assert q.st_inner_quotient() == st_st
    assert q.one_st_inner_quotient() == one_st


def test_multiplicity_freeness_instances(sl2_9, pgl2_9, sl2_25, flags_sl2_9, flags_pgl2_9):
    rep = verify_multiplicity_freeness(sl2_9, flags=flags_sl2_9)
    assert rep.ok
    rep = verify_multiplicity_freeness(pgl2_9, flags=flags_pgl2_9)
    assert rep.ok
    assert any(c["name"] == "adjoint_irreducible" for c in rep.checks)
    rep = verify_multiplicity_freeness(sl2_25)
    assert rep.ok
    got = [c for c in rep.checks if c["name"] == "st_st_equals_orbits"][0]
    assert got["computed"] == 2


def test_multiplicity_hypotheses():
    with pytest.raises(ValueError):
        verify_multiplicity_freeness(build_group("A2", "sc", 3, 2))
    with pytest.raises(ValueError):
        verify_multiplicity_freeness(build_group("A1", "sc", 3, 1))


def test_report_json_schema(sl2_9, flags_sl2_9):
    rep = verify_multiplicity_freeness(sl2_9, flags=flags_sl2_9)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"instance", "checks", "pass"}
    assert payload["instance"]["type"] == "A1"
    for check in payload["checks"]:
        assert set(check) == {"name", "expected", "computed", "pass"}
    # byte-identical on rebuild
    assert rep.to_json() == verify_multiplicity_freeness(sl2_9, flags=flags_sl2_9).to_json()


def test_faithfulness_reports(sl2_9, pgl2_9):
    r = faithfulness_report(sl2_9)
    # corrected statement holds; the printed one does not at h >= 2
    assert r["pass"] and not r["printed_statement_holds"]
    assert r["kernel_order"] == 6 and r["center_in_torus"] == 2
    r = faithfulness_report(pgl2_9)
    assert r["pass"] and r["kernel_order"] == 3 and r["center_in_torus"] == 1


def test_generic_bound_small(sl2_25):
    # A1 at h = 3: every intermediate subgroup is generic, bound exponent 0
    g = build_group("A1", "sc", 3, 3)
    rs = g.rs
    f = ConcaveFunction.make(rs, 3, {(1,): 0, (-1,): 2})
    from parahoric.concave import is_generic

    assert is_generic(f)
    rep = generic_bound_check(g, f)
    assert rep.ok
    bound = [c for c in rep.checks if c["name"] == "orbit_count_vs_bound"][0]
    assert bound["expected"] == ">= 1"


def test_generic_bound_rejects_nongeneric(sl2_9):
    # the Borel-type function is not generic (f(-a) = 1 < 2); note the
    # pseudo-Borel at h = 2 IS generic for A1, matching the remark that all
    # proper intermediate A1 subgroups are generic
    borel_type = ConcaveFunction.make(sl2_9.rs, 2, {(1,): 0, (-1,): 1})
    with pytest.raises(ValueError):
        generic_bound_check(sl2_9, borel_type)
    from parahoric.concave import is_generic

    assert is_generic(pseudo_borel_function(sl2_9.rs, 2))
