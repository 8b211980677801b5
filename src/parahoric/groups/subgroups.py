"""Subgroups of G(Z/p^h) described by concave functions or generator lists."""

from __future__ import annotations

from ..closure import closure, orbit_labels
from ..concave import ConcaveFunction
from .group import FiniteParahoricGroup, Mat


def mulclose(group, gens, maxsize: int | None = None) -> set:
    """Closure of a generator list under multiplication (BudgetExceeded past maxsize)."""
    identity = group.identity if hasattr(group, "identity") else group.identity_el()
    return closure([identity], lambda b: [group.mul(a, b) for a in gens], maxsize or None)


def double_step(group, left_gens, right_gens):
    """One step of the (left, right) action: x -> s x and x -> x s."""
    return lambda x: [group.mul(s, x) for s in left_gens] + [group.mul(x, s) for s in right_gens]


def double_class(group, start: Mat, left_gens, right_gens, cap: int = 10**6) -> set[Mat]:
    """The (left, right) double class of start; BudgetExceeded past cap elements."""
    return closure([start], double_step(group, left_gens, right_gens), cap)


def double_class_labels(group, elements, left_gens, right_gens,
                        cap: int | None = 10**6) -> dict:
    """Each element, and all of its (left, right) double class, mapped to the
    first element of `elements` in that class; BudgetExceeded past cap
    elements in one class."""
    return orbit_labels(elements, double_step(group, left_gens, right_gens), cap)


def solvable_order(g: FiniteParahoricGroup, f: ConcaveFunction) -> int:
    """|P_f| = |H| * prod_a p^(h - f(a)) for solvable f (clamped values)."""
    total = g.torus_order()
    for a in g.rs.roots:
        total *= g.p ** max(0, g.h - f[a])
    return total


def subgroup_gens(g: FiniteParahoricGroup, f: ConcaveFunction) -> list[Mat]:
    """Torus generators plus one filtration generator per root."""
    gens = list(g.torus_gens())
    for a in sorted(g.rs.roots):
        i = f[a]
        if i < g.h:
            gens.append(g.u(a, g.p**i))
    return gens


def ru_borel_gens(g: FiniteParahoricGroup) -> list[Mat]:
    """Generators of R_u(B): the depth part of H plus all positive u_a."""
    gens = list(g.torus_congruence_gens())
    for a in sorted(g.rs.positive_roots):
        gens.append(g.u(a, 1))
    return gens
