"""Subgroups of G(Z/p^h) described by concave functions or generator lists."""

from __future__ import annotations

from ..closure import closure, orbit_labels
from ..concave import ConcaveFunction
from .group import FiniteParahoricGroup, Mat


def mulclose(group, gens, maxsize: int | None = None) -> set:
    """Closure of a generator list under multiplication (BudgetExceeded past maxsize)."""
    identity = group.identity if hasattr(group, "identity") else group.identity_el()
    return closure([identity], lambda b: [group.mul(a, b) for a in gens], maxsize or None)


def _double_step(group, left_gens, right_gens):
    """One step of the (left, right) action: x -> s x and x -> x s."""
    return lambda x: [group.mul(s, x) for s in left_gens] + [group.mul(x, s) for s in right_gens]


def double_class(group, start: Mat, left_gens, right_gens, cap: int = 10**6) -> set[Mat]:
    """The (left, right) double class of start; BudgetExceeded past cap elements."""
    return closure([start], _double_step(group, left_gens, right_gens), cap)


def double_class_labels(group, elements, left_gens, right_gens,
                        cap: int | None = 10**6) -> dict:
    """Each element, and all of its (left, right) double class, mapped to the
    first element of `elements` in that class; BudgetExceeded past cap
    elements in one class."""
    return orbit_labels(elements, _double_step(group, left_gens, right_gens), cap)


class Subgroup:
    """A subgroup given by generators, optionally backed by a concave function."""

    def __init__(self, group: FiniteParahoricGroup, gens: list[Mat],
                 f: ConcaveFunction | None = None, name: str = ""):
        self.group = group
        self.gens = gens
        self.f = f
        self.name = name
        self._elements: set[Mat] | None = None

    def elements(self, budget: int = 10**6) -> set[Mat]:
        if self._elements is None:
            self._elements = mulclose(self.group, self.gens, maxsize=budget)
        return self._elements

    def order(self, budget: int = 10**6) -> int:
        """Product-formula order for solvable descriptors, else by closure."""
        if self.f is not None and self.f.is_solvable():
            return solvable_order(self.group, self.f)
        return len(self.elements(budget))

    def __repr__(self) -> str:
        tag = self.name or (repr(self.f) if self.f is not None else f"{len(self.gens)} gens")
        return f"Subgroup({tag})"


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


def subgroup_from_concave(g: FiniteParahoricGroup, f: ConcaveFunction,
                          name: str = "") -> Subgroup:
    if f.h != g.h:
        raise ValueError("depth mismatch between group and concave function")
    return Subgroup(g, subgroup_gens(g, f), f=f, name=name)


def ru_borel_gens(g: FiniteParahoricGroup) -> list[Mat]:
    """Generators of R_u(B): the depth part of H plus all positive u_a."""
    gens = list(g.torus_congruence_gens())
    for a in sorted(g.rs.positive_roots):
        gens.append(g.u(a, 1))
    return gens
