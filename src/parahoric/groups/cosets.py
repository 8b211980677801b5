"""Coset spaces and double-coset counting via the flag orbit.

The pseudo-Borel B is the stabilizer of the standard flag, so G/B is the
orbit of that flag.  For a subgroup P containing B, the fiber of
G/B -> G/P over gP is the translate g * F of the base fiber F = P/B, the
left orbit of the standard flag under P; double cosets L\\G/P are then
left orbits on fibers.  A fully element-level partition of G doubles as an
independent oracle on enumerable instances.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..concave import ConcaveFunction, pseudo_borel_function
from .group import FiniteParahoricGroup, Mat
from .kernels import BudgetExceeded, FlagOrbit
from .subgroups import Subgroup, double_class_labels, mulclose, solvable_order, subgroup_gens

DEFAULT_COSET_BUDGET = 10**5
DEFAULT_ELEMENT_BUDGET = 10**6


class FlagSpace:
    """The orbit of the standard flag = G/B, with cached quotient labelings."""

    def __init__(self, g: FiniteParahoricGroup, budget: int = DEFAULT_COSET_BUDGET):
        self.group = g
        expected, rem = divmod(g.order(), solvable_order(g, pseudo_borel_function(g.rs, g.h)))
        if expected > budget:
            raise BudgetExceeded(
                f"|G/B| = {expected} exceeds the coset budget {budget} (--budget-cosets)"
            )
        self.orbit = FlagOrbit(g.n, g.mod, g.p, g.flag_k)
        self.orbit.build(g.gens(), max_points=budget)
        self._quotients: dict[tuple, array] = {}
        if rem or expected != len(self.orbit):
            raise AssertionError(
                f"flag orbit has {len(self.orbit)} points, |G|/|B| = {expected}"
            )

    def __len__(self) -> int:
        return len(self.orbit)

    def quotient_labels(self, f: ConcaveFunction) -> array:
        """Fiber labels of G/B -> G/P_f, each fiber labelled by its least
        point (so the base fiber by 0); requires f = 0 on the positive system.

        Each labelling is cached as a C-int array: 4 bytes a point, instead
        of a list of Python ints.
        """
        if any(f[a] != 0 for a in self.group.rs.positive_roots):
            raise ValueError("right subgroup must contain the standard pseudo-Borel")
        key = f.values
        if key not in self._quotients:
            gens = subgroup_gens(self.group, f)
            self._quotients[key] = array("i", self.orbit.quotient(gens))
        return self._quotients[key]

    def double_coset_labels(self, left_gens: list[Mat], f: ConcaveFunction) -> list[int]:
        """Per-point labels of the double cosets <left_gens> \\ G / P_f: the left
        orbits on the fibers of G/B -> G/P_f, each labelled by its least point."""
        return self.orbit.left_orbit_labels(left_gens, self.quotient_labels(f))

    def coset_count(self, f: ConcaveFunction) -> int:
        return len(set(self.quotient_labels(f)))

    def base_fibre(self, f: ConcaveFunction) -> set[int]:
        """The points of P_f/B: the fiber of G/B -> G/P_f over the base point."""
        return {i for i, lab in enumerate(self.quotient_labels(f)) if lab == 0}

    def contains(self, f: ConcaveFunction, mat) -> bool:
        """Membership of a group element in P_f (for f containing B):
        g is in P_f iff the flag gB lies in the fiber of the base point."""
        return self.quotient_labels(f)[self.orbit.locate(mat)] == 0


@dataclass
class DoubleCosetTable:
    left: str
    right: str
    count: int
    representatives: list[Mat]


def double_coset_count_flags(flags: FlagSpace, left_gens: list[Mat],
                             right_f: ConcaveFunction) -> int:
    return len(set(flags.double_coset_labels(left_gens, right_f)))


def double_cosets_flags(flags: FlagSpace, left_gens: list[Mat],
                        right_f: ConcaveFunction,
                        left_name: str = "L", right_name: str = "L'") -> DoubleCosetTable:
    # each class is labelled by its least point, so the label is its first point
    labels = sorted(set(flags.double_coset_labels(left_gens, right_f)))
    out = [flags.orbit.reps[lab] for lab in labels]
    return DoubleCosetTable(left_name, right_name, len(out), out)


def brute_force_double_cosets(group, elements: set, left_gens, right_gens) -> int:
    """Element-level partition of an enumerated group: the independent oracle."""
    labels = double_class_labels(group, elements, left_gens, right_gens, cap=len(elements))
    if len(labels) != len(elements):
        raise ValueError("the elements are not closed under the generators")
    return len(set(labels.values()))


def double_cosets(g: FiniteParahoricGroup, left: Subgroup, right: Subgroup,
                  flags: FlagSpace | None = None,
                  coset_budget: int = DEFAULT_COSET_BUDGET,
                  element_budget: int = DEFAULT_ELEMENT_BUDGET) -> DoubleCosetTable:
    """#(left \\ G / right) with canonical representatives.

    Uses the flag space when the right subgroup contains the pseudo-Borel
    (its descriptor vanishes on the positive system); otherwise falls back
    to the element-level partition, which must fit the element budget.
    """
    if right.f is not None and all(right.f[a] == 0 for a in g.rs.positive_roots):
        flags = flags or FlagSpace(g, budget=coset_budget)
        return double_cosets_flags(
            flags, left.gens, right.f, left.name or "L", right.name or "L'"
        )
    if g.order() > element_budget:
        raise BudgetExceeded(
            "right subgroup does not contain B and the group is not enumerable"
        )
    elements = mulclose(g, g.gens(), maxsize=element_budget)
    count = brute_force_double_cosets(g, elements, left.gens, right.gens)
    return DoubleCosetTable(left.name or "L", right.name or "L'", count, [])
