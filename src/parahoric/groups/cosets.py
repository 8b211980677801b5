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

from ..closure import orbit_labels
from ..concave import ConcaveFunction, pseudo_borel_function
from .group import FiniteParahoricGroup, Mat
from .kernels import BudgetExceeded, FlagOrbit
from .subgroups import double_step, solvable_order, subgroup_gens

DEFAULT_COSET_BUDGET = 10**5


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


def double_coset_count_flags(flags: FlagSpace, left_gens: list[Mat],
                             right_f: ConcaveFunction) -> int:
    return len(set(flags.double_coset_labels(left_gens, right_f)))


def brute_force_double_cosets(group, elements: set, left_gens, right_gens) -> int:
    """Element-level partition of an enumerated group: the independent oracle.

    Raises ValueError as soon as a step of a class leaves `elements`.
    """
    step = double_step(group, left_gens, right_gens)

    def inside(x):
        out = step(x)
        if any(y not in elements for y in out):
            raise ValueError("the elements are not closed under the generators")
        return out

    return len(set(orbit_labels(elements, inside).values()))
