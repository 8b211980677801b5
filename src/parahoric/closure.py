"""The package's one orbit walk, its one orbit partition and its one budget refusal.

Every enumeration that closes a set under a rule (root reflections, graph
edges, group generators, left and right multiplication, base fibres in the
Python flag kernel) goes through `closure`.  Every partition of a set into
orbits (double classes, torus orbits on characters, left orbits on fibres in
the Python flag kernel) goes through `orbit_labels`, which walks each orbit
with `closure`.  Every enumeration that would outgrow its budget raises
`BudgetExceeded` instead of thrashing.  Two walks keep their own loop but
raise this same class: the flag-orbit build of the Python kernel, which
numbers points as it finds them, and the compiled kernel, whose points live
in C++ and whose build, base fibres and left orbits all run through one loop.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable


class BudgetExceeded(RuntimeError):
    """An enumeration grew past its budget; the operation is refused."""


def closure(seeds: Iterable[Hashable],
            neighbours: Callable[[Hashable], Iterable[Hashable]],
            cap: int | None = None) -> set:
    """The smallest set containing `seeds` and closed under `neighbours`.

    Breadth-first; raises BudgetExceeded as soon as the set holds more than
    `cap` items (no limit when cap is None).
    """
    out = set(seeds)
    if cap is not None and len(out) > cap:
        raise BudgetExceeded(f"closure exceeded {cap} elements")
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for y in neighbours(x):
                if y not in out:
                    out.add(y)
                    nxt.append(y)
                    if cap is not None and len(out) > cap:
                        raise BudgetExceeded(f"closure exceeded {cap} elements")
        frontier = nxt
    return out


def orbit_labels(items: Iterable[Hashable],
                 neighbours: Callable[[Hashable], Iterable[Hashable]],
                 cap: int | None = None) -> dict:
    """Each item, and every element its closure reaches, mapped to the first
    item of that closure, in the order of `items`.

    Meant for the orbits of a finite group given by generators, whose
    closures are disjoint: an item already reached starts no walk of its own.
    `cap` bounds each closure as in `closure`.
    """
    labels: dict = {}
    for x in items:
        if x not in labels:
            labels.update(dict.fromkeys(closure([x], neighbours, cap), x))
    return labels
