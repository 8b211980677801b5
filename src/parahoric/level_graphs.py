"""Graphs on the negative roots of a fixed length, their cycles, and the
determinant constants of the associated sign matrices.

The graph at level l has vertex set Gamma_l; two vertices a, a' are joined
when some b in Gamma_{l-1} decrements both by a negative simple root
(a - b and a' - b negative simple).  That b is unique per edge and serves
as the edge label.  Cycles are classified by reducing repeated labels and
descending through label cycles until all labels agree; the number of
descents is the level of the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import sympy

from .chevalley import SignTable
from .closure import closure
from .root_system import Coeffs, RootSystem, negative_roots_of_length

Edge = tuple[Coeffs, Coeffs]


class GraphError(AssertionError):
    """Violation of a structural guarantee (edge-label uniqueness etc.)."""


@dataclass(frozen=True)
class LevelGraph:
    rs: RootSystem
    l: int
    vertices: tuple[Coeffs, ...]
    edge_label: dict[Edge, Coeffs]          # key is a sorted vertex pair
    isolated_betas: tuple[Coeffs, ...]      # Gamma_{l-1} attached to <= 1 vertex

    def edges(self) -> list[Edge]:
        return sorted(self.edge_label)

    def has_edge(self, a: Coeffs, b: Coeffs) -> bool:
        return (min(a, b), max(a, b)) in self.edge_label

    def label(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return self.edge_label[(min(a, b), max(a, b))]

    def neighbors(self, a: Coeffs) -> list[Coeffs]:
        out = []
        for (x, y) in self.edge_label:
            if x == a:
                out.append(y)
            elif y == a:
                out.append(x)
        return sorted(out)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(closure(self.vertices[:1], self.neighbors)) == len(self.vertices)

    def to_text(self) -> str:
        """One edge per line: 'a -- a'  [b]'; isolated labels afterwards."""
        def name(r):
            return "(" + "".join(str(-c) for c in r) + ")"

        lines = [f"graph {self.rs.dynkin}{self.rs.rank} l={self.l}"]
        for v in self.vertices:
            lines.append(f"vertex {name(v)}")
        for (a, b), beta in sorted(self.edge_label.items()):
            lines.append(f"edge {name(a)} -- {name(b)}  [{name(beta)}]")
        for beta in self.isolated_betas:
            lines.append(f"isolated {name(beta)}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        def name(r):
            return '"' + "".join(str(-c) for c in r) + '"'

        lines = [f"graph G{self.l} {{"]
        for v in self.vertices:
            lines.append(f"  {name(v)};")
        for (a, b), beta in sorted(self.edge_label.items()):
            lines.append(f"  {name(a)} -- {name(b)} [label={name(beta)}];")
        lines.append("}")
        return "\n".join(lines)


def build_graph(rs: RootSystem, l: int) -> LevelGraph:
    """The level-l graph; labels are verified unique per edge."""
    if l < 2:
        raise ValueError("graphs are defined for l >= 2")
    gamma_l = sorted(negative_roots_of_length(rs, l))
    gamma_prev = sorted(negative_roots_of_length(rs, l - 1))
    neg_simple = set(rs.neg_simples)
    attach: dict[Coeffs, list[Coeffs]] = {}
    for beta in gamma_prev:
        hits = [a for a in gamma_l if rs.sub(a, beta) in neg_simple]
        attach[beta] = hits
    edge_label: dict[Edge, Coeffs] = {}
    for beta, hits in attach.items():
        for a, b in combinations(hits, 2):
            key = (min(a, b), max(a, b))
            if key in edge_label and edge_label[key] != beta:
                raise GraphError(f"edge {key} has two labels: {edge_label[key]}, {beta}")
            edge_label[key] = beta
    isolated = tuple(sorted(b for b, hits in attach.items() if len(hits) <= 1))
    return LevelGraph(rs, l, tuple(gamma_l), edge_label, isolated)


def all_graphs(rs: RootSystem) -> list[LevelGraph]:
    """Every nonempty level graph of the system, l >= 2."""
    max_l = -sum(rs.neg(rs.highest_root))
    out = []
    for l in range(2, max_l + 1):
        g = build_graph(rs, l)
        if g.vertices:
            out.append(g)
    return out


@dataclass(frozen=True)
class CycleWitness:
    """A simple cycle with its edge labels and classification data."""

    graph: LevelGraph
    vertices: tuple[Coeffs, ...]   # canonical rotation/reflection
    betas: tuple[Coeffs, ...]      # betas[i] labels (vertices[i-1], vertices[i])
    reduced: bool
    level: int

    def __len__(self) -> int:
        return len(self.vertices)


def _canonical_cycle(verts: tuple[Coeffs, ...]) -> tuple[Coeffs, ...]:
    n = len(verts)
    best = None
    for seq in (verts, tuple(reversed(verts))):
        for s in range(n):
            rot = seq[s:] + seq[:s]
            if best is None or rot < best:
                best = rot
    return best


def _labels_of(g: LevelGraph, verts: tuple[Coeffs, ...]) -> tuple[Coeffs, ...]:
    n = len(verts)
    return tuple(g.label(verts[i - 1], verts[i]) for i in range(n))


def cycle_level(g: LevelGraph, verts: tuple[Coeffs, ...]) -> int:
    """Level of a cycle: iterated label reduction and descent.

    Repeated adjacent labels are dropped (the endpoints stay adjacent via
    the shared label); once all labels of a >= 3 cycle are distinct, the
    labels themselves form a cycle one level down and the walk recurses.
    Terminates when all labels coincide; the level is the total length drop
    from the original vertices to that common label.
    """
    rs = g.rs
    l = g.l
    labels = list(_labels_of(g, verts))
    verts = list(verts)
    start_l = l
    for _ in range(start_l + len(verts) + 1):
        n = len(verts)
        if n >= 3 and len(set(labels)) == 1:
            return start_l - (l - 1)
        # drop a vertex flanked by two edges with the same label; the
        # outer endpoints stay adjacent through that shared label
        dropped = False
        for i in range(n):
            if n > 3 and labels[i] == labels[(i + 1) % n]:
                del verts[i]
                labels = [g.label(verts[j - 1], verts[j]) for j in range(len(verts))]
                dropped = True
                break
        if dropped:
            continue
        if len(set(labels)) < len(labels):
            raise GraphError(f"nonadjacent repeated labels on cycle {verts}")
        # reduced: descend to the label cycle one level down
        l -= 1
        g = build_graph(rs, l)
        verts = labels
        labels = [g.label(verts[j - 1], verts[j]) for j in range(len(verts))]
    raise GraphError(f"level iteration did not terminate for cycle {verts}")


def enumerate_cycles(g: LevelGraph) -> list[CycleWitness]:
    """All simple cycles up to rotation and reflection, classified.

    Vertex sets here have at most seven elements, so subset-and-permutation
    search is plenty.
    """
    found: dict[tuple[Coeffs, ...], CycleWitness] = {}
    verts = g.vertices
    for size in range(3, len(verts) + 1):
        for subset in combinations(verts, size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cyc = (first,) + rest
                if rest[0] > rest[-1]:
                    continue  # kill the reflection early
                if all(g.has_edge(cyc[i - 1], cyc[i]) for i in range(size)):
                    canon = _canonical_cycle(cyc)
                    if canon in found:
                        continue
                    labels = _labels_of(g, canon)
                    reduced = len(set(labels)) == len(labels)
                    level = cycle_level(g, canon)
                    found[canon] = CycleWitness(g, canon, labels, reduced, level)
    return [found[k] for k in sorted(found)]


def triangulate_cycle(g: LevelGraph, cycle: CycleWitness) -> list[CycleWitness]:
    """Split an r-cycle into r-2 triangles (a_i, a_{i+1}, a_j) along chords.

    Searches all chord triangulations; on success also checks that two
    triangles sharing an edge never agree in reducedness.  Returns the
    triangles (the cycle itself when r = 3).
    """
    verts = cycle.vertices
    r = len(verts)
    if r == 3:
        return [cycle]

    # recursive chord search: cut the polygon with a triangle on its first
    # edge, then triangulate the two remaining sub-polygons
    def search(poly: tuple[int, ...]):
        if len(poly) < 3:
            return []
        if len(poly) == 3:
            tri = tuple(verts[i] for i in poly)
            return [tri] if all(g.has_edge(tri[i - 1], tri[i]) for i in range(3)) else None
        i, j = poly[0], poly[1]
        for k_pos in range(2, len(poly)):
            k = poly[k_pos]
            if not (g.has_edge(verts[i], verts[k]) and g.has_edge(verts[j], verts[k])):
                continue
            upper = search(tuple(poly[1:k_pos + 1]))
            if upper is None:
                continue
            lower = search((poly[0],) + poly[k_pos:])
            if lower is None:
                continue
            return [tuple(verts[t] for t in (i, j, k))] + upper + lower
        return None

    tris = search(tuple(range(r)))
    if tris is None:
        raise GraphError(f"no triangulation found for {verts} (would falsify the triangulation claim)")
    witnesses = []
    for tri in tris:
        canon = _canonical_cycle(tri)
        labels = _labels_of(g, canon)
        witnesses.append(
            CycleWitness(g, canon, labels, len(set(labels)) == 3, cycle_level(g, canon))
        )
    if len(witnesses) != r - 2:
        raise GraphError("triangulation does not have r-2 triangles")
    # shared-edge alternation
    for t1, t2 in combinations(witnesses, 2):
        shared = set(t1.vertices) & set(t2.vertices)
        if len(shared) == 2:
            a, b = sorted(shared)
            if t1.graph.has_edge(a, b) and t1.reduced == t2.reduced:
                raise GraphError(
                    f"triangles {t1.vertices} and {t2.vertices} share an edge "
                    f"but are both {'reduced' if t1.reduced else 'nonreduced'}"
                )
    return witnesses


def cycle_matrix(cycle: CycleWitness, signs: SignTable):
    """The square matrix of the conjugation map attached to a reduced cycle.

    Row index: the simple roots d arising as a_j - b_i; column index: the
    labels b_i.  The (d, i) entry is eps(a_j, -b_i) p(a_j, -b_i) x_j for
    the unique cycle vertex a_j with a_j - b_i = d.  Returns the sympy
    matrix, the symbols, and |det| / (x_1 ... x_r) as a nonnegative int.
    """
    if not cycle.reduced:
        raise ValueError("matrix is defined for reduced cycles only")
    g = cycle.graph
    rs = g.rs
    verts = cycle.vertices
    betas = cycle.betas
    r = len(verts)
    xs = sympy.symbols(f"x1:{r + 1}")
    neg_simple = set(rs.neg_simples)
    rows: dict[Coeffs, int] = {}
    entries: dict[tuple[int, int], object] = {}
    for i, beta in enumerate(betas):
        for j, alpha in enumerate(verts):
            d = rs.sub(alpha, beta)
            if d not in neg_simple:
                continue
            if d not in rows:
                rows[d] = len(rows)
            key = (rows[d], i)
            if key in entries:
                raise GraphError("duplicate matrix cell; labels not distinct?")
            coeff = signs.n(alpha, rs.neg(beta))
            if coeff == 0:
                raise GraphError(f"{alpha} + {rs.neg(beta)} is not a root")
            entries[key] = coeff * xs[j]
    if len(rows) != r:
        raise GraphError(f"cycle touches {len(rows)} simple roots, expected {r}")
    m = sympy.zeros(r, r)
    for (i, j), v in entries.items():
        m[i, j] = v
    det = sympy.expand(m.det())
    monomial = sympy.prod(xs)
    quotient = sympy.simplify(det / monomial)
    if not quotient.is_Integer:
        raise GraphError(f"determinant {det} is not an integer multiple of x1...xr")
    return m, xs, abs(int(quotient))


def det_constant(cycle: CycleWitness, signs: SignTable) -> int:
    return cycle_matrix(cycle, signs)[2]


def level2_reduced_3cycle_constant(rs: RootSystem, signs: SignTable) -> int:
    """|det| for a level-2 reduced 3-cycle of the system (e.g. any D_n)."""
    for g in all_graphs(rs):
        for c in enumerate_cycles(g):
            if len(c) == 3 and c.reduced and c.level == 2:
                return det_constant(c, signs)
    raise ValueError(f"{rs} has no level-2 reduced 3-cycle")


def verify_no_reduced_level3_3cycle(rs: RootSystem) -> dict:
    """Search every level graph for a reduced 3-cycle of level >= 3."""
    offenders = []
    scanned = 0
    for g in all_graphs(rs):
        for c in enumerate_cycles(g):
            if len(c) == 3:
                scanned += 1
                if c.reduced and c.level >= 3:
                    offenders.append((g.l, c.vertices))
    return {
        "system": f"{rs.dynkin}{rs.rank}",
        "three_cycles_scanned": scanned,
        "reduced_level_ge3": offenders,
        "pass": not offenders,
    }
