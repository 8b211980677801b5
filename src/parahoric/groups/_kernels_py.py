"""Pure-Python kernels for modular matrix arithmetic and flag orbits.

Matrices are flat tuples of length n*n with entries reduced mod m = p^h.
A flag key is the canonical form of the span flag of the first k columns
(k = 1: a line; k = 2: a line inside a plane), which identifies the coset
of the standard flag stabilizer.  The compiled twin, built from
_kernels.cpp, implements the same interface with the same outputs; this
module is the reference the differential tests compare it against.
"""

from __future__ import annotations

# the compiled twin raises the same BudgetExceeded
from ..closure import BudgetExceeded, closure, orbit_labels

IMPLEMENTATION = "python"


def mat_identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(a, b, n: int, mod: int) -> tuple[int, ...]:
    out = [0] * (n * n)
    for i in range(n):
        row = i * n
        for k in range(n):
            aik = a[row + k]
            if aik:
                col = k * n
                for j in range(n):
                    out[row + j] += aik * b[col + j]
    return tuple(v % mod for v in out)


def _inv_unit(x: int, mod: int) -> int:
    return pow(x, -1, mod)


def line_canon(col: list[int], mod: int, p: int) -> tuple[int, ...]:
    """Canonical generator of a free rank-1 direct summand."""
    for v in col:
        if v % p:
            s = _inv_unit(v, mod)
            return tuple((s * w) % mod for w in col)
    raise ValueError("column is not unimodular")


def flag_key(g, n: int, mod: int, p: int, k: int) -> tuple[int, ...]:
    """Canonical form of the flag spanned by the first k columns of g."""
    c0 = [g[i * n] for i in range(n)]
    line = line_canon(c0, mod, p)
    if k == 1:
        return line
    c1 = [g[i * n + 1] for i in range(n)]
    # reduced column echelon form of the plane spanned by c0, c1
    u, v = c0[:], c1[:]
    r1 = -1
    for i in range(n):
        if u[i] % p:
            r1 = i
            break
        if v[i] % p:
            u, v = v, u
            r1 = i
            break
    if r1 < 0:
        raise ValueError("columns do not span a free plane")
    s = _inv_unit(u[r1], mod)
    u = [(s * w) % mod for w in u]
    t = v[r1]
    v = [(w - t * x) % mod for w, x in zip(v, u)]
    r2 = -1
    for i in range(n):
        if i != r1 and v[i] % p:
            r2 = i
            break
    if r2 < 0:
        raise ValueError("columns do not span a free plane")
    s = _inv_unit(v[r2], mod)
    v = [(s * w) % mod for w in v]
    t = u[r2]
    u = [(w - t * x) % mod for w, x in zip(u, v)]
    return line + tuple(u) + tuple(v)


class FlagOrbit:
    """Orbit of the standard flag under a matrix group, with coset passes.

    Points are flags; point i stores a representative matrix reps[i] with
    reps[i] * base-flag = point.  quotient() computes the fibers of the map
    onto G/P for a subgroup P containing the stabilizer, as translates of the
    base fiber, and left_orbit_labels() the orbits of a left subgroup on them.
    """

    def __init__(self, n: int, mod: int, p: int, k: int):
        self.n = n
        self.mod = mod
        self.p = p
        self.k = k
        self.reps: list[tuple[int, ...]] = []
        self.index: dict[tuple[int, ...], int] = {}

    def build(self, gens, max_points: int) -> int:
        n, mod, p, k = self.n, self.mod, self.p, self.k
        ident = mat_identity(n)
        self.reps = [ident]
        self.index = {flag_key(ident, n, mod, p, k): 0}
        for g in self.reps:  # the list is the breadth-first queue: it grows as it is walked
            for s in gens:
                hmat = mat_mul(s, g, n, mod)
                key = flag_key(hmat, n, mod, p, k)
                if key not in self.index:
                    self.index[key] = len(self.reps)
                    self.reps.append(hmat)
                    if len(self.reps) > max_points:
                        raise BudgetExceeded(f"flag orbit exceeded {max_points} points")
        return len(self.reps)

    def __len__(self) -> int:
        return len(self.reps)

    def locate(self, mat) -> int:
        return self.index[flag_key(mat, self.n, self.mod, self.p, self.k)]

    def apply_left(self, s, i: int) -> int:
        return self.locate(mat_mul(s, self.reps[i], self.n, self.mod))

    def apply_right(self, i: int, x) -> int:
        return self.locate(mat_mul(self.reps[i], x, self.n, self.mod))

    def quotient(self, gens) -> list[int]:
        """Per-point labels of the fibers of G/B -> G/P, P = <gens> containing
        the stabilizer: the fiber of point i is reps[i] * F, F the left orbit
        of point 0 under gens, labelled by its least point.  Two translates
        that meet raise ValueError: then <gens> does not contain the stabilizer.
        """
        fibre = closure([0], lambda j: [self.apply_left(s, j) for s in gens])
        labels = [-1] * len(self.reps)
        for i in range(len(self.reps)):
            if labels[i] < 0:
                for j in fibre:
                    t = self.apply_right(i, self.reps[j])
                    if labels[t] >= 0:
                        raise ValueError("translates of the base fiber meet: "
                                         "<gens> does not contain the stabilizer")
                    labels[t] = i
        return labels

    def left_orbit_labels(self, left_gens, labels) -> list[int]:
        """Per-point labels of the left-subgroup orbits on the fibers that
        labels gives, each label a point of its own fiber.

        The left action is well defined on fibers, so `orbit_labels` walks
        the fiber labels in increasing order, moving each by left_gens to the
        label of its image, and each orbit is labelled by its least label.
        """
        if any(not 0 <= c < len(self.reps) for c in labels):
            raise ValueError("labels must be point indices")
        if any(labels[c] != c for c in labels):
            raise ValueError("a label is not in its own fiber")
        orbit = orbit_labels(sorted(set(labels)),
                             lambda d: [labels[self.apply_left(s, d)] for s in left_gens])
        return [orbit[c] for c in labels]
