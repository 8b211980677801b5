"""Spans and work counters for the traced run, recorded from outside the package.

`install(tracer)` replaces public entry points of the parahoric modules by
wrappers that open a span around each call.  A span named `<layer>.<stem>`
adds its duration to the metric `<layer>.<stem>_s` (outermost call of that
name only, so recursion is not counted twice), and its self time (duration
minus child spans) to `<layer>.self_s`; `<layer>.s` is the time during which
any span of the layer is open.  Counters are added at the same boundaries.

The flag orbit is wrapped by a proxy object instead of by patching its
methods, because the compiled `FlagOrbit` is an extension type whose
methods cannot be reassigned.  Spans stay in memory and are written out
once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# metric name -> unit, for every per-layer metric a traced run reports
LAYER_METRICS = {
    "groups.kernels.left_s": "s",
    "groups.kernels.left_passes": "count",
    "groups.kernels.left_fibers": "count",
    "groups.kernels.left_applications": "count",
    "groups.kernels.quotient_s": "s",
    "groups.kernels.quotient_passes": "count",
    "groups.kernels.quotient_applications": "count",
    "groups.kernels.build_s": "s",
    "groups.kernels.points": "count",
    "groups.kernels.points_per_s": "1/s",
    "groups.kernels.build_applications": "count",
    "groups.kernels.s": "s",
    "groups.kernels.self_s": "s",
    "groups.cosets.quotient_requests": "count",
    "groups.cosets.quotient_cache_hits": "count",
    "groups.cosets.s": "s",
    "groups.cosets.self_s": "s",
    "groups.group.s": "s",
    "groups.group.self_s": "s",
    "groups.subgroups.mulclose_s": "s",
    "groups.subgroups.mulclose_elements": "count",
    "groups.subgroups.s": "s",
    "groups.subgroups.self_s": "s",
    "groups.checks.axioms_s": "s",
    "groups.checks.absorption_s": "s",
    "groups.checks.s": "s",
    "groups.checks.self_s": "s",
    "steinberg.st_inner_s": "s",
    "steinberg.one_st_inner_s": "s",
    "steinberg.st_dim_s": "s",
    "steinberg.quotient_route_s": "s",
    "steinberg.sdq_products": "count",
    "steinberg.sdq_elements": "count",
    "steinberg.s": "s",
    "steinberg.self_s": "s",
    "chevalley.build_s": "s",
    "chevalley.axioms_s": "s",
    "chevalley.pairs_checked": "count",
    "chevalley.s": "s",
    "chevalley.self_s": "s",
    "level_graphs.graphs": "count",
    "level_graphs.cycles": "count",
    "level_graphs.det_s": "s",
    "level_graphs.s": "s",
    "level_graphs.self_s": "s",
    "concave.overgroups": "count",
    "concave.s": "s",
    "concave.self_s": "s",
    "root_system.s": "s",
    "root_system.self_s": "s",
    "cli.verify_s": "s",
    "cli.s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, layer, start, child seconds]
        self._next_id = 0
        self._name_depth: dict[str, int] = defaultdict(int)
        self._layer_depth: dict[str, int] = defaultdict(int)
        self._layer_open: dict[str, float] = {}

    def enter(self, name: str) -> None:
        layer = name.rsplit(".", 1)[0]
        now = time.perf_counter()
        if self._layer_depth[layer] == 0:
            self._layer_open[layer] = now
        self._layer_depth[layer] += 1
        self._name_depth[name] += 1
        self._stack.append([self._next_id, name, layer, now, 0.0])
        self._next_id += 1

    def exit(self) -> None:
        span_id, name, layer, start, child = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, name, start, end))
        self.counters[layer + ".self_s"] += duration - child
        self._name_depth[name] -= 1
        if self._name_depth[name] == 0:
            self.counters[name + "_s"] += duration
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.counters[layer + ".s"] += end - self._layer_open.pop(layer)

    def wrap(self, name: str, fn, after=None):
        """A wrapper of fn timed as span `name`; after(result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        c = self.counters
        build_s = c["groups.kernels.build_s"]
        c["groups.kernels.points_per_s"] = c["groups.kernels.points"] / build_s if build_s else 0.0
        return {name: float(c[name]) for name in LAYER_METRICS if name != "trace.wall_s"}

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            **extra,
            "spans": [
                {"id": i, "parent": parent, "name": name, "start": start, "end": end}
                for i, parent, name, start, end in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _replace_everywhere(old, new) -> None:
    """Point every parahoric module attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("parahoric"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _traced_orbit_class(tracer: Tracer, real):
    c = tracer.counters

    class TracedFlagOrbit:
        """Delegates to a real FlagOrbit of either kernel, timing its passes."""

        def __init__(self, n, mod, p, k):
            self._orbit = real(n, mod, p, k)

        def __getattr__(self, attr):
            return getattr(self._orbit, attr)

        def __len__(self):
            return len(self._orbit)

        def build(self, gens, max_points):
            tracer.enter("groups.kernels.build")
            try:
                points = self._orbit.build(gens, max_points=max_points)
            finally:
                tracer.exit()
            c["groups.kernels.points"] += points
            c["groups.kernels.build_applications"] += points * len(gens)
            return points

        def quotient(self, right_gens):
            tracer.enter("groups.kernels.quotient")
            try:
                labels = self._orbit.quotient(right_gens)
            finally:
                tracer.exit()
            c["groups.kernels.quotient_passes"] += 1
            c["groups.kernels.quotient_applications"] += len(labels) * len(right_gens)
            return labels

        def left_orbit_labels(self, left_gens, labels=None):
            fibers = len(set(labels)) if labels is not None else len(self._orbit)
            tracer.enter("groups.kernels.left")
            try:
                merged = self._orbit.left_orbit_labels(left_gens, labels)
            finally:
                tracer.exit()
            c["groups.kernels.left_passes"] += 1
            c["groups.kernels.left_fibers"] += fibers
            c["groups.kernels.left_applications"] += fibers * len(left_gens)
            return merged

    return TracedFlagOrbit


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points; call before building inputs."""
    from parahoric import chevalley, cli, concave, level_graphs, root_system, steinberg
    from parahoric.groups import checks, cosets, group, kernels, subgroups

    c = tracer.counters

    def count(key, size=len):
        def after(result):
            c[key] += size(result)
        return after

    functions = [
        (root_system, "build_root_system", "root_system.build", None),
        (root_system, "gamma_table", "root_system.gamma_table", None),
        (root_system, "coxeter_number", "root_system.coxeter_number", None),
        (chevalley, "build_sign_table", "chevalley.build", None),
        (chevalley, "verify_sign_axioms", "chevalley.axioms",
         count("chevalley.pairs_checked", lambda reports: sum(r.checked for r in reports))),
        (level_graphs, "build_graph", "level_graphs.build_graph",
         count("level_graphs.graphs", lambda g: 1 if g.vertices else 0)),
        (level_graphs, "all_graphs", "level_graphs.all_graphs", None),
        (level_graphs, "enumerate_cycles", "level_graphs.enumerate_cycles",
         count("level_graphs.cycles")),
        (level_graphs, "triangulate_cycle", "level_graphs.triangulate", None),
        (level_graphs, "cycle_matrix", "level_graphs.det", None),
        (level_graphs, "level2_reduced_3cycle_constant", "level_graphs.level2_constant", None),
        (level_graphs, "verify_no_reduced_level3_3cycle", "level_graphs.level3_search", None),
        (concave, "generic_exists", "concave.generic_exists", None),
        (concave, "enumerate_overgroups", "concave.enumerate_overgroups",
         count("concave.overgroups")),
        (group, "build_group", "groups.group.build", None),
        (subgroups, "mulclose", "groups.subgroups.mulclose",
         count("groups.subgroups.mulclose_elements")),
        (cosets, "double_coset_count_flags", "groups.cosets.double_coset_count", None),
        (checks, "verify_parahoric_axioms", "groups.checks.axioms", None),
        (checks, "verify_exterior_class_absorption", "groups.checks.absorption", None),
        (checks, "verify_rank1_classes", "groups.checks.rank1", None),
        (checks, "verify_overgroup_classification", "groups.checks.overgroups", None),
        (steinberg, "st_inner", "steinberg.st_inner", None),
        (steinberg, "one_st_inner", "steinberg.one_st_inner", None),
        (steinberg, "st_dim", "steinberg.st_dim", None),
        (steinberg, "regular_orbit_count", "steinberg.regular_orbits", None),
        (steinberg, "verify_multiplicity_freeness", "steinberg.multiplicity_freeness", None),
        (steinberg, "generic_bound_check", "steinberg.generic_bound", None),
        (cli, "cmd_verify", "cli.verify", None),
    ]
    for module, attr, name, after in functions:
        fn = getattr(module, attr)
        _replace_everywhere(fn, tracer.wrap(name, fn, after))

    orbit_class = _traced_orbit_class(tracer, kernels.FlagOrbit)
    _replace_everywhere(kernels.FlagOrbit, orbit_class)

    space = cosets.FlagSpace
    space.__init__ = tracer.wrap("groups.cosets.flag_space", space.__init__)
    space.coset_count = tracer.wrap("groups.cosets.coset_count", space.coset_count)
    quotient_labels = space.quotient_labels

    def counted_quotient_labels(self, f):
        before = c["groups.kernels.quotient_passes"]
        labels = quotient_labels(self, f)
        c["groups.cosets.quotient_requests"] += 1
        c["groups.cosets.quotient_cache_hits"] += c["groups.kernels.quotient_passes"] == before
        return labels

    space.quotient_labels = tracer.wrap("groups.cosets.quotient_labels", counted_quotient_labels)

    sdq = steinberg.SemidirectQuotient
    init, mul = sdq.__init__, sdq.mul

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        c["steinberg.sdq_elements"] += len(self.elements)

    def counted_mul(self, a, b):
        c["steinberg.sdq_products"] += 1
        return mul(self, a, b)

    sdq.__init__ = counted_init
    sdq.mul = counted_mul
    sdq.double_cosets = tracer.wrap("steinberg.sdq_double_cosets", sdq.double_cosets)
    sdq.st_inner_quotient = tracer.wrap("steinberg.quotient_route", sdq.st_inner_quotient)
    sdq.one_st_inner_quotient = tracer.wrap("steinberg.quotient_route", sdq.one_st_inner_quotient)
