"""Spans around cremonalab's layer functions, and the per-layer metrics.

The traced iteration calls ``install`` after importing cremonalab.  Suites
import most layer functions by name (``from .jordan import normal_subgroups``),
so wrapping the defining module's attribute alone would miss those calls:
``install`` replaces every binding of each listed function, in every
cremonalab module, with one wrapper, and wraps the
``FiniteGroup.subgroup_closure`` method.  A span is
``[name, parent, start_ns, end_ns, note]``; spans stay in memory until the
iteration writes them out after its timed call.

``per_layer_metrics`` runs in the benchmark's parent process and needs only
the written spans, not cremonalab.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter_ns

# Layer functions per defining module.  Only these are wrapped: tiny helpers
# called per element (payload ``compose``, ``dihedral_product``) would make
# tracing cost more than the work it measures.
LAYERS = {
    "groups": ("close_generators", "conjugacy_classes"),
    "jordan": ("normal_subgroups", "jordan_index"),
    "semidirect": ("build_group", "verify_lemma52"),
    "conic_fibers": ("simulate", "random_model", "construct_no_swap_subgroup",
                     "swap_scan", "selection_invariant"),
    "pole_cycles": ("max_symmetry_by_degree", "conservation_violations"),
    "dp5": ("s5_representation", "verify_homomorphism", "dp5_suite"),
    "rational": ("kernel_basis",),
    "report": ("emit",),
}

# Facts a span keeps about its call, from (args, result).
NOTES = {
    # Table bytes are computed from the array sizes, not measured.
    "groups.close_generators": lambda args, group: [group.order,
                                                    group.mul.nbytes + group.inverse.nbytes],
    "jordan.normal_subgroups": lambda args, lattice: len(lattice),
    "semidirect.verify_lemma52": lambda args, row: args[0],
}

# The n values of the lemma52 rows the workloads run; each gets a metric.
LEMMA52_NS = (5, 7, 11, 13)


class Recorder:
    """In-memory span list with a parent stack (the CLI is single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every binding of the layer functions; return the bindings wrapped."""
    import cremonalab
    from cremonalab.groups import FiniteGroup

    modules = [cremonalab] + [
        importlib.import_module("cremonalab." + info.name)
        for info in pkgutil.iter_modules(cremonalab.__path__)
    ]
    wrapped_bindings = []
    for home, names in LAYERS.items():
        home_module = importlib.import_module("cremonalab." + home)
        for fname in names:
            original = getattr(home_module, fname)
            wrapper = recorder.wrap("%s.%s" % (home, fname), original)
            for module in modules:
                hits = [attr for attr, value in vars(module).items() if value is original]
                for attr in hits:
                    setattr(module, attr, wrapper)
                    wrapped_bindings.append("%s.%s" % (module.__name__, attr))
    FiniteGroup.subgroup_closure = recorder.wrap("groups.subgroup_closure",
                                                 FiniteGroup.subgroup_closure)
    wrapped_bindings.append("cremonalab.groups.FiniteGroup.subgroup_closure")
    return wrapped_bindings


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced iteration's spans.

    ``.s`` is a span's whole duration, ``.self_s`` its duration minus the
    time its child spans cover.  A layer the workload never reaches reads 0.
    """
    duration = [(end - start) / 1e9 for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            child_time[span[1]] += duration[i]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        total[span[0]] += duration[i]
        self_time[span[0]] += duration[i] - child_time[i]

    def inside(i: int, ancestor: str) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    closures = [(i, s) for i, s in enumerate(spans) if s[0] == "groups.close_generators"]
    lattices = [s[4] for s in spans if s[0] == "jordan.normal_subgroups" and s[4] is not None]
    lattice_closures = sum(1 for i, s in enumerate(spans)
                           if s[0] == "groups.subgroup_closure"
                           and inside(i, "jordan.normal_subgroups"))
    conic_closures = sum(1 for i, _ in closures if inside(i, "conic_fibers.simulate"))
    lemma52_s = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "semidirect.verify_lemma52":
            lemma52_s[s[4]] += duration[i]

    count, seconds = "count", "s"
    metrics = {
        "groups.close_generators.calls": (calls["groups.close_generators"], count),
        "groups.close_generators.self_s": (self_time["groups.close_generators"], seconds),
        "groups.close_generators.elements": (
            sum(s[4][0] for _, s in closures if s[4]), count),
        "groups.table_bytes_max": (
            max((s[4][1] for _, s in closures if s[4]), default=0), "bytes_computed"),
        "groups.subgroup_closure.calls": (calls["groups.subgroup_closure"], count),
        "groups.subgroup_closure.self_s": (self_time["groups.subgroup_closure"], seconds),
        "groups.conjugacy_classes.self_s": (self_time["groups.conjugacy_classes"], seconds),
        "jordan.normal_subgroups.self_s": (self_time["jordan.normal_subgroups"], seconds),
        "jordan.normal_subgroups.closures": (lattice_closures, count),
        "jordan.lattice_size": (sum(lattices), count),
        "jordan.join_useful_ratio": (_ratio(sum(lattices), lattice_closures), "ratio"),
        "jordan.jordan_index.self_s": (self_time["jordan.jordan_index"], seconds),
        "semidirect.build_group.self_s": (self_time["semidirect.build_group"], seconds),
    }
    for n in LEMMA52_NS:
        metrics["semidirect.verify_lemma52.n%d.s" % n] = (lemma52_s[n], seconds)
    metrics.update({
        "conic_fibers.random_model.self_s": (self_time["conic_fibers.random_model"], seconds),
        "conic_fibers.construct_no_swap_subgroup.self_s": (
            self_time["conic_fibers.construct_no_swap_subgroup"], seconds),
        "conic_fibers.oracles.s": (
            total["conic_fibers.swap_scan"] + total["conic_fibers.selection_invariant"], seconds),
        "conic_fibers.closures_per_trial": (
            _ratio(conic_closures, calls["conic_fibers.random_model"]), "closures/trial"),
        "pole_cycles.max_symmetry_by_degree.s": (
            total["pole_cycles.max_symmetry_by_degree"], seconds),
        "pole_cycles.conservation_violations.s": (
            total["pole_cycles.conservation_violations"], seconds),
        "dp5.s5_representation.s": (total["dp5.s5_representation"], seconds),
        "dp5.verify_homomorphism.s": (total["dp5.verify_homomorphism"], seconds),
        "dp5.dp5_suite.self_s": (self_time["dp5.dp5_suite"], seconds),
        "rational.kernel_basis.calls": (calls["rational.kernel_basis"], count),
        "rational.kernel_basis.s": (total["rational.kernel_basis"], seconds),
        "report.emit.s": (total["report.emit"], seconds),
    })
    return metrics
