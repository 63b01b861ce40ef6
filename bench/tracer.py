"""Outside-in layer trace for the benchmark.

The program is not instrumented.  Instead, public functions are wrapped at
the module attributes through which the layers call one another: every
``latgreen.*`` module attribute that is the original function object is
replaced, so a layer that binds a function by name (``cli`` binds
``green_table``, ``green_function`` binds ``split_at_sign_changes``) and
one that looks it up at call time (``SphereBackend.psi`` reads
``sphere_backend.psi``) both reach the wrapper.  An attribute that a later
version of the program no longer has is skipped, and its metrics read 0.

Each wrapped call records a span (name, start, end, parent) in memory.  A
call made while a span of the same name is open (``theta`` calling
``_theta_scaled``) joins that span instead of opening a new one.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); functions first, then class methods
FUNCTIONS = [
    ("cli.green_table", "latgreen.cli", "cmd_green_table"),
    ("cli.verify", "latgreen.cli", "cmd_verify"),
    ("green_function.green_table", "latgreen.green_function", "green_table"),
    ("green_function.green", "latgreen.green_function", "green"),
    ("green_function.g0", "latgreen.green_function", "g0"),
    ("green_function.verify_delta", "latgreen.green_function", "verify_delta"),
    ("green_function.growth_check", "latgreen.green_function", "growth_check"),
    ("green_function.kernel_K", "latgreen.green_function", "kernel_K"),
    ("green_function.residue_lemma", "latgreen.green_function", "residue_lemma_Q"),
    ("green_function.residue_lemma", "latgreen.green_function", "residue_lemma_P"),
    ("contour_quadrature.split", "latgreen.contour_quadrature", "split_at_sign_changes"),
    ("contour_quadrature.integrate", "latgreen.contour_quadrature", "integrate"),
    ("contour_quadrature.residue", "latgreen.contour_quadrature", "residue"),
    ("sphere_backend.c_contour", "latgreen.sphere_backend", "c_contour"),
    ("sphere_backend.default_kernel_contour", "latgreen.sphere_backend", "default_kernel_contour"),
    ("sphere_backend.im_p_m", "latgreen.sphere_backend", "im_p_m"),
    ("sphere_backend.psi", "latgreen.sphere_backend", "psi"),
    ("theta_engine.psi_theta", "latgreen.theta_engine", "psi_theta"),
    ("theta_engine.theta", "latgreen.theta_engine", "theta"),
    # every theta evaluation of psi_theta goes through this helper
    ("theta_engine.theta", "latgreen.theta_engine", "_theta_scaled"),
    ("theta_engine.validate", "latgreen.theta_engine", "validate_riemann_matrix"),
    ("lattice_core.coefficients", "latgreen.lattice_core", "coefficients_from_f"),
    ("lattice_core.apply_five_point", "latgreen.lattice_core", "apply_five_point"),
    ("lattice_core.check_four_point", "latgreen.lattice_core", "check_four_point"),
]
CONTOURS = ("sphere_backend.c_contour", "sphere_backend.default_kernel_contour")
METHODS = [
    ("green_function.write", "latgreen.green_function", "GreenTable", "write_csv"),
    ("green_function.write", "latgreen.green_function", "GreenTable", "write_json"),
]


class Tracer:
    """Collects spans from wrapped program functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or None]
        self.totals = {}
        self.counts = defaultdict(int)  # (span name, what) -> total
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            _count(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "latgreen"]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def fold(self) -> None:
        """Add the spans recorded so far to ``totals`` and drop them.

        ``totals`` maps a span name to its calls, inclusive ms and self ms;
        folding after each operation keeps memory bounded over a run.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for (name, start, end, parent), inner in zip(self.spans, child_ns):
            t = self.totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            t["calls"] += 1
            t["ms"] += (end - start) / 1e6
            t["self_ms"] += (end - start - inner) / 1e6
            # a contour built inside green_table is a table it builds
            if name in CONTOURS:
                while parent is not None and self.spans[parent][0] != "green_function.green_table":
                    parent = self.spans[parent][3]
                if parent is not None:
                    self.counts[("green_function.green_table", "tables")] += 1
        self.spans.clear()


def _count(counts, name, args, result) -> None:
    if name == "contour_quadrature.split":
        counts[(name, "arcs")] += len(result.components)
    elif name == "sphere_backend.psi":
        z = args[0] if args else None
        if isinstance(z, np.ndarray):
            counts[(name, "nodes")] += z.size
    elif name == "green_function.green_table":
        values = result.values
        counts[(name, "values")] += values.size if isinstance(values, np.ndarray) else len(values)


def layer_metrics(tracer: Tracer, ops: int, values: int, overhead_pct: float):
    """The per-layer metrics, each per operation of the workload unless named otherwise."""
    totals, counts = tracer.totals, tracer.counts

    def t(name, key="ms"):
        return totals.get(name, {}).get(key, 0.0)

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    table_values = counts.get(("green_function.green_table", "values"), 0)
    split_calls = t("contour_quadrature.split", "calls")
    return {
        "cli.green_table.self_ms": (per_op(t("cli.green_table", "self_ms")), "ms/op"),
        "cli.verify.self_ms": (per_op(t("cli.verify", "self_ms")), "ms/op"),
        "green_function.green_table.calls": (
            per_op(counts.get(("green_function.green_table", "tables"), 0)), "count/op"),
        "green_function.green_table.self_ms": (
            per_op(t("green_function.green_table", "self_ms")), "ms/op"),
        "green_function.green_table.us_per_value": (
            ratio(1e3 * t("green_function.green_table"), table_values), "us/value"),
        "green_function.write.ms": (per_op(t("green_function.write")), "ms/op"),
        "green_function.green.self_ms": (per_op(t("green_function.green", "self_ms")), "ms/op"),
        "green_function.g0.ms": (per_op(t("green_function.g0")), "ms/op"),
        "green_function.verify_delta.ms": (per_op(t("green_function.verify_delta")), "ms/op"),
        "green_function.growth_check.ms": (per_op(t("green_function.growth_check")), "ms/op"),
        "green_function.kernel_K.ms": (per_op(t("green_function.kernel_K")), "ms/op"),
        "green_function.residue_lemma.ms": (per_op(t("green_function.residue_lemma")), "ms/op"),
        "contour_quadrature.split.calls": (per_op(split_calls), "count/op"),
        "contour_quadrature.split.ms": (per_op(t("contour_quadrature.split")), "ms/op"),
        "contour_quadrature.split.arcs": (
            ratio(counts.get(("contour_quadrature.split", "arcs"), 0), split_calls), "count/call"),
        "contour_quadrature.integrate.calls": (
            per_op(t("contour_quadrature.integrate", "calls")), "count/op"),
        "contour_quadrature.integrate.ms": (per_op(t("contour_quadrature.integrate")), "ms/op"),
        "contour_quadrature.residue.calls": (
            per_op(t("contour_quadrature.residue", "calls")), "count/op"),
        "contour_quadrature.residue.ms": (per_op(t("contour_quadrature.residue")), "ms/op"),
        "sphere_backend.c_contour.us": (per_op(1e3 * t("sphere_backend.c_contour")), "us/op"),
        "sphere_backend.im_p_m.calls": (per_op(t("sphere_backend.im_p_m", "calls")), "count/op"),
        "sphere_backend.psi.calls": (per_op(t("sphere_backend.psi", "calls")), "count/op"),
        "sphere_backend.psi.nodes_per_value": (
            ratio(counts.get(("sphere_backend.psi", "nodes"), 0), values), "count/value"),
        "sphere_backend.psi.ms": (per_op(t("sphere_backend.psi")), "ms/op"),
        "theta_engine.psi_theta.ms": (per_op(t("theta_engine.psi_theta")), "ms/op"),
        "theta_engine.theta.ms": (per_op(t("theta_engine.theta")), "ms/op"),
        "theta_engine.validate.calls": (per_op(t("theta_engine.validate", "calls")), "count/op"),
        "theta_engine.validate.ms": (per_op(t("theta_engine.validate")), "ms/op"),
        "lattice_core.coefficients.calls": (
            per_op(t("lattice_core.coefficients", "calls")), "count/op"),
        "lattice_core.apply_five_point.calls": (
            per_op(t("lattice_core.apply_five_point", "calls")), "count/op"),
        "lattice_core.check_four_point.ms": (per_op(t("lattice_core.check_four_point")), "ms/op"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
