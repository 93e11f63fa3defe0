"""In-memory spans and counters around bellepr's public functions.

``Tracer.install`` replaces each traced function under every name a bellepr
module holds it by (``from .states import fit_theta`` makes
``bellepr.cli.fit_theta`` one such name), so calls made through the imported
name and calls inside the defining module are both seen.  The program's
sources are not touched.  ``uninstall`` puts the originals back.

Spans are kept in a list and written out once, at the end of the process.
A span's self time is its duration minus the durations of its direct child
spans.  The span stack is shared by all threads: the benchmark always runs
``bellepr`` with ``--threads 1``, so only one thread is inside bellepr code
at a time (the CLI's main thread waits while its single worker runs).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "states.pair_tables.calls": "count",
    "states.pair_tables.self_s": "s",
    "states.pair_tables.elements": "count",
    "states.pair_tables.bytes": "B",
    "states.pair_tables.max_bytes": "B",
    "states.fit_theta.self_s": "s",
    "states.theta_wigner_residual.calls": "count",
    "states.theta_wigner_residual.self_s": "s",
    "states.field_values.self_s": "s",
    "correlators.points": "count",
    "correlators.self_s": "s",
    "correlators.tables_per_point": "tables/point",
    "correlators.err_estimate_max": "1",
    "measure.node_sets.calls": "count",
    "measure.node_sets.self_s": "s",
    "measure.node_sets.nodes": "count",
    "measure.map_nodes.self_s": "s",
    "spinor_tetrad.wigner_batch.calls": "count",
    "spinor_tetrad.wigner_batch.self_s": "s",
    "spinor_tetrad.wigner_scalar.calls": "count",
    "vacuum.evaluate_batch.self_s": "s",
    "vacuum.normalize.calls": "count",
    "vacuum.normalize.self_s": "s",
    "fock_oracle.verify_suite.n2.self_s": "s",
    "fock_oracle.verify_suite.n3.self_s": "s",
    "fock_oracle.ladder.calls": "count",
    "fock_oracle.space_dim": "count",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "1",
    "trace.wall_s": "s",
}

_ORACLE_N = {2: "fock_oracle.verify_suite.n2.self_s", 3: "fock_oracle.verify_suite.n3.self_s"}


def _tables(args, kwargs, out):
    sizes = [v.size for v in out.values()]
    return {"elements": sum(sizes), "max_elements": max(sizes, default=0),
            "tables": sum(1 for v in out.values() if v.ndim == 2)}


def _point(args, kwargs, out):
    return {"err": float(out.err_estimate)}


def _nodes(args, kwargs, out):
    return {"nodes": len(out)}


def _suite(args, kwargs, out):
    return {"n_osc": int(kwargs.get("n_osc", args[1] if len(args) > 1 else 2))}


def _space_dim(tracer, args):
    tracer.space_dim = max(tracer.space_dim, args[0].dim)


#: (module, function, span name, attribute hook).  Aliases that forward to
#: each other share a span name; a span opened directly inside a span of the
#: same name is merged into it, so an alias or a recursion counts once.
SPANS = (
    ("bellepr.cli", "main", "cli.main", None),
    ("bellepr.states", "amplitude_pair_tables", "states.pair_tables", _tables),
    ("bellepr.states", "fit_theta", "states.fit_theta", None),
    ("bellepr.states", "theta_wigner_residual", "states.theta_wigner_residual", None),
    ("bellepr.states", "field_values", "states.field_values", None),
    ("bellepr.correlators", "epr_bell_rest", "correlators.point", _point),
    ("bellepr.correlators", "epr_general_rest", "correlators.point", _point),
    ("bellepr.correlators", "epr_case1", "correlators.point", _point),
    ("bellepr.correlators", "epr_case2", "correlators.point", _point),
    ("bellepr.measure", "invariant_node_set", "measure.node_sets", _nodes),
    ("bellepr.measure", "map_nodes", "measure.map_nodes", None),
    ("bellepr.spinor_tetrad", "batch_wigner_phases", "spinor_tetrad.wigner_batch", None),
    ("bellepr.spinor_tetrad", "_batch_wigner", "spinor_tetrad.wigner_batch", None),
    ("bellepr.vacuum", "evaluate_batch", "vacuum.evaluate_batch", None),
    ("bellepr.vacuum", "normalize", "vacuum.normalize", None),
    ("bellepr.fock_oracle", "verify_suite", "fock_oracle.verify_suite", _suite),
)

#: Functions called too often for a span: only their calls are counted
#: (module, function, counter name, hook run on the call's arguments).
COUNTERS = (
    ("bellepr.spinor_tetrad", "wigner_phase", "spinor_tetrad.wigner_scalar", None),
    ("bellepr.fock_oracle", "ladder", "fock_oracle.ladder", _space_dim),
)


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index, attrs or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.space_dim = 0
        self.import_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if hook is not None:
                hook(self, args)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under each name bellepr modules hold."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bellepr" or n.startswith("bellepr."))]
        plan = [(mod, fn, self._span_wrapper(getattr(sys.modules[mod], fn), name, hook))
                for mod, fn, name, hook in SPANS]
        plan += [(mod, fn, self._count_wrapper(getattr(sys.modules[mod], fn), name, hook))
                 for mod, fn, name, hook in COUNTERS]
        for mod, fn, wrapper in plan:
            original = getattr(sys.modules[mod], fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "space_dim": self.space_dim,
                "import_s": self.import_s}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)


def _ancestor_named(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(records: list[dict], overhead_frac: float, wall_s: float) -> dict[str, float]:
    """Per-layer metrics summed over the trace records of one run; ``wall_s``
    is the wall time of the traced workload jobs."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    out = {
        "states.pair_tables.elements": 0,
        "states.pair_tables.max_bytes": 0,
        "correlators.err_estimate_max": 0.0,
        "measure.node_sets.nodes": 0,
        "fock_oracle.verify_suite.n2.self_s": 0.0,
        "fock_oracle.verify_suite.n3.self_s": 0.0,
    }
    point_tables = 0
    counts: dict[str, int] = {}
    space_dim = 0
    imports: list[float] = []
    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            own = (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if attrs is None:  # no hook, or the call raised
                continue
            if name == "states.pair_tables":
                out["states.pair_tables.elements"] += attrs["elements"]
                out["states.pair_tables.max_bytes"] = max(
                    out["states.pair_tables.max_bytes"], 16 * attrs["max_elements"])
                if _ancestor_named(spans, i, "correlators.point"):
                    point_tables += attrs["tables"]
            elif name == "correlators.point":
                out["correlators.err_estimate_max"] = max(
                    out["correlators.err_estimate_max"], attrs["err"])
            elif name == "measure.node_sets":
                out["measure.node_sets.nodes"] += attrs["nodes"]
            elif name == "fock_oracle.verify_suite":
                key = _ORACLE_N.get(attrs["n_osc"])
                if key:
                    out[key] += own
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
        space_dim = max(space_dim, rec["space_dim"])
        imports.extend(rec["import_s"])

    points = calls.get("correlators.point", 0)
    out["states.pair_tables.calls"] = calls.get("states.pair_tables", 0)
    out["states.pair_tables.self_s"] = self_s.get("states.pair_tables", 0.0)
    out["states.pair_tables.bytes"] = 16 * out["states.pair_tables.elements"]
    out["states.fit_theta.self_s"] = self_s.get("states.fit_theta", 0.0)
    out["states.theta_wigner_residual.calls"] = calls.get("states.theta_wigner_residual", 0)
    out["states.theta_wigner_residual.self_s"] = self_s.get("states.theta_wigner_residual", 0.0)
    out["states.field_values.self_s"] = self_s.get("states.field_values", 0.0)
    out["correlators.points"] = points
    out["correlators.self_s"] = self_s.get("correlators.point", 0.0)
    out["correlators.tables_per_point"] = point_tables / points if points else 0.0
    out["measure.node_sets.calls"] = calls.get("measure.node_sets", 0)
    out["measure.node_sets.self_s"] = self_s.get("measure.node_sets", 0.0)
    out["measure.map_nodes.self_s"] = self_s.get("measure.map_nodes", 0.0)
    out["spinor_tetrad.wigner_batch.calls"] = calls.get("spinor_tetrad.wigner_batch", 0)
    out["spinor_tetrad.wigner_batch.self_s"] = self_s.get("spinor_tetrad.wigner_batch", 0.0)
    out["spinor_tetrad.wigner_scalar.calls"] = counts.get("spinor_tetrad.wigner_scalar", 0)
    out["vacuum.evaluate_batch.self_s"] = self_s.get("vacuum.evaluate_batch", 0.0)
    out["vacuum.normalize.calls"] = calls.get("vacuum.normalize", 0)
    out["vacuum.normalize.self_s"] = self_s.get("vacuum.normalize", 0.0)
    out["fock_oracle.ladder.calls"] = counts.get("fock_oracle.ladder", 0)
    out["fock_oracle.space_dim"] = space_dim
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    out["trace.overhead_frac"] = overhead_frac
    out["trace.wall_s"] = wall_s
    return out
