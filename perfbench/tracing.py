"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The tracer wraps acawgn functions from the outside: each target is replaced
by name in the namespace of the module that calls it (``acawgn.solver`` calls
its own ``_kkt_scan`` and ``adaptive_quad_family`` bindings, for example),
one span per call is kept in memory as [name, layer, start, end, parent,
extra], and ``restore`` puts the originals back.  Patches are installed
around each traced operation only.  A target that no longer
exists is listed in ``absent`` and its metrics are left out, never zeroed.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("solver", "numerics", "inputs", "certificates", "scan", "cli")
OP = "op"


def _levels(tracer, out):
    return {"levels": len(out.history)}


def _pg_result(tracer, out):
    _, _, converged, iterations = out
    return {"iters": iterations, "capped": not converged}


def _kkt_passed(tracer, out):
    return {"passed": out[0] <= tracer.kkt_eps and out[1] <= tracer.kkt_eps}


# (module, attribute, span name, layer, extra-from-result)
SPAN_TARGETS = (
    ("acawgn.solver", "solve_capacity", "solve", "solver", _levels),
    ("acawgn.scan", "solve_capacity", "solve", "solver", _levels),
    ("acawgn.solver", "solve_fixed_k", "attempt", "solver", None),
    ("acawgn.solver", "_pg_maximize", "optimize", "solver", _pg_result),
    ("acawgn.solver", "_objective", "objective", "solver", None),
    ("acawgn.solver", "_kkt_scan", "kkt", "inputs", _kkt_passed),
    ("acawgn.inputs", "_kkt_scan", "kkt", "inputs", None),
    ("acawgn.solver", "_info_stats", "info", "inputs", None),
    ("acawgn.inputs", "_info_stats", "info", "inputs", None),
    ("acawgn.solver", "mutual_information", "mi", "inputs", None),
    ("acawgn.numerics", "adaptive_quad_family", "quad", "numerics", None),
    ("acawgn.inputs", "adaptive_quad_family", "quad", "numerics", None),
    ("acawgn.solver", "adaptive_quad_family", "quad", "numerics", None),
    ("acawgn.certificates", "tv_distance", "tv", "numerics", None),
    ("acawgn.scan", "tv_distance", "tv", "numerics", None),
    ("acawgn.scan", "bulk_sup_deviation", "bulk", "numerics", None),
    ("acawgn.certificates", "certificate_report", "report", "certificates", None),
    ("acawgn.certificates", "certified_tv_lower_bound_maxnorm_log", "maxnorm",
     "certificates", None),
    ("acawgn.certificates", "rank_route_bound", "rank", "certificates", None),
    ("acawgn.certificates", "moment_matrix", "rank", "certificates", None),
    ("acawgn.certificates", "numerical_rank", "rank", "certificates", None),
    ("acawgn.scan", "_scan_one", "row", "scan", None),
    ("acawgn.cli", "scan", "scan", "scan", None),
    ("acawgn.cli", "main", "cli", "cli", None),
)

# Work counts added to the innermost open span, without a span of their own:
# (module, attribute, counter, amount from the positional arguments).
COUNT_TARGETS = (
    # Gauss-Kronrod 15-node panels evaluated: _eval_panels(f, a, b).
    ("acawgn.numerics", "_eval_panels", "panels", lambda args: len(args[1])),
    # i(x) points of a KKT scan: _marginal_info_batch(A, locs, ws, xs, spec).
    ("acawgn.inputs", "_marginal_info_batch", "kkt_points", lambda args: len(args[3])),
)


class Tracer:
    """In-memory span recorder that patches the acawgn modules while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._turns: dict[str, int] = {}

    def take_turn(self, kind) -> bool:
        """True for every second operation of a kind, starting with the second.

        Traced and untraced operations then alternate within one run, so
        the overhead compares operations made under the same conditions.
        """
        n = self._turns.get(kind, 0)
        self._turns[kind] = n + 1
        return n % 2 == 1

    def _open(self, name, layer):
        idx = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}])
        self._stack.append(idx)
        return self.spans[idx]

    def _span_wrapper(self, fn, name, layer, extra):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._open(name, layer)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self._stack.pop()
            if extra is not None:
                span[5].update(extra(self, out))
            return out

        return traced

    def _count_wrapper(self, fn, key, amount):
        def counted(*args, **kwargs):
            if self._stack:
                counts = self.spans[self._stack[-1]][5]
                counts[key] = counts.get(key, 0) + amount(args)
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.add(f"{module}.{attr}")
            return
        self._patched.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def install(self):
        # Every benchmark solve uses the default config, so its eps decides a pass.
        self.kkt_eps = importlib.import_module("acawgn.solver").SolveConfig().kkt_eps
        for module, attr, name, layer, extra in SPAN_TARGETS:
            self._patch(module, attr,
                        lambda fn, n=name, l=layer, e=extra: self._span_wrapper(fn, n, l, e))
        for module, attr, key, amount in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, k=key, a=amount: self._count_wrapper(fn, k, a))

    def restore(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def call(self, kind, fn):
        """Run one benchmark operation under a root span named after its kind."""
        return self._span_wrapper(fn, kind, OP, None)()


def _op_quantities(spans, lo, hi):
    """Raw per-layer sums for the operation whose root span is spans[lo]."""
    q = defaultdict(float)
    dur = [s[3] - s[2] for s in spans[lo:hi]]
    child = [0.0] * (hi - lo)
    names_above = [frozenset()] * (hi - lo)
    layers_above = [frozenset()] * (hi - lo)
    grads_in = defaultdict(int)
    for i in range(lo + 1, hi):
        name, layer, _, _, parent, extra = spans[i]
        j, p = i - lo, parent - lo
        child[p] += dur[j]
        pname, player = spans[parent][0], spans[parent][1]
        names_above[j] = names_above[p] | {pname}
        layers_above[j] = layers_above[p] | {player}
        d = dur[j]
        if name not in names_above[j]:
            q[f"busy.{name}"] += d
            # TV inside a certificate report, solves inside a scan row.
            for outer in ("report", "row"):
                if outer in names_above[j]:
                    q[f"busy.{name}.in.{outer}"] += d
        if layer not in layers_above[j]:
            q[f"layer_busy.{layer}"] += d
        q[f"calls.{name}"] += 1
        for key, value in extra.items():
            q[f"{name}.{key}"] += value
        if name == "info" and pname == "optimize":
            grads_in[parent] += 1
    for i in range(lo + 1, hi):
        j = i - lo
        q[f"layer_self.{spans[i][1]}"] += dur[j] - child[j]
    q["grad_evals"] = sum(grads_in.values())
    q["accepted_steps"] = sum(n - 1 for n in grads_in.values())
    q["op_s"] = dur[0]
    return q


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics per cycle (one operation of each kind), and per kind.

    Each kind's quantities are averaged over its operations and the averages
    summed over kinds, so the figures do not depend on how many operations of
    each kind fit in the run.  Times are given as shares of the cycle's busy
    time.  Returns (metrics, per-kind quantities).
    """
    roots = [i for i, s in enumerate(spans) if s[4] == -1]
    per_kind: dict[str, list] = defaultdict(list)
    for lo, hi in zip(roots, roots[1:] + [len(spans)]):
        per_kind[spans[lo][0]].append(_op_quantities(spans, lo, hi))
    kinds = {}
    for kind, ops in per_kind.items():
        keys = set().union(*ops)
        kinds[kind] = {k: sum(o.get(k, 0.0) for o in ops) / len(ops) for k in keys}
        kinds[kind]["ops"] = len(ops)
    c = defaultdict(float)
    for qk in kinds.values():
        for k, v in qk.items():
            c[k] += v
    busy = c["op_s"]

    def share(seconds):
        return seconds / busy

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "trace.ops": sum(len(v) for v in per_kind.values()),
        "trace.busy_s": busy,
        "solver.levels": c["solve.levels"],
        "solver.attempts": c["calls.attempt"],
        "solver.attempt_pass_ratio": ratio(c["kkt.passed"], c["calls.attempt"]),
        "solver.opt_iters": c["optimize.iters"],
        "solver.opt_capped": c["optimize.capped"],
        "solver.grad_evals": c["grad_evals"],
        "solver.obj_evals": c["calls.objective"],
        "solver.ls_accept_ratio": ratio(c["accepted_steps"], c["calls.objective"]),
        "solver.optimize_share": share(c["busy.optimize"]),
        "numerics.quad_calls": c["calls.quad"],
        "numerics.quad_ms": 1e3 * ratio(c["busy.quad"], c["calls.quad"]),
        "numerics.panels": c["quad.panels"],
        "numerics.tv_share": share(c["busy.tv"]),
        "numerics.bulk_share": share(c["busy.bulk"]),
        "inputs.info_calls": c["calls.info"],
        "inputs.info_share": share(c["busy.info"]),
        "inputs.mi_calls": c["calls.mi"],
        "inputs.mi_share": share(c["busy.mi"]),
        "inputs.kkt_calls": c["calls.kkt"],
        "inputs.kkt_share": share(c["busy.kkt"]),
        "inputs.kkt_points": ratio(c["kkt.kkt_points"], c["calls.kkt"]),
        "certificates.report_share": share(c["busy.report"] - c["busy.tv.in.report"]),
        "certificates.maxnorm_share": share(c["busy.maxnorm"]),
        "certificates.rank_share": share(c["busy.rank"]),
        "scan.rows": c["calls.row"],
        "scan.solve_share": share(c["busy.solve.in.row"]),
        "scan.post_share": share(c["busy.row"] - c["busy.solve.in.row"]),
        "cli.main_share": share(c["busy.cli"]),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.busy_share"] = share(c[f"layer_busy.{layer}"])
        m[f"{layer}.self_share"] = share(c[f"layer_self.{layer}"])
    return m, kinds


# Metrics that read a target the tracer could not find are absent, not zero.
METRIC_SOURCES = {
    "solver.levels": "acawgn.solver.solve_capacity",
    "solver.attempts": "acawgn.solver.solve_fixed_k",
    "solver.attempt_pass_ratio": "acawgn.solver._kkt_scan",
    "solver.opt_iters": "acawgn.solver._pg_maximize",
    "solver.opt_capped": "acawgn.solver._pg_maximize",
    "solver.optimize_share": "acawgn.solver._pg_maximize",
    "solver.grad_evals": "acawgn.solver._pg_maximize",
    "solver.obj_evals": "acawgn.solver._objective",
    "solver.ls_accept_ratio": "acawgn.solver._objective",
    "numerics.panels": "acawgn.numerics._eval_panels",
    "inputs.mi_calls": "acawgn.solver.mutual_information",
    "inputs.mi_share": "acawgn.solver.mutual_information",
    "inputs.kkt_points": "acawgn.inputs._marginal_info_batch",
    "scan.rows": "acawgn.scan._scan_one",
    "scan.solve_share": "acawgn.scan._scan_one",
    "scan.post_share": "acawgn.scan._scan_one",
}


def drop_absent(metrics: dict, absent) -> dict:
    return {k: v for k, v in metrics.items() if METRIC_SOURCES.get(k) not in absent}
