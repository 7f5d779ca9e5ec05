"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: each public function is
replaced, for the duration of the traced phase, at the module attribute its
caller looks it up through (for example ``taubnut.integrator.geodesic_rhs``,
which ``integrate`` reaches through the integrator module's globals). Default
arguments bound at definition time cannot be reached this way:
``riemann_fd(christoffel_fn=christoffel_at)`` keeps the original
``christoffel_at``, so no Christoffel count is derived from spans.

A span is ``(name, start, end, parent, raised, info)``; ``parent`` is the index
of the enclosing span or -1, ``raised`` the exception class name or None, and
``info`` a per-site annotation (trajectory rows and termination, number of
radii, scenario name, sample count).
"""

from __future__ import annotations

import importlib
import json
import os
import time

import numpy as np
from taubnut.integrator import TERMINATIONS

from workloads import SCENARIOS


def _trajectory_info(args, result):
    return (len(result), result.termination)


def _size_info(args, result):
    """Number of radii passed to curves, or of times to stitched_coords."""
    return int(np.size(args[2]))


def _scenario_info(args, result):
    return args[0]


# (module, attribute, span name, info function). The span name's first
# component is the layer. A function reached from two modules is patched at
# both sites under one name.
SITES = (
    ("taubnut.integrator", "geodesic_rhs", "integrator.geodesic_rhs", None),
    ("taubnut.integrator", "metric_at", "integrator.metric_at", None),
    ("taubnut.integrator", "brentq", "integrator.brentq", None),
    ("taubnut.integrator", "integrate", "integrator.integrate", _trajectory_info),
    ("taubnut.verify", "integrate", "integrator.integrate", _trajectory_info),
    ("taubnut.analytic", "curves", "analytic.curves", _size_info),
    ("taubnut.verify", "curves", "analytic.curves", _size_info),
    ("taubnut.analytic", "invert_t_of_r", "analytic.invert_t_of_r", None),
    ("taubnut.analytic", "stitched_coords", "analytic.stitched_coords", _size_info),
    ("taubnut.verify", "stitched_coords", "analytic.stitched_coords", _size_info),
    ("taubnut.analytic", "classify", "analytic.classify", None),
    ("taubnut.verify", "classify", "analytic.classify", None),
    ("taubnut.verify", "ricci_fd", "geometry.ricci_fd", None),
    ("taubnut.verify", "self_duality_residual", "geometry.self_duality_residual", None),
    ("taubnut.verify", "frame_riemann_fd", "geometry.frame_riemann_fd", None),
    ("taubnut.geometry", "riemann_fd", "geometry.riemann_fd", None),
    ("taubnut.verify", "compare_numeric_analytic", "verify.compare_numeric_analytic", None),
    ("taubnut.verify", "derivative_sweep", "verify.derivative_sweep", None),
    ("taubnut.verify", "curvature_audit", "verify.curvature_audit", None),
    ("taubnut.cli", "run_scenario", "verify.run_scenario", _scenario_info),
    ("taubnut.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    module attributes listed in SITES."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                note = info(args, result) if info is not None and raised is None else None
                spans[index] = (name, start, end, parent, raised, note)

        return traced

    def install(self):
        for module_name, attr, name, info in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def write_spans(path: str, spans) -> None:
    """Save spans as arrays in a compressed .npz: ``name`` and ``raised`` are
    indices into ``names`` (-1 for none), ``start`` and ``end`` readings of
    time.perf_counter in seconds, ``parent`` the enclosing span's index or -1,
    and ``info`` the annotation as JSON text ("" for none)."""
    names = sorted({s[0] for s in spans} | {s[4] for s in spans if s[4] is not None})
    code = {name: i for i, name in enumerate(names)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(
        path, names=np.array(names),
        name=np.array([code[s[0]] for s in spans], dtype=np.int16),
        start=np.array([s[1] for s in spans]),
        end=np.array([s[2] for s in spans]),
        parent=np.array([s[3] for s in spans], dtype=np.int64),
        raised=np.array([-1 if s[4] is None else code[s[4]] for s in spans], dtype=np.int16),
        info=np.array(["" if s[5] is None else json.dumps(s[5]) for s in spans]))


def op_counts(spans) -> dict:
    """Deterministic counts of one op's spans: calls per span name, calls
    that raised, and each trajectory's rows and termination."""
    counts = {}
    for name, _, _, _, raised, note in spans:
        counts[name] = counts.get(name, 0) + 1
        if raised is not None:
            key = f"{name}!{raised}"
            counts[key] = counts.get(key, 0) + 1
        if name == "integrator.integrate" and note is not None:
            rows, cause = note
            counts["rows"] = counts.get("rows", 0) + rows
            key = f"termination.{cause}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics from the spans of ``n_ops`` traced ops. A per-call
    time with no calls on this workload reads 0."""
    leaf = ("integrator.geodesic_rhs", "integrator.metric_at", "integrator.brentq")
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    leaf_child = [0.0] * len(spans)
    by_name = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child[parent] += dur[i]
            if name in leaf:
                leaf_child[parent] += dur[i]

    def pick(name):
        return by_name.get(name, [])

    def total(indices):
        return sum(dur[i] for i in indices)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    # geometry: one audited point is one ricci_fd call from curvature_audit
    ricci = pick("geometry.ricci_fd")
    point_spans = ricci + pick("geometry.self_duality_residual") + pick("geometry.frame_riemann_fd")
    m["geometry.curvature_point_ms"] = ratio(total(point_spans), len(ricci)) * 1e3
    m["geometry.riemann_builds_per_point"] = ratio(len(pick("geometry.riemann_fd")), len(ricci))

    integ = pick("integrator.integrate")
    rhs = pick("integrator.geodesic_rhs")
    metric = pick("integrator.metric_at")
    rows = sum(spans[i][5][0] for i in integ if spans[i][5] is not None)
    m["geometry.metric_calls_per_row"] = ratio(len(metric), rows)

    t_integ = total(integ)
    t_rhs_self = sum(dur[i] - child[i] for i in rhs)
    m["integrator.rhs_us"] = ratio(t_rhs_self, len(rhs)) * 1e6
    m["integrator.nfev_per_op"] = ratio(len(rhs), len(integ))
    m["integrator.rhs_share"] = ratio(total(rhs), t_integ)
    t_self = sum(dur[i] - leaf_child[i] for i in integ)
    m["integrator.self_ms_per_op"] = ratio(t_self, len(integ)) * 1e3
    retries = sum(1 for i in rhs if spans[i][4] in ("DomainError", "AxisError"))
    m["integrator.chart_retries_per_op"] = ratio(retries, len(integ))
    m["integrator.event_roots_per_op"] = ratio(len(pick("integrator.brentq")), len(integ))
    m["integrator.rows_per_op"] = ratio(rows, len(integ))
    for cause in TERMINATIONS:
        hits = sum(1 for i in integ if spans[i][5] is not None and spans[i][5][1] == cause)
        m[f"integrator.terminations.{cause}"] = ratio(hits, n_ops)

    inv = pick("analytic.invert_t_of_r")
    curves = pick("analytic.curves")
    m["analytic.invert_us"] = ratio(total(inv), len(inv)) * 1e6
    inv_set = set(inv)
    in_inv = sum(1 for i in curves if spans[i][3] in inv_set)
    m["analytic.curves_per_invert"] = ratio(in_inv, len(inv))
    # scalar calls from the compare loop only: those inside an inversion
    # would move with the inversion, not with curves
    scalar = [i for i in curves if spans[i][5] == 1 and spans[i][3] >= 0
              and spans[spans[i][3]][0] == "verify.compare_numeric_analytic"]
    vector = [i for i in curves if spans[i][5] is not None and spans[i][5] > 1]
    m["analytic.curves_us_scalar"] = ratio(total(scalar), len(scalar)) * 1e6
    m["analytic.curves_ns_per_r_vector"] = ratio(total(vector), sum(spans[i][5] for i in vector)) * 1e9
    cls = pick("analytic.classify")
    m["analytic.classify_us"] = ratio(total(cls), len(cls)) * 1e6
    st = pick("analytic.stitched_coords")
    m["analytic.stitched_us_per_sample"] = ratio(total(st), sum(spans[i][5] or 0 for i in st)) * 1e6

    scen = pick("verify.run_scenario")
    for name in SCENARIOS:
        these = [i for i in scen if spans[i][5] == name]
        m[f"verify.scenario_ms.{name}"] = ratio(total(these), len(these)) * 1e3
    m["verify.compare_ms"] = ratio(total(pick("verify.compare_numeric_analytic")), n_ops) * 1e3
    m["verify.sweep_ms"] = ratio(total(pick("verify.derivative_sweep")), n_ops) * 1e3
    m["verify.audit_ms"] = ratio(total(pick("verify.curvature_audit")), n_ops) * 1e3

    # topmost integrator/analytic/geometry spans below a verify or cli span
    # are the children whose time verify.self_ms leaves out
    outer = ("verify", "cli")
    covered = 0.0
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0 and name.split(".")[0] not in outer and spans[parent][0].split(".")[0] in outer:
            covered += dur[i]
    m["verify.self_ms"] = ratio(total(scen) - covered, n_ops) * 1e3
    mains = pick("cli.main")
    m["cli.self_ms"] = ratio(sum(dur[i] - child[i] for i in mains), n_ops) * 1e3
    return m
