"""The traced run: spans around the public functions of losnet's modules,
installed from outside where the calling module looks each name up, and the
per-layer metrics computed from them.

A span records its name, start, end, parent span and the control step
(`sim.step` span) it belongs to. Some spans also carry counts taken by a hook
after the call returns (rows assembled, QP iterations). Every QP solution is
also checked with `qp.verify_kkt`. Hook and check time is accumulated per
thread as paused time and subtracted from every span still open around it, so
the checks do not inflate any layer. Every other control step runs untraced
(one `sim.step.untraced` span, nothing inside it but the KKT check), so the
tracing overhead is measured against untraced steps of the same process and
the same minutes. Spans stay in memory and are written out once the run ends.
A function that a later version of losnet removes or renames is skipped: its
metric is missing and the traced run still works.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from losnet import barriers, cli, qp, sim, topology

FAMILIES = ("safety", "obstacle", "connectivity", "los")
UNTRACED_STEP = "sim.step.untraced"


class Span:
    __slots__ = ("name", "start", "end", "paused", "parent", "step", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.step = self if name == "sim.step" else (parent.step if parent else None)
        self.counts: dict = {}
        self.paused = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.paused


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.kkt_ok: list[bool] = []
        self._tls = threading.local()

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack, tls.paused, tls.quiet, tls.steps = [], 0.0, False, 0
        return tls

    def _paused(self, tls, fn, *args):
        """Run fn untraced and count its time as paused."""
        t0, quiet = perf_counter(), tls.quiet
        tls.quiet = True
        try:
            return fn(*args)
        finally:
            tls.quiet = quiet
            tls.paused += perf_counter() - t0

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        inner = getattr(owner, attr, None)
        if inner is None:
            return

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            tls = self._local()
            if tls.quiet:
                return inner(*args, **kwargs)
            untraced = False
            if name == "sim.step":
                tls.steps += 1
                untraced = tls.steps % 2 == 0
            parent = tls.stack[-1] if tls.stack else None
            span = Span(UNTRACED_STEP if untraced else name, parent)
            tls.stack.append(span)
            paused = tls.paused
            tls.quiet = untraced
            span.start = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tls.quiet = False
                tls.stack.pop()
                span.paused = tls.paused - paused
                self.spans.append(span)
            if hook is not None:
                span.counts = self._paused(tls, hook, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def _check_kkt(self) -> None:
        solve = qp.solve

        @functools.wraps(solve)
        def checked(problem, *args, **kwargs):
            solution = solve(problem, *args, **kwargs)
            tol = kwargs.get("tol", args[0] if args else qp.DEFAULT_TOL)
            self.kkt_ok.append(
                self._paused(self._local(), qp.verify_kkt, problem, solution, tol))
            return solution

        qp.solve = checked

    def install(self) -> None:
        self._check_kkt()
        w = self.wrap
        w(cli, "load_scenario", "cli.load_scenario")
        w(cli, "write_outputs", "cli.write_outputs", _output_bytes)
        w(cli, "generate_team", "cli.generate_team")
        w(sim, "run", "sim.run")
        w(sim, "step", "sim.step")
        w(sim, "nominal_controls", "sim.nominal_controls")
        w(sim, "build_los_graph", "topology.build_los_graph",
          lambda a, k, r: {"edges": len(r.edges)})
        w(sim, "weigh_edges", "topology.weigh_edges")
        for tree in ("mlccst", "mccst_baseline"):
            w(sim, tree, "topology.tree", lambda a, k, r: {"edges": len(r.edges)})
        for owner in (topology, sim):
            w(owner, "segments_occluded", "geometry.segments_occluded",
              lambda a, k, r: {"segments": len(r)})
        w(topology, "mvee_closed_form_batch", "geometry.ellipsoids",
          lambda a, k, r: {"ellipsoids": len(r)})
        w(sim, "mvee_closed_form", "geometry.ellipsoids", lambda a, k, r: {"ellipsoids": 1})
        w(sim, "assemble_system", "barriers.assemble_system", _row_counts)
        w(qp, "solve", "qp.solve", lambda a, k, r: {
            "iterations": int(r.iterations), "active": int(np.count_nonzero(r.duals))})
        w(barriers.ConstraintSystem, "dense_rows", "qp.dense_rows",
          lambda a, k, r: {"rows": int(r.shape[0])})
        w(barriers.ConstraintSystem, "residuals", "qp.residuals",
          lambda a, k, r: {"rows": int(r.size)})

    def write(self, path: Path) -> None:
        index = {id(s): k for k, s in enumerate(self.spans)}
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "paused": s.paused,
                    "parent": index.get(id(s.parent)), "step": index.get(id(s.step)),
                    **s.counts,
                }) + "\n")


def _output_bytes(args, kwargs, result) -> dict:
    out_dir = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else "."))
    return {"bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())}


def _row_counts(args, kwargs, system) -> dict:
    """Rows per certificate family, and the rows some control inside the
    speed box can violate: |a|_1 * box > b."""
    params = kwargs.get("params", args[4] if len(args) > 4 else None)
    a, b = system.dense()
    box = params.u_max / math.sqrt(2.0)
    counts = {f"rows_{f}": system.count(f) for f in FAMILIES}
    counts["rows"] = len(system)
    counts["violable"] = int(np.count_nonzero(np.abs(a).sum(axis=1) * box > b))
    return counts


def layer_metrics(tracer: Tracer, runs: list) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit). `runs` are the checked
    runs (check.RunCheck) of the traced rounds. Per-step values are totals
    inside traced `sim.step` spans divided by the traced steps."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)
    steps = by_name["sim.step"]
    n_steps = max(len(steps), 1)
    n_runs = max(len(runs), 1)

    def in_steps(name):
        return [s for s in by_name.get(name, ()) if s.step is not None]

    def per_step_ms(*names):
        return 1e3 * sum(s.duration for n in names for s in in_steps(n)) / n_steps

    def per_step_count(name, key):
        return sum(s.counts[key] for s in in_steps(name)) / n_steps

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    def mean_ms(name):
        return 1e3 * mean([s.duration for s in by_name.get(name, ())])

    out: dict[str, tuple] = {}
    out["cli.load_ms"] = (mean_ms("cli.load_scenario"), "ms/run")
    out["cli.write_outputs_ms"] = (mean_ms("cli.write_outputs"), "ms/run")
    out["cli.output_mb"] = (mean([s.counts["bytes"] for s in by_name["cli.write_outputs"]]) / 1e6,
                            "MB/run")
    out["cli.generate_team_ms"] = (mean_ms("cli.generate_team"), "ms/trial")

    out["sim.step_self_ms"] = (
        1e3 * mean([s.duration - sum(c.duration for c in children[id(s)]) for s in steps]), "ms")
    out["sim.nominal_ms"] = (per_step_ms("sim.nominal_controls"), "ms")
    out["sim.finalize_ms"] = (1e3 * mean([
        r.duration - sum(c.duration for c in children[id(r)]
                         if c.name in ("sim.step", UNTRACED_STEP))
        for r in by_name.get("sim.run", ())
    ]), "ms/run")
    out["sim.solver_fallbacks"] = (
        mean([r.summary.get("solver_fallback_count", 0) for r in runs]), "count/run")
    out["sim.tree_fallbacks"] = (
        mean([r.summary.get("tree_fallback_count", 0) for r in runs]), "count/run")

    if "geometry.segments_occluded" in by_name:
        out["geometry.occlusion_ms"] = (per_step_ms("geometry.segments_occluded"), "ms")
        out["geometry.segments_tested"] = (
            per_step_count("geometry.segments_occluded", "segments"), "count")
    if "geometry.ellipsoids" in by_name:
        built = sum(s.counts["ellipsoids"] for s in in_steps("geometry.ellipsoids"))
        out["geometry.ellipsoid_ms"] = (per_step_ms("geometry.ellipsoids"), "ms")
        out["geometry.ellipsoids_built"] = (built / n_steps, "count")
        tree_edges = sum(s.counts["edges"] for s in in_steps("topology.tree"))
        out["topology.ellipsoid_use_ratio"] = (tree_edges / built if built else 0.0, "ratio")
    if "topology.build_los_graph" in by_name:
        out["topology.graph_ms"] = (per_step_ms("topology.build_los_graph"), "ms")
        out["topology.candidate_edges"] = (
            per_step_count("topology.build_los_graph", "edges"), "count")
    if "topology.weigh_edges" in by_name:
        out["topology.weights_ms"] = (per_step_ms("topology.weigh_edges"), "ms")
    out["topology.tree_ms"] = (per_step_ms("topology.tree"), "ms")
    out["topology.tree_churn"] = (
        sum(r.tree_churn * r.steps for r in runs) / sum(r.steps for r in runs), "count")
    out["topology.occluded_tree_edge_steps"] = (
        mean([r.occluded_tree_edge_steps for r in runs]), "count/run")

    assembled = in_steps("barriers.assemble_system")
    if assembled:
        out["barriers.assemble_ms"] = (per_step_ms("barriers.assemble_system"), "ms")
        for key in ("rows",) + tuple(f"rows_{f}" for f in FAMILIES):
            out[f"barriers.{key}"] = (mean([s.counts[key] for s in assembled]), "count")
        violable = sum(s.counts["violable"] for s in assembled)
        out["barriers.rows_violable"] = (violable / len(assembled), "count")
        out["barriers.useful_row_ratio"] = (
            violable / max(sum(s.counts["rows"] for s in assembled), 1), "ratio")
    min_h = min((r.min_h_los for r in runs), default=math.inf)
    # No boundary samples means no LOS rows and no margin to report.
    out["barriers.min_h_los"] = (min_h if math.isfinite(min_h) else 0.0, "dimensionless")

    solves = in_steps("qp.solve")
    if solves:
        ms = [1e3 * s.duration for s in solves]
        its = [s.counts["iterations"] for s in solves]
        passes = [[c for c in children[id(s)] if c.name == "qp.dense_rows"] for s in solves]
        out["qp.solve_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
        out["qp.solve_ms_p90"] = (float(np.percentile(ms, 90)), "ms")
        out["qp.iterations"] = (mean(its), "count/solve")
        out["qp.iterations_p90"] = (float(np.percentile(its, 90)), "count/solve")
        out["qp.outer_passes"] = (mean([len(p) for p in passes]), "count/solve")
        out["qp.working_set"] = (
            mean([p[-1].counts["rows"] if p else 0 for p in passes]), "count/solve")
        out["qp.active_rows"] = (mean([s.counts["active"] for s in solves]), "count/solve")
    if "qp.residuals" in by_name:
        out["qp.residual_rows"] = (per_step_count("qp.residuals", "rows"), "count")
    out["qp.kkt_failures"] = (tracer.kkt_ok.count(False) / n_runs, "count/run")
    untraced = [s.duration for s in by_name.get(UNTRACED_STEP, ())]
    if steps and untraced:
        ratio = np.median([s.duration for s in steps]) / np.median(untraced)
        out["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    return out
