"""Spans around the calls into each buqo layer, installed at run time.

The tracer rebinds the public functions and methods of each layer, in
every buqo module that holds a reference to them, to wrappers that
record a span: name, start, end, parent span, test id and what the call
returned that is worth counting (iterations, convergence, stop reason,
bytes written). Leaf calls, the operators' forward/adjoint maps and the
closed-form projections, are too many for spans and are aggregated
into a call count and summed busy time instead. Spans stay in memory
until the run ends. ``uninstall`` restores every original binding, the
forward/adjoint maps of the operators built while tracing included.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import buqo
import buqo.cli
import buqo.credible_region
import buqo.engine
import buqo.io
import buqo.map_solver
import buqo.operators
import buqo.prox
import buqo.sim
import buqo.structure_sets
from buqo import _pd

# fields of a span record
NAME, START, END, PARENT, TEST, INFO = range(6)


def _iters_converged(result):
    return {"iters": result[3], "converged": bool(result[2])}


def _map_info(result):
    return {"iters": result[1].iterations, "converged": bool(result[1].converged)}


def _outer_info(result):
    return {"iters": result[2], "stop": result[3]}


def _test_name(t: int, test_names: list[str]) -> str:
    return test_names[t] if t < len(test_names) else f"test{t}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.test: int | None = None
        self.n_tests = 0
        self.leaf = defaultdict(lambda: [0, 0.0])   # key -> [calls, busy s]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, info=None, args_info=None, opens_test=None):
        """Span wrapper. ``opens_test``: "always" starts a new test id at
        each call, "outermost" only when no test is open."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            outer_test = tracer.test
            if opens_test == "always" or (opens_test == "outermost" and outer_test is None):
                tracer.test = tracer.n_tests
                tracer.n_tests += 1
            rec = [name, 0.0, 0.0, parent, tracer.test, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
                tracer.test = outer_test
            if info is not None:
                rec[INFO] = info(result)
            elif args_info is not None:
                rec[INFO] = args_info(args)
            return result

        return wrapper

    def _leaf(self, key, fn):
        acc = self.leaf[key]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += perf_counter() - start

        return wrapper

    def _timed_factory(self, key, factory):
        """Wrap the forward/adjoint maps of every LinearMap ``factory`` returns."""
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            op = factory(*args, **kwargs)
            for attr, suffix in (("forward", "fwd"), ("adjoint", "adj")):
                original = getattr(op, attr)
                tracer._undo.append((op, attr, original))
                setattr(op, attr, tracer._leaf(f"{key}.{suffix}", original))
            return op

        return wrapper

    def _rebind(self, original, replacement):
        """Point every buqo module's reference to ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "buqo" or mod_name.startswith("buqo.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        cr, ss, eng = buqo.credible_region, buqo.structure_sets, buqo.engine
        spans = [
            ("cli.main", buqo.cli.main, {}),
            ("sim.build_problem", buqo.sim.build_problem, {}),
            ("engine.run_buqo", eng.run_buqo, {"opens_test": "always"}),
            ("engine.run_pocs", eng.run_pocs, {"info": _outer_info}),
            ("engine.run_fb_distance", eng.run_fb_distance, {"info": _outer_info}),
            ("map_solver.solve_map", buqo.map_solver.solve_map,
             {"info": _map_info, "opens_test": "outermost"}),
            ("credible_region.build_region", cr.build_region, {}),
            ("structure_sets.build_localized_set", ss.build_localized_set, {}),
            ("structure_sets.build_background_set", ss.build_background_set, {}),
            ("structure_sets.project_background", ss.project_background, {}),
            ("_pd.project_intersection", _pd.project_intersection,
             {"info": _iters_converged}),
            ("operators.op_norm", buqo.operators.op_norm, {}),
        ]
        for name, fn, kw in spans:
            self._rebind(fn, self._span(name, fn, **kw))
        for name in ("read_image", "read_mask", "read_pattern", "read_measurements",
                     "read_structure_spec", "read_outcome", "read_config"):
            fn = getattr(buqo.io, name)
            self._rebind(fn, self._span(f"io.{name}", fn))
        for name in ("write_image", "write_mask", "write_pattern", "write_measurements",
                     "write_structure_spec", "write_outcome", "write_config",
                     "write_manifest"):
            fn = getattr(buqo.io, name)
            self._rebind(fn, self._span(f"io.{name}", fn,
                                        args_info=lambda a: {"bytes": os.path.getsize(a[0])}))
        for cls, name in ((cr.RegionProjector, "credible_region.RegionProjector"),
                          (ss.StructureProjector, "structure_sets.StructureProjector")):
            self._patch_method(cls, "__call__", self._span(
                f"{name}.__call__", cls.__call__,
                args_info=lambda a: {"converged": bool(a[0].converged)}))
        for key, factory in (("psi", buqo.operators.db8_analysis),
                             ("phi", buqo.operators.masked_dft),
                             ("residual", buqo.operators.residual_map)):
            self._rebind(factory, self._timed_factory(key, factory))
        for key, fn in (("l1", buqo.prox.project_l1_levelset),
                        ("l2", buqo.prox.project_l2_ball),
                        ("box", buqo.prox.project_box)):
            self._rebind(fn, self._leaf(key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reports ----------------------------------------------------------

    def _children_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        return child

    def layer_metrics(self) -> dict:
        """Per-layer metrics, named as in BENCHMARK.json, from spans and leaves."""
        spans, child = self.spans, self._children_time()
        by = defaultdict(list)
        for i, rec in enumerate(spans):
            by[rec[NAME]].append(i)

        def dur(i):
            return spans[i][END] - spans[i][START]

        def infos(*names):
            # a call that raised has no info
            return [spans[i][INFO] for n in names for i in by[n]
                    if spans[i][INFO] is not None]

        def total(*names):
            return sum(dur(i) for n in names for i in by[n])

        def self_time(name):
            return sum(dur(i) - child[i] for i in by[name])

        def per(num, den, scale):
            return num * scale / den if den else 0.0

        def inner(projector):
            """Primal-dual iterations run inside a projector's calls."""
            parents = set(by[projector])
            return sum(spans[i][INFO]["iters"] for i in by["_pd.project_intersection"]
                       if spans[i][PARENT] in parents and spans[i][INFO] is not None)

        m = {}
        for key in ("psi", "phi", "residual"):
            (fc, fb), (ac, ab) = self.leaf[f"{key}.fwd"], self.leaf[f"{key}.adj"]
            m[f"operators.{key}.fwd_us"] = per(fb, fc, 1e6)
            m[f"operators.{key}.adj_us"] = per(ab, ac, 1e6)
            m[f"operators.{key}.calls"] = fc + ac
            m[f"operators.{key}.busy_s"] = fb + ab
        m["operators.norm_est_s"] = total("operators.op_norm")
        for key in ("l1", "l2", "box"):
            calls, busy = self.leaf[key]
            m[f"prox.{key}.us"] = per(busy, calls, 1e6)
            m[f"prox.{key}.calls"] = calls

        pd = infos("_pd.project_intersection")
        pd_iters = sum(p["iters"] for p in pd)
        m["pd.iters"] = pd_iters
        m["pd.us_per_iter"] = per(total("_pd.project_intersection"), pd_iters, 1e6)
        m["pd.unconverged_calls"] = sum(not p["converged"] for p in pd)

        maps = infos("map_solver.solve_map")
        map_iters = sum(p["iters"] for p in maps)
        m["map_solver.solve_s"] = total("map_solver.solve_map")
        m["map_solver.iters"] = map_iters
        m["map_solver.ms_per_iter"] = per(m["map_solver.solve_s"], map_iters, 1e3)
        m["map_solver.unconverged"] = sum(not p["converged"] for p in maps)

        for layer, builders, projectors in (
                ("credible_region", ("credible_region.build_region",),
                 ("credible_region.RegionProjector.__call__",)),
                ("structure_sets", ("structure_sets.build_localized_set",
                                    "structure_sets.build_background_set"),
                 ("structure_sets.StructureProjector.__call__",
                  "structure_sets.project_background"))):
            m[f"{layer}.build_s"] = total(*builders)
            m[f"{layer}.project_s"] = total(*projectors)
            m[f"{layer}.project_calls"] = sum(len(by[n]) for n in projectors)
            m[f"{layer}.inner_iters"] = sum(inner(n) for n in projectors)
            m[f"{layer}.unconverged_calls"] = sum(
                not c.get("converged", True) for c in infos(*projectors))

        outer = ("engine.run_pocs", "engine.run_fb_distance")
        m["engine.outer_s"] = total(*outer)
        m["engine.self_s"] = sum(self_time(n) for n in outer)
        m["engine.outer_iters"] = sum(o["iters"] for o in infos(*outer))
        m["engine.max_iters_stops"] = sum(
            o["stop"] == buqo.engine.STOP_MAX_ITERS for o in infos(*outer))

        m["sim.build_problem_s"] = total("sim.build_problem")
        reads = [n for n in by if n.startswith("io.read_")]
        writes = [n for n in by if n.startswith("io.write_")]
        m["io.read_s"] = total(*reads)
        m["io.write_s"] = total(*writes)
        m["io.bytes_written"] = sum(w["bytes"] for w in infos(*writes))
        m["cli.self_s"] = self_time("cli.main")
        m["trace.spans"] = len(spans)
        return m

    def test_counts(self, test_names: list[str]) -> dict:
        """Exact per-test counts: MAP, outer and inner iterations, stops."""
        counts: dict = {}
        projector_kind = {}
        for i, rec in enumerate(self.spans):
            if rec[TEST] is None:
                continue
            t = _test_name(rec[TEST], test_names)
            if rec[INFO] is None and rec[NAME] in ("map_solver.solve_map",
                                                    "engine.run_pocs", "engine.run_fb_distance",
                                                    "_pd.project_intersection"):
                continue   # the call raised
            if rec[NAME] == "map_solver.solve_map":
                counts[f"{t}.map_iters"] = rec[INFO]["iters"]
            elif rec[NAME] in ("engine.run_pocs", "engine.run_fb_distance"):
                counts[f"{t}.outer_iters"] = rec[INFO]["iters"]
                counts[f"{t}.stop_reason"] = rec[INFO]["stop"]
                for kind in ("region", "set"):
                    counts.setdefault(f"{t}.{kind}_inner_iters", 0)
                counts.setdefault(f"{t}.unconverged_inner", 0)
            elif rec[NAME] == "credible_region.RegionProjector.__call__":
                projector_kind[i] = "region"
            elif rec[NAME] == "structure_sets.StructureProjector.__call__":
                projector_kind[i] = "set"
            elif rec[NAME] == "_pd.project_intersection" and rec[PARENT] in projector_kind:
                key = f"{t}.{projector_kind[rec[PARENT]]}_inner_iters"
                counts[key] = counts.get(key, 0) + rec[INFO]["iters"]
                if not rec[INFO]["converged"]:
                    key = f"{t}.unconverged_inner"
                    counts[key] = counts.get(key, 0) + 1
        return counts

    def span_records(self, test_names: list[str]) -> list[dict]:
        return [{"name": r[NAME], "start": r[START], "end": r[END], "parent": r[PARENT],
                 "test": None if r[TEST] is None else _test_name(r[TEST], test_names),
                 "info": r[INFO]} for r in self.spans]
