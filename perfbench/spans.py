"""Spans and counts at cartanlab's layer boundaries, recorded from outside
the package.

``Tracer.install`` wraps public functions and methods where callers look
them up: a function imported with ``from .ode import integrate`` is
replaced in every cartanlab module that bound it, not only in ``ode``.
``Tracer.remove`` puts every original back.  Nothing under ``src/`` is
edited.

A span is ``(name, start, end, parent, request)``; ``parent`` is the index
of the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def self_times(spans) -> dict[tuple[int, str], float]:
    """Self time per (request, span name): each span's duration minus the
    durations of its direct children.  One thread runs, so children never
    overlap each other and lie inside their parent."""
    child = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for k, (name, t0, t1, _, request) in enumerate(spans):
        out[request, name] += (t1 - t0) - child[k]
    return dict(out)


class Tracer:
    """Records spans and counts for one request at a time."""

    def __init__(self, count_duals: bool = False):
        self.spans: list = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.request = -1
        self.count_duals = count_duals
        self._stack: list[int] = []
        self._restore: list = []
        self._fields: dict[int, tuple[str, object]] = {}

    # -- recording -------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.request][key] += n

    def _open(self, name: str) -> int:
        k = len(self.spans)
        self.spans.append(None)
        self._stack.append(k)
        self.counts[self.request][name + ".calls"] += 1
        return k

    def _close(self, k: int, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[k] = (name, t0, t1, self._stack[-1] if self._stack else -1, self.request)

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            k = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(k, name, t0)
        return traced

    # -- installation ----------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, fn, new) -> None:
        """Replace ``fn`` wherever a cartanlab module binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "cartanlab" or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._rebind(mod, attr, new)

    def install(self) -> None:
        from cartanlab import (algebra, algebroid, cartan, cli, development, dual,
                               geometry, models, ode, transport)

        plain = [
            ("dual.jacobian", dual.jacobian),
            ("geometry.lie_bracket_vf", geometry.lie_bracket_vf),
            ("cartan.cocurvature", cartan.cocurvature),
            ("cartan.curvature_conn", cartan.curvature_conn),
            ("models.build", models.load_model),
            ("models.classify", models.classify_constant_curvature),
            ("transport.transport_matrix", transport.transport_matrix),
            ("transport.monodromy", transport.monodromy),
            ("transport.geodesic", transport.geodesic),
            ("transport.geodesic", transport.geodesic_glued),
            ("development.develop_point", development.develop_point),
            ("development.development_jacobian", development.development_jacobian),
            ("development.integrated_twist", development.integrated_twist),
            ("development.reconstruct_atlas", development.reconstruct_atlas),
            ("algebra.log_matrix", algebra.log_matrix),
            ("algebra.exp_matrix", algebra.exp_matrix),
            ("cli.parse", cli.load_scenario_file),
            ("cli.resolve_model", cli.resolve_model),
            ("cli.render", cli.export_report),
        ]
        for name, fn in plain:
            self._wrap_function(fn, self.span(name, fn))
        self._wrap_function(ode.integrate, self._integrate(ode.integrate))
        self._rebind(ode, "solve_ivp", self._solve_ivp(ode.solve_ivp))
        self._wrap_function(development.bracket_orientation,
                            self._orientation(development, development.bracket_orientation))
        for op, fn in list(cli.CHECKS.items()):
            self._restore.append((cli.CHECKS, op, fn))
            cli.CHECKS[op] = self.span(f"cli.check.{op}", fn)

        ac = algebroid.AlgebroidChart
        self._rebind(ac, "conn", self.span("algebroid.conn", ac.conn))
        self._rebind(ac, "bracket", self._counted("algebroid.bracket.calls", ac.bracket))
        self._rebind(ac, "__post_init__", self._register_fields(ac.__post_init__))
        self._rebind(geometry.SmoothField, "__call__",
                     self._field_call(geometry.SmoothField.__call__, dual.Dual))
        if self.count_duals:
            self._rebind(dual.Dual, "__init__", self._counted("dual.allocs", dual.Dual.__init__))

    def remove(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._fields.clear()

    # -- wrappers with counts beyond calls -------------------------------------

    def _counted(self, key: str, fn):
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    def _integrate(self, fn):
        traced = self.span("ode.integrate", fn)

        def integrate(*args, **kwargs):
            out = traced(*args, **kwargs)
            if out.status == "step_collapse":
                self.count("ode.step_collapses")
            return out
        return integrate

    def _solve_ivp(self, fn):
        def solve_ivp(fun, *args, **kwargs):
            sol = fn(self.span("ode.rhs", fun), *args, **kwargs)
            self.count("ode.rhs_calls", sol.nfev)
            self.count("ode.steps", len(sol.t) - 1)
            return sol
        return solve_ivp

    def _orientation(self, development, fn):
        traced = self.span("development.bracket_orientation", fn)

        def bracket_orientation(chart, *args, **kwargs):
            cache = development._ORIENTATION_CACHE
            self.count("development.orientation_cache.hits", id(chart) in cache)
            before = len(cache)
            out = traced(chart, *args, **kwargs)
            self.count("development.orientation_cache.added", len(cache) - before)
            return out
        return bracket_orientation

    def _register_fields(self, post_init):
        """Note the anchor, gamma and torsion fields of every chart built
        while installed; the entry keeps the field alive, so its id stays
        unique."""
        def __post_init__(chart):
            post_init(chart)
            for kind in ("anchor", "gamma", "torsion"):
                f = getattr(chart, kind)
                self._fields[id(f)] = (kind, f)
        return __post_init__

    def _field_call(self, call, Dual):
        traced = self.span("geometry.field_eval", call)

        def __call__(field, m):
            hit = self._fields.get(id(field))
            if hit is None:
                return call(field, m)
            self.count("geometry.field_evals." + hit[0])
            self.count("geometry.field_evals.dual", isinstance(m[0], Dual))
            return traced(field, m)
        return __call__
