"""Span tracing of the mfaclab layers, from outside the package.

``installed(tracer)`` replaces each traced public function by a wrapper in
every ``mfaclab`` module namespace that binds it (``cli`` imports
``simulate`` and ``ik_solve`` by name, ``plant`` imports ``mfac_step``, ...),
so every call site goes through the wrapper; on exit the originals come
back.  A wrapper records a span: name, start, end and the span that was open
when it started.  Self time is a span's duration minus the durations of its
child spans.  Counts come from the returned ``ControlDecision``, ``IKResult``
and ``SimLog`` objects.  A traced name that the package no longer has is
skipped, and its metrics read 0.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Metric prefix -> (module, attribute path).  Methods are patched on their class.
TRACED = {
    "plant.simulate": ("mfaclab.plant", "simulate"),
    "plant.to_csv": ("mfaclab.plant", "SimLog.to_csv"),
    "edlm.pjm_first_order": ("mfaclab.edlm", "pjm_first_order"),
    "edlm.pjm_second_order": ("mfaclab.edlm", "pjm_second_order"),
    "controller.mfac_step": ("mfaclab.controller", "mfac_step"),
    "controller.mfac_quartic_step": ("mfaclab.controller", "mfac_quartic_step"),
    "controller.mfac_constrained_step": ("mfaclab.controller", "mfac_constrained_step"),
    "analysis.closed_loop_matrix": ("mfaclab.analysis", "closed_loop_matrix"),
    "analysis.stability_check": ("mfaclab.analysis", "stability_check"),
    "analysis.ramp_static_error": ("mfaclab.analysis", "ramp_static_error"),
    "analysis.step_static_error": ("mfaclab.analysis", "step_static_error"),
    "kinematics.ik_solve": ("mfaclab.kinematics", "ik_solve"),
    "kinematics.ik_step": ("mfaclab.kinematics", "ik_step"),
    "kinematics.forward_kinematics": ("mfaclab.kinematics", "forward_kinematics"),
    "kinematics.task_jacobian": ("mfaclab.kinematics", "task_jacobian"),
    "kinematics.condition_number": ("mfaclab.kinematics", "condition_number"),
    "pathgen.generate_path": ("mfaclab.pathgen", "generate_path"),
    "pathgen.quat_geodesic": ("mfaclab.pathgen", "quat_geodesic"),
    "cli.main": ("mfaclab.cli", "main"),
}
# Model evaluations: the evaluate method of every plant class in mfaclab.plant.
EVALUATE = "plant.evaluate"
# RegressorWindow constructions are counted, not timed.
WINDOWS = "edlm.windows"
# The tail latency is the sample with this many samples above it.
TAIL_BEYOND = 10


class Tracer:
    """Spans kept in flat arrays; name ids index ``names``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, kwargs, result, exc)`` sees each outcome."""
        nid = self.name_id(name)
        span_name, span_parent, start, end, open_spans = (
            self.span_name, self.span_parent, self.start, self.end, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            span_parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            finally:
                end[idx] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, np.ndarray]]:
        """Calls, self time and span durations per name."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: dur[names == i] for i, n in enumerate(self.names)},
        )


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the package no longer has it."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _observers(tracer: Tracer) -> dict:
    counts = tracer.counts
    controller = sys.modules["mfaclab.controller"]
    errors = sys.modules["mfaclab.errors"]
    simulate = _resolve("mfaclab.plant", "simulate")
    signature = inspect.signature(simulate[2]) if simulate else None

    def on_simulate(args, kwargs, log, exc):
        if isinstance(exc, errors.DivergenceError):
            counts["plant.divergences"] += 1
            log = exc.log
        if log is None:
            return
        k0 = signature.bind(*args, **kwargs).arguments["init"].k
        # Pre-history rows come first; a finished run adds a final row that
        # carries no control decision.
        counts["plant.control_steps"] += len(log) - (k0 - 1) - (exc is None)

    def on_quartic(args, kwargs, decision, exc):
        if decision is not None:
            counts["controller.quartic_passes"] += decision.iterations
            counts["controller.quartic_capouts"] += not decision.converged

    def on_constrained(args, kwargs, decision, exc):
        if decision is not None:
            counts["controller.constrained_sweeps"] += decision.iterations
            counts["controller.constrained_capouts"] += decision.iterations >= controller.SWEEP_MAX

    def on_ik(args, kwargs, result, exc):
        if result is not None:
            counts["kinematics.ik_iterations"] += result.iterations
            counts["kinematics.ik_converged"] += bool(result.converged)

    return {
        "plant.simulate": on_simulate,
        "controller.mfac_quartic_step": on_quartic,
        "controller.mfac_constrained_step": on_constrained,
        "kinematics.ik_solve": on_ik,
    }


@contextlib.contextmanager
def installed(tracer: Tracer, traced: dict = TRACED):
    """Route every traced function, plant evaluation and window construction through ``tracer``."""
    observers = _observers(tracer)
    undo = []
    package = [m for n, m in list(sys.modules.items()) if n == "mfaclab" or n.startswith("mfaclab.")]
    try:
        for name, (module_name, path) in traced.items():
            tracer.name_id(name)
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = tracer.wrap(name, original, observers.get(name))
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, k) for m in package for k, v in vars(m).items() if v is original]
            for target, key in bindings:
                setattr(target, key, wrapper)
                undo.append((target, key, original))
        tracer.name_id(EVALUATE)
        plant, edlm = sys.modules["mfaclab.plant"], sys.modules["mfaclab.edlm"]
        for cls in vars(plant).values():
            if isinstance(cls, type) and issubclass(cls, edlm.DifferentiableModel) and "evaluate" in vars(cls):
                original = vars(cls)["evaluate"]
                setattr(cls, "evaluate", tracer.wrap(EVALUATE, original))
                undo.append((cls, "evaluate", original))
        window = edlm.RegressorWindow
        original = vars(window)["__post_init__"]
        setattr(window, "__post_init__", tracer.counted(WINDOWS, original))
        undo.append((window, "__post_init__", original))
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcome) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``outcome`` is that pass's check result."""
    calls, self_s, durations = tracer.totals()
    c = tracer.counts
    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    steps = c["plant.control_steps"]
    m["plant.control_steps"] = steps
    m["plant.evals_per_step"] = _ratio(calls.get(EVALUATE, 0), steps)
    m["plant.divergences"] = c["plant.divergences"]
    m["edlm.windows_per_step"] = _ratio(c[WINDOWS], steps)
    for key in ("quartic_passes", "quartic_capouts", "constrained_sweeps", "constrained_capouts"):
        m[f"controller.{key}"] = c[f"controller.{key}"]
    m["analysis.verdicts_per_loop"] = _ratio(calls.get("analysis.stability_check", 0), outcome.loops)
    ik = np.sort(durations.get("kinematics.ik_solve", np.zeros(0))) * 1e6
    m["kinematics.ik_solve.p50_us"] = float(np.median(ik)) if ik.size else 0.0
    m["kinematics.ik_solve.tail_us"] = float(ik[-TAIL_BEYOND - 1]) if ik.size > TAIL_BEYOND else 0.0
    solves = calls.get("kinematics.ik_solve", 0)
    m["kinematics.ik_iterations"] = c["kinematics.ik_iterations"]
    m["kinematics.ik_cap_hits"] = solves - c["kinematics.ik_converged"]
    m["kinematics.ik_converged_ratio"] = _ratio(c["kinematics.ik_converged"], solves)
    m["kinematics.fk_per_iteration"] = _ratio(
        calls.get("kinematics.forward_kinematics", 0), c["kinematics.ik_iterations"])
    m["cli.bytes_written"] = outcome.bytes_written
    return m
