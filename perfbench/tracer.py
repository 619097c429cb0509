"""Layer spans recorded from outside the program.

The tracer replaces public functions of the ``chaosmask`` modules with
wrappers that record a span (name, start, end, parent span, op id) per call.
Each wrapper is installed at the name its callers look it up by: ``cli``
imports ``run_scenario`` and ``synthesize_gain`` by name, ``synthesis``
calls ``solve_riccati_stabilizing`` and ``min_singular_value_freq`` through
its own globals, and the benchmark's workloads call through the defining
module's attribute.  Nothing runs concurrently, so a layer's self time is
the time of its spans minus the time of their child spans, and the layers'
self times add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("scenario_file", "models", "numerics", "synthesis", "attacks", "sim", "cli")

#: Layers each workload drives; a mapped layer whose wrappers record no call
#: is reported as unmeasured.
MAPPED_LAYERS = {
    "paper": set(LAYERS),
    "design-scan": {"scenario_file", "models", "numerics", "synthesis"},
    "ensemble": {"sim"},
}

SIM_MODES = tuple(f"{m}-{a}" for m in ("masked", "unmasked")
                  for a in ("none", "eavesdrop", "replay", "fdi"))

_ATTACK_NAMES = {"NoAttack": "none", "EavesdropAttack": "eavesdrop",
                 "ReplayAttack": "replay", "FdiAttack": "fdi"}


def _box_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return {"steps": int(round((a["t_settle"] + a["t_obs"]) / a["dt"]))}
    return attrs


def _run_attrs(fn):
    def attrs(args, kwargs, result):
        s = args[0] if args else kwargs["s"]
        mode = ("masked" if s.mask is not None else "unmasked") + "-" \
            + _ATTACK_NAMES[type(s.attack).__name__]
        return {"mode": mode, "steps": int(round(s.t_end / s.dt))}
    return attrs


def _csv_attrs(fn):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}
    return attrs


def _lmi_attrs(fn):
    def attrs(args, kwargs, result):
        return {"certified": result < 0}
    return attrs


#: Marks a site called so often (about 2000 times per delta) that one span
#: object per call would double the traced time.  Its calls are counted and
#: timed per parent span instead, and still count as the parent's children.
HOT = "hot"

#: (module, attribute, span name, attribute recorder factory, HOT or None).  A
#: function appears once per module whose globals its callers use.
SITES = (
    ("cli", "load_scenario_file", "scenario_file.load_scenario_file", None),
    ("cli", "build_plant", "scenario_file.build_plant", None),
    ("cli", "build_mask", "scenario_file.build_mask", None),
    ("cli", "calibrate_mask", "scenario_file.calibrate_mask", None),
    ("cli", "build_extended", "models.build_extended", None),
    ("cli", "distance_to_unobservability", "synthesis.distance_to_unobservability", None),
    ("cli", "synthesize_gain", "synthesis.synthesize_gain", None),
    ("cli", "verify_gain", "synthesis.verify_gain", None),
    ("cli", "run_scenario", "sim.run_scenario", _run_attrs),
    ("cli", "calibrate_threshold", "sim.calibrate_threshold", None),
    ("cli", "stealthiness_metric", "attacks.stealthiness_metric", None),
    ("cli", "eavesdrop_error_bound", "attacks.eavesdrop_error_bound", None),
    ("cli", "run_with_detection", "cli.run_with_detection", None),
    ("scenario_file", "load_scenario_file", "scenario_file.load_scenario_file", None),
    ("scenario_file", "build_plant", "scenario_file.build_plant", None),
    ("scenario_file", "build_mask", "scenario_file.build_mask", None),
    ("scenario_file", "calibrate_mask", "scenario_file.calibrate_mask", None),
    ("scenario_file", "estimate_invariant_box", "models.estimate_invariant_box", _box_attrs),
    ("scenario_file", "estimate_lipschitz", "models.estimate_lipschitz", None),
    ("models", "build_extended", "models.build_extended", None),
    ("synthesis", "min_singular_value_freq", "numerics.min_singular_value_freq", HOT),
    ("synthesis", "solve_riccati_stabilizing", "numerics.solve_riccati_stabilizing", None),
    ("synthesis", "is_negative_definite", "numerics.is_negative_definite", None),
    ("synthesis", "verify_lmi", "synthesis.verify_lmi", _lmi_attrs),
    ("synthesis", "distance_to_unobservability", "synthesis.distance_to_unobservability", None),
    ("synthesis", "synthesize_gain", "synthesis.synthesize_gain", None),
    ("synthesis", "verify_gain", "synthesis.verify_gain", None),
    ("numerics", "solve_lyapunov", "numerics.solve_lyapunov", None),
    ("sim", "build_extended", "models.build_extended", None),
    ("sim", "run_scenario", "sim.run_scenario", _run_attrs),
    ("sim.SimTrace", "to_csv", "sim.SimTrace.to_csv", _csv_attrs),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "error")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op = parent, op
        self.attrs = None
        self.error = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        row = [self.name, self.start, self.end, self.parent, self.op]
        if self.attrs or self.error:
            row.append(dict(self.attrs or {}, **({"error": self.error} if self.error else {})))
        return row


class Tracer:
    """Records spans while installed; ``op`` opens the root span of one op.

    ``aggregates`` maps (name, parent span index) of a HOT site to
    ``[calls, seconds]``.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[str, int], list] = {}
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _target(self, module_path: str):
        obj = self.package
        for part in module_path.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap_hot(self, fn, name):
        aggregates, stack = self.aggregates, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name, stack[-1] if stack else -1)
                rec = aggregates.get(key)
                if rec is None:
                    rec = aggregates[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
        return wrapper

    def _wrap(self, fn, name, attrs_factory):
        if attrs_factory == HOT:
            return self._wrap_hot(fn, name)
        spans, stack = self.spans, self._stack
        record_attrs = attrs_factory(fn) if attrs_factory else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if record_attrs:
                span.attrs = record_attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every site; a site the program no longer has is skipped, and the
        metrics that depend on it then read as unmeasured."""
        self.missing = []
        for module_path, attr, name, attrs_factory in SITES:
            try:
                target = self._target(module_path)
                original = inspect.getattr_static(target, attr)
            except AttributeError:
                self.missing.append(f"{module_path}.{attr}")
                continue
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, attrs_factory))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: str, name: str):
        """Root span of one op; every span recorded inside carries ``op_id``."""
        self._op = op_id
        span = Span(name, perf_counter(), -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._op = None

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.row()) + "\n")
            for (name, parent), (n, seconds) in self.aggregates.items():
                fh.write(json.dumps(["aggregate", name, parent, n, seconds]) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced jobs."""

    def op(self, op_id: str, name: str):
        return contextlib.nullcontext()


def layer_metrics(spans: list[Span], aggregates: dict, n_jobs: int,
                  workload: str) -> tuple[dict, list]:
    """Per-job layer metrics from the spans and aggregates of ``n_jobs`` traced jobs.

    Returns ``(metrics, unmeasured)``: metrics map a name to ``(value, unit)``;
    a metric whose layer the workload drives but whose wrappers recorded no
    call reads -1 and is listed in ``unmeasured``.
    """
    calls, total = Counter(), defaultdict(float)
    self_time = defaultdict(float)
    child = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    for i, span in enumerate(spans):
        calls[span.name] += 1
        total[span.name] += span.duration
        self_time[span.layer] += span.duration - child[i]
    for (name, parent), (n, seconds) in aggregates.items():
        calls[name] += n
        total[name] += seconds
        self_time[name.split(".", 1)[0]] += seconds
        if parent >= 0:
            self_time[spans[parent].layer] -= seconds

    def named(name):
        return [s for s in spans if s.name == name]

    box = named("models.estimate_invariant_box")
    box_steps = sum(s.attrs["steps"] for s in box if s.attrs)
    runs = [s for s in named("sim.run_scenario") if s.attrs]
    csvs = [s for s in named("sim.SimTrace.to_csv") if s.attrs]
    riccati = named("numerics.solve_riccati_stabilizing")
    certified = sum(1 for s in named("synthesis.verify_lmi") if s.attrs and s.attrs["certified"])
    per = 1.0 / n_jobs
    both = {"paper", "design-scan"}
    box_n = ("models.estimate_invariant_box",)
    lip_n = ("models.estimate_lipschitz",)
    run_n = ("sim.run_scenario",)
    csv_n = ("sim.SimTrace.to_csv",)
    delta_n = ("synthesis.distance_to_unobservability",)
    synth_n = ("synthesis.synthesize_gain",)
    ric_n = ("numerics.solve_riccati_stabilizing",)
    lmi_n = ("synthesis.verify_lmi",)

    # (metric, unit, value, spans that must record calls, workloads that drive them)
    rows = [
        ("models.box_calls", "count", calls[box_n[0]] * per, box_n, {"paper"}),
        ("models.box_steps", "count", box_steps * per, box_n, {"paper"}),
        ("models.box_s", "s", total[box_n[0]] * per, box_n, {"paper"}),
        ("models.box_us_per_step", "us",
         1e6 * total[box_n[0]] / box_steps if box_steps else 0.0, box_n, {"paper"}),
        ("models.lipschitz_calls", "count", calls[lip_n[0]] * per, lip_n, both),
        ("models.lipschitz_s", "s", total[lip_n[0]] * per, lip_n, both),
        ("sim.runs", "count", len(runs) * per, run_n, {"paper", "ensemble"}),
        ("sim.steps", "count", sum(s.attrs["steps"] for s in runs) * per, run_n,
         {"paper", "ensemble"}),
        ("sim.run_s", "s", sum(s.duration for s in runs) * per, run_n, {"paper", "ensemble"}),
    ]
    for mode in SIM_MODES:
        sel = [s for s in runs if s.attrs["mode"] == mode]
        steps = sum(s.attrs["steps"] for s in sel)
        rows.append((f"sim.us_per_step.{mode}", "us",
                     1e6 * sum(s.duration for s in sel) / steps if steps else 0.0,
                     run_n, {"paper", "ensemble"} if mode == "masked-none" else {"paper"}))
    rows += [
        ("sim.csv_calls", "count", len(csvs) * per, csv_n, {"paper"}),
        ("sim.csv_s", "s", sum(s.duration for s in csvs) * per, csv_n, {"paper"}),
        ("sim.csv_mb", "MB", sum(s.attrs["bytes"] for s in csvs) / 1e6 * per, csv_n, {"paper"}),
        ("synthesis.delta_calls", "count", calls[delta_n[0]] * per, delta_n, both),
        ("synthesis.delta_s", "s", total[delta_n[0]] * per, delta_n, both),
        ("numerics.sigma_min_calls", "count",
         calls["numerics.min_singular_value_freq"] * per, delta_n, both),
        ("synthesis.synth_calls", "count", calls[synth_n[0]] * per, synth_n, both),
        ("synthesis.synth_s", "s", total[synth_n[0]] * per, synth_n, both),
        ("synthesis.infeasible", "count",
         sum(1 for s in named(synth_n[0]) if s.error == "InfeasibleSynthesisError") * per,
         synth_n, both),
        ("numerics.riccati_calls", "count", len(riccati) * per, ric_n, both),
        ("numerics.riccati_failed", "count", sum(1 for s in riccati if s.error) * per,
         ric_n, both),
        ("synthesis.verify_lmi_calls", "count", calls[lmi_n[0]] * per, lmi_n, both),
        ("synthesis.certified_per_riccati", "ratio",
         certified / len(riccati) if riccati else 0.0, lmi_n, both),
        ("attacks.s", "s",
         (total["attacks.stealthiness_metric"] + total["attacks.eavesdrop_error_bound"]) * per,
         ("attacks.stealthiness_metric", "attacks.eavesdrop_error_bound"), {"paper"}),
        ("scenario_file.load_s", "s", total["scenario_file.load_scenario_file"] * per,
         ("scenario_file.load_scenario_file",), {"paper"}),
        ("cli.run_with_detection_calls", "count", calls["cli.run_with_detection"] * per,
         ("cli.run_with_detection",), {"paper"}),
    ]
    for layer in LAYERS + ("bench",):
        names = tuple(n for n in calls if n.split(".", 1)[0] == layer) or (layer + ".",)
        rows.append((f"{layer}.self_s", "s", self_time[layer] * per, names,
                     {w for w, mapped in MAPPED_LAYERS.items() if layer in mapped}))

    metrics, unmeasured = {}, []
    for name, unit, value, proof, workloads in rows:
        if workload in workloads and not any(calls[n] for n in proof):
            unmeasured.append(name)
            value = -1.0
        metrics[name] = (value, unit)
    return metrics, unmeasured
