"""The names and arguments the benchmark's tracer (``perfbench/tracer.py``)
relies on.  A wrapped site the package no longer has is skipped by the tracer
and its metrics read as unmeasured, so a rename would go unnoticed there."""

import importlib.util
import inspect
from pathlib import Path

import chaosmask
from chaosmask import models, scenario_file, sim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves():
    tracer = load_tracer()
    for module_path, attr, name, _ in tracer.SITES:
        target = tracer.Tracer(chaosmask)._target(module_path)
        assert callable(inspect.getattr_static(target, attr)), (module_path, attr, name)


def test_run_and_box_attributes_bind(toy_scenario):
    tracer = load_tracer()
    s = toy_scenario(True, "fdi")
    attrs = tracer._run_attrs(sim.run_scenario)
    want = {"mode": "masked-fdi", "steps": 5000}
    assert attrs((s,), {}, None) == want
    assert attrs((), {"s": s}, None) == want
    assert list(inspect.signature(sim.run_scenario).parameters) == ["s"]
    # The box site wraps the name scenario_file imports; _box_attrs binds its
    # signature and reads t_settle, t_obs and dt.
    box = scenario_file.estimate_invariant_box
    assert box is models.estimate_invariant_box
    attrs = tracer._box_attrs(box)
    assert attrs((s.mask, s.xi0), {"t_settle": 2.0, "t_obs": 3.0, "dt": 1e-3}, None) \
        == {"steps": 5000}
    steps = int(round(5.0 / models.DEFAULT_DT))
    assert attrs((s.mask, s.xi0, 2.0, 3.0), {}, None) == {"steps": steps}
