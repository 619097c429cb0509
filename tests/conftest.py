"""Session-scoped fixtures for the aircraft case study.

The expensive artifacts (attractor box estimation, gain synthesis, 60 s
closed-loop runs) come from one ``reproduce(cfg)``, as in ``reproduce-paper``.
"""

import io

import numpy as np
import pytest

import chaosmask as cm

#: Filled by the acceptance suite; echoed after the run so the one-line
#: verdict per criterion always reaches the terminal.
ACCEPTANCE_VERDICTS: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
from chaosmask.cli import build_scenario, prepare_case, reproduce


@pytest.fixture(scope="session")
def cfg():
    return cm.load_scenario_file("b747")


@pytest.fixture(scope="session")
def plant(cfg):
    return cm.build_plant(cfg)


@pytest.fixture(scope="session")
def repro(cfg):
    """The case study as ``reproduce-paper`` computes it; the fixtures below view it."""
    return reproduce(cfg)


@pytest.fixture(scope="session")
def mask_unscaled(repro):
    return repro.mask_unscaled


@pytest.fixture(scope="session")
def case_scaled(repro):
    """(plant, calibrated scaled mask, extended system)."""
    return repro.plant, repro.mask, repro.ext


@pytest.fixture(scope="session")
def mask_scaled(case_scaled):
    return case_scaled[1]


@pytest.fixture(scope="session")
def ext_scaled(case_scaled):
    return case_scaled[2]


@pytest.fixture(scope="session")
def gain(repro):
    return repro.gain


@pytest.fixture(scope="session")
def report_unscaled(repro):
    return repro.report_unscaled


@pytest.fixture(scope="session")
def report_scaled(repro):
    return repro.report_scaled


@pytest.fixture(scope="session")
def trace_clean_masked(repro):
    return repro.contrasts["none"]["masked"][1]


@pytest.fixture(scope="session")
def eavesdrop_runs(repro):
    """{'masked': trace, 'unmasked': trace} under the passive eavesdropper."""
    return {side: run[0] for side, run in repro.contrasts["eavesdrop"].items()}


@pytest.fixture(scope="session")
def replay_runs(repro):
    """Attacked/clean/threshold triples for the replay contrast."""
    return repro.contrasts["replay"]


@pytest.fixture(scope="session")
def fdi_runs(repro):
    """Attacked/clean/threshold triples for the FDI contrast (M = 0.5)."""
    return repro.contrasts["fdi"]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


def _savetxt_csv(cols) -> bytes:
    """The bytes ``np.savetxt`` writes for ``[(name, column), ...]`` at
    ``%.17g``: the reference that ``write_csvs`` must match."""
    buf = io.BytesIO()
    np.savetxt(buf, np.column_stack([col for _, col in cols]), fmt="%.17g", delimiter=",",
               header=",".join(name for name, _ in cols), comments="")
    return buf.getvalue()


@pytest.fixture(scope="session")
def savetxt_csv():
    return _savetxt_csv


def _small_scenario_text():
    return """\
name: toy
plant:
  A:
    - [0.0, 1.0]
    - [-2.0, -3.0]
  B:
    - [0.0]
    - [1.0]
  C:
    - [1.0, 0.0]
    - [0.0, 1.0]
    - [1.0, 1.0]
controller:
  K:
    - [1.0, 1.0]
unmasked_gain:
  - [1.0, 0.0, 0.0]
  - [0.0, 1.0, 0.0]
mask:
  type: rossler_p4
  a: 0.5
  b: 0.5
  beta: 10.0
  Lambda:
    - [1.0, 0.0, 0.0]
    - [0.0, 2.0, 1.0]
    - [0.0, 0.0, 1.0]
  xi0: [0.1, 0.3, 0.0]
  box: {t_settle: 20.0, t_obs: 30.0, margin: 0.2, dt: 0.001}
  lipschitz: {grid_per_axis: 11}
observer:
  synthesize: true
detector:
  calibrate_safety: 4.0
attacks:
  replay: {tau: 1.0, t_start: 3.0}
  fdi: {M: 0.2, t_start: 2.0, direction: [1.0, 0.0, 0.0], shape: constant}
  eavesdrop: {}
integration: {dt: 0.001, t_end: 5.0, t_settle: 2.0}
initial:
  x0: [0.2, -0.1]
  xhat0: [0.0, 0.0]
  xihat0: [0.0, 0.0, 0.0]
reference:
  x_ref: [0.5, 0.0]
"""


@pytest.fixture(scope="session")
def small_scenario_path(tmp_path_factory):
    """A fast-running scenario file for CLI and loader tests."""
    path = tmp_path_factory.mktemp("scen") / "toy.yaml"
    path.write_text(_small_scenario_text())
    return path


@pytest.fixture(scope="session")
def small_scenario_text():
    return _small_scenario_text()


@pytest.fixture(scope="session")
def toy_cfg(small_scenario_path):
    return cm.load_scenario_file(str(small_scenario_path))


@pytest.fixture(scope="session")
def toy_scenario(toy_cfg):
    """Scenario factory for the toy file: ``toy_scenario(masked, attack)``.

    The masked runs share one calibrated mask and synthesized gain.
    """
    _, mask, ext = prepare_case(toy_cfg)
    gain = cm.synthesize_gain(ext)

    def make(masked: bool, attack: str = "none"):
        return build_scenario(toy_cfg, masked, attack, mask=mask, observer=gain)
    return make
