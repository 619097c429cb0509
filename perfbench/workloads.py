"""The benchmark's three workloads: inputs from a seed, ops, and output checks.

Each workload has ``setup(seed, workdir)``, run once per set-up measurement,
and ``job(state, index, tracer)``, which runs one job and returns a
:class:`JobResult`.  Ops only call the package's public functions and the
``chaosmask`` CLI entry point, in this process.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import re
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from chaosmask import cli, models, scenario_file, sim, synthesis
from chaosmask.errors import InfeasibleSynthesisError

import box_record


@dataclass
class JobResult:
    wall_s: float
    op_s: list = field(default_factory=list)
    failed: int = 0


def _fail(op_id: str, message: str) -> None:
    print(f"op {op_id} failed: {message}", file=sys.stderr)


def _bundled_cfg() -> dict:
    return scenario_file.load_scenario_file("b747")


# ---------------------------------------------------------------------------
# paper: the CLI's reproduce-paper on a seed-perturbed b747 file.

#: The generated paper scenario runs every time of the bundled file divided
#: by this: the masker-box settle and observation windows, the closed-loop
#: horizon and settle time, and the replay and FDI timings.  At the bundled
#: times one reproduce-paper takes minutes, longer than one benchmark run may
#: last.  The step stays 1e-3: the certified gain puts an observer
#: eigenvalue near -970, so a coarser RK4 step diverges.
PAPER_TIME_DIVISOR = 20
PAPER_TIMES = (("integration", "t_end"), ("integration", "t_settle"),
               ("box", "t_settle"), ("box", "t_obs"),
               ("replay", "tau"), ("replay", "t_start"), ("fdi", "t_start"))


def _invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run the ``chaosmask`` command in this process; returns (exit code, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main.main(args, prog_name="chaosmask", standalone_mode=False)
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), sink.getvalue()
    return 0, sink.getvalue()


def _sections(summary: str) -> dict[str, str]:
    parts = re.split(r"^== (.+) ==$", summary, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _num(pattern: str, text: str):
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"summary has no match for {pattern!r}")
    return None if m.group(1) == "None" else float(m.group(1))


def paper_problems(out: Path, cfg: dict) -> list[str]:
    """Check reproduce-paper's artifacts against the paper's tolerance windows."""
    sec = _sections((out / "summary.txt").read_text())
    obs, eav = sec["observability and masking scale"], sec["eavesdropping"]
    rep, fdi = sec["replay"], sec["false data injection"]
    problems = []
    delta_u = _num(r"unscaled mask: (\S+)", obs)
    delta_s = _num(r"scaled mask:\s+(\S+)", obs)
    if not 0.3 <= delta_u <= 0.5:
        problems.append(f"unscaled delta {delta_u} outside [0.3, 0.5]")
    if not 0.2 <= delta_s <= 0.4:
        problems.append(f"scaled delta {delta_s} outside [0.2, 0.4]")
    flips = re.findall(r"\(sufficient: (True|False)\)", obs)
    if flips != ["False", "True"]:
        problems.append(f"sufficiency (unscaled, scaled) is {flips}, not False -> True")
    margin = _num(r"certified margin: (\S+)", sec["observer synthesis"])
    if not margin < 0:
        problems.append(f"certified margin {margin} is not negative")
    onset = float(cfg["attacks"]["replay"]["t_start"])
    alarm_u = _num(r"unmasked: nu \S+, first alarm (\S+)", rep)
    alarm_m = _num(r"\nmasked: +nu \S+, first alarm (\S+)", rep)
    if alarm_u is not None:
        problems.append(f"unmasked replay alarmed at {alarm_u}")
    if alarm_m is None or not onset <= alarm_m <= onset + 1.0:
        problems.append(f"masked replay alarm {alarm_m} not within 1 s of onset {onset}")
    sup_u = _num(r"unmasked: sup \|\|delta z\|\| = (\S+)", fdi)
    sup_m = _num(r"\nmasked: +sup \|\|delta z\|\| = (\S+)", fdi)
    M = _num(r"stealth bound M = ([^)\s]+)", fdi)
    if not sup_u <= M + 1e-6:
        problems.append(f"unmasked FDI sup |dz| {sup_u} exceeds M + 1e-6 = {M + 1e-6}")
    if not sup_m > M:
        problems.append(f"masked FDI sup |dz| {sup_m} does not exceed M = {M}")
    eav_u = _num(r"unmasked: eavesdropper terminal error (\S+)", eav)
    eav_m = _num(r"\nmasked: +eavesdropper last-10s mean error (\S+)", eav)
    if not eav_m > 10.0 * eav_u:
        problems.append(f"masked eavesdropper mean {eav_m} not above 10 x {eav_u}")
    rows = int(round(float(cfg["integration"]["t_end"]) / float(cfg["integration"]["dt"]))) + 1
    traces = sorted(p for p in out.glob("*.csv") if not p.name.startswith("distance_profile"))
    if len(traces) != 14:
        problems.append(f"{len(traces)} trace CSVs, expected 14")
    for path in traces:
        with open(path) as fh:
            n = sum(1 for _ in fh) - 1
        if n != rows:
            problems.append(f"{path.name} has {n} rows, expected {rows}")
    return problems


def artifact_digest(out: Path) -> str:
    """SHA-256 over every artifact; summary.txt without its wall-time line."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.txt":
            data = b"\n".join(data.rstrip(b"\n").split(b"\n")[:-1])
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@dataclass
class PaperState:
    path: Path
    cfg: dict
    workdir: Path
    digest: str | None = None


class Paper:
    name = "paper"
    min_jobs = 2  # the determinism check compares jobs of one invocation

    def setup(self, seed: int, workdir: Path) -> PaperState:
        cfg = yaml.safe_load(scenario_file.bundled_scenario_path("b747").read_text())
        rng = np.random.default_rng(seed)
        for key in ("x0", "xhat0", "xihat0"):
            v = np.asarray(cfg["initial"][key], float)
            cfg["initial"][key] = (v + rng.uniform(-1.0, 1.0, v.size)).tolist()
        sections = {"integration": cfg["integration"], "box": cfg["mask"]["box"],
                    **cfg["attacks"]}
        for section, key in PAPER_TIMES:
            sections[section][key] = sections[section][key] / PAPER_TIME_DIVISOR
        path = workdir / f"b747-seed{seed}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        return PaperState(path=path, cfg=cfg, workdir=workdir)

    def job(self, state: PaperState, index: int, tracer) -> JobResult:
        op_id = f"paper-{index}"
        out = state.workdir / f"run-{index}"
        try:
            t0 = perf_counter()
            with tracer.op(op_id, "cli.reproduce-paper"):
                code, output = _invoke_cli(["reproduce-paper", "--scenario",
                                            str(state.path), "--out", str(out)])
            wall = perf_counter() - t0
            problems = [f"exit code {code}: {output.strip().splitlines()[-1:]}"] if code \
                else paper_problems(out, state.cfg)
            digest = artifact_digest(out)
            if state.digest is None:
                state.digest = digest
            elif digest != state.digest:
                problems.append("artifact digest differs from this invocation's first run")
        except Exception:
            wall, problems = perf_counter() - t0, [traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for p in problems:
            _fail(op_id, p)
        return JobResult(wall_s=wall, op_s=[wall], failed=int(bool(problems)))


# ---------------------------------------------------------------------------
# design-scan: masker design exploration with the box given as input.

#: Random designs per job, besides the paper's two; enough that the 90th
#: percentile of per-design latency has ten samples beyond it.  log(beta) is
#: drawn stratified (one draw per 1/N_DESIGNS of its range, in random order),
#: because beta decides feasibility and so most of a design's cost; plain
#: draws let the share of infeasible designs, and with it the job time, swing
#: from seed to seed.
N_DESIGNS = 120
BETA_RANGE = (1.0, 300.0)
LAMBDA_RANGE = 2.0


@dataclass
class DesignState:
    plant: object
    designs: list  # (label, scenario config) pairs


class DesignScan:
    name = "design-scan"
    min_jobs = 1

    def setup(self, seed: int, workdir: Path) -> DesignState:
        base = _bundled_cfg()
        record = box_record.load()
        sigma1 = np.asarray(record[1.0]["sigma"], float)

        def design(beta, Lam, sigma, d_bound):
            cfg = copy.deepcopy(base)
            cfg["mask"].update(beta=float(beta), Lambda=np.asarray(Lam).tolist(),
                               sigma=np.asarray(sigma).tolist(), d_bound=float(d_bound))
            return cfg

        Lam0 = base["mask"]["Lambda"]
        designs = [(f"anchor-beta{b:g}", design(b, Lam0, record[b]["sigma"], record[b]["d_bound"]))
                   for b in (1.0, 100.0)]
        rng = np.random.default_rng(seed)
        lo, hi = np.log(BETA_RANGE)
        strata = (rng.permutation(N_DESIGNS) + rng.uniform(size=N_DESIGNS)) / N_DESIGNS
        for i, u in enumerate(strata):
            beta = float(np.exp(lo + (hi - lo) * u))
            Lam = rng.uniform(-LAMBDA_RANGE, LAMBDA_RANGE, (2, 3))
            sigma = sigma1 * np.array([1.0, 1.0, 1.0 / beta])
            designs.append((f"design-{i}", design(beta, Lam, sigma,
                                                  np.linalg.norm(Lam, 2) * np.linalg.norm(sigma))))
        return DesignState(plant=scenario_file.build_plant(base), designs=designs)

    @staticmethod
    def evaluate(plant, cfg) -> tuple[list[str], float]:
        """Run one design's ops; returns (problems, seconds spent in the program)."""
        t0 = perf_counter()
        mask = scenario_file.calibrate_mask(scenario_file.build_mask(cfg, True), cfg, True)
        ext = models.build_extended(plant, mask)
        report = synthesis.distance_to_unobservability(ext.Abold, ext.Cbold)
        verdict = synthesis.check_sufficiency(report, mask.ell)
        try:
            gain = synthesis.synthesize_gain(ext)
            recert = synthesis.verify_gain(ext, gain.L)
        except InfeasibleSynthesisError:
            gain = recert = None
        elapsed = perf_counter() - t0
        problems = []
        floor = float(np.min(report.profile[:, 1]))
        if not 0.0 <= report.delta <= floor:
            problems.append(f"delta {report.delta} outside [0, profile minimum {floor}]")
        if verdict != (report.delta > mask.ell):
            problems.append(f"verdict {verdict} but delta {report.delta} vs ell {mask.ell}")
        if gain is not None and not (gain.margin < 0 and recert.margin < 0):
            problems.append(f"certified gain margins {gain.margin}, {recert.margin}")
        return problems, elapsed

    def job(self, state: DesignState, index: int, tracer) -> JobResult:
        result = JobResult(wall_s=0.0)
        t_job = perf_counter()
        for label, cfg in state.designs:
            op_id = f"{index}-{label}"
            t0 = perf_counter()
            try:
                with tracer.op(op_id, "bench.design"):
                    problems, elapsed = self.evaluate(state.plant, cfg)
            except Exception:
                problems, elapsed = [traceback.format_exc()], perf_counter() - t0
            result.op_s.append(elapsed)
            for p in problems:
                _fail(op_id, p)
            result.failed += int(bool(problems))
        result.wall_s = perf_counter() - t_job
        return result


# ---------------------------------------------------------------------------
# ensemble: observer convergence from random estimator offsets (criterion 3).

ENSEMBLE_T_END = 40.0
ENSEMBLE_T_SETTLE = 20.0
ENSEMBLE_OFFSET = 1.0
ENSEMBLE_TOL = 1e-6


@dataclass
class EnsembleState:
    base: object  # sim.Scenario
    rng: np.random.Generator


class Ensemble:
    name = "ensemble"
    min_jobs = 1

    def setup(self, seed: int, workdir: Path) -> EnsembleState:
        cfg = _bundled_cfg()
        rec = box_record.load()[float(cfg["mask"]["beta"])]
        cfg["mask"].update(sigma=rec["sigma"], d_bound=rec["d_bound"])
        mask = scenario_file.calibrate_mask(scenario_file.build_mask(cfg, True), cfg, True)
        ext = models.build_extended(scenario_file.build_plant(cfg), mask)
        gain = synthesis.synthesize_gain(ext)
        base = cli.build_scenario(cfg, True, "none", mask=mask, observer=gain)
        base = dataclasses.replace(base, t_end=ENSEMBLE_T_END, t_settle=ENSEMBLE_T_SETTLE)
        return EnsembleState(base=base, rng=np.random.default_rng(seed))

    def job(self, state: EnsembleState, index: int, tracer) -> JobResult:
        op_id = f"ensemble-{index}"
        base = state.base
        n_xi = base.xi0.size
        e = state.rng.uniform(-ENSEMBLE_OFFSET, ENSEMBLE_OFFSET, n_xi + base.x0.size)
        scenario = dataclasses.replace(base, xihat0=base.xi0 + e[:n_xi],
                                       xhat0=base.x0 + e[n_xi:])
        t0 = perf_counter()
        try:
            with tracer.op(op_id, "bench.ensemble-run"):
                trace = sim.run_scenario(scenario)
            wall = perf_counter() - t0
            err = float(trace.err_norm[-1])
            problems = [] if err < ENSEMBLE_TOL else \
                [f"terminal error {err:.3g} not below {ENSEMBLE_TOL:g}"]
        except Exception:
            wall, problems = perf_counter() - t0, [traceback.format_exc()]
        for p in problems:
            _fail(op_id, p)
        return JobResult(wall_s=wall, op_s=[wall], failed=int(bool(problems)))


WORKLOADS = {w.name: w for w in (Paper, DesignScan, Ensemble)}
