"""Command-line front end.

Exit codes: 0 on success, 1 when a computation is infeasible (synthesis or
certification fails, a run diverges), 2 on input or schema errors.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from .attacks import EavesdropAttack, FdiAttack, NoAttack, ReplayAttack, \
    eavesdrop_error_bound, stealthiness_metric
from .errors import ChaosmaskError, ScenarioFormatError
from .models import ChaoticMask, build_extended, extended_pair
from .scenario_file import _matrix, build_mask, build_plant, calibrate_mask, \
    load_scenario_file, mask_xi0
from .sim import Scenario, SimTrace, calibrate_threshold, clean_twin, detect, \
    equilibrium_for, run_scenario
from .synthesis import ObserverGain, check_sufficiency, distance_to_unobservability, \
    synthesize_gain, verify_gain


# ---------------------------------------------------------------------------
# Pipeline helpers (importable without click).

def prepare_case(cfg: dict, scaled: bool = True):
    """Plant, calibrated mask, and stacked system for a scenario config."""
    plant = build_plant(cfg)
    mask = calibrate_mask(build_mask(cfg, scaled), cfg, scaled)
    ext = build_extended(plant, mask)
    return plant, mask, ext


def save_gain(gain: ObserverGain, path) -> None:
    payload = {"L": gain.L.tolist(), "P": gain.P.tolist(), "N": gain.N.tolist(),
               "margin": gain.margin, "ell": gain.ell_used}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_gain_matrix(path) -> np.ndarray:
    """The L matrix from a gain JSON file (schema errors raise ScenarioFormatError)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read gain file {path}: {exc}") from None
    if not isinstance(payload, dict) or "L" not in payload:
        raise ScenarioFormatError(f"gain file {path} has no 'L' entry")
    return _matrix(payload["L"], "gain.L")


def resolve_observer(cfg: dict, ext, gain_path=None) -> ObserverGain:
    """Observer gain from an explicit file, the scenario file, or synthesis."""
    if gain_path is not None:
        return verify_gain(ext, load_gain_matrix(gain_path))
    obs = cfg.get("observer", {"synthesize": True})
    if "L" in obs:
        return verify_gain(ext, _matrix(obs["L"], "observer.L"))
    return synthesize_gain(ext)


def _attack_for(cfg: dict, name: str, L_plain: np.ndarray, M_override=None):
    atk = cfg.get("attacks", {}) or {}
    if name == "none":
        return NoAttack()
    if name == "eavesdrop":
        spec = atk.get("eavesdrop") or {}
        L_bar = _matrix(spec["L_bar"], "attacks.eavesdrop.L_bar") if "L_bar" in spec \
            else L_plain
        return EavesdropAttack(L_bar=L_bar)
    if name == "replay":
        if "replay" not in atk:
            raise ScenarioFormatError("scenario file defines no replay attack")
        spec = atk["replay"]
        return ReplayAttack(tau=float(spec["tau"]), t_start=float(spec["t_start"]))
    if name == "fdi":
        if "fdi" not in atk:
            raise ScenarioFormatError("scenario file defines no fdi attack")
        spec = atk["fdi"]
        return FdiAttack(M=float(M_override if M_override is not None else spec["M"]),
                         t_start=float(spec["t_start"]),
                         direction=np.asarray(spec.get("direction", [1.0]
                                              + [0.0] * (L_plain.shape[1] - 1)), float),
                         shape=spec.get("shape", "constant"),
                         freq_hz=float(spec.get("freq_hz", 0.5)))
    raise ScenarioFormatError(f"unknown attack '{name}'")


def build_scenario(cfg: dict, masked: bool, attack_name: str = "none",
                   mask: ChaoticMask | None = None,
                   observer: ObserverGain | None = None,
                   nu: float | None = None, M_override=None) -> Scenario:
    """Assemble a runnable scenario from a validated config.

    Replay runs use the constant-reference variant (both estimator and plant
    start at the exact closed-loop equilibrium, the masked observer starts on
    the masker state) so the pre-attack channel is genuinely steady.  FDI runs
    disable the control input, matching the threat model under which the
    injection is exactly stealthy against the unmasked detector.
    """
    plant = build_plant(cfg)
    K = _matrix(cfg["controller"]["K"], "controller.K")
    L_plain = _matrix(cfg["unmasked_gain"], "unmasked_gain")
    integ = cfg["integration"]
    init = cfg["initial"]
    attack = _attack_for(cfg, attack_name, L_plain, M_override)

    x0 = np.asarray(init["x0"], float)
    xhat0 = np.asarray(init["xhat0"], float)
    xi0 = mask_xi0(cfg) if masked else None
    xihat0 = np.asarray(init.get("xihat0", np.zeros(mask.n_xi if mask else 0)), float) \
        if masked else None
    x_ref = u_eq = None
    control_enabled = True

    if attack_name == "replay":
        if "reference" not in cfg:
            raise ScenarioFormatError("replay runs need a 'reference' section")
        x_star, u_eq = equilibrium_for(plant, K,
                                       np.asarray(cfg["reference"]["x_ref"], float))
        x_ref = np.asarray(cfg["reference"]["x_ref"], float)
        x0 = x_star
        xhat0 = x_star.copy()
        if masked:
            xihat0 = xi0.copy()
    elif attack_name == "fdi":
        control_enabled = False

    return Scenario(plant=plant, controller_K=K, x0=x0, xhat0=xhat0,
                    mask=mask if masked else None,
                    observer=observer if masked else None,
                    L_plain=L_plain, xi0=xi0, xihat0=xihat0, detector_nu=nu,
                    attack=attack, x_ref=x_ref, u_eq=u_eq,
                    control_enabled=control_enabled,
                    dt=float(integ["dt"]), t_end=float(integ["t_end"]),
                    t_settle=float(integ["t_settle"]),
                    name=f"{cfg.get('name', 'scenario')}-"
                         f"{'masked' if masked else 'unmasked'}-{attack_name}")


def run_with_detection(cfg: dict, masked: bool, attack_name: str,
                       mask=None, observer=None,
                       M_override=None) -> tuple[SimTrace, SimTrace, float]:
    """Run the attacked scenario and its clean twin with a calibrated detector.

    Returns (attacked trace, clean trace, threshold).  The threshold comes from
    the scenario file: explicit ``detector.nu`` or calibration on the clean twin.
    """
    det = cfg.get("detector", {"calibrate_safety": 4.0})
    scenario = build_scenario(cfg, masked, attack_name, mask=mask,
                              observer=observer, M_override=M_override)
    clean = run_scenario(clean_twin(scenario))
    if "nu" in det:
        nu = float(det["nu"])
    else:
        nu = calibrate_threshold(clean, float(det["calibrate_safety"]))
    scenario.detector_nu = nu
    attacked = run_scenario(scenario)
    return attacked, clean, nu


# ---------------------------------------------------------------------------
# Click layer.

def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ScenarioFormatError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except ChaosmaskError as exc:
            click.echo(f"infeasible: {exc}", err=True)
            sys.exit(1)
    return wrapper


def _parse_json_matrix(text: str, name: str) -> np.ndarray:
    try:
        return _matrix(json.loads(text), name)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{name} is not valid JSON: {exc}") from None


@click.group()
@click.version_option(package_name="chaosmask")
def main():
    """Chaotic masking for secure remote state estimation."""


@main.command()
@click.argument("scenario", required=False)
@click.option("--unscaled", is_flag=True, help="Ignore the mask's coordinate rescaling.")
@click.option("--plain", "plain_pair", is_flag=True,
              help="Use the plant pair (A, C) instead of the stacked pair.")
@click.option("--A", "a_json", default=None, help="Explicit A as JSON (overrides scenario).")
@click.option("--C", "c_json", default=None, help="Explicit C as JSON (overrides scenario).")
@click.option("--w-max", type=float, default=None, help="Frequency sweep upper bound.")
@click.option("--n-grid", type=int, default=2000, show_default=True)
@click.option("--profile-out", type=click.Path(dir_okay=False), default=None,
              help="Write the frequency profile (w, sigma_min) as CSV.")
@_cli_errors
def distance(scenario, unscaled, plain_pair, a_json, c_json, w_max, n_grid, profile_out):
    """Distance to unobservability of a matrix pair.

    Works on the stacked masker+plant pair of SCENARIO by default, on the
    plant pair with --plain, or on explicit matrices given via --A/--C.
    """
    if a_json is not None or c_json is not None:
        if a_json is None or c_json is None:
            raise ScenarioFormatError("--A and --C must be given together")
        A = _parse_json_matrix(a_json, "A")
        C = _parse_json_matrix(c_json, "C")
    else:
        if scenario is None:
            raise ScenarioFormatError("give a scenario or explicit --A/--C matrices")
        cfg = load_scenario_file(scenario)
        plant = build_plant(cfg)
        if plain_pair:
            A, C = plant.A, plant.C
        else:
            A, C = extended_pair(plant, build_mask(cfg, apply_beta=not unscaled))
    report = distance_to_unobservability(A, C, w_max=w_max, n_grid=n_grid)
    if profile_out:
        np.savetxt(profile_out, report.profile, fmt="%.17g", delimiter=",",
                   header="w,sigma_min", comments="")
    click.echo(f"delta = {report.delta:.10g}")
    click.echo(f"w_star = {report.w_star:.10g}")


@main.command()
@click.argument("scenario")
@click.option("--unscaled", is_flag=True, help="Ignore the mask's coordinate rescaling.")
@click.option("--gain-out", type=click.Path(dir_okay=False), default=None,
              help="Write the certified gain as JSON.")
@_cli_errors
def synthesize(scenario, unscaled, gain_out):
    """Calibrate the masker, synthesize and certify an extended-observer gain."""
    cfg = load_scenario_file(scenario)
    plant, mask, ext = prepare_case(cfg, scaled=not unscaled)
    report = distance_to_unobservability(ext.Abold, ext.Cbold)
    sufficient = check_sufficiency(report, mask.ell)
    click.echo(f"sigma = {np.array2string(mask.sigma, precision=6)}")
    click.echo(f"ell = {mask.ell:.10g}")
    click.echo(f"d_bound = {mask.d_bound:.10g}")
    click.echo(f"delta = {report.delta:.10g}")
    click.echo(f"sufficiency (delta > ell): {sufficient}")
    gain = synthesize_gain(ext)
    click.echo(f"margin = {gain.margin:.10g}")
    if gain_out:
        save_gain(gain, gain_out)
        click.echo(f"gain written to {gain_out}")


@main.command("verify-gain")
@click.argument("scenario")
@click.option("--gain", "gain_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Gain JSON file to certify.")
@click.option("--unscaled", is_flag=True, help="Ignore the mask's coordinate rescaling.")
@_cli_errors
def verify_gain_cmd(scenario, gain_path, unscaled):
    """Certify a stored gain against the scenario's stacked system."""
    cfg = load_scenario_file(scenario)
    _, _, ext = prepare_case(cfg, scaled=not unscaled)
    gain = verify_gain(ext, load_gain_matrix(gain_path))
    click.echo(f"certified, margin = {gain.margin:.10g}")


@main.command()
@click.argument("scenario")
@click.option("--attack", type=click.Choice(["none", "eavesdrop", "replay", "fdi"]),
              default="none", show_default=True)
@click.option("--masked/--unmasked", default=True, show_default=True)
@click.option("--gain", "gain_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Observer gain JSON (synthesized when omitted).")
@click.option("--M", "m_override", type=float, default=None,
              help="Override the FDI magnitude bound.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for trace CSVs.")
@_cli_errors
def simulate(scenario, attack, masked, gain_path, m_override, out_dir):
    """Run one closed-loop scenario (plus its attack-free twin) and write traces."""
    cfg = load_scenario_file(scenario)
    mask = observer = None
    if masked:
        plant, mask, ext = prepare_case(cfg)
        observer = resolve_observer(cfg, ext, gain_path)
    attacked, clean, nu = run_with_detection(cfg, masked, attack,
                                             mask=mask, observer=observer,
                                             M_override=m_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    attacked.to_csv(out / f"{attacked.name}.csv")
    clean.to_csv(out / f"{clean.name}.csv")

    click.echo(f"nu = {nu:.10g}")
    click.echo(f"first alarm: {attacked.first_alarm_time}")
    click.echo(f"terminal estimation error = {attacked.err_norm[-1]:.10g}")
    if attacked.steady_premise_ok is not None:
        click.echo(f"steady premise before replay: {attacked.steady_premise_ok}")
    if attack in ("replay", "fdi"):
        sup_dz, _ = stealthiness_metric(attacked, clean)
        click.echo(f"sup ||delta z|| over attack window = {sup_dz:.10g}")
    if attack == "eavesdrop":
        tail = attacked.times >= attacked.times[-1] - 10.0
        avg = float(np.mean(attacked.eav_err[tail]))
        click.echo(f"eavesdropper terminal error = {attacked.eav_err[-1]:.10g}")
        click.echo(f"eavesdropper last-10s mean error = {avg:.10g}")
        if masked:
            plant = build_plant(cfg)
            bound = eavesdrop_error_bound(plant, attacked.attack.L_bar, mask.d_bound)
            click.echo(f"guaranteed eavesdropping-error bound = {bound:.10g}")
    click.echo(f"traces written to {out}")


@main.command()
@click.argument("scenario")
@click.option("--masked/--unmasked", default=True, show_default=True)
@click.option("--safety", type=float, default=None,
              help="Override the scenario's calibration safety factor.")
@click.option("--gain", "gain_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Observer gain JSON (synthesized when omitted).")
@_cli_errors
def calibrate(scenario, masked, safety, gain_path):
    """Calibrate the detection threshold on an attack-free run."""
    cfg = load_scenario_file(scenario)
    mask = observer = None
    if masked:
        _, mask, ext = prepare_case(cfg)
        observer = resolve_observer(cfg, ext, gain_path)
    s = build_scenario(cfg, masked, "none", mask=mask, observer=observer)
    clean = run_scenario(s)
    det = cfg.get("detector", {}) or {}
    factor = safety if safety is not None else float(det.get("calibrate_safety", 4.0))
    nu = calibrate_threshold(clean, factor)
    click.echo(f"nu = {nu:.10g}")


@main.command("reproduce-paper")
@click.option("--scenario", default="b747", show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="reproduction",
              show_default=True)
@_cli_errors
def reproduce_paper(scenario, out_dir):
    """Full case study: distances, synthesis, and all attack contrasts.

    Deterministic end to end; writes the certified gain, every trace, and a
    summary table under --out.
    """
    t0 = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = load_scenario_file(scenario)
    lines: list[str] = []

    def emit(msg=""):
        lines.append(msg)
        click.echo(msg)

    plant = build_plant(cfg)
    mask_raw = calibrate_mask(build_mask(cfg, apply_beta=False), cfg, apply_beta=False)
    A_u, C_u = extended_pair(plant, mask_raw)
    rep_u = distance_to_unobservability(A_u, C_u)

    plant, mask, ext = prepare_case(cfg)
    rep_s = distance_to_unobservability(ext.Abold, ext.Cbold)
    np.savetxt(out / "distance_profile_unscaled.csv", rep_u.profile, fmt="%.17g",
               delimiter=",", header="w,sigma_min", comments="")
    np.savetxt(out / "distance_profile_scaled.csv", rep_s.profile, fmt="%.17g",
               delimiter=",", header="w,sigma_min", comments="")

    emit("== observability and masking scale ==")
    emit(f"distance to unobservability, unscaled mask: {rep_u.delta:.6g}")
    emit(f"distance to unobservability, scaled mask:   {rep_s.delta:.6g}")
    emit(f"Lipschitz constant, unscaled: {mask_raw.ell:.6g}  "
         f"(sufficient: {check_sufficiency(rep_u, mask_raw.ell)})")
    emit(f"Lipschitz constant, scaled:   {mask.ell:.6g}  "
         f"(sufficient: {check_sufficiency(rep_s, mask.ell)})")
    emit(f"masking-signal bound eps_d = {mask.d_bound:.6g}")
    emit("")

    emit("== observer synthesis ==")
    gain = synthesize_gain(ext)
    save_gain(gain, out / "gain.json")
    emit(f"certified margin: {gain.margin:.6g}")

    traces: list[SimTrace] = []

    def run(masked, attack, **kw):
        attacked, clean, nu = run_with_detection(cfg, masked, attack,
                                                 mask=mask if masked else None,
                                                 observer=gain if masked else None, **kw)
        traces.extend([attacked, clean])
        return attacked, clean, nu

    clean_masked, _, _ = run(True, "none")
    emit(f"masked estimation error at t_end: {clean_masked.err_norm[-1]:.6g}")
    emit("")

    emit("== eavesdropping ==")
    eav_u, _, _ = run(False, "eavesdrop")
    eav_m, _, _ = run(True, "eavesdrop")
    tail = eav_m.times >= eav_m.times[-1] - 10.0
    bound = eavesdrop_error_bound(plant, eav_m.attack.L_bar, mask.d_bound)
    emit(f"unmasked: eavesdropper terminal error {eav_u.eav_err[-1]:.6g}")
    emit(f"masked:   eavesdropper last-10s mean error {np.mean(eav_m.eav_err[tail]):.6g}"
         f"  (guaranteed bound {bound:.6g})")
    emit("")

    emit("== replay ==")
    rep_um, _, nu_u = run(False, "replay")
    rep_m, _, nu_m = run(True, "replay")
    emit(f"unmasked: nu {nu_u:.6g}, first alarm {rep_um.first_alarm_time}"
         f"  (premise steady: {rep_um.steady_premise_ok})")
    emit(f"masked:   nu {nu_m:.6g}, first alarm {rep_m.first_alarm_time}"
         f"  (premise steady: {rep_m.steady_premise_ok})")
    emit("")

    emit("== false data injection ==")
    fdi_u, fdi_u_clean, _ = run(False, "fdi")
    fdi_m, fdi_m_clean, _ = run(True, "fdi")
    sup_u, _ = stealthiness_metric(fdi_u, fdi_u_clean)
    sup_m, _ = stealthiness_metric(fdi_m, fdi_m_clean)
    M = fdi_u.attack.M
    emit(f"unmasked: sup ||delta z|| = {sup_u:.6g}  (stealth bound M = {M:.6g})")
    emit(f"masked:   sup ||delta z|| = {sup_m:.6g}"
         f"  ({'exceeds' if sup_m > M else 'within'} the stealth bound)")
    emit("")

    for tr in traces:
        tr.to_csv(out / f"{tr.name}.csv")
    emit(f"artifacts in {out}  ({time.time() - t0:.1f} s)")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
