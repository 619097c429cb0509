"""Command-line front end.

Exit codes: 0 on success, 1 when a computation is infeasible (synthesis or
certification fails, a run diverges), 2 on input or schema errors.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from .attacks import NoAttack, eavesdrop_error_bound, stealthiness_metric
from .errors import ChaosmaskError, ScenarioFormatError
from .models import ChaoticMask, ExtendedSystem, LtiPlant, build_extended, extended_pair
from .numerics import as_matrix
from .scenario_file import build_attack, build_mask, build_plant, calibrate_mask, \
    input_error, load_scenario_file, mask_xi0, observer_L, plant_values
from .sim import Scenario, SimTrace, calibrate_threshold, clean_twin, detect, \
    equilibrium_for, run_scenario, write_csvs
from .synthesis import ObserverGain, UnobservabilityReport, check_sufficiency, \
    distance_to_unobservability, frequency_profile, synthesize_gain, verify_gain


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


def profile_columns(profile: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The CSV columns of a :func:`~chaosmask.synthesis.frequency_profile`."""
    return [("w", profile[:, 0]), ("sigma_min", profile[:, 1])]


def eavesdrop_tail_mean(trace: SimTrace) -> tuple[float, float, float]:
    """Mean eavesdropper error over the last 10 s of ``trace``, with the first
    and last sample times it averaged.  On a run shorter than 10 s that
    window is the whole run, start-up transient included."""
    tail = trace.times >= trace.times[-1] - 10.0
    times = trace.times[tail]
    return float(np.mean(trace.eav_err[tail])), float(times[0]), float(times[-1])


def resolve_observer(cfg: dict, gain_path=None, scaled: bool = True):
    """Plant, calibrated mask, stacked system and observer gain of a
    scenario config: the gain L of a gain JSON file or the file, certified,
    else a synthesized one.  A given L is read, and its shape judged, before
    the masker box is integrated."""
    L = observer_L(cfg, extended_pair(build_plant(cfg), build_mask(cfg, scaled))[1], gain_path)
    plant, mask, ext = prepare_case(cfg, scaled)
    return plant, mask, ext, synthesize_gain(ext) if L is None else verify_gain(ext, L)


def build_scenario(cfg: dict, masked: bool, attack_name: str = "none",
                   mask: ChaoticMask | None = None,
                   observer: ObserverGain | None = None, M_override=None) -> Scenario:
    """Assemble a runnable scenario from a validated config.

    Replay runs use the constant-reference variant (both estimator and plant
    start at the exact closed-loop equilibrium, the masked observer starts on
    the masker state) so the pre-attack channel is genuinely steady.  FDI runs
    disable the control input, matching the threat model under which the
    injection is exactly stealthy against the unmasked detector.  Values the
    scenario rejects raise :class:`ScenarioFormatError`.
    """
    with input_error("scenario"):
        plant = build_plant(cfg)
        values = plant_values(cfg, plant)
        K, x0, xhat0 = values["K"], values["x0"], values["xhat0"]
        xi0 = xihat0 = x_ref = u_eq = None
        if masked:
            xi0, xihat0 = mask_xi0(cfg), cfg["initial"].get("xihat0")
        if attack_name == "replay":
            if values["x_ref"] is None:
                raise ScenarioFormatError("replay runs need a 'reference' section")
            x_ref = values["x_ref"]
            x0, u_eq = equilibrium_for(plant, K, x_ref)
            xhat0 = x0.copy()
            if masked:
                xihat0 = xi0.copy()
        integ = cfg["integration"]
        return Scenario(plant=plant, controller_K=K, x0=x0, xhat0=xhat0,
                        mask=mask if masked else None,
                        observer=observer if masked else None,
                        L_plain=values["L_plain"], xi0=xi0, xihat0=xihat0,
                        attack=build_attack(cfg, attack_name, values["L_plain"], M_override),
                        x_ref=x_ref, u_eq=u_eq, control_enabled=attack_name != "fdi",
                        dt=float(integ["dt"]), t_end=float(integ["t_end"]),
                        t_settle=float(integ["t_settle"]),
                        name=f"{cfg.get('name', 'scenario')}-"
                             f"{'masked' if masked else 'unmasked'}-{attack_name}")


def _detected(trace: SimTrace, nu: float, name: str) -> SimTrace:
    """``trace`` named ``name``, with the alarms of the detector ``g > nu``."""
    alarm, _ = detect(trace, nu)
    return dataclasses.replace(trace, alarm=alarm, nu=nu, name=name)


def detection_threshold(cfg: dict, clean: SimTrace, safety: float | None = None) -> float:
    """The detector threshold: calibrated on ``clean`` with an explicit
    ``safety``, else the file's ``detector.nu``, else calibrated with its
    ``detector.calibrate_safety`` (4.0 when the file has no detector)."""
    det = cfg.get("detector", {"calibrate_safety": 4.0})
    if safety is None and "nu" in det:
        return float(det["nu"])
    return calibrate_threshold(clean, safety if safety is not None
                               else float(det["calibrate_safety"]))


def run_with_detection(cfg: dict, masked: bool, attack_name: str, mask=None,
                       observer=None, M_override=None) -> tuple[SimTrace, SimTrace, float]:
    """Run the attacked scenario and its clean twin, then detect on the attacked run.

    Returns (attacked trace, clean trace, threshold), the threshold from
    :func:`detection_threshold`.  A ``none`` scenario is its own clean twin:
    it runs once, its traces share arrays.
    """
    scenario = build_scenario(cfg, masked, attack_name, mask=mask,
                              observer=observer, M_override=M_override)
    clean = run_scenario(clean_twin(scenario))
    nu = detection_threshold(cfg, clean)
    attacked = clean if isinstance(scenario.attack, NoAttack) else run_scenario(scenario)
    return _detected(attacked, nu, scenario.name), clean, nu


@dataclasses.dataclass(frozen=True)
class Reproduction:
    """The case study that ``reproduce-paper`` writes (``mask``: the beta-scaled one).
    ``contrasts[attack][side]`` is ``run_with_detection``'s triple; none is masked only."""

    plant: LtiPlant
    mask_unscaled: ChaoticMask
    mask: ChaoticMask
    ext_unscaled: ExtendedSystem
    ext: ExtendedSystem
    report_unscaled: UnobservabilityReport
    report_scaled: UnobservabilityReport
    gain: ObserverGain
    contrasts: dict


def reproduce(cfg: dict) -> Reproduction:
    """The case study from one masker box and 12 closed-loop runs: both masks
    are calibrated from the scaled masker's trajectory, and the clean twin of
    the masked eavesdrop run is also the masked ``none`` run (the
    eavesdropper is passive)."""
    plant = build_plant(cfg)
    mask_raw = build_mask(cfg, False)
    mask = calibrate_mask(build_mask(cfg), cfg, unscaled=mask_raw)
    ext_raw, ext = build_extended(plant, mask_raw), build_extended(plant, mask)
    rep_u, rep_s = (distance_to_unobservability(e.Abold, e.Cbold) for e in (ext_raw, ext))
    gain = synthesize_gain(ext)
    contrasts = {atk: {"unmasked": run_with_detection(cfg, False, atk),
                       "masked": run_with_detection(cfg, True, atk, mask=mask, observer=gain)}
                 for atk in ("eavesdrop", "replay", "fdi")}
    none = build_scenario(cfg, True, "none", mask=mask, observer=gain)
    _, clean, nu = contrasts["eavesdrop"]["masked"]
    contrasts["none"] = {"masked": (_detected(clean, nu, none.name),
                                    dataclasses.replace(clean, name=clean_twin(none).name), nu)}
    return Reproduction(plant=plant, mask_unscaled=mask_raw, mask=mask, ext_unscaled=ext_raw,
                        ext=ext, report_unscaled=rep_u, report_scaled=rep_s, gain=gain,
                        contrasts=contrasts)


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


def _check_gain(masked: bool, gain_path) -> None:
    """Reject ``--gain`` on an unmasked run, whose plain estimator has no use for it."""
    if not masked and gain_path is not None:
        raise ScenarioFormatError("--gain is the masked observer's gain; an --unmasked run "
                                  "has none, so leave --gain out")


def _parse_json_matrix(text: str, name: str) -> np.ndarray:
    with input_error(name):
        return as_matrix(json.loads(text))


@click.group()
@click.version_option(package_name="chaosmask")
def main():
    """Chaotic masking for secure remote state estimation."""


@main.command()
@click.argument("scenario", required=False)
@click.option("--unscaled", is_flag=True, help="Ignore the mask's coordinate rescaling.")
@click.option("--plain", "plain_pair", is_flag=True,
              help="Use the plant pair (A, C) instead of the stacked pair.")
@click.option("--A", "a_json", default=None, help="Explicit A as JSON (instead of a scenario).")
@click.option("--C", "c_json", default=None, help="Explicit C as JSON (instead of a scenario).")
@click.option("--w-max", type=click.FloatRange(min=0.0, min_open=True), default=None,
              help="Upper frequency of the --profile-out grid.")
@click.option("--n-grid", type=click.IntRange(min=100), default=2000, show_default=True,
              help="Frequencies in the --profile-out grid.")
@click.option("--profile-out", type=click.Path(dir_okay=False), default=None,
              help="Write sigma_min on the --w-max/--n-grid frequency grid as CSV (w, sigma_min).")
@_cli_errors
def distance(scenario, unscaled, plain_pair, a_json, c_json, w_max, n_grid, profile_out):
    """Distance to unobservability of a matrix pair.

    Works on the stacked masker+plant pair of SCENARIO by default, on the
    plant pair with --plain, or on explicit matrices given via --A/--C.
    Prints the bracket: delta (the certified lower end), delta_hi (attained)
    and w_star, the frequency where delta_hi is attained.
    """
    if profile_out is None:
        given = click.get_current_context().get_parameter_source
        for name, flag in (("w_max", "--w-max"), ("n_grid", "--n-grid")):
            if given(name) is not click.core.ParameterSource.DEFAULT:
                raise ScenarioFormatError(f"{flag} sets the --profile-out grid; "
                                          f"give --profile-out too")
    if a_json is not None or c_json is not None:
        if a_json is None or c_json is None:
            raise ScenarioFormatError("--A and --C must be given together")
        for given, name in ((scenario is not None, "SCENARIO"), (plain_pair, "--plain"),
                            (unscaled, "--unscaled")):
            if given:
                raise ScenarioFormatError(f"{name} picks a scenario's pair; --A/--C give "
                                          f"the pair, so leave {name} out")
        A = _parse_json_matrix(a_json, "--A")
        C = _parse_json_matrix(c_json, "--C")
        if not A.shape[0] == A.shape[1] == C.shape[1]:
            raise ScenarioFormatError(f"--A must be square and --C must have as many "
                                      f"columns; got shapes {A.shape} and {C.shape}")
    else:
        if scenario is None:
            raise ScenarioFormatError("give a scenario or explicit --A/--C matrices")
        if plain_pair and unscaled:
            raise ScenarioFormatError("--unscaled picks the masker's scaling; the --plain "
                                      "pair has no masker, so leave --unscaled out")
        cfg = load_scenario_file(scenario)
        plant = build_plant(cfg)
        if plain_pair:
            A, C = plant.A, plant.C
        else:
            A, C = extended_pair(plant, build_mask(cfg, apply_beta=not unscaled))
    report = distance_to_unobservability(A, C)
    if profile_out:
        write_csvs({profile_out: profile_columns(frequency_profile(A, C, w_max, n_grid))})
    click.echo(f"delta = {report.delta:.10g}")
    click.echo(f"delta_hi = {report.delta_hi:.10g}")
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
    _, _, _, gain = resolve_observer(load_scenario_file(scenario), gain_path, not unscaled)
    click.echo(f"certified, margin = {gain.margin:.10g}")


@main.command()
@click.argument("scenario")
@click.option("--attack", type=click.Choice(["none", "eavesdrop", "replay", "fdi"]),
              default="none", show_default=True)
@click.option("--masked/--unmasked", default=True, show_default=True)
@click.option("--gain", "gain_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Observer gain JSON (synthesized when omitted).")
@click.option("--M", "m_override", type=click.FloatRange(min=0.0, min_open=True),
              default=None, help="Override the FDI magnitude bound.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for trace CSVs.")
@_cli_errors
def simulate(scenario, attack, masked, gain_path, m_override, out_dir):
    """Run one closed-loop scenario (plus its attack-free twin) and write traces."""
    _check_gain(masked, gain_path)
    if m_override is not None and attack != "fdi":
        raise ScenarioFormatError(f"--M bounds the FDI injection; --attack {attack} has "
                                  f"none, so leave --M out")
    cfg = load_scenario_file(scenario)
    mask = observer = None
    if masked:
        plant, mask, _, observer = resolve_observer(cfg, gain_path)
    attacked, clean, nu = run_with_detection(cfg, masked, attack,
                                             mask=mask, observer=observer,
                                             M_override=m_override)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csvs({out / f"{tr.name}.csv": tr.columns() for tr in (attacked, clean)})

    click.echo(f"nu = {nu:.10g}")
    click.echo(f"first alarm: {attacked.first_alarm_time}")
    click.echo(f"terminal estimation error = {attacked.err_norm[-1]:.10g}")
    if attacked.steady_premise_ok is not None:
        click.echo(f"steady premise before replay: {attacked.steady_premise_ok}")
    if attack in ("replay", "fdi"):
        sup_dz, _ = stealthiness_metric(attacked, clean)
        click.echo(f"sup ||delta z|| over attack window = {sup_dz:.10g}")
    if attack == "eavesdrop":
        avg, t_from, t_to = eavesdrop_tail_mean(attacked)
        click.echo(f"eavesdropper terminal error = {attacked.eav_err[-1]:.10g}")
        click.echo(f"eavesdropper last-10s mean error = {avg:.10g} "
                   f"over [{t_from:g}, {t_to:g}] s")
        if masked:
            bound = eavesdrop_error_bound(plant, attacked.attack.L_bar, mask.d_bound)
            click.echo(f"guaranteed eavesdropping-error bound = {bound:.10g}")
    click.echo(f"traces written to {out}")


@main.command()
@click.argument("scenario")
@click.option("--masked/--unmasked", default=True, show_default=True)
@click.option("--safety", type=click.FloatRange(min=1.0, min_open=True), default=None,
              help="Calibrate with this safety factor, overriding the scenario's detector.")
@click.option("--gain", "gain_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Observer gain JSON (synthesized when omitted).")
@_cli_errors
def calibrate(scenario, masked, safety, gain_path):
    """Detection threshold on an attack-free run: the file's explicit
    ``detector.nu`` unless --safety asks for a calibration."""
    _check_gain(masked, gain_path)
    cfg = load_scenario_file(scenario)
    mask = observer = None
    if masked:
        _, mask, _, observer = resolve_observer(cfg, gain_path)
    clean = run_scenario(build_scenario(cfg, masked, "none", mask=mask, observer=observer))
    click.echo(f"nu = {detection_threshold(cfg, clean, safety):.10g}")


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
    r = reproduce(load_scenario_file(scenario))
    save_gain(r.gain, out / "gain.json")
    tables = {out / f"distance_profile_{label}.csv":
              profile_columns(frequency_profile(e.Abold, e.Cbold))
              for label, e in (("unscaled", r.ext_unscaled), ("scaled", r.ext))}
    tables.update((out / f"{tr.name}.csv", tr.columns()) for sides in r.contrasts.values()
                  for triple in sides.values() for tr in triple[:2])
    write_csvs(tables)

    runs, mask, mask_u = r.contrasts, r.mask, r.mask_unscaled
    rep_u, rep_s = r.report_unscaled, r.report_scaled
    eav_u, eav_m = runs["eavesdrop"]["unmasked"][0], runs["eavesdrop"]["masked"][0]
    eav_mean, eav_from, eav_to = eavesdrop_tail_mean(eav_m)
    bound = eavesdrop_error_bound(r.plant, eav_m.attack.L_bar, mask.d_bound)
    (rp_u, _, nu_u), (rp_m, _, nu_m) = runs["replay"]["unmasked"], runs["replay"]["masked"]
    sup_u, sup_m = (stealthiness_metric(*runs["fdi"][side][:2])[0]
                    for side in ("unmasked", "masked"))
    M = runs["fdi"]["unmasked"][0].attack.M
    summary = f"""\
== observability and masking scale ==
distance to unobservability, unscaled mask: {rep_u.delta:.6g}
distance to unobservability, scaled mask:   {rep_s.delta:.6g}
Lipschitz constant, unscaled: {mask_u.ell:.6g}  (sufficient: {check_sufficiency(rep_u, mask_u.ell)})
Lipschitz constant, scaled:   {mask.ell:.6g}  (sufficient: {check_sufficiency(rep_s, mask.ell)})
masking-signal bound eps_d = {mask.d_bound:.6g}

== observer synthesis ==
certified margin: {r.gain.margin:.6g}
masked estimation error at t_end: {runs['none']['masked'][0].err_norm[-1]:.6g}

== eavesdropping ==
unmasked: eavesdropper terminal error {eav_u.eav_err[-1]:.6g}
masked:   eavesdropper last-10s mean error {eav_mean:.6g} over [{eav_from:g}, {eav_to:g}] s  \
(guaranteed bound {bound:.6g})

== replay ==
unmasked: nu {nu_u:.6g}, first alarm {rp_u.first_alarm_time}  (premise steady: {rp_u.steady_premise_ok})
masked:   nu {nu_m:.6g}, first alarm {rp_m.first_alarm_time}  (premise steady: {rp_m.steady_premise_ok})

== false data injection ==
unmasked: sup ||delta z|| = {sup_u:.6g}  (stealth bound M = {M:.6g})
masked:   sup ||delta z|| = {sup_m:.6g}  ({'exceeds' if sup_m > M else 'within'} the stealth bound)

artifacts in {out}  ({time.time() - t0:.1f} s)
"""
    click.echo(summary, nl=False)
    (out / "summary.txt").write_text(summary)


if __name__ == "__main__":
    main()
