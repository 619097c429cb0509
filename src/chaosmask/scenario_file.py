"""Scenario files: loading, checking and reading into objects.

Scenario files are YAML with row-major nested arrays for matrices.  A file
is checked once, when it loads: its syntax here, and each value by the
object or function that consumes it, so a bad value fails before any
computation.  The runs read the file through the same functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.resources
import json
import math
from pathlib import Path

import numpy as np
import yaml

from .attacks import AttackSpec, EavesdropAttack, FdiAttack, NoAttack, ReplayAttack
from .errors import ScenarioFormatError
from .models import ChaoticMask, LtiPlant, PolynomialMap, box_steps, estimate_invariant_box, \
    estimate_lipschitz, extended_pair, rossler_p4, scale_mask
from .numerics import as_matrix, as_vector
from .sim import check_detector, check_settle, grid_steps

#: libyaml's safe loader where PyYAML has it, else the pure-Python one; both
#: resolve and construct the same types (the C one parses the b747 file
#: about 8 times faster).
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: The syntax of each section of a scenario file: key -> "number" (finite,
#: not a bool), "array" (numeric), "section" (checked by its own entry) or
#: None (left to the object that reads it).  A key ending in "?" is optional.
_SYNTAX = {
    "scenario": {"name?": None, "plant": "section", "mask?": "section",
                 "controller": "section", "unmasked_gain": "array", "observer?": "section",
                 "detector?": "section", "attacks?": "section", "integration": "section",
                 "initial": "section", "reference?": "section"},
    "plant": {"A": "array", "B": "array", "C": "array"},
    "controller": {"K": "array"},
    "mask": {"type": None, "beta?": "number", "Lambda": "array", "xi0": None,
             "box?": "section", "sigma?": None, "ell?": "number", "d_bound?": "number"},
    "mask.box": {"t_settle?": "number", "t_obs?": "number", "margin?": "number",
                 "dt?": "number"},
    "observer": {"synthesize?": None, "L?": "array"},
    "detector": {"nu?": "number", "calibrate_safety?": "number"},
    "attacks": {"replay?": "section", "fdi?": "section", "eavesdrop?": "section"},
    "attacks.replay": {"tau": "number", "t_start": "number"},
    "attacks.fdi": {"M": "number", "t_start": "number", "direction?": None, "shape?": None,
                    "freq_hz?": "number"},
    "attacks.eavesdrop": {"L_bar?": None},
    "integration": {"dt": "number", "t_end": "number", "t_settle": "number"},
    "initial": {"x0": None, "xhat0": None, "xihat0?": None},
    "reference": {"x_ref": None},
}
#: The keys of each mask type, besides those of _SYNTAX["mask"].
_MASK_TYPE_KEYS = {"rossler_p4": {"a": "number", "b": "number"},
                   "custom": {"Phi": "array", "phi": None}}
#: The sections that take exactly one of two keys.
_ONE_OF = {"observer": ("synthesize", "L"), "detector": ("nu", "calibrate_safety")}
#: Optional keys whose null means absent.
_NULLABLE = {"mask.ell", "mask.d_bound", "attacks.eavesdrop"}


def _check_section(section, where: str) -> None:
    """Check the file's section ``where`` against :data:`_SYNTAX`, and then
    its subsections."""
    if not isinstance(section, dict):
        raise ScenarioFormatError(f"{where} must be a mapping")
    spec = _SYNTAX[where]
    if where == "mask":
        mtype = section.get("type")
        # A list is searched by ==, so an unhashable type is rejected too.
        if mtype not in list(_MASK_TYPE_KEYS):
            raise ScenarioFormatError(f"mask.type must be rossler_p4 or custom, got {mtype!r}")
        spec = {**spec, **_MASK_TYPE_KEYS[mtype]}
    prefix = "" if where == "scenario" else f"{where}."
    unknown = set(section) - {key.rstrip("?") for key in spec}
    if unknown:
        raise ScenarioFormatError(
            f"unknown key(s): {', '.join(f'{prefix}{key}' for key in sorted(unknown, key=str))}"
            + (f" (mask.type is {mtype})" if where == "mask" else ""))
    if where in _ONE_OF and sum(key in section for key in _ONE_OF[where]) != 1:
        raise ScenarioFormatError(f"{where} needs exactly one of "
                                  + " or ".join(f"'{key}'" for key in _ONE_OF[where]))
    for name, kind in spec.items():
        key = name.rstrip("?")
        if key not in section or section[key] is None and prefix + key in _NULLABLE:
            if key == name:
                raise ScenarioFormatError(f"missing required key '{key}' in {where}")
        elif kind == "number":
            _number(section[key], prefix + key)
        elif kind == "array":
            _matrix(section[key], prefix + key)
        elif kind == "section":
            _check_section(section[key], prefix + key)


def _number(value, where: str) -> None:
    # bool is an int, but a YAML true is not a number.
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioFormatError(f"{where} must be a finite number, got {value!r}")


@contextlib.contextmanager
def input_error(where: str):
    """Turn a TypeError or ValueError raised while reading ``where`` into a
    :class:`ScenarioFormatError` naming it; one already raised passes as is."""
    try:
        yield
    except ScenarioFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"invalid {where}: {exc}") from None


def _has_bool(value) -> bool:
    """Whether a YAML value holds a boolean at any depth of its lists:
    numpy would read ``true`` and ``false`` as 1.0 and 0.0."""
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _matrix(value, where: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    with input_error(f"{where} (numeric array)"):
        if _has_bool(value):
            raise ValueError("true and false are not numbers")
        return as_matrix(value, rows, cols)


def _vector(value, where: str, size: int | None = None) -> np.ndarray:
    with input_error(f"{where} (numeric vector)"):
        if _has_bool(value):
            raise ValueError("true and false are not numbers")
        return as_vector(value, size)


def bundled_scenario_path(name: str) -> Path | None:
    ref = importlib.resources.files("chaosmask") / "data" / f"{name}.yaml"
    return Path(str(ref)) if ref.is_file() else None


def load_scenario_file(name_or_path: str) -> dict:
    """Load and check a scenario file, a path or the name of a bundled one
    (e.g. ``b747``): :func:`validate_scenario_cfg` checks its syntax, then
    the cheap objects and functions that consume its values judge them, each
    under its file key.  Nothing is integrated or synthesized."""
    path = Path(name_or_path)
    if not path.is_file():
        bundled = bundled_scenario_path(str(name_or_path))
        if bundled is None:
            raise ScenarioFormatError(
                f"scenario '{name_or_path}' is neither a file nor a bundled scenario")
        path = bundled
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(f"cannot parse {path}: {exc}") from None
    validate_scenario_cfg(cfg)
    plant = build_plant(cfg)
    L_plain = plant_values(cfg, plant)["L_plain"]
    integ = cfg["integration"]
    with input_error("integration.dt"):
        grid_steps(integ["t_end"], integ["dt"])
    with input_error("integration.t_settle"):
        check_settle(integ["t_end"], integ["dt"], integ["t_settle"])
    if "detector" in cfg:
        det = cfg["detector"]
        with input_error(f"detector.{next(iter(det))}"):
            check_detector(det.get("nu"), det.get("calibrate_safety"))
    for name in cfg.get("attacks") or {}:
        build_attack(cfg, name, L_plain)
    if "mask" in cfg:
        m, mask = cfg["mask"], build_mask(cfg)
        with input_error("mask.xi0"):
            mask.state(m["xi0"], "xi0")
        if "xihat0" in cfg["initial"]:
            with input_error("initial.xihat0"):
                mask.state(cfg["initial"]["xihat0"], "xihat0")
        for key in ("sigma", "ell", "d_bound"):
            if m.get(key) is not None:
                with input_error(f"mask.{key}"):
                    dataclasses.replace(mask, **{key: m[key]})
        with input_error("mask.box"):
            box_steps(**m.get("box", {}))
        with input_error("mask.Lambda"):
            _, Cbold = extended_pair(plant, mask)
        observer_L(cfg, Cbold)
    return cfg


def validate_scenario_cfg(cfg: dict) -> None:
    """Check the syntax of a scenario file (:data:`_SYNTAX`): unknown and
    required keys, the sections that take exactly one of two keys, each mask
    type's own keys, and that numbers are finite numbers and arrays numeric.
    Ranges, shapes and sizes are left to the objects that consume them (see
    :func:`load_scenario_file`)."""
    _check_section(cfg, "scenario")


def build_plant(cfg: dict) -> LtiPlant:
    with input_error("plant"):
        return LtiPlant(*(cfg["plant"][key] for key in "ABC"))


def _custom_phi(spec, n: int) -> PolynomialMap:
    with input_error("mask.phi"):
        return PolynomialMap(n, n, tuple(tuple((float(c), tuple(int(e) for e in exps))
                                               for c, exps in comp) for comp in spec))


def build_mask(cfg: dict, apply_beta: bool = True) -> ChaoticMask:
    """Instantiate the (uncalibrated) masker; ``apply_beta=False`` skips the
    coordinate rescaling even when the file specifies one."""
    m = cfg["mask"]
    with input_error("mask"):
        if m["type"] == "rossler_p4":
            mask = rossler_p4(float(m["a"]), float(m["b"]), Lambda=m["Lambda"])
        else:
            Phi = as_matrix(m["Phi"])
            mask = ChaoticMask(Phi=Phi, phi=_custom_phi(m["phi"], Phi.shape[0]),
                               Lambda=m["Lambda"])
    with input_error("mask.beta"):
        beta = float(m.get("beta", 1.0))
        return scale_mask(mask, beta) if apply_beta and beta != 1.0 else mask


def mask_xi0(cfg: dict) -> np.ndarray:
    """Masker initial condition of the file's scaled masker: the file's
    ``xi0`` with its last entry divided by ``beta``."""
    m = cfg["mask"]
    xi0 = _vector(m["xi0"], "mask.xi0").copy()
    xi0[-1] /= float(m.get("beta", 1.0))
    return xi0


def plant_values(cfg: dict, plant: LtiPlant) -> dict:
    """The file's values that ``plant`` shapes: ``K`` (``controller.K``),
    ``L_plain`` (``unmasked_gain``), ``x0`` and ``xhat0`` (``initial``) and
    ``x_ref`` (``reference.x_ref``, None without a reference)."""
    n_x, n_u, n_y, init = plant.n_x, plant.n_u, plant.n_y, cfg["initial"]
    ref = cfg.get("reference")
    return {"K": _matrix(cfg["controller"]["K"], "controller.K", n_u, n_x),
            "L_plain": _matrix(cfg["unmasked_gain"], "unmasked_gain", n_x, n_y),
            "x0": _vector(init["x0"], "initial.x0", n_x),
            "xhat0": _vector(init["xhat0"], "initial.xhat0", n_x),
            "x_ref": None if ref is None else _vector(ref["x_ref"], "reference.x_ref", n_x)}


def build_attack(cfg: dict, name: str, L_plain: np.ndarray, M_override=None) -> AttackSpec:
    """The attack spec ``name`` of the file, judged by its own rules; the
    plain gain ``L_plain`` is the eavesdropper's default gain and sizes
    ``L_bar`` and the FDI direction.  A replay must fit the file's grid, and
    a replay or FDI must start within its run."""
    if name == "none":
        return NoAttack()
    if name not in ("eavesdrop", "replay", "fdi"):
        raise ScenarioFormatError(f"unknown attack '{name}'")
    atk = cfg.get("attacks", {}) or {}
    if name != "eavesdrop" and name not in atk:
        raise ScenarioFormatError(f"scenario file defines no {name} attack")
    spec = atk.get(name) or {}
    with input_error(f"attacks.{name}"):
        if name == "eavesdrop":
            return EavesdropAttack(L_bar=_matrix(spec["L_bar"], "attacks.eavesdrop.L_bar",
                                                 *L_plain.shape) if "L_bar" in spec else L_plain)
        if name == "replay":
            attack = ReplayAttack(tau=float(spec["tau"]), t_start=float(spec["t_start"]))
        else:
            d = spec.get("direction", np.eye(L_plain.shape[1])[0])
            attack = FdiAttack(M=float(M_override if M_override is not None else spec["M"]),
                               t_start=float(spec["t_start"]),
                               direction=_vector(d, "attacks.fdi.direction", L_plain.shape[1]),
                               shape=spec.get("shape", "constant"),
                               freq_hz=float(spec.get("freq_hz", 0.5)))
    # FDI's grid rule reads t_start alone; replay's reads tau too.
    integ = cfg["integration"]
    with input_error("attacks.replay" if name == "replay" else "attacks.fdi.t_start"):
        attack.check_grid(float(integ["dt"]), float(integ["t_end"]))
    return attack


def observer_L(cfg: dict, Cbold: np.ndarray, gain_path=None) -> np.ndarray | None:
    """The observer gain L of the gain JSON file ``gain_path``, else of the
    file's ``observer.L``, shaped by the stacked output map ``Cbold``; None
    when the gain is to be synthesized."""
    if gain_path is not None:
        try:
            obs = json.loads(Path(gain_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioFormatError(f"cannot read gain file {gain_path}: {exc}") from None
        if not isinstance(obs, dict) or "L" not in obs:
            raise ScenarioFormatError(f"gain file {gain_path} has no 'L' entry")
    else:
        obs = cfg.get("observer", {"synthesize": True})
    if "L" not in obs:
        return None
    where = "observer.L" if gain_path is None else f"L of gain file {gain_path}"
    return _matrix(obs["L"], where, Cbold.shape[1], Cbold.shape[0])


def calibrate_mask(mask: ChaoticMask, cfg: dict, apply_beta: bool = True,
                   unscaled: ChaoticMask | None = None) -> ChaoticMask:
    """Populate sigma, ell, d_bound from the file's estimation parameters
    (or explicit overrides) and return ``mask``.

    The box is integrated once, for the file's scaled masker, the one the
    certificate is about.  An unscaled ``mask`` (``apply_beta=False``) takes
    its box from that trajectory mapped back through ``T^-1``; so does
    ``unscaled``, an uncalibrated ``build_mask(cfg, False)`` calibrated
    alongside a scaled ``mask``.

    Explicit ``sigma``, ``d_bound`` and ``ell`` in the file describe the
    scaled masker too.  For an unscaled mask with ``beta != 1`` they are
    mapped, not copied: sigma with its last radius times beta, ``d_bound =
    ||Lambda||_2 ||sigma||_2`` over that box, and ell bounded on that box.
    :func:`load_scenario_file` has judged them by ``ChaoticMask``'s rules.
    Box keys the file leaves out take the defaults of
    :func:`estimate_invariant_box`.
    """
    if unscaled is not None and not apply_beta:
        raise ValueError("unscaled is calibrated alongside a scaled mask")
    m = cfg["mask"]
    beta = float(m.get("beta", 1.0))
    sigma = None if m.get("sigma") is None else as_vector(m["sigma"])
    if sigma is None or m.get("d_bound") is None:
        scaled, raw = (mask, unscaled) if apply_beta else (build_mask(cfg, True), mask)
        box = {key: float(value) for key, value in m.get("box", {}).items()}
        estimate_invariant_box(scaled, mask_xi0(cfg), **box,
                               unscaled=None if raw is None else (raw, beta))
    targets = [(mask, not apply_beta)] if unscaled is None else [(mask, False), (unscaled, True)]
    for target, is_unscaled in targets:
        mapped = is_unscaled and beta != 1.0
        if sigma is not None:
            target.sigma = sigma * np.append(np.ones(sigma.size - 1), beta if mapped else 1.0)
        if m.get("d_bound") is not None:
            target.d_bound = (float(np.linalg.norm(target.Lambda, 2) * np.linalg.norm(target.sigma))
                              if mapped else float(m["d_bound"]))
        if m.get("ell") is not None and not mapped:
            target.ell = float(m["ell"])
        else:
            estimate_lipschitz(target)
    return mask
