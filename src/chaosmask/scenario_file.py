"""Scenario files: schema validation and object construction.

Scenario files are YAML with row-major nested arrays for matrices.  Unknown
keys are rejected before any computation so typos fail fast.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.resources
import math
from pathlib import Path

import numpy as np
import yaml

from .attacks import FdiAttack
from .errors import ScenarioFormatError
from .models import ChaoticMask, LtiPlant, PolynomialMap, estimate_invariant_box, \
    estimate_lipschitz, rossler_p4, scale_mask
from .numerics import as_matrix, as_vector
from .sim import grid_steps

_TOP_KEYS = {"name", "plant", "mask", "controller", "unmasked_gain", "observer",
             "detector", "attacks", "integration", "initial", "reference"}
_MASK_KEYS = {"type", "beta", "Lambda", "xi0", "box", "sigma", "ell", "d_bound"}
#: The keys of each mask type besides _MASK_KEYS.
_MASK_TYPE_KEYS = {"rossler_p4": {"a", "b"}, "custom": {"Phi", "phi"}}
_BOX_KEYS = {"t_settle", "t_obs", "margin", "dt"}
_ATTACK_KEYS = {"replay", "fdi", "eavesdrop"}
_REPLAY_KEYS = {"tau", "t_start"}
_FDI_KEYS = {"M", "t_start", "direction", "shape", "freq_hz"}
_EAV_KEYS = {"L_bar"}
_INTEGRATION_KEYS = {"dt", "t_end", "t_settle"}
_INITIAL_KEYS = {"x0", "xhat0", "xihat0"}


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ScenarioFormatError(f"missing required key '{key}' in {where}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, where: str):
    if not isinstance(cfg, dict):
        raise ScenarioFormatError(f"{where} must be a mapping")
    unknown = set(cfg) - allowed
    if unknown:
        prefix = "" if where == "scenario" else f"{where}."
        raise ScenarioFormatError(
            f"unknown key(s): {', '.join(f'{prefix}{key}' for key in sorted(unknown))}")


def _number(cfg: dict, key: str, where: str) -> None:
    value = _require(cfg, key, where)
    # bool is an int, but a YAML true is not a number.
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioFormatError(f"{where}.{key} must be a finite number, got {value!r}")


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


def _matrix(value, where: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    with input_error(f"{where} (numeric array)"):
        return as_matrix(value, rows, cols)


def _vector(value, where: str, size: int | None = None) -> np.ndarray:
    with input_error(f"{where} (numeric vector)"):
        return as_vector(value, size)


def bundled_scenario_path(name: str) -> Path | None:
    ref = importlib.resources.files("chaosmask") / "data" / f"{name}.yaml"
    return Path(str(ref)) if ref.is_file() else None


def load_scenario_file(name_or_path: str) -> dict:
    """Load and schema-validate a scenario file.

    ``name_or_path`` is a filesystem path or the name of a bundled scenario
    (e.g. ``b747``).
    """
    path = Path(name_or_path)
    if not path.is_file():
        bundled = bundled_scenario_path(str(name_or_path))
        if bundled is None:
            raise ScenarioFormatError(
                f"scenario '{name_or_path}' is neither a file nor a bundled scenario")
        path = bundled
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(f"cannot parse {path}: {exc}") from None
    validate_scenario_cfg(cfg)
    return cfg


def validate_scenario_cfg(cfg: dict) -> None:
    _check_keys(cfg, _TOP_KEYS, "scenario")
    plant = _require(cfg, "plant", "scenario")
    _check_keys(plant, {"A", "B", "C"}, "plant")
    for key in ("A", "B", "C"):
        _matrix(_require(plant, key, "plant"), f"plant.{key}")
    ctrl = _require(cfg, "controller", "scenario")
    _check_keys(ctrl, {"K"}, "controller")
    _matrix(_require(ctrl, "K", "controller"), "controller.K")
    _matrix(_require(cfg, "unmasked_gain", "scenario"), "unmasked_gain")

    if "mask" in cfg:
        mask = cfg["mask"]
        _check_keys(mask, _MASK_KEYS.union(*_MASK_TYPE_KEYS.values()), "mask")
        mtype = _require(mask, "type", "mask")
        if mtype not in _MASK_TYPE_KEYS:
            raise ScenarioFormatError(f"mask.type must be rossler_p4 or custom, got {mtype!r}")
        other = sorted(set(mask) - _MASK_KEYS - _MASK_TYPE_KEYS[mtype])
        if other:
            raise ScenarioFormatError(f"mask.type {mtype} takes no key(s): "
                                      + ", ".join(f"mask.{key}" for key in other))
        if mtype == "rossler_p4":
            for key in ("a", "b"):
                _number(mask, key, "mask")
            n_xi = 3
        else:
            n_xi = _matrix(_require(mask, "Phi", "mask"), "mask.Phi").shape[0]
            _require(mask, "phi", "mask")
        n_rows = _matrix(_require(mask, "Lambda", "mask"), "mask.Lambda").shape[0]
        if n_rows != len(plant["C"]):
            raise ScenarioFormatError(f"mask.Lambda has {n_rows} rows but the plant has "
                                      f"{len(plant['C'])} outputs (rows of plant.C)")
        _vector(_require(mask, "xi0", "mask"), "mask.xi0", n_xi)
        # sigma is checked against the mask it calibrates (calibrate_mask).
        box = mask.get("box", {})
        _check_keys(box, _BOX_KEYS, "mask.box")
        bounds = [(mask, "mask", key) for key in ("ell", "d_bound") if mask.get(key) is not None]
        for section, where, key in bounds + [(box, "mask.box", key) for key in sorted(box)]:
            _number(section, key, where)
            positive = key in ("t_obs", "dt")
            if not (section[key] > 0 if positive else section[key] >= 0):
                raise ScenarioFormatError(
                    f"{where}.{key} must be finite and {'> 0' if positive else '>= 0'}, "
                    f"got {section[key]!r}")

    if "observer" in cfg:
        obs = cfg["observer"]
        _check_keys(obs, {"synthesize", "L"}, "observer")
        if ("synthesize" in obs) == ("L" in obs):
            raise ScenarioFormatError("observer needs exactly one of 'synthesize' or 'L'")
        if "L" in obs:
            _matrix(obs["L"], "observer.L")

    if "detector" in cfg:
        det = cfg["detector"]
        _check_keys(det, {"nu", "calibrate_safety"}, "detector")
        if ("nu" in det) == ("calibrate_safety" in det):
            raise ScenarioFormatError("detector needs exactly one of 'nu' or 'calibrate_safety'")
        key = "nu" if "nu" in det else "calibrate_safety"
        _number(det, key, "detector")
        # The ranges of sim.detect (nu >= 0) and sim.calibrate_threshold (safety > 1).
        if key == "nu" and det[key] < 0:
            raise ScenarioFormatError(f"detector.nu must be >= 0, got {det[key]!r}")
        if key == "calibrate_safety" and det[key] <= 1:
            raise ScenarioFormatError(f"detector.calibrate_safety must be > 1, got {det[key]!r}")

    if "attacks" in cfg:
        atk = cfg["attacks"]
        _check_keys(atk, _ATTACK_KEYS, "attacks")
        if "replay" in atk:
            _check_keys(atk["replay"], _REPLAY_KEYS, "attacks.replay")
            _number(atk["replay"], "tau", "attacks.replay")
            _number(atk["replay"], "t_start", "attacks.replay")
        if "fdi" in atk:
            fdi = atk["fdi"]
            _check_keys(fdi, _FDI_KEYS, "attacks.fdi")
            _number(fdi, "M", "attacks.fdi")
            _number(fdi, "t_start", "attacks.fdi")
            if "freq_hz" in fdi:
                _number(fdi, "freq_hz", "attacks.fdi")
            # The attack's own rules; the direction's length is checked
            # against the plant's outputs when the attack is built for a run.
            with input_error("attacks.fdi"):
                FdiAttack(**{"direction": [1.0], **fdi})
        if "eavesdrop" in atk and atk["eavesdrop"] is not None:
            _check_keys(atk["eavesdrop"], _EAV_KEYS, "attacks.eavesdrop")

    integ = _require(cfg, "integration", "scenario")
    _check_keys(integ, _INTEGRATION_KEYS, "integration")
    for key in ("dt", "t_end", "t_settle"):
        _number(integ, key, "integration")
    dt, t_end, t_settle = (float(integ[key]) for key in ("dt", "t_end", "t_settle"))
    # The detector is calibrated on the grid points at or after t_settle.
    if dt > 0 and not grid_steps(t_end, dt) * dt >= t_settle:
        raise ScenarioFormatError(
            f"integration.t_settle = {t_settle!r} lies after the last grid point "
            f"{grid_steps(t_end, dt) * dt!r} of t_end = {t_end!r} at dt = {dt!r}")

    init = _require(cfg, "initial", "scenario")
    _check_keys(init, _INITIAL_KEYS, "initial")
    _vector(_require(init, "x0", "initial"), "initial.x0")
    _vector(_require(init, "xhat0", "initial"), "initial.xhat0")

    if "reference" in cfg:
        _check_keys(cfg["reference"], {"x_ref"}, "reference")
        _vector(_require(cfg["reference"], "x_ref", "reference"), "reference.x_ref")


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
        beta = float(m.get("beta", 1.0))
        return scale_mask(mask, beta) if apply_beta and beta != 1.0 else mask


def mask_xi0(cfg: dict) -> np.ndarray:
    """Masker initial condition of the file's scaled masker: the file's
    ``xi0`` with its last entry divided by ``beta``."""
    m = cfg["mask"]
    xi0 = _vector(m["xi0"], "mask.xi0").copy()
    xi0[-1] /= float(m.get("beta", 1.0))
    return xi0


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
    An explicit sigma must pass ``ChaoticMask``'s rule for ``mask`` (one
    radius > 0 per masker state).  Box keys the file leaves out take the
    defaults of :func:`estimate_invariant_box`.
    """
    if unscaled is not None and not apply_beta:
        raise ValueError("unscaled is calibrated alongside a scaled mask")
    m = cfg["mask"]
    beta = float(m.get("beta", 1.0))
    sigma = m.get("sigma")
    if sigma is not None:
        with input_error("mask.sigma"):  # the mask's own rule for its box
            sigma = dataclasses.replace(mask, sigma=sigma).sigma
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
