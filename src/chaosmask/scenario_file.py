"""Scenario files: schema validation and object construction.

Scenario files are YAML with row-major nested arrays for matrices.  Unknown
keys are rejected before any computation so typos fail fast.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ScenarioFormatError
from .models import ChaoticMask, LtiPlant, PolynomialMap, estimate_invariant_box, \
    estimate_lipschitz, rossler_p4, scale_mask

_TOP_KEYS = {"name", "plant", "mask", "controller", "unmasked_gain", "observer",
             "detector", "attacks", "integration", "initial", "reference"}
_MASK_KEYS = {"type", "a", "b", "beta", "Lambda", "Phi", "phi", "xi0", "box",
              "lipschitz", "sigma", "ell", "d_bound"}
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
        raise ScenarioFormatError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(cfg: dict, key: str, where: str) -> None:
    if not isinstance(_require(cfg, key, where), (int, float)):
        raise ScenarioFormatError(f"{where}.{key} must be a number")


def _matrix(value, where: str) -> np.ndarray:
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{where} is not a numeric array: {exc}") from None
    if M.ndim != 2:
        raise ScenarioFormatError(f"{where} must be a nested (row-major) 2-D array")
    if not np.all(np.isfinite(M)):
        raise ScenarioFormatError(f"{where} contains non-finite entries")
    return M


def _vector(value, where: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{where} is not a numeric vector: {exc}") from None
    if not np.all(np.isfinite(v)):
        raise ScenarioFormatError(f"{where} contains non-finite entries")
    return v


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
        _check_keys(mask, _MASK_KEYS, "mask")
        mtype = _require(mask, "type", "mask")
        if mtype not in ("rossler_p4", "custom"):
            raise ScenarioFormatError(f"mask.type must be rossler_p4 or custom, got {mtype!r}")
        if mtype == "rossler_p4":
            for key in ("a", "b"):
                if not isinstance(_require(mask, key, "mask"), (int, float)):
                    raise ScenarioFormatError(f"mask.{key} must be a number")
        else:
            _matrix(_require(mask, "Phi", "mask"), "mask.Phi")
            _require(mask, "phi", "mask")
        n_rows = _matrix(_require(mask, "Lambda", "mask"), "mask.Lambda").shape[0]
        if n_rows != len(plant["C"]):
            raise ScenarioFormatError(f"mask.Lambda has {n_rows} rows but the plant has "
                                      f"{len(plant['C'])} outputs (rows of plant.C)")
        _vector(_require(mask, "xi0", "mask"), "mask.xi0")
        if "box" in mask:
            box = mask["box"]
            _check_keys(box, _BOX_KEYS, "mask.box")
            for key in sorted(_BOX_KEYS & set(box)):
                _number(box, key, "mask.box")
                positive = key in ("t_obs", "dt")
                if not (np.isfinite(box[key]) and (box[key] > 0 if positive else box[key] >= 0)):
                    raise ScenarioFormatError(
                        f"mask.box.{key} must be finite and {'> 0' if positive else '>= 0'}, "
                        f"got {box[key]!r}")
        if "lipschitz" in mask:
            lip = mask["lipschitz"]
            _check_keys(lip, {"grid_per_axis"}, "mask.lipschitz")
            grid = lip.get("grid_per_axis", 21)
            if isinstance(grid, bool) or not isinstance(grid, int) or grid < 3:
                raise ScenarioFormatError(
                    f"mask.lipschitz.grid_per_axis must be an integer >= 3, got {grid!r}")

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

    if "attacks" in cfg:
        atk = cfg["attacks"]
        _check_keys(atk, _ATTACK_KEYS, "attacks")
        if "replay" in atk:
            _check_keys(atk["replay"], _REPLAY_KEYS, "attacks.replay")
            _number(atk["replay"], "tau", "attacks.replay")
            _number(atk["replay"], "t_start", "attacks.replay")
        if "fdi" in atk:
            _check_keys(atk["fdi"], _FDI_KEYS, "attacks.fdi")
            _number(atk["fdi"], "M", "attacks.fdi")
            _number(atk["fdi"], "t_start", "attacks.fdi")
        if "eavesdrop" in atk and atk["eavesdrop"] is not None:
            _check_keys(atk["eavesdrop"], _EAV_KEYS, "attacks.eavesdrop")

    integ = _require(cfg, "integration", "scenario")
    _check_keys(integ, _INTEGRATION_KEYS, "integration")
    for key in ("dt", "t_end", "t_settle"):
        _number(integ, key, "integration")

    init = _require(cfg, "initial", "scenario")
    _check_keys(init, _INITIAL_KEYS, "initial")
    _vector(_require(init, "x0", "initial"), "initial.x0")
    _vector(_require(init, "xhat0", "initial"), "initial.xhat0")

    if "reference" in cfg:
        _check_keys(cfg["reference"], {"x_ref"}, "reference")
        _vector(_require(cfg["reference"], "x_ref", "reference"), "reference.x_ref")


def build_plant(cfg: dict) -> LtiPlant:
    A, B, C = (_matrix(cfg["plant"][key], f"plant.{key}") for key in "ABC")
    try:
        return LtiPlant(A=A, B=B, C=C)
    except ValueError as exc:
        raise ScenarioFormatError(f"invalid plant: {exc}") from None


def _custom_phi(spec, n: int) -> PolynomialMap:
    try:
        terms = tuple(tuple((float(c), tuple(int(e) for e in exps)) for c, exps in comp)
                      for comp in spec)
        return PolynomialMap(n, n, terms)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"invalid mask.phi: {exc}") from None


def build_mask(cfg: dict, apply_beta: bool = True) -> ChaoticMask:
    """Instantiate the (uncalibrated) masker; ``apply_beta=False`` skips the
    coordinate rescaling even when the file specifies one."""
    m = cfg["mask"]
    Lam = _matrix(m["Lambda"], "mask.Lambda")
    try:
        if m["type"] == "rossler_p4":
            mask = rossler_p4(float(m["a"]), float(m["b"]), Lambda=Lam)
        else:
            Phi = _matrix(m["Phi"], "mask.Phi")
            mask = ChaoticMask(Phi=Phi, phi=_custom_phi(m["phi"], Phi.shape[0]), Lambda=Lam)
        beta = float(m.get("beta", 1.0))
        if apply_beta and beta != 1.0:
            mask = scale_mask(mask, beta)
    except ScenarioFormatError:
        raise
    except ValueError as exc:
        raise ScenarioFormatError(f"invalid mask: {exc}") from None
    return mask


def mask_xi0(cfg: dict, apply_beta: bool = True) -> np.ndarray:
    """Masker initial condition, mapped through the rescaling when applied."""
    m = cfg["mask"]
    xi0 = _vector(m["xi0"], "mask.xi0").copy()
    beta = float(m.get("beta", 1.0))
    if apply_beta and beta != 1.0:
        xi0[-1] /= beta
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
    """
    if unscaled is not None and not apply_beta:
        raise ValueError("unscaled is calibrated alongside a scaled mask")
    m = cfg["mask"]
    if m.get("sigma") is None or m.get("d_bound") is None:
        box = m.get("box", {}) or {}
        scaled, raw = (mask, unscaled) if apply_beta else (build_mask(cfg, True), mask)
        estimate_invariant_box(scaled, mask_xi0(cfg, True),
                               t_settle=float(box.get("t_settle", 100.0)),
                               t_obs=float(box.get("t_obs", 500.0)),
                               margin=float(box.get("margin", 0.2)),
                               dt=float(box.get("dt", 1e-3)),
                               unscaled=None if raw is None
                               else (raw, float(m.get("beta", 1.0))))
    lip = m.get("lipschitz", {}) or {}
    for target in (mask,) if unscaled is None else (mask, unscaled):
        if m.get("sigma") is not None:
            target.sigma = _vector(m["sigma"], "mask.sigma")
        if m.get("d_bound") is not None:
            target.d_bound = float(m["d_bound"])
        if m.get("ell") is not None:
            target.ell = float(m["ell"])
        else:
            estimate_lipschitz(target, grid_per_axis=int(lip.get("grid_per_axis", 21)))
    return mask
