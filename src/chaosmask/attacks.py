"""Adversary models acting on the sensor-to-estimator channel.

Threat-model fidelity matters here: the eavesdropper and the FDI attacker are
constructed from plant-level knowledge {A, B, C, L} only and never see the
masker parameters.

Each attack spec owns its part of the closed-loop operator that
:func:`chaosmask.sim.run_scenario` integrates: ``state_size`` rows of
attacker state, ``compile``, which adds those rows and the attack's channel
coupling and returns the operator to use at a stage time, and ``channel``,
which rebuilds the channel the estimator saw from the stored trajectory.

``compile`` receives the simulator's ``ClosedLoop`` (see ``chaosmask.sim``)
and returns its :class:`Phases`.  ``at(t) -> (M, present)`` gives the
operator at RK4 stage time ``t`` and whether an affine term ``b`` is added
there.  ``edges`` are the only times at which either can change: between two
edges ``at`` returns the same ``M`` object, and ``b`` is absent throughout or
present throughout.  The no-attack and eavesdropping operators never change,
FDI's changes at onset, and replay's at both ends of its window.
``drive(times, steps, traj)`` writes ``b``: one row per stage time in
``times``, where ``steps`` (broadcast against ``times``) holds each time's
step ``k`` and ``traj`` the recorded states of steps ``0..k``.  FDI's ``b``
depends on ``t`` alone; replay's is the channel coupling times a recorded
row, multiplied once per distinct row.  The simulator asks ``at`` once per
stretch of steps and ``drive`` once per stretch with an affine term, and runs
the stretch with one fixed operator triple.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NotHurwitzError
from .models import LtiPlant
from .numerics import as_matrix, as_vector, is_hurwitz


@dataclass(frozen=True)
class Phases:
    """Where an operator of the closed loop applies (see the module docstring)."""

    at: Callable
    edges: tuple = ()
    drive: Callable | None = None


def steady(M) -> Phases:
    """The operator ``M`` at every stage time, with no affine term."""
    return Phases(lambda t: (M, False))


def check_onset(t_start: float, dt: float, t_end: float) -> None:
    """Reject an attack onset after the last grid point of a run to ``t_end``
    on the grid ``dt``: the run would pass for an attacked one."""
    t_last = round(t_end / dt) * dt
    if not t_start <= t_last:
        raise ValueError(f"t_start = {t_start!r} lies after the last grid point {t_last!r}: "
                         "the attack never starts")


@dataclass(frozen=True)
class NoAttack:
    """Channel passes the transmitted signal through unchanged."""

    block_name = None

    def state_size(self, n_x: int) -> int:
        return 0

    def compile(self, loop):
        return steady(loop.live())

    def channel(self, loop, times, traj, ybold):
        return ybold


@dataclass(frozen=True)
class EavesdropAttack:
    """Passive interception: the adversary runs its own observer on the channel.

    ``L_bar`` must make ``A - L_bar C`` Hurwitz (checked when the closed loop
    is compiled).  The observer ``xe' = A xe + B u + L_bar (chan - C xe)``
    starts at zero and never feeds back.
    """

    L_bar: np.ndarray

    block_name = "eavesdropper"

    def state_size(self, n_x: int) -> int:
        return n_x

    def compile(self, loop):
        p = loop.plant
        L_bar = as_matrix(self.L_bar, rows=p.n_x, cols=p.n_y, name="L_bar")
        if not is_hurwitz(p.A - L_bar @ p.C):
            raise NotHurwitzError("eavesdropper gain does not stabilize A - L_bar C")
        loop.add_observer(loop.attacker, p.A, p.B, p.C, L_bar)
        return steady(loop.live())

    def channel(self, loop, times, traj, ybold):
        return ybold


@dataclass(frozen=True)
class ReplayAttack:
    """Record the channel for ``tau`` seconds before ``t_start``, then play it back.

    Inside ``[t_start, t_start + tau]`` the channel carries the transmitted
    sample of step ``round((t - tau) / dt)``, never later than the current
    step, in place of the live signal.
    """

    tau: float
    t_start: float

    block_name = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.t_start >= 0:
            raise ValueError("t_start must be nonnegative")
        if self.t_start < self.tau:
            raise ValueError("replay needs a recording that covers [t_start - tau, "
                             "t_start] (t_start >= tau)")

    def check_grid(self, dt: float, t_end: float) -> None:
        """Reject a window that a run to ``t_end`` on the grid ``dt`` cannot
        replay: the sample replayed at every RK4 stage time of a step must
        already be recorded, the window must open within the run
        (:func:`check_onset`), and the steady premise needs a grid point in
        the second ``[t_start - 1, t_start)`` before it."""
        if self.tau < dt:
            raise ValueError("replay tau must be at least one step dt")
        for name, value in (("tau", self.tau), ("t_start", self.t_start)):
            steps = value / dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                raise ValueError(f"replay {name} = {value:g} is not on the dt grid")
        check_onset(self.t_start, dt, t_end)
        if dt > 1.0:  # t_start is a grid point after 0: the one before is t_start - dt
            raise ValueError(f"dt = {dt!r} leaves no grid point in the steady-premise "
                             "second before t_start")

    def state_size(self, n_x: int) -> int:
        return 0

    def in_window(self, t):
        return (self.t_start <= t) & (t <= self.t_start + self.tau)

    def recorded_row(self, times, steps, dt: float):
        """The step whose transmitted sample is replayed at each of ``times``,
        where ``steps`` (broadcast against ``times``) holds the current step."""
        return np.minimum(np.rint((times - self.tau) / dt).astype(np.intp), steps)

    def compile(self, loop):
        M_open, coupling, dt = loop.M_open, loop.Lc @ loop.H, loop.dt
        live = M_open + coupling

        def at(t):
            return (M_open, True) if self.in_window(t) else (live, False)

        def drive(times, steps, traj):
            # Row by row: a batched product rounds differently from the matvec.
            rows = self.recorded_row(times, steps, dt)
            distinct, where = np.unique(rows, return_inverse=True)
            b = np.array([coupling.dot(traj[r]) for r in distinct.tolist()])
            return b[where.reshape(rows.shape)]
        return Phases(at, edges=(self.t_start, self.t_start + self.tau), drive=drive)

    def channel(self, loop, times, traj, ybold):
        rows = self.recorded_row(times, np.arange(times.size), loop.dt)
        win = self.in_window(times)
        chan = ybold.copy()
        chan[win] = ybold[rows[win]]
        return chan


@dataclass(frozen=True)
class FdiAttack:
    """Additive injection ``a = C dxhat + phi(t)`` engineered to stay stealthy.

    The free signal is stored as ``direction * M * shape(t)`` with
    ``|shape| <= 1``, so ``||phi(t)|| <= M`` holds by construction.
    ``shape`` is ``"constant"`` (worst case, the stealth boundary is sharp) or
    ``"sin"`` with frequency ``freq_hz``.

    From ``t_start`` on, the attacker's model of the victim's estimation
    difference integrates ``dxhat' = (A - L C) dxhat + L a`` from zero, with
    only the unmasked-system knowledge {A, C, L}.
    """

    M: float
    t_start: float
    direction: np.ndarray
    shape: str = "constant"
    freq_hz: float = 0.5

    block_name = "FDI model"

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError("M must be positive")
        if not self.t_start >= 0:
            raise ValueError("t_start must be nonnegative")
        if self.shape not in ("constant", "sin"):
            raise ValueError("shape must be 'constant' or 'sin'")
        if self.shape == "sin" and not self.freq_hz > 0:
            # sin(0) = 0: the attack would inject nothing.
            raise ValueError(f"freq_hz must be > 0 for shape 'sin', got {self.freq_hz!r}")
        d = as_vector(self.direction, name="direction")
        nrm = np.linalg.norm(d)
        if nrm == 0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "direction", d / nrm)

    def wave(self, t):
        """``shape(t)``, elementwise over an array of times."""
        if self.shape == "constant":
            return np.ones_like(t, dtype=float)
        return np.sin(2.0 * np.pi * self.freq_hz * t)

    def phi(self, t) -> np.ndarray:
        """The bounded free signal at time ``t`` (measured from attack onset);
        an array of times gives one row per time."""
        return np.multiply.outer(self.M * self.wave(t), self.direction)

    def check_grid(self, dt: float, t_end: float) -> None:
        """Reject an onset that a run never reaches (:func:`check_onset`)."""
        check_onset(self.t_start, dt, t_end)

    def state_size(self, n_x: int) -> int:
        return n_x

    def compile(self, loop):
        if loop.L_plain is None:
            raise ValueError("the FDI attacker needs the plain gain L_plain as system knowledge")
        p, L, d = loop.plant, loop.L_plain, loop.attacker
        before = loop.live()
        # After onset the channel gains C dxhat + phi(t); every consumer of it,
        # and the attacker's model, sees the injection through ``inject``.
        inject = loop.Lc.copy()
        inject[d] = L
        tap = np.zeros((p.n_y, before.shape[0]))
        tap[:, d] = p.C
        after = before + inject @ tap
        after[d, d] += p.A - L @ p.C
        t0 = self.t_start
        b_max = inject @ (self.M * self.direction)   # inject @ phi(t) = b_max shape(t)

        def at(t):
            return (after, True) if t >= t0 else (before, False)

        def drive(times, steps, traj):
            return np.multiply.outer(self.wave(times - t0), b_max)
        return Phases(at, edges=(t0,), drive=drive)

    def injection(self, times) -> np.ndarray:
        """``phi(t - t_start)`` from onset on, zero before it; one row per time."""
        out = np.zeros((times.size, self.direction.size))
        on = times >= self.t_start
        out[on] = self.phi(times[on] - self.t_start)
        return out

    def channel(self, loop, times, traj, ybold):
        # The model state and the injection are exactly zero before onset.
        return ybold + (np.einsum("ij,kj->ik", traj[:, loop.attacker], loop.plant.C)
                        + self.injection(times))


AttackSpec = NoAttack | EavesdropAttack | ReplayAttack | FdiAttack


def eavesdrop_error_bound(plant: LtiPlant, L_bar, eps: float) -> float:
    """Guaranteed ceiling on the eavesdropping error under a masking signal of
    norm at most ``eps``: ``2 lam_max(S)^2 ||L_bar|| eps / lam_min(S)`` with S
    solving ``S (A - L_bar C) + (A - L_bar C)' S = -I``."""
    from .numerics import solve_lyapunov

    if not eps >= 0:  # NaN included, as ChaoticMask checks its bounds
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    L_bar = as_matrix(L_bar, rows=plant.n_x, cols=plant.n_y, name="L_bar")
    A_cl = plant.A - L_bar @ plant.C
    S = solve_lyapunov(A_cl)
    lam = np.linalg.eigvalsh(S)
    return float(2.0 * lam[-1] ** 2 * np.linalg.norm(L_bar, 2) / lam[0] * eps)


def stealthiness_metric(attacked, clean) -> tuple[float, np.ndarray]:
    """Sup over the attack window of ``||z_attacked(t) - z_clean(t)||``.

    Both traces must share the time grid and differ only by the attack.
    Returns the supremum together with the full ``||delta z||`` time series
    (over the whole grid, not just the window).
    """
    if attacked.times.shape != clean.times.shape or \
            np.any(attacked.times != clean.times):
        raise ValueError("traces do not share a time grid")
    if attacked.z.shape != clean.z.shape:
        raise ValueError("traces have mismatched innovation dimensions")
    dz = np.linalg.norm(attacked.z - clean.z, axis=1)
    atk, times = attacked.attack, attacked.times
    if isinstance(atk, ReplayAttack):
        sel = atk.in_window(times)
    elif isinstance(atk, FdiAttack):
        sel = times >= atk.t_start
    else:
        sel = np.ones(times.shape, dtype=bool)
    sup = float(np.max(dz[sel])) if np.any(sel) else 0.0
    return sup, dz
