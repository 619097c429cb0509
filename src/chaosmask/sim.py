"""Deterministic closed-loop scenario engine.

One fixed-step co-simulation advances plant, masker, estimator, and any
attacker state on a shared grid.  Each scenario is compiled once into an
affine closed-loop operator (:class:`ClosedLoop`), the channel transform
included, so a run is a single fused RK4 pass.  Two runs of the same
scenario produce bit-identical traces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec, EavesdropAttack, FdiAttack, NoAttack, ReplayAttack
from .errors import DivergedRunError, NotHurwitzError
from .models import ChaoticMask, LtiPlant, build_extended
from .numerics import as_matrix, as_vector, is_hurwitz
from .synthesis import ObserverGain

#: Steady-state tolerance for the replay premise (plant and observer at rest).
TOL_SS = 1e-6

#: State norm beyond which a run is declared diverged.
DIVERGENCE_NORM = 1e9

#: Threshold floor substituted when a clean trace has identically zero innovation.
NU_FLOOR = 1e-12


@dataclass
class Scenario:
    """A fully specified closed-loop experiment.

    With ``mask`` set the estimator is the extended observer (gain from
    ``observer``); without it the plain estimator with gain ``L_plain`` runs.
    ``L_plain`` is also the attacker-side system knowledge (eavesdropper
    default gain, FDI internal model), so it is required whenever an attack
    needs it.  ``x_ref``/``u_eq`` switch on the constant-reference control law
    ``u = u_eq - K (xhat - x_ref)``.
    """

    plant: LtiPlant
    controller_K: np.ndarray
    x0: np.ndarray
    xhat0: np.ndarray
    mask: ChaoticMask | None = None
    observer: ObserverGain | None = None
    L_plain: np.ndarray | None = None
    xi0: np.ndarray | None = None
    xihat0: np.ndarray | None = None
    attack: AttackSpec = dataclasses.field(default_factory=NoAttack)
    x_ref: np.ndarray | None = None
    u_eq: np.ndarray | None = None
    control_enabled: bool = True
    dt: float = 1e-3
    t_end: float = 60.0
    t_settle: float = 30.0
    name: str = ""

    def __post_init__(self):
        p = self.plant
        self.controller_K = as_matrix(self.controller_K, rows=p.n_u, cols=p.n_x, name="K")
        self.x0 = as_vector(self.x0, size=p.n_x, name="x0")
        self.xhat0 = as_vector(self.xhat0, size=p.n_x, name="xhat0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (0.0 <= self.t_settle < self.t_end):
            raise ValueError("t_settle must lie in [0, t_end)")
        if self.control_enabled and not is_hurwitz(p.A - p.B @ self.controller_K):
            raise NotHurwitzError("A - B K is not Hurwitz; the loop cannot settle")
        if self.mask is not None:
            if self.observer is None:
                raise ValueError("a masked scenario needs a certified observer gain")
            if self.mask.sigma is None:
                raise ValueError("mask must be calibrated (sigma unset)")
            n_xi = self.mask.n_xi
            self.xi0 = as_vector(self.xi0, size=n_xi, name="xi0")
            self.xihat0 = np.zeros(n_xi) if self.xihat0 is None \
                else as_vector(self.xihat0, size=n_xi, name="xihat0")
            if self.observer.L.shape != (n_xi + p.n_x, p.n_y):
                raise ValueError("observer gain has the wrong shape for this plant/mask pair")
        else:
            if self.L_plain is None:
                raise ValueError("an unmasked scenario needs the plain estimator gain L_plain")
        if self.L_plain is not None:
            self.L_plain = as_matrix(self.L_plain, rows=p.n_x, cols=p.n_y, name="L_plain")
        if self.x_ref is not None:
            self.x_ref = as_vector(self.x_ref, size=p.n_x, name="x_ref")
        if self.u_eq is not None:
            self.u_eq = as_vector(self.u_eq, size=p.n_u, name="u_eq")
        if isinstance(self.attack, ReplayAttack):
            # The replayed sample of step round((t - tau) / dt) must already be
            # recorded at every RK4 stage time t of the current step.
            atk = self.attack
            if atk.tau < self.dt:
                raise ValueError("replay tau must be at least one step dt")
            for name, value in (("tau", atk.tau), ("t_start", atk.t_start)):
                steps = value / self.dt
                if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                    raise ValueError(f"replay {name} = {value:g} is not on the dt grid")
            if atk.t_start < atk.tau:
                raise ValueError("replay needs a recording that covers [t_start - tau, "
                                 "t_start] (t_start >= tau)")

    @property
    def masked(self) -> bool:
        return self.mask is not None


def clean_twin(scenario: Scenario) -> Scenario:
    """The same experiment with the attack removed."""
    return dataclasses.replace(scenario, attack=NoAttack(),
                               name=scenario.name + "-clean" if scenario.name else "clean")


@dataclass
class SimTrace:
    """Complete deterministic output of one scenario run (shared uniform grid);
    ``alarm`` and ``nu`` are those of a detector applied after the run."""

    times: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    y: np.ndarray
    ybold: np.ndarray
    chan: np.ndarray
    z: np.ndarray
    u: np.ndarray
    g: np.ndarray
    alarm: np.ndarray
    err_norm: np.ndarray
    masked: bool
    attack: AttackSpec
    dt: float
    t_settle: float
    nu: float | None = None
    xi: np.ndarray | None = None
    xihat: np.ndarray | None = None
    eav_xhat: np.ndarray | None = None
    eav_err: np.ndarray | None = None
    fdi_phi: np.ndarray | None = None
    steady_premise_ok: bool | None = None
    name: str = ""

    def post_settle(self, series: np.ndarray) -> np.ndarray:
        return series[self.times >= self.t_settle]

    def to_csv(self, path) -> None:
        """One row per step; floats at 17 significant digits for replayability."""
        cols: list[tuple[str, np.ndarray]] = [("t", self.times)]

        def add_block(prefix, arr):
            for j in range(arr.shape[1]):
                cols.append((f"{prefix}_{j + 1}", arr[:, j]))

        add_block("x", self.x)
        if self.xi is not None:
            add_block("xi", self.xi)
        add_block("xhat", self.xhat)
        if self.xihat is not None:
            add_block("xihat", self.xihat)
        add_block("y", self.y)
        add_block("ybold", self.ybold)
        add_block("chan", self.chan)
        add_block("z", self.z)
        add_block("u", self.u)
        if self.eav_xhat is not None:
            add_block("eav_xhat", self.eav_xhat)
        if self.fdi_phi is not None:
            add_block("fdi_phi", self.fdi_phi)
        cols.append(("g", self.g))
        cols.append(("alarm", self.alarm.astype(float)))
        cols.append(("err_norm", self.err_norm))
        header = ",".join(name for name, _ in cols)
        data = np.column_stack([c for _, c in cols])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")

    @property
    def first_alarm_time(self) -> float | None:
        idx = np.flatnonzero(self.alarm)
        return float(self.times[idx[0]]) if idx.size else None


@dataclass
class ClosedLoop:
    """One scenario's stacked closed-loop system, assembled once.

    The state is ``s = [x | xi | xihat | xhat | attacker | 1]`` (no ``xi``
    and ``xihat`` when unmasked); the trailing constant carries the affine
    terms ``u_eq``, ``K x_ref`` and ``B u_eq``.  At each RK4 stage time the
    attack's phase selector picks ``(M, b)`` and

        ``s' = M s + b + G mono(clamp(s[gather]))``,

    where ``clamp`` bounds the ``xihat`` factors by ``+-sigma`` (and nothing
    else), so one gather gives the monomials of both ``phi(xi)`` and
    ``phi(sat_sigma(xihat))`` and ``G`` scatters them into the ``xi`` and
    ``xihat`` rows.

    The parts the attack spec builds on: ``M_open`` holds every block except
    the channel coupling, ``H`` maps the state to the transmitted signal
    ``ybold = H s``, ``Lc`` holds each channel consumer's gain (estimator,
    eavesdropper), and ``U`` maps the state to the control input ``u = U s``.
    """

    plant: LtiPlant
    L_plain: np.ndarray | None
    dt: float
    blocks: dict          # state block name -> slice, in layout order
    attacker: slice
    M_open: np.ndarray
    H: np.ndarray
    Lc: np.ndarray
    U: np.ndarray
    phi: object = None    # the masker's PolynomialMap (masked runs)
    gather: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    G: np.ndarray | None = None
    phase: object = None  # (t, k, traj) -> (M, b), set by the attack spec

    @property
    def n(self) -> int:
        return self.M_open.shape[0]

    def live(self) -> np.ndarray:
        """The operator with the channel carrying the transmitted signal."""
        return self.M_open + self.Lc @ self.H

    def derivative(self, t: float, s: np.ndarray, k: int, traj: np.ndarray) -> np.ndarray:
        """``s'`` at stage time ``t`` of step ``k``; ``traj`` holds steps ``0..k``."""
        M, b = self.phase(t, k, traj)
        ds = M @ s
        if self.G is not None:
            v = np.minimum(np.maximum(s[self.gather], self.lo), self.hi)
            ds += self.G @ self.phi.products(v).ravel()
        if b is not None:
            ds += b
        return ds

    def diverged_block(self, s: np.ndarray) -> str:
        """The state block that went non-finite, else the one of largest norm."""
        norms = {name: float(np.linalg.norm(s[sl])) for name, sl in self.blocks.items()}
        for name, value in norms.items():
            if not np.isfinite(value):
                return name
        return max(norms, key=norms.get)

    def integrate(self, s0: np.ndarray, n_steps: int) -> np.ndarray:
        """Classical RK4 over ``n_steps`` steps; returns one state row per step.

        Rows not yet reached hold NaN, so a read ahead of the current step
        fails the divergence check instead of reading stale memory.
        """
        dt = self.dt
        half, sixth = 0.5 * dt, dt / 6.0
        limit = DIVERGENCE_NORM ** 2
        f = self.derivative
        traj = np.full((n_steps + 1, s0.size), np.nan)
        traj[0] = s = s0
        for k in range(n_steps):
            t = k * dt
            k1 = f(t, s, k, traj)
            k2 = f(t + half, s + half * k1, k, traj)
            k3 = f(t + half, s + half * k2, k, traj)
            k4 = f(t + dt, s + dt * k3, k, traj)
            s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not s @ s <= limit:
                raise DivergedRunError(t + dt, self.diverged_block(s))
            traj[k + 1] = s
        return traj


def compile_scenario(s: Scenario) -> ClosedLoop:
    """Assemble the closed-loop operator of a scenario (see :class:`ClosedLoop`)."""
    p = s.plant
    n_x, n_y = p.n_x, p.n_y
    n_xi = s.mask.n_xi if s.masked else 0
    sizes = [("plant x", n_x), ("masker xi", n_xi), ("estimator", n_xi + n_x),
             (s.attack.block_name, s.attack.state_size(n_x))]
    blocks, off = {}, 0
    for name, size in sizes:
        if size:
            blocks[name] = slice(off, off + size)
        off += size
    n = off + 1
    i_x = blocks["plant x"]
    i_obs = blocks["estimator"]
    i_xhat = slice(i_obs.stop - n_x, i_obs.stop)
    attacker = blocks.get(s.attack.block_name, slice(0, 0))

    U = np.zeros((p.n_u, n))
    if s.control_enabled:
        x_ref = s.x_ref if s.x_ref is not None else np.zeros(n_x)
        u_eq = s.u_eq if s.u_eq is not None else np.zeros(p.n_u)
        U[:, i_xhat] = -s.controller_K
        U[:, -1] = u_eq + s.controller_K @ x_ref
    M = np.zeros((n, n))
    H = np.zeros((n_y, n))
    Lc = np.zeros((n, n_y))
    M[i_x, i_x] = p.A
    M[i_x] += p.B @ U
    H[:, i_x] = p.C
    loop = ClosedLoop(plant=p, L_plain=s.L_plain, dt=s.dt, blocks=blocks,
                      attacker=attacker, M_open=M, H=H, Lc=Lc, U=U)
    if s.masked:
        ext = build_extended(p, s.mask)
        i_xi = blocks["masker xi"]
        L = s.observer.L
        M[i_xi, i_xi] = s.mask.Phi
        H[:, i_xi] = s.mask.Lambda
        M[i_obs, i_obs] = ext.Abold - L @ ext.Cbold
        M[i_obs] += ext.Bbold @ U
        Lc[i_obs] = L
        phi = s.mask.phi
        i_xihat = slice(i_obs.start, i_obs.start + n_xi)
        loop.phi = phi
        loop.gather = np.stack([i_xi.start + phi.var, i_xihat.start + phi.var])
        sigma = s.mask.sigma[phi.var]
        loop.lo = np.stack([np.full(sigma.shape, -np.inf), -sigma])
        loop.hi = np.stack([np.full(sigma.shape, np.inf), sigma])
        n_terms = phi.coef_matrix.shape[1]
        loop.G = np.zeros((n, 2 * n_terms))
        loop.G[i_xi, :n_terms] = phi.coef_matrix
        loop.G[i_xihat, n_terms:] = phi.coef_matrix
    else:
        M[i_obs, i_obs] = p.A - s.L_plain @ p.C
        M[i_obs] += p.B @ U
        Lc[i_obs] = s.L_plain
    loop.phase = s.attack.compile(loop)
    return loop


def run_scenario(s: Scenario) -> SimTrace:
    """Single-pass fixed-step co-simulation of a scenario, with no alarms.

    Raises :class:`DivergedRunError`, naming the state block, when the stacked
    state norm passes 1e9 or stops being finite.
    """
    p = s.plant
    loop = compile_scenario(s)
    n_steps = int(round(s.t_end / s.dt))
    times = np.arange(n_steps + 1) * s.dt

    s0 = np.zeros(loop.n)
    s0[-1] = 1.0
    s0[loop.blocks["plant x"]] = s.x0
    obs = loop.blocks["estimator"]
    if s.masked:
        s0[loop.blocks["masker xi"]] = s.xi0
        s0[obs] = np.concatenate([s.xihat0, s.xhat0])
    else:
        s0[obs] = s.xhat0
    traj = loop.integrate(s0, n_steps)

    # Everything below is derived from the stored states, vectorised.  The
    # products go through einsum, because a BLAS matrix product over the
    # whole trajectory touches megabytes of work buffers; with the error norm
    # summed column by column and the innovation formed in place, the peak
    # memory of a run stays at the size of its trace.
    x = traj[:, loop.blocks["plant x"]]
    xhat = traj[:, obs.stop - p.n_x:obs.stop]
    ybold = np.einsum("ij,kj->ik", traj, loop.H)
    if s.masked:
        xi = traj[:, loop.blocks["masker xi"]]
        xihat = traj[:, obs.start:obs.start + s.mask.n_xi]
        y = np.einsum("ij,kj->ik", x, p.C)
        C_est = np.hstack([s.mask.Lambda, p.C])
        pairs = [(x, xhat), (xi, xihat)]
    else:
        xi = xihat = None
        y, C_est, pairs = ybold, p.C, [(x, xhat)]
    err = np.zeros(n_steps + 1)
    for a, b in pairs:
        for j in range(a.shape[1]):
            d = a[:, j] - b[:, j]
            err += d * d
    err = np.sqrt(err)
    atk = s.attack
    chan = atk.channel(loop, times, traj, ybold)
    yhat = np.einsum("ij,kj->ik", traj[:, obs], C_est)
    z = np.subtract(chan, yhat, out=yhat)
    u = np.einsum("ij,kj->ik", traj, loop.U)
    g = np.einsum("ij,ij->i", z, z)

    premise = None
    if isinstance(atk, ReplayAttack):
        pre = (times >= atk.t_start - 1.0) & (times < atk.t_start)
        premise = bool(np.max(np.linalg.norm(z[pre], axis=1)) < TOL_SS)
    eav_xhat = eav_err = fdi_phi = None
    if isinstance(atk, EavesdropAttack):
        eav_xhat = traj[:, loop.attacker]
        eav_err = np.linalg.norm(x - eav_xhat, axis=1)
    if isinstance(atk, FdiAttack):
        fdi_phi = atk.injection(times)

    return SimTrace(times=times, x=x, xhat=xhat, y=y, ybold=ybold,
                    chan=chan, z=z, u=u, g=g,
                    alarm=np.zeros(n_steps + 1, dtype=bool),
                    err_norm=err, masked=s.masked, attack=atk, dt=s.dt,
                    t_settle=s.t_settle, xi=xi, xihat=xihat,
                    eav_xhat=eav_xhat, eav_err=eav_err,
                    fdi_phi=fdi_phi, steady_premise_ok=premise, name=s.name)


def detect(trace: SimTrace, nu: float) -> tuple[np.ndarray, float | None]:
    """Pointwise detector ``z'z > nu`` (strict); returns the alarm series and
    the first-alarm time (None when no alarm)."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    alarm = trace.g > nu
    idx = np.flatnonzero(alarm)
    first = float(trace.times[idx[0]]) if idx.size else None
    return alarm, first


def calibrate_threshold(clean: SimTrace, safety: float) -> float:
    """Threshold from an attack-free run: ``safety`` times the post-settle peak
    of the detection statistic, floored at 1e-12 for degenerate traces."""
    if not isinstance(clean.attack, NoAttack):
        raise ValueError("calibration needs an attack-free trace")
    if safety <= 1:
        raise ValueError("safety factor must exceed 1")
    g_max = float(np.max(clean.post_settle(clean.g)))
    return max(safety * g_max, NU_FLOOR)


@dataclass(frozen=True)
class EstimationMetrics:
    terminal_error: float
    sup_error_after_settle: float
    rate: float | None       # fitted exponential decay rate, None when undefined
    r_squared: float | None


def estimation_metrics(trace: SimTrace) -> EstimationMetrics:
    """Terminal/sup estimation error and a log-linear fit of the decay segment."""
    err = trace.err_norm
    terminal = float(err[-1])
    sup_settle = float(np.max(trace.post_settle(err)))
    # Decay segment: from the start until the error first reaches the noise
    # floor (or the settle time), excluding exact zeros.
    floor = 1e-10
    below = np.flatnonzero(err < floor)
    end = int(below[0]) if below.size else int(np.searchsorted(trace.times, trace.t_settle))
    end = max(end, 0)
    sel = err[:end] > 0
    if np.count_nonzero(sel) < 10:
        return EstimationMetrics(terminal, sup_settle, None, None)
    t = trace.times[:end][sel]
    log_e = np.log(err[:end][sel])
    slope, intercept = np.polyfit(t, log_e, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((log_e - fit) ** 2))
    ss_tot = float(np.sum((log_e - np.mean(log_e)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    return EstimationMetrics(terminal, sup_settle, float(-slope), r2)


def equilibrium_for(plant: LtiPlant, K, x_ref) -> tuple[np.ndarray, np.ndarray]:
    """Feedforward input and exact closed-loop equilibrium for a reference state.

    ``u_eq`` is the least-squares solution of ``B u = -A x_ref``; the returned
    state solves the closed-loop equilibrium under ``u = u_eq - K (x - x_ref)``
    exactly, so initializing there keeps the innovation at zero.
    """
    K = as_matrix(K, rows=plant.n_u, cols=plant.n_x, name="K")
    x_ref = as_vector(x_ref, size=plant.n_x, name="x_ref")
    u_eq, *_ = np.linalg.lstsq(plant.B, -plant.A @ x_ref, rcond=None)
    A_cl = plant.A - plant.B @ K
    x_star = np.linalg.solve(A_cl, -plant.B @ (u_eq + K @ x_ref))
    return x_star, u_eq
