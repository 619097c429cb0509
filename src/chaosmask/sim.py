"""Deterministic closed-loop scenario engine.

One fixed-step co-simulation advances plant, masker, estimator, and any
attacker state on a shared grid.  Each scenario is compiled once into an
affine closed-loop operator (:class:`ClosedLoop`), the channel transform
included, and a run is one classical RK4 pass whose steps apply stage maps
precomputed per operator triple.  Two runs of the same scenario produce
bit-identical traces.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .attacks import (
    AttackSpec,
    EavesdropAttack,
    FdiAttack,
    NoAttack,
    Phases,
    ReplayAttack,
    steady,
)
from .errors import DivergedRunError, NotHurwitzError
from .g17 import g17_rows, join_rows
from .models import ChaoticMask, LtiPlant, build_extended
from .numerics import as_matrix, as_vector, is_hurwitz
from .synthesis import ObserverGain

#: Steady-state tolerance for the replay premise (plant and observer at rest).
TOL_SS = 1e-6

#: State norm beyond which a run is declared diverged.
DIVERGENCE_NORM = 1e9

#: Threshold floor substituted when a clean trace has identically zero innovation.
NU_FLOOR = 1e-12

#: Rows that :func:`write_csvs` formats, joins and shares at a time.  Its
#: transient memory is about 50 bytes of row text and layout per value
#: formatted in a block, the kernel's temporaries for one piece
#: (:data:`chaosmask.g17._PIECE` values), and a key of the block's bytes per
#: distinct column: none of it grows with the column length.
CSV_BLOCK = 256

#: Most steps that :meth:`ClosedLoop.integrate` runs between divergence
#: checks: a diverging run goes on for at most this many steps past the
#: failing row, and FDI's precomputed injection holds this many rows.
STRETCH = 512


def grid_steps(t_end: float, dt: float) -> int:
    """Steps of a run to ``t_end``: ``t_end / dt`` rounded to an integer."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return int(round(t_end / dt))


def check_settle(t_end: float, dt: float, t_settle: float) -> None:
    """Reject a ``t_settle`` outside ``[0, t_end)`` or after the last grid
    point: the detector is calibrated on the grid points from ``t_settle`` on."""
    if not (0.0 <= t_settle < t_end):
        raise ValueError("t_settle must lie in [0, t_end)")
    t_last = grid_steps(t_end, dt) * dt
    if not t_last >= t_settle:
        raise ValueError(f"t_settle = {t_settle!r} lies after the last grid point "
                         f"{t_last!r}: the post-settle window is empty")


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
        check_settle(self.t_end, self.dt, self.t_settle)
        if self.control_enabled and not is_hurwitz(p.A - p.B @ self.controller_K):
            raise NotHurwitzError("A - B K is not Hurwitz; the loop cannot settle")
        if self.mask is not None:
            if self.observer is None:
                raise ValueError("a masked scenario needs a certified observer gain")
            if self.mask.sigma is None:
                raise ValueError("mask must be calibrated (sigma unset)")
            n_xi = self.mask.n_xi
            self.xi0 = self.mask.state(self.xi0, "xi0")
            self.xihat0 = np.zeros(n_xi) if self.xihat0 is None \
                else self.mask.state(self.xihat0, "xihat0")
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
        if isinstance(self.attack, (ReplayAttack, FdiAttack)):
            self.attack.check_grid(self.dt, self.t_end)

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

    def columns(self) -> list[tuple[str, np.ndarray]]:
        """The CSV columns in header order: ``t``, the components ``name_j`` of
        each state and signal block, then ``g``, ``alarm`` (0 or 1) and
        ``err_norm``."""
        cols: list[tuple[str, np.ndarray]] = [("t", self.times)]
        for prefix in ("x", "xi", "xhat", "xihat", "y", "ybold", "chan", "z", "u",
                       "eav_xhat", "fdi_phi"):
            arr = getattr(self, prefix)
            if arr is not None:
                cols += [(f"{prefix}_{j + 1}", arr[:, j]) for j in range(arr.shape[1])]
        cols += [("g", self.g), ("alarm", self.alarm.astype(float)), ("err_norm", self.err_norm)]
        return cols

    def to_csv(self, path) -> None:
        """One row per step; floats at 17 significant digits for replayability."""
        write_csvs({path: self.columns()})

    @property
    def first_alarm_time(self) -> float | None:
        idx = np.flatnonzero(self.alarm)
        return float(self.times[idx[0]]) if idx.size else None


@dataclass
class ClosedLoop:
    """One scenario's stacked closed-loop system, assembled once
    (:func:`masker_loop` builds the masker alone in the same form).

    The state is ``s = [x | xi | xihat | xhat | attacker | 1]`` (no ``xi``
    and ``xihat`` when unmasked); the trailing constant carries the affine
    terms ``u_eq``, ``K x_ref`` and ``B u_eq``.  At each RK4 stage time the
    attack's phases (:class:`~chaosmask.attacks.Phases`) pick ``M`` and the
    affine term ``b`` (zero where it is absent), and

        ``s' = M s + b + G mono(s)``.

    ``monomials`` holds, per column of ``G``, that monomial's factors as
    ``(row, exponent, bound)``: ``s[row]`` clamped into ``+-bound``.
    Masked, it holds the masker's :attr:`~chaosmask.models.PolynomialMap.factors`
    on the ``xi`` rows with an infinite bound and on the ``xihat`` rows
    with ``sigma``, so ``G`` adds ``phi(xi)`` and ``phi(sat_sigma(xihat))``.

    RK4 of this field is linear in ``[s | b's | monomials]``
    (:meth:`stage_maps`), so a step of the generated loop
    (:func:`_generate_run`) is one matvec: once the monomials are in the
    stretch buffer's row, one product gives the whole increment and, where
    the step has factors and no affine term, the next step's gathered
    factors.  A step with an affine term gathers its factors with a matvec
    of its own.  The field itself is written out only in the tests, as the
    reference for that step.

    The parts the attack spec builds on: ``M_open`` holds every block except
    the channel coupling, ``H`` maps the state to the transmitted signal
    ``ybold = H s``, ``Lc`` holds each channel consumer's gain (estimator,
    eavesdropper), and ``U`` maps the state to the control input ``u = U s``.
    Every channel consumer is an observer block written by
    :meth:`add_observer`.
    """

    plant: LtiPlant | None  # None for the masker alone
    L_plain: np.ndarray | None
    dt: float
    blocks: dict          # state block name -> slice, in layout order
    attacker: slice
    M_open: np.ndarray
    H: np.ndarray
    Lc: np.ndarray
    U: np.ndarray
    monomials: tuple = ()  # per column of G, its factors' (row, exponent, bound)
    G: np.ndarray | None = None
    phase: Phases | None = None  # set by the attack spec
    _runs: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                    compare=False)

    @property
    def n(self) -> int:
        return self.M_open.shape[0]

    def live(self) -> np.ndarray:
        """The operator with the channel carrying the transmitted signal."""
        return self.M_open + self.Lc @ self.H

    def add_observer(self, rows: slice, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                     L: np.ndarray) -> None:
        """Write the observer ``z' = (A - L C) z + B u + L chan`` into the
        state rows ``rows``: its block of ``M_open``, its control input
        through ``U``, and its channel gain in ``Lc``."""
        self.M_open[rows, rows] = A - L @ C
        self.M_open[rows] += B @ self.U
        self.Lc[rows] = L

    def diverged_block(self, s: np.ndarray) -> str:
        """The state block that went non-finite, else the one of largest norm."""
        norms = {name: float(np.linalg.norm(s[sl])) for name, sl in self.blocks.items()}
        for name, value in norms.items():
            if not np.isfinite(value):
                return name
        return max(norms, key=norms.get)

    def factors(self) -> tuple[np.ndarray, list, list]:
        """``monomials`` flattened: the state rows of every factor, one
        ``(exponent, bound, block)`` per factor, with ``block`` the state
        block holding the row, and for every monomial, in ``G``'s column
        order, the positions of its factors."""
        rows, specs, terms = [], [], []
        for monomial in self.monomials:
            terms.append(tuple(range(len(rows), len(rows) + len(monomial))))
            for row, e, bound in monomial:
                rows.append(row)
                specs.append((e, bound, next(name for name, sl in self.blocks.items()
                                             if sl.start <= row < sl.stop)))
        return np.array(rows, dtype=np.intp), specs, terms

    def stage_maps(self, M1: np.ndarray, M2: np.ndarray, M4: np.ndarray,
                   with_b: tuple[bool, bool, bool]) -> tuple:
        """The maps of one RK4 step whose stages use ``M1`` (at ``t``), ``M2``
        (at ``t + h/2``, stages 2 and 3) and ``M4`` (at ``t + h``).

        ``with_b`` flags which of the three stage times has an affine term
        ``b``.  Over ``u = [s | b's | n_1 .. n_4]``, with ``n_i`` the
        monomials of stage ``i``, classical RK4 is linear: every stage state
        ``x_i`` and the increment ``s_next - s`` are fixed matrices times
        ``u``, and ``x_i`` reads only ``n_j`` with ``j < i``.  Returns
        ``(W, couple, D)``:

        - ``W`` maps ``[s | b's]`` to the four stages' gathered factors;
        - ``couple[i]`` holds, per factor of stage ``i``, its row in ``W``,
          the ``(j, c)`` pairs that add ``c n[j]`` to it, and its
          ``(exponent, bound, block)``;
        - ``D`` maps all of ``u`` to the increment in its first ``n`` rows,
          so that one product gives the linear and the monomial parts
          together.  Where the step has factors and no affine term, its
          rows below map ``u`` to the next step's gathered factors under
          the same triple, ``W (S + D) u`` with ``S`` reading ``s`` out of
          ``u``, computed as ``W S + W D``: the product that gives the
          increment also gives them.
        """
        n, h = self.n, self.dt
        rows, specs, _ = self.factors()
        m = 0 if self.G is None else self.G.shape[1]
        n_in = n * (1 + sum(with_b))
        width = n_in + 4 * m
        b_sel, col = [], n
        for present in with_b:
            b_sel.append(np.eye(n, width, col) if present else None)
            col += n * present

        def slope(M, X, i, slot):
            K = M @ X
            if b_sel[slot] is not None:
                K += b_sel[slot]
            if m:
                K += self.G @ np.eye(m, width, n_in + i * m)
            return K

        X1 = np.eye(n, width)
        K1 = slope(M1, X1, 0, 0)
        X2 = X1 + 0.5 * h * K1
        K2 = slope(M2, X2, 1, 1)
        X3 = X1 + 0.5 * h * K2
        K3 = slope(M2, X3, 2, 1)
        X4 = X1 + h * K3
        K4 = slope(M4, X4, 3, 2)
        # The step's increment, not the next state: added to s last, its
        # round-off scales with the increment, as in stage-by-stage RK4, so
        # a state at rest stays at rest.
        D = (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)

        gathered = [X[rows] for X in (X1, X2, X3, X4)]
        # Contiguous: ndarray.dot of a column slice costs about 0.35 us more.
        W = np.ascontiguousarray(np.vstack(gathered)[:, :n_in])
        if specs and not any(with_b):
            # The next step's factors W s_next = W S u + W D u, with S reading
            # s out of u: stacked under D, one product gives both.
            ahead = W @ D
            ahead[:, :n] += W
            D = np.vstack([D, ahead])
        couple = []
        for i, F_i in enumerate(gathered):
            stage = []
            for q, spec in enumerate(specs):
                earlier = F_i[q, n_in:n_in + i * m]
                links = tuple((j, float(c)) for j, c in enumerate(earlier) if c != 0.0)
                stage.append((i * len(specs) + q, links, *spec))
            couple.append(tuple(stage))
        return W, couple, D

    def _run_for(self, stages: tuple):
        """The stepping loop of the operator triple of ``stages``, one
        ``(M, present)`` per stage time as ``Phases.at`` gives them, generated
        once per triple and presence of affine terms (see
        :func:`_generate_run`)."""
        Ms, with_b = zip(*stages)
        key = tuple(map(id, Ms)) + with_b
        entry = self._runs.get(key)
        if entry is None:
            # The entry keeps the operators alive, so their ids stay unique.
            maps = self.stage_maps(*Ms, with_b)
            entry = self._runs[key] = (_generate_run(self, *maps, any(with_b)), Ms)
        return entry[0]

    def integrate(self, s0: np.ndarray, n_steps: int) -> np.ndarray:
        """Classical RK4 over ``n_steps`` steps; returns one state row per step.

        Rows not yet reached hold NaN, so a read ahead of the current step
        fails the divergence check instead of reading stale memory.

        Every step runs in a stretch of one operator triple, in the triple's
        generated loop (:func:`_generate_run`), which starts from the
        stretch's first row and writes the rows after it.  A loop that
        carries its factors gathers them afresh only at the start and after
        a stretch of another loop, so where the stretches end changes no
        bit.  Steps whose stage times lie near an edge of the phases are
        stretches of one step; the others form stretches of up to
        ``STRETCH`` steps between them.  The phases are asked once per
        stretch (:meth:`_stretch`), and ``drive`` gives the stretch's affine
        terms in advance.  In replay's window that holds because the
        near-edge steps at both ends keep every stretch inside it shorter
        than ``tau / dt`` steps, so each replayed row is recorded before the
        stretch starts.  The divergence test then runs over the stretch's
        rows (:meth:`_check_rows`), and reports the row the test after every
        step would have reported: a stretch that raises has copied the rows
        before its failing step.
        """
        dt = self.dt
        edges = self.phase.edges
        traj = np.full((n_steps + 1, s0.size), np.nan)
        traj[0] = s0
        # Stage times of step k span [k dt, (k + 1) dt]; one step of margin
        # on each side absorbs the round-off of k * dt.
        near = sorted({j for e in edges if -2.0 <= e / dt <= n_steps + 2.0
                       for j in range(math.floor(e / dt) - 2, math.floor(e / dt) + 2)
                       if 0 <= j < n_steps})
        k, last, F = 0, None, None
        # A diverging stretch runs on past the failing row, into inf and NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            while k < n_steps:
                i = bisect.bisect_left(near, k)
                if i < len(near) and near[i] == k:
                    end = k + 1
                else:
                    end = min(n_steps, k + STRETCH, near[i] if i < len(near) else n_steps)
                run, B = self._stretch(k, end, traj)
                try:
                    F = run(traj, k, end, B, F if run is last else None)
                    last = run
                except DivergedRunError as exc:
                    # A row before the failing step that fails the norm test
                    # is what the test after every step would have reported.
                    failed = next((j for j in range(k, end) if j * dt + dt == exc.t), k)
                    self._check_rows(traj, k + 1, failed + 1)
                    raise
                self._check_rows(traj, k + 1, end + 1)
                k = end
        return traj

    def _stretch(self, k0: int, k1: int, traj: np.ndarray) -> tuple:
        """``(run, B)`` for steps ``k0..k1-1``, which share one operator
        triple: its generated loop, and the affine terms it reads, one row
        per step of ``b`` at each stage time where it is present (None where
        it is absent at all three)."""
        h, phase = self.dt, self.phase
        t = k0 * h
        stages = (phase.at(t), phase.at(t + 0.5 * h), phase.at(t + h))
        offsets = [off for off, (_, present) in zip((0.0, 0.5 * h, h), stages) if present]
        B = None
        if offsets:
            steps = np.arange(k0, k1)[:, None]
            B = phase.drive(steps * h + np.array(offsets), steps, traj).reshape(k1 - k0, -1)
        return self._run_for(stages), B

    def _check_rows(self, traj: np.ndarray, start: int, stop: int) -> None:
        """Raise :class:`DivergedRunError` for the first of rows
        ``start..stop-1`` whose squared norm ``s.dot(s)`` is not at most
        ``DIVERGENCE_NORM ** 2``, row ``k + 1`` being the end of step ``k``.

        A batched sum of squares screens the rows; any summation order is
        within a factor two of the exact sum here, so only rows it puts above
        half the limit (or non-finite) are tested as the step did.
        """
        limit = DIVERGENCE_NORM ** 2
        rows = traj[start:stop]
        for i in np.flatnonzero(~(np.einsum("ij,ij->i", rows, rows) <= 0.5 * limit)).tolist():
            s = rows[i]
            if not s.dot(s) <= limit:
                raise DivergedRunError((start + i - 1) * self.dt + self.dt, self.diverged_block(s))


def _generate_run(loop: ClosedLoop, W: np.ndarray, couple: tuple, D: np.ndarray,
                  affine: bool):
    """``run(traj, k0, k1, B, F) -> F``: steps ``k0..k1-1`` of classical
    RK4 with one operator triple's stage maps, from the state ``traj[k0]``,
    storing the state after step ``k`` as ``traj[k + 1]``; returns the
    gathered factors of the step after the last one.

    The stretch runs in a buffer whose row ``r`` holds ``[s | b's | n]`` of
    step ``k0 + r``: its state (``traj[k0]`` in row 0), its affine terms
    (row ``r`` of ``B``, written for the whole stretch at once) and its
    stages' monomials.  A step reads its gathered factors, writes the
    clamped monomials into the row's tail and multiplies the row by ``D``
    into the head of the next row; BLAS ``daxpy`` then adds the row's state
    to the increment there, the same IEEE addition an entry as
    ``s + inc``, in one call that costs less than numpy's ``add``.  Where
    ``D`` also gives the next step's factors (factors and no affine term,
    :meth:`ClosedLoop.stage_maps`), that product is the step's one matvec,
    and the factors wait in the next row until that step reads them: the
    first step takes ``F``, or gathers with ``W`` from its state where
    ``F`` is None, and the last product's factors are returned.  Other
    loops ignore ``F`` and return None; with an affine term, not in the
    next row ahead of time, each step gathers from ``[s | b's]`` with
    ``W``.  The buffer's states go into ``traj`` in one copy, also when the
    run diverges mid-stretch; the rows after the failing one are then left
    as they were.

    The loop keeps its buffer from one call to the next, with the lists of
    the views its steps use (:func:`_hold_stretch`), so a step slices no
    new view.  The buffer holds the longest stretch the loop has run and
    grows when a longer one comes: a near-edge loop that runs one step at a
    time stays one step long.  Every row a step reads was written earlier
    in the same call, so what a previous call left there is never read.  A
    loop is therefore not reentrant, and each :class:`ClosedLoop` has loops
    of its own.

    The loop is generated, as :mod:`dataclasses` generates methods, as
    straight-line code, and each distinct source is compiled once per
    process (:func:`_step_code`): the 12 runs of ``reproduce-paper`` make 23
    loops from 9 sources.  The factors are read and the monomials written
    with precompiled :class:`struct.Struct` objects through a memoryview of
    the buffer, the monomials unrolled in Python floats (:func:`_power_code`)
    with their link coefficients, clamp bounds and exponents as float
    literals.  It performs the same float operations in the same order as
    evaluating the stage couplings term by term.  A power that can
    overflow is checked where it is taken, and raises
    :class:`DivergedRunError` naming its factor's block.
    """
    _, specs, terms = loop.factors()
    nf = len(specs)
    n, (n_out, width) = loop.n, D.shape
    carry = n_out > n  # D also gives the next step's factors
    gather = nf and not carry  # each step gathers its factors with W
    n_in = W.shape[1]
    factors = ", ".join(f"f{j}" for j in range(4 * nf))

    # ndarray.dot: on operands this small, the dispatch of @ costs more than
    # the product itself.
    body = ["    buf, rows, outs, mem, heads = "
            "HELD if k1 - k0 <= len(HELD[1]) else grow(k1 - k0)",
            "    buf[0, :N] = traj[k0]"]
    if affine:
        body.append("    buf[:k1 - k0, N:N_IN] = B")
    if carry:
        body += ["    if F is None:",
                 "        W_dot(buf[0, :N], buf[0, N:N_OUT])",
                 "    else:",
                 "        buf[0, N:N_OUT] = F"]
    loop_vars = {"row": "rows", "out": "outs"}
    if terms:  # the byte offset of the row's tail in the buffer
        loop_vars["off"] = f"range({8 * n_in}, {8 * n_in} + ROW * (k1 - k0), ROW)"
    if gather:
        loop_vars["head"] = "heads"
    body += ["    try:",
             f"        for k, {', '.join(loop_vars)} in zip(range(k0, k1), "
             f"{', '.join(loop_vars.values())}):"]
    if gather:
        body += ["            W_dot(head, FACTORS)",
                 f"            {factors}, = unpack(PRODUCT)"]
    elif carry:
        body.append(f"            {factors}, = unpack_from(mem, off)")
    code = []  # the step's monomials, packed into its row's tail, then its product
    for i, stage in enumerate(couple):
        for j, term in enumerate(terms):
            m = f"m{i * len(terms) + j}"
            for r in term:
                row, links, e, bound, block = stage[r]
                x = f"f{row}" + "".join(f" + {c!r} * m{l}" for l, c in links)
                code += _power_code(m if len(term) == 1 else f"p{r}", x, e, bound, block)
            if len(term) != 1:  # several factors, or none (a constant)
                code.append(f"{m} = " + (" * ".join(f"p{r}" for r in term) or "1.0"))
    if terms:
        code.append("pack_into(mem, off, "
                    + ", ".join(f"m{j}" for j in range(len(couple) * len(terms))) + ")")
    body += [f"            {x}" for x in code + ["D_dot(row, out)", "daxpy(row, out, N)"]]
    body += ["    except Diverged:",
             "        traj[k0 + 1:k + 1] = buf[1:k + 1 - k0, :N]",
             "        raise",
             "    traj[k0 + 1:k1 + 1] = buf[1:k1 + 1 - k0, :N]",
             "    return " + ("buf[k1 - k0, N:N_OUT].copy()" if carry else "None")]
    source = "\n".join(["def run(traj, k0, k1, B, F):"] + body) + "\n"
    held = []
    grow = functools.partial(_hold_stretch, held, width, n_out, n_in if gather else 0,
                             bool(terms))
    grow(1)
    gathered = np.empty(W.shape[0] if gather else 0)
    factor_struct = struct.Struct(f"{4 * nf}d")
    namespace = {"W_dot": W.dot, "D_dot": D.dot, "daxpy": blas.daxpy, "HELD": held,
                 "grow": grow, "FACTORS": gathered, "PRODUCT": memoryview(gathered),
                 "N": n, "N_IN": n_in, "N_OUT": n_out, "ROW": 8 * max(width, n_out),
                 "INF": math.inf,
                 "unpack": factor_struct.unpack, "unpack_from": factor_struct.unpack_from,
                 "pack_into": struct.Struct(f"{width - n_in}d").pack_into,
                 "dt": loop.dt, "Diverged": DivergedRunError}
    exec(_step_code(source), namespace)
    # Taken out of its globals, the function forms no reference cycle with
    # them and is freed with its loop, not at a later garbage collection.
    return namespace.pop("run")


def _power_code(name: str, x: str, e: float, bound: float, block: str) -> list[str]:
    """Statements of step ``k`` of a generated loop that set ``name`` to the
    factor ``x`` (a name of the step, or a sum of them) clamped into
    ``+-bound`` and raised to ``e``, with ``x`` as scratch for a sum or a
    clamp.  A power that overflows raises :class:`DivergedRunError` at the
    end of the step, naming ``block``.

    A square is ``y * y``, which is correctly rounded where ``y ** 2.0``
    (libm ``pow``) can be an ulp off.  Under a bound whose square is finite
    it is taken first and capped at that square: rounding is monotone, so
    that is the clamped square bit for bit, NaN and +-inf included, and it
    cannot overflow.  A product does not raise ``OverflowError``, so under
    any other bound a guard raises for a finite factor whose square is
    infinite; an infinite or NaN factor passes through, as it does with
    ``**``.  Other exponents keep ``**``, in a ``try`` of its own.  An
    infinite bound clamps nothing: the factor, NaN included, is taken as it
    is."""
    code = []
    if not x.isidentifier():
        code.append(f"x = {x}")
        x = "x"
    if e == 2.0 and bound * bound < math.inf:
        cap = repr(bound * bound)
        return code + [f"{name} = {x} * {x}", f"if {name} > {cap}: {name} = {cap}"]
    if bound < math.inf:
        lo, hi = repr(-bound), repr(bound)
        code.append(f"x = {lo} if {x} < {lo} else {hi} if {x} > {hi} else {x}")
        x = "x"
    diverged = f"Diverged(k * dt + dt, {block!r})"
    if e == 2.0:
        return code + [f"{name} = {x} * {x}",
                       f"if {name} == INF and abs({x}) != INF: raise {diverged}"]
    return code + ["try:", f"    {name} = {x} ** {e!r}",
                   "except OverflowError:", f"    raise {diverged} from None"]


def _hold_stretch(held: list, width: int, n_out: int, n_in: int, packs: bool,
                  steps: int) -> list:
    """Fill ``held`` with a generated loop's buffer for stretches of up to
    ``steps`` steps, ``steps + 1`` rows of ``max(width, n_out)`` entries; a
    memoryview of it where the steps pack monomials, which ``struct`` reads
    and writes without asking numpy for a buffer; and the views that the
    steps use, one list per kind and one view per step: the row's first
    ``width`` entries (what ``D`` reads), the next row's first ``n_out``
    entries (what ``D`` gives) and, where ``n_in`` is not 0, the row's first
    ``n_in`` entries (``[s | b's]``, which ``W`` reads).  Returns ``held``."""
    buf = np.empty((steps + 1, max(width, n_out)))
    rows = list(buf[:-1, :width])
    held[:] = [buf, rows, list(buf[1:, :n_out]), memoryview(buf) if packs else None,
               list(buf[:-1, :n_in]) if n_in else []]
    return held


@functools.lru_cache(maxsize=32)
def _step_code(source: str):
    """The code object of a generated loop's source.  It holds no operator:
    each loop execs it into its own namespace, so ``W_dot`` and ``D_dot``
    stay bound per loop, and loops of one source share one compile."""
    return compile(source, "<chaosmask RK4 step>", "exec")


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
        M[i_xi, i_xi] = s.mask.Phi
        H[:, i_xi] = s.mask.Lambda
        loop.add_observer(i_obs, ext.Abold, ext.Bbold, ext.Cbold, s.observer.L)
        phi = s.mask.phi
        loop.monomials = _monomials(phi, i_xi.start) + _monomials(phi, i_obs.start, s.mask.sigma)
        n_terms = len(phi.factors)
        loop.G = np.zeros((n, 2 * n_terms))
        loop.G[i_xi, :n_terms] = phi.coef_matrix
        loop.G[i_obs.start:i_obs.start + n_xi, n_terms:] = phi.coef_matrix
    else:
        loop.add_observer(i_obs, p.A, p.B, p.C, s.L_plain)
    loop.phase = s.attack.compile(loop)
    return loop


def _monomials(phi, start: int, sigma=None) -> tuple:
    """Rows of :attr:`ClosedLoop.monomials`: the monomials of ``phi`` on the
    state rows from ``start`` on, each factor of variable ``j`` clamped into
    ``+-sigma[j]``, or unclamped where ``sigma`` is None."""
    bound = np.full(phi.n_in, math.inf) if sigma is None else sigma
    return tuple(tuple((start + j, float(e), float(bound[j])) for j, e in factors)
                 for factors in phi.factors)


def masker_loop(mask: ChaoticMask, dt: float) -> ClosedLoop:
    """The masker alone, ``xi' = Phi xi + phi(xi)``, as a closed loop: one
    constant phase, one side of monomials and no clamp, so it runs through
    the same collapsed RK4 step as a scenario.  It has no channel and no
    control input."""
    n, Phi = mask.n_xi, mask.Phi
    return ClosedLoop(plant=None, L_plain=None, dt=dt, blocks={"masker xi": slice(0, n)},
                      attacker=slice(0, 0), M_open=Phi, H=np.zeros((0, n)),
                      Lc=np.zeros((n, 0)), U=np.zeros((0, n)),
                      monomials=_monomials(mask.phi, 0), G=mask.phi.coef_matrix,
                      phase=steady(Phi))


def run_scenario(s: Scenario) -> SimTrace:
    """Single-pass fixed-step co-simulation of a scenario, with no alarms.

    Raises :class:`DivergedRunError`, naming the state block, when the stacked
    state norm passes 1e9 or stops being finite.
    """
    p = s.plant
    loop = compile_scenario(s)
    n_steps = grid_steps(s.t_end, s.dt)
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


def write_csvs(tables: dict) -> None:
    """Write CSV files of float columns: ``tables`` maps each path to its
    ``[(name, column), ...]``.

    Each file has a header line of the names and one row per index, each
    value at ``%.17g`` and separated by commas: byte for byte what numpy's
    ``savetxt`` writes with ``fmt="%.17g"``, ``delimiter=","`` and
    ``comments=""``.  All files are written together, ``CSV_BLOCK`` rows at
    a time, so the text held at once does not grow with the column length.

    In each block, a column whose rows have the same bytes as an earlier
    column's takes that column's formatted rows, so columns repeated within a
    file or across files, and an attacked trace and its clean twin up to the
    onset's block, are formatted once; value equality is not enough, because
    ``-0.0 == 0.0`` prints as ``-0`` and ``0``.  The columns of their own go
    through :func:`~chaosmask.g17.g17_rows` in one call, each file's lines
    are selected from those rows, and a file whose lines select the same rows
    as another's writes the bytes already joined for it.
    """
    cols, files = [], []
    for path, named in tables.items():
        lengths = {len(col) for _, col in named}
        if len(lengths) > 1:
            raise ValueError(f"columns of {path} differ in length: {sorted(lengths)}")
        files.append((path, [name for name, _ in named],
                      np.arange(len(cols), len(cols) + len(named)), lengths.pop() if lengths else 0))
        cols += [np.asarray(col, dtype=float) for _, col in named]
    n_max = max((n_rows for *_, n_rows in files), default=0)
    line = np.arange(CSV_BLOCK)[:, None]
    start = np.empty(len(cols), np.intp)

    with contextlib.ExitStack() as stack:
        handles = []
        for path, names, ids, n_rows in files:
            fh = stack.enter_context(open(path, "wb"))
            fh.write(",".join(names).encode())
            handles.append((fh, ids, n_rows))
        for a in range(0, n_max, CSV_BLOCK):
            # The first column with a block's bytes (its length included)
            # formats them; start[j] is the row where column j's block begins.
            first, own, n_own = {}, [], 0
            for j, col in enumerate(cols):
                part = col[a:a + CSV_BLOCK]
                bits = part.tobytes()
                if bits not in first:
                    first[bits] = n_own
                    own.append(part)
                    n_own += part.size
                start[j] = first[bits]
            del first  # its keys copy every distinct slice: free them before the rows are made
            rows, layout = g17_rows(np.concatenate(own))
            # A file's lines in the block are fixed by their count and the
            # row each column of theirs starts at; text joined for a later
            # file with the same key is kept until that file is written.
            block = [(fh, (min(CSV_BLOCK, n_rows - a), start[ids].tobytes()))
                     for fh, ids, n_rows in handles if n_rows > a]
            last = {key: i for i, (_, key) in enumerate(block)}
            joined = {}
            for i, (fh, key) in enumerate(block):
                text = joined.pop(key, None)
                if text is None:
                    index = np.frombuffer(key[1], np.intp) + line[:key[0]]
                    text = join_rows(rows, layout, index)
                if last[key] > i:
                    joined[key] = text
                fh.write(text)
            del rows, layout, text  # before the next block's rows are made
        # join_rows starts each line with its newline; the last one ends the file.
        for fh, _, _ in handles:
            fh.write(b"\n")


def check_detector(nu: float | None = None, safety: float | None = None) -> None:
    """The detector's ranges: a threshold ``nu >= 0`` (:func:`detect`) and a
    calibration ``safety > 1`` (:func:`calibrate_threshold`)."""
    if nu is not None and not nu >= 0:
        raise ValueError(f"nu must be nonnegative, got {nu!r}")
    if safety is not None and not safety > 1:
        raise ValueError(f"safety factor must exceed 1, got {safety!r}")


def detect(trace: SimTrace, nu: float) -> tuple[np.ndarray, float | None]:
    """Pointwise detector ``z'z > nu`` (strict); returns the alarm series and
    the first-alarm time (None when no alarm)."""
    check_detector(nu=nu)
    alarm = trace.g > nu
    idx = np.flatnonzero(alarm)
    first = float(trace.times[idx[0]]) if idx.size else None
    return alarm, first


def calibrate_threshold(clean: SimTrace, safety: float) -> float:
    """Threshold from an attack-free run: ``safety`` times the post-settle peak
    of the detection statistic, floored at 1e-12 for degenerate traces."""
    if not isinstance(clean.attack, NoAttack):
        raise ValueError("calibration needs an attack-free trace")
    check_detector(safety=safety)
    g_max = float(np.max(clean.post_settle(clean.g)))
    return max(safety * g_max, NU_FLOOR)


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
