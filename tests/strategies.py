"""Hypothesis strategies for small random systems, the references for the
closed loop's RK4 (classical RK4 of its vector field, and its generated loop
stepped one step at a time), and a counter of the Riccati solver's LAPACK
calls, shared by the test modules."""

from contextlib import contextmanager

import numpy as np
from hypothesis import assume, strategies as st

import chaosmask as cm
from chaosmask import numerics
from chaosmask.errors import NoStabilizingSolutionError, RiccatiFailureError
from chaosmask.models import ChaoticMask, PolynomialMap


@st.composite
def stabilized_plants(draw):
    """A small random plant ``(A, B, C)`` with a stabilizing state feedback K:
    the LQR gain ``B'X``, where X solves ``A'X + XA - XBB'X + I = 0``, which
    is ``solve_riccati_stabilizing(-A, BB', -I)``."""
    n = draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    B = np.array(draw(st.lists(entries, min_size=n, max_size=n))).reshape(n, 1)
    C = np.array(draw(st.lists(entries, min_size=n, max_size=n))).reshape(1, n)
    try:
        plant = cm.LtiPlant(A=A, B=B, C=C)
        K = B.T @ cm.solve_riccati_stabilizing(-A, B @ B.T, -np.eye(n))
    except (ValueError, RiccatiFailureError, NoStabilizingSolutionError):
        assume(False)
    assume(cm.is_hurwitz(A - B @ K))  # (A, B) stabilizable
    return plant, K


@st.composite
def custom_masks(draw, max_exponent: int = 2):
    """A small custom polynomial masker ``Phi - I`` plus up to two monomials
    per component, each exponent at most ``max_exponent``, with its box; ell
    is the monomial bound over the box."""
    n = draw(st.integers(1, 2))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    Phi = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    monomial = st.tuples(st.floats(-0.3, 0.3, allow_subnormal=False),
                         st.tuples(*[st.integers(0, max_exponent)] * n))
    terms = tuple(tuple(draw(st.lists(monomial, max_size=2))) for _ in range(n))
    Lam = np.array(draw(st.lists(entries, min_size=n, max_size=n))).reshape(1, n)
    sigma = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    mask = ChaoticMask(Phi=Phi - np.eye(n), phi=PolynomialMap(n, n, terms), Lambda=Lam,
                       sigma=sigma, d_bound=1.0)
    cm.estimate_lipschitz(mask)
    return mask


def rk4(field, x0, dt: float, n_steps: int) -> np.ndarray:
    """Classical RK4 of ``x' = field(t, x)`` from ``x0``: one row per step,
    ``n_steps + 1`` rows.  The reference that the generated step of
    ``chaosmask.sim`` is checked against."""
    x = np.asarray(x0, dtype=float)
    out = [x]
    for k in range(n_steps):
        t = k * dt
        k1 = field(t, x)
        k2 = field(t + 0.5 * dt, x + (0.5 * dt) * k1)
        k3 = field(t + 0.5 * dt, x + (0.5 * dt) * k2)
        k4 = field(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


def affine_term(loop, t: float, k: int, traj: np.ndarray):
    """``(M, b)`` of a ``chaosmask.sim.ClosedLoop`` at stage time ``t`` of
    step ``k``, where ``traj`` holds steps ``0..k``: the phases' operator,
    and their ``drive`` asked for this one time (None where ``b`` is
    absent)."""
    M, present = loop.phase.at(t)
    return M, loop.phase.drive(np.array([t]), np.array([k]), traj)[0] if present else None


def derivative(loop, t: float, s: np.ndarray, k: int, traj: np.ndarray) -> np.ndarray:
    """``s'`` of a ``chaosmask.sim.ClosedLoop`` at stage time ``t`` of step
    ``k``, where ``traj`` holds steps ``0..k``: the vector field that
    :func:`rk4` integrates as the generated step's reference."""
    M, b = affine_term(loop, t, k, traj)
    ds = M @ s
    if loop.G is not None:
        ds += loop.monomial_term(s)
    if b is not None:
        ds += b
    return ds


def stepper(loop):
    """Classical RK4 of a ``chaosmask.sim.ClosedLoop`` one step at a time, as
    ``step(k, s, traj) -> s_next``, which also stores ``s_next`` as
    ``traj[k + 1]``: the bitwise reference for the loop's stretches.

    A step asks the phases for the operator and the affine term at ``t``,
    ``t + h/2`` and ``t + h`` (:func:`affine_term`) and runs the triple's
    generated loop over that one step.
    """
    h = loop.dt

    def step(k, s, traj):
        t = k * h
        stages = [affine_term(loop, u, k, traj) for u in (t, t + 0.5 * h, t + h)]
        bs = [b for _, b in stages if b is not None]
        run = loop._run_for([(M, b is not None) for M, b in stages])
        return run(traj, k, k + 1, s, np.concatenate(bs) if bs else None)

    return step


@contextmanager
def riccati_lapack_counts(monkeypatch):
    """Count, while the block runs, the Schur forms (``dgees``) and the
    stable-branch reorderings (``dtrsen`` selecting the eigenvalues of
    negative real part, the diagonal of the standardized form T) that
    :mod:`chaosmask.numerics` makes; yields the counts as a dict."""
    counts = {"dgees": 0, "stable": 0}
    dgees, dtrsen = numerics.lapack.dgees, numerics.lapack.dtrsen

    def counting_dgees(*args, **kwargs):
        counts["dgees"] += 1
        return dgees(*args, **kwargs)

    def counting_dtrsen(select, T, *args, **kwargs):
        counts["stable"] += bool(np.all(np.diag(T)[select] < 0.0))
        return dtrsen(select, T, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(numerics.lapack, "dgees", counting_dgees)
        patch.setattr(numerics.lapack, "dtrsen", counting_dtrsen)
        yield counts
