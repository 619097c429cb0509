"""Hypothesis strategies for small random systems, the references for the
masker nonlinearity and for the closed loop's RK4 (classical RK4 of its
vector field, and its generated loop stepped one step at a time), and a
counter of the Riccati solver's LAPACK calls, shared by the test modules."""

import math
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


def power(x: float, e) -> float:
    """``x ** e`` as the simulator's generated step computes it: a square as
    the correctly rounded product ``x * x``, other exponents with ``**``."""
    return x * x if e == 2 else x ** e


def phi_value(phi, x) -> np.ndarray:
    """``phi(x)`` of a ``chaosmask.models.PolynomialMap``: ``coef_matrix @``
    the monomials of its ``factors``, each the product of
    ``power(float(x[j]), e)`` over its ``(variable, exponent)`` pairs, in
    their order (1.0 for a constant), the float operations of the
    simulator's generated step."""
    return phi.coef_matrix @ np.array(
        [math.prod(power(float(x[j]), e) for j, e in f) for f in phi.factors], dtype=float)


def monomial_term(loop, s: np.ndarray) -> np.ndarray:
    """``G mono(s)`` of a masked ``chaosmask.sim.ClosedLoop``: the monomials
    of ``loop.monomials``, each factor ``s[row]`` clamped into its
    ``+-bound`` and raised by :func:`power`, scattered into their rows by
    ``G``."""
    return loop.G @ np.array(
        [math.prod(power(min(max(float(s[row]), -bound), bound), e) for row, e, bound in monomial)
         for monomial in loop.monomials], dtype=float)


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
        ds += monomial_term(loop, s)
    if b is not None:
        ds += b
    return ds


def stepper(loop):
    """Classical RK4 of a ``chaosmask.sim.ClosedLoop`` one step at a time, as
    ``step(k, traj) -> s_next``, from the state ``traj[k]``, which also
    stores ``s_next`` as ``traj[k + 1]``: the bitwise reference for the
    loop's stretches.

    A step asks the phases for the operator and the affine term at ``t``,
    ``t + h/2`` and ``t + h`` (:func:`affine_term`) and runs the triple's
    generated loop over that one step.  It carries the gathered factors as
    ``integrate`` does: a step whose generated loop is the previous step's
    takes the factors that step returned, and any other step, the first
    included, gathers them from its state.  So the steps of one stepper
    follow each other, and an unrelated step needs a fresh stepper.
    """
    h = loop.dt
    last = [None, None]  # the previous step's generated loop and its factors

    def step(k, traj):
        t = k * h
        stages = [affine_term(loop, u, k, traj) for u in (t, t + 0.5 * h, t + h)]
        bs = [b for _, b in stages if b is not None]
        run = loop._run_for([(M, b is not None) for M, b in stages])
        F = run(traj, k, k + 1, np.concatenate(bs) if bs else None,
                last[1] if run is last[0] else None)
        last[:] = run, F
        return traj[k + 1]

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
