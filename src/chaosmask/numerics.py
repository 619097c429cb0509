"""Dense linear-algebra and integration kernels.

All matrices in this package are small (n <= 14), so the routines here favour
robustness and determinism over speed: fixed-step RK4, dense eigensolvers, and
explicit residual checks on every matrix-equation solve.  Every function is
pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import (
    IntegrationDivergedError,
    NoStabilizingSolutionError,
    NotHurwitzError,
    RiccatiFailureError,
)

# Hurwitz check guard band: eigenvalues with real part above this are rejected.
HURWITZ_TOL = -1e-9

#: Default integration step for every simulation in the package.
DEFAULT_DT = 1e-3

#: Frequencies per LAPACK call in :func:`min_singular_values_freq`.  Larger
#: blocks run no faster and a whole 2000-point stack grows peak memory.
SWEEP_BLOCK = 64


def as_matrix(M, rows: int | None = None, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, checking finiteness and (optionally) shape."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with positive dimensions, got shape {A.shape}")
    if rows is not None and A.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {A.shape[0]}")
    if cols is not None and A.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {A.shape[1]}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_vector(v, size: int | None = None, name: str = "vector") -> np.ndarray:
    x = np.asarray(v, dtype=float).reshape(-1)
    if size is not None and x.size != size:
        raise ValueError(f"{name} must have length {size}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def is_hurwitz(A: np.ndarray, tol: float = HURWITZ_TOL) -> bool:
    """True iff every eigenvalue of A has real part below ``tol``."""
    return bool(np.max(linalg.eigvals(A).real) < tol)


def spectral_abscissa(A: np.ndarray) -> float:
    return float(np.max(linalg.eigvals(A).real))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time series of state vectors."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or t.size != x.shape[0]:
            raise ValueError("times must be 1-D and states 2-D with matching length")
        if t.size < 2:
            raise ValueError("a trajectory needs at least two samples")
        steps = np.diff(t)
        dt = steps[0]
        if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0)):
            raise ValueError("time grid must be uniform and strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def rk4_step(field, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``xdot = field(t, x)``."""
    k1 = field(t, x)
    k2 = field(t + 0.5 * dt, x + (0.5 * dt) * k1)
    k3 = field(t + 0.5 * dt, x + (0.5 * dt) * k2)
    k4 = field(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rk4(field, x0, dt: float, t_end: float) -> Trajectory:
    """Integrate ``xdot = field(t, x)`` with fixed-step classical RK4.

    Parameters
    ----------
    field : callable
        Vector field ``field(t, x) -> xdot``.
    x0 : array_like
        Initial state.
    dt : float
        Step size, > 0.
    t_end : float
        Final time, >= dt.  The number of steps is ``round(t_end / dt)``.

    Raises
    ------
    IntegrationDivergedError
        If the state becomes non-finite, naming the time of failure.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least one step")
    n_steps = int(round(t_end / dt))
    x = as_vector(x0, name="x0").copy()
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    for k in range(n_steps):
        t = k * dt
        x = rk4_step(field, t, x, dt)
        if not np.isfinite(x).all():
            raise IntegrationDivergedError(t + dt)
        out[k + 1] = x
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times, out)


def solve_lyapunov(A_cl: np.ndarray) -> np.ndarray:
    """Solve ``S A_cl + A_cl' S = -I`` for a Hurwitz ``A_cl``.

    Returns the symmetric positive definite solution.  Raises
    :class:`NotHurwitzError` when ``A_cl`` has an eigenvalue with real part
    >= -1e-9.
    """
    A = as_matrix(A_cl, name="A_cl")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("A_cl must be square")
    if not is_hurwitz(A):
        raise NotHurwitzError("A_cl is not Hurwitz; the Lyapunov equation has no PD solution")
    S = linalg.solve_continuous_lyapunov(A.T, -np.eye(n))
    S = 0.5 * (S + S.T)
    resid = np.linalg.norm(S @ A + A.T @ S + np.eye(n), "fro")
    if resid >= 1e-8 * max(1.0, np.linalg.norm(S, "fro")):
        raise RiccatiFailureError(f"Lyapunov residual too large: {resid:.3g}")
    return S


def _hamiltonian_branch(H: np.ndarray, n: int, side: str) -> np.ndarray | None:
    """Extract P = U2 U1^-1 from the requested invariant subspace of H."""
    T, Z, sdim = linalg.schur(H, sort=side)
    if sdim != n:
        return None
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    if np.linalg.cond(U1) > 1e12:
        return None
    P = U2 @ np.linalg.inv(U1)
    return 0.5 * (P + P.T)


def solve_riccati_stabilizing(A: np.ndarray, R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve ``A'P + PA + PRP + Q = 0`` for a symmetric positive definite P.

    The solution is extracted from an invariant subspace of the Hamiltonian
    ``[[A, R], [-Q, -A']]`` (ordered real Schur form).  The branch whose
    ``U2 U1^-1`` is positive definite is returned; the stable-subspace branch
    is tried first, then the anti-stable one.  For indefinite Q (the observer
    synthesis instances) only the anti-stable branch yields a PD solution, so
    ``A + R P`` Hurwitz is guaranteed only when the stable branch succeeds.

    Raises
    ------
    NoStabilizingSolutionError
        If the Hamiltonian has an eigenvalue within 1e-8 of the imaginary axis.
    RiccatiFailureError
        If no branch yields a symmetric positive definite P with residual
        below ``1e-6 * max(1, ||P||_F^2)``.
    """
    A = as_matrix(A, name="A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("A must be square")
    R = as_matrix(R, rows=n, cols=n, name="R")
    Q = as_matrix(Q, rows=n, cols=n, name="Q")
    if np.linalg.norm(R - R.T, "fro") > 1e-10 * max(1.0, np.linalg.norm(R, "fro")):
        raise ValueError("R must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (R + R.T))) < -1e-10 * max(1.0, np.linalg.norm(R, "fro")):
        raise ValueError("R must be positive semidefinite")
    if np.linalg.norm(Q - Q.T, "fro") > 1e-10 * max(1.0, np.linalg.norm(Q, "fro")):
        raise ValueError("Q must be symmetric")

    H = np.block([[A, R], [-Q, -A.T]])
    eig_h = linalg.eigvals(H)
    if np.min(np.abs(eig_h.real)) <= 1e-8:
        raise NoStabilizingSolutionError(
            "Hamiltonian has an eigenvalue on the imaginary axis; no stabilizing solution")

    def residual(P):
        return np.linalg.norm(A.T @ P + P @ A + P @ R @ P + Q, "fro")

    candidates = []
    for side in ("lhp", "rhp"):
        P = _hamiltonian_branch(H, n, side)
        if P is not None:
            candidates.append(P)
    if np.linalg.norm(R, "fro") == 0.0:
        # Degenerate quadratic term: the equation is a general Sylvester equation,
        # solvable even when A has eigenvalues in both half planes.
        P_lin = linalg.solve_continuous_lyapunov(A.T, -Q)
        candidates.append(0.5 * (P_lin + P_lin.T))

    for P in candidates:
        res = residual(P)
        if res >= 1e-6 * max(1.0, np.linalg.norm(P, "fro") ** 2):
            continue
        if np.min(np.linalg.eigvalsh(P)) > 0.0:
            return P
    raise RiccatiFailureError(
        "no symmetric positive definite solution on either invariant-subspace branch")


def min_singular_values_freq(A: np.ndarray, C: np.ndarray, ws) -> np.ndarray:
    """Smallest singular value of ``[j w I - A; C]`` at each frequency of ``ws``.

    Computed over the real embedding: for complex ``M = X + jY`` the singular
    values of M equal those of ``[[X, -Y], [Y, X]]`` (each one duplicated), so
    no complex arithmetic leaves this function.  Here ``X = [-A; C]`` and
    ``Y = [w I; 0]``.  A and C are validated once; the embeddings of
    :data:`SWEEP_BLOCK` frequencies at a time are stacked and passed to one
    LAPACK singular-value call, which treats each matrix on its own.
    """
    A = as_matrix(A, name="A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("A must be square")
    C = as_matrix(C, cols=n, name="C")
    ws = as_vector(ws, name="ws")
    X = np.vstack([-A, C])
    m = X.shape[0]
    stack = np.zeros((min(SWEEP_BLOCK, ws.size), 2 * m, 2 * n))
    stack[:, :m, :n] = X
    stack[:, :m, n:] = -0.0  # -Y: negating Y makes its zeros -0.0
    stack[:, m:, n:] = X
    rows, cols = np.arange(n), n + np.arange(n)
    out = np.empty(ws.size)
    for start in range(0, ws.size, SWEEP_BLOCK):
        w = ws[start:start + SWEEP_BLOCK]
        block = stack[:w.size]
        block[:, rows, cols] = -w[:, None]
        block[:, m + rows, rows] = w[:, None]
        out[start:start + w.size] = np.linalg.svd(block, compute_uv=False)[:, -1]
    return out


def min_singular_value_freq(A: np.ndarray, C: np.ndarray, w: float) -> float:
    """Smallest singular value of ``[j w I - A; C]`` at frequency ``w`` (rad/s):
    the one-point case of :func:`min_singular_values_freq`."""
    return float(min_singular_values_freq(A, C, [w])[0])


def is_negative_definite(M: np.ndarray, margin: float = 0.0) -> tuple[bool, float]:
    """Test ``M < -margin I`` for a symmetric M; also return the worst eigenvalue.

    M is symmetrized before testing; a relative asymmetry beyond 1e-10 is
    rejected.  The symmetric eigensolver is only accurate to about
    ``n eps ||M||_2``, so a worst eigenvalue inside that band below
    ``-margin`` does not certify.
    """
    M = as_matrix(M, name="M")
    if M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    scale = max(1.0, np.linalg.norm(M, "fro"))
    if np.linalg.norm(M - M.T, "fro") > 1e-10 * scale:
        raise ValueError("M is not symmetric to the required tolerance")
    sym = 0.5 * (M + M.T)
    eig = np.linalg.eigvalsh(sym)
    worst = float(eig[-1])
    roundoff = M.shape[0] * np.finfo(float).eps * float(np.max(np.abs(eig)))
    return worst < -margin - roundoff, worst
