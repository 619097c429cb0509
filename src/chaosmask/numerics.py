"""Dense linear-algebra kernels.

All matrices in this package are small (n <= 14), so the routines here favour
robustness and determinism over speed: dense eigensolvers and explicit
residual checks on every matrix-equation solve.  Every function is
pure; identical inputs give bit-identical outputs.  Where speed matters, it
comes from doing each factorization once and each check once per batch: the
frequency sweep takes the complex pencil ``[j w I - A; C]`` through batched
complex SVDs, and the Riccati grid reorders one real Schur form of each
Hamiltonian per branch and runs every other step as a stacked call.  The
grid also skips work: along a chain of falling Q it computes no Schur form
for the imaginary-axis prefix, and stops trying the stable branch once it
is clearly not positive definite (see :func:`solve_riccati_grid`).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

from .errors import NoStabilizingSolutionError, NotHurwitzError, RiccatiFailureError

# Hurwitz check guard band: eigenvalues with real part above this are rejected.
HURWITZ_TOL = -1e-9

#: Default integration step for every simulation in the package.
DEFAULT_DT = 1e-3

#: Frequencies per LAPACK call in :func:`min_singular_values_freq`.  Blocks
#: from 16 to the whole 2000-point grid run within a few percent of each
#: other; 64 keeps the complex stack small.
SWEEP_BLOCK = 64

#: Imaginary-axis test of the Riccati solvers: a Hamiltonian eigenvalue with
#: ``|Re| <=`` this absolute value counts as on the axis (see
#: :func:`solve_riccati_grid` for why it is not relative).
RICCATI_AXIS_TOL = 1e-8

#: How far Q may rise along a chain of :func:`solve_riccati_grid`, relative to
#: ``max(1, ||Q||_F)`` of the two points: far above the rounding of Q's
#: entries, and the tolerance of the symmetry check.
CHAIN_TOL = 1e-10

#: Round-off band of the stable-branch rule: a candidate whose smallest
#: eigenvalue is below ``-STABLE_BAND * max(1, ||P||_F)`` is clearly not
#: positive definite.  1e-6 is the relative residual that accepts a solution.
STABLE_BAND = 1e-6

#: The chain rules of :func:`solve_riccati_grid` need the smallest eigenvalue
#: of R above this, relative to ``max(1, ||A||_F)``: the square root of the
#: machine epsilon, the scale at which round-off moves a double eigenvalue.
COUPLING_TOL = float(np.sqrt(np.finfo(float).eps))


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


def _fro(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.

    The squares are summed as ``np.linalg.norm(M_i, "fro")`` sums them, in
    one dot product of the flattened matrix, so the norm of a stacked matrix
    equals its one-matrix norm bit for bit.
    """
    flat = M.reshape(*M.shape[:-2], 1, M.shape[-2] * M.shape[-1])
    with np.errstate(over="ignore"):  # an overflowing norm is inf, as in np.linalg.norm
        return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])


def _unsorted(re, im):
    """``dgees`` select callback; unused, since the form is not sorted."""
    return None


def _lowest(A: np.ndarray, R: np.ndarray, Q: np.ndarray, P: np.ndarray):
    """Smallest eigenvalue of each stacked candidate ``P`` whose residual of
    ``A'P + PA + PRP + Q = 0`` is below ``1e-6 * max(1, ||P||_F^2)``, NaN where
    it is not, and ``||P||_F``: a candidate solves the equation where its
    smallest eigenvalue is above 0."""
    p_norm = _fro(P)
    ok = ~(_fro(A.T @ P + P @ A + P @ R @ P + Q) >= 1e-6 * np.maximum(1.0, p_norm ** 2))
    lowest = np.full(len(P), np.nan)
    lowest[ok] = np.min(np.linalg.eigvalsh(P[ok]), axis=-1)
    return lowest, p_norm


def solve_riccati_grid(A: np.ndarray, R: np.ndarray, Qs) -> list:
    """Solve ``A'P + PA + PRP + Q = 0`` for a symmetric positive definite P,
    for each ``Q`` of ``Qs`` with the same A and R.

    ``Qs`` holds chains, ``(chains, points, n, n)``, along each of which Q
    must not increase: ``Q[c, j] - Q[c, j + 1] + tau I`` must have a Cholesky
    factor, with ``tau =`` :data:`CHAIN_TOL` ``max(1, ||Q[c, j]||_F,
    ||Q[c, j + 1]||_F)``, or a ValueError is raised.  A stack ``(k, n, n)``
    is k one-point chains.  Returns one outcome per Q, flat in chain order:
    P, or the exception instance that :func:`solve_riccati_stabilizing`
    raises for that Q (:class:`NoStabilizingSolutionError` or
    :class:`RiccatiFailureError`).  A and R are validated once, and every Q
    for shape, finiteness and symmetry.

    Each Hamiltonian ``H = [[A, R], [-Q, -A']]`` (only its ``-Q`` block
    changes from point to point) gets one unsorted real Schur form
    ``H = Z T Z'`` (LAPACK ``dgees``); its eigenvalues, read from T, decide
    the imaginary-axis test ``min |Re lambda| <=`` :data:`RICCATI_AXIS_TOL`.
    A branch reorders that same form (``dtrsen``), moving the stable or the
    anti-stable eigenvalues to the top, which is what a sorted ``dgees`` does
    after the same factorization; a branch whose reordering fails, or whose
    subspace is not n-dimensional, yields nothing.  The stable branch is
    tried first and the anti-stable one only where it left a point unsolved;
    when R = 0, the Sylvester equation ``A'P + PA + Q = 0`` is solved
    directly where neither branch did.

    Along a chain, two rules skip work whose outcome the order fixes:

    - Axis rule.  Schur forms are computed from the low-Q end of the chain
      until the first point that meets the axis test; that point and every
      point before it are labelled :class:`NoStabilizingSolutionError`
      without a Schur form.  By the Popov frequency condition (Willems
      1971), a Hamiltonian with an eigenvalue on the imaginary axis keeps
      one as Q grows, so these outcomes form a prefix of the chain.
    - Stable-branch rule.  The stable branch is tried from the first point
      after that prefix onward, and stops at the first well-conditioned
      candidate that passes the residual check and whose smallest
      eigenvalue is below ``-`` :data:`STABLE_BAND` ``max(1, ||P||_F)``,
      clearly not positive definite.  By the Riccati comparison theorem (Ran
      & Vreugdenhil 1988) the stable-branch solution does not grow as Q
      falls, so no later point of the chain has a positive definite one;
      they go straight to the anti-stable branch.

    Both theorems need the quadratic term to couple the two blocks of H.
    Where the smallest eigenvalue of R is at most :data:`COUPLING_TOL`
    ``max(1, ||A||_F)``, H is block triangular up to round-off: its
    eigenvalues near the axis are those of A, moved by rounding alone, and
    the stable branch need not stabilize.  Each point is then solved as a
    one-point chain.  Every point still computed goes through the checks of
    a one-point call, so the outcomes equal the one-point outcomes wherever
    the two orders hold in floating point.

    The axis test stays absolute, while the level-set test of
    :func:`~chaosmask.synthesis.distance_to_unobservability` is relative to
    ``||H||_1``.  That test is itself the certificate of a lower bound on
    delta, so it must cover the eigensolver's error.  Here the test only
    screens out points before the residual and definiteness checks (and,
    in synthesis, the block certificate) judge their candidates, so a point
    it mislabels loses a candidate but cannot certify a wrong one.  Making
    it relative would change the grid outcomes that
    :class:`~chaosmask.errors.InfeasibleSynthesisError` reports.

    The two LAPACK calls run point by point; the condition check of ``U1``,
    ``U2 U1^-1``, the residual and the eigenvalues of P run as stacked
    calls, which treat each matrix on its own, so an outcome does not
    depend on the other chains.
    """
    A = as_matrix(A, name="A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("A must be square")
    R = as_matrix(R, rows=n, cols=n, name="R")
    Q = np.asarray(Qs, dtype=float)
    if Q.ndim not in (3, 4) or Q.shape[-2:] != (n, n):
        raise ValueError(f"Qs must be a stack of {n} x {n} matrices, or chains of them, "
                         f"got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q contains non-finite entries")
    r_norm = np.linalg.norm(R, "fro")
    if np.linalg.norm(R - R.T, "fro") > 1e-10 * max(1.0, r_norm):
        raise ValueError("R must be symmetric")
    r_min = np.min(np.linalg.eigvalsh(0.5 * (R + R.T)))
    if r_min < -1e-10 * max(1.0, r_norm):
        raise ValueError("R must be positive semidefinite")
    m = Q.shape[1] if Q.ndim == 4 else 1
    Q = Q.reshape(-1, n, n)
    q_norm = _fro(Q)
    if np.any(_fro(Q - Q.swapaxes(1, 2)) > 1e-10 * np.maximum(1.0, q_norm)):
        raise ValueError("Q must be symmetric")
    k = Q.shape[0]
    if not k:
        return []
    if m > 1:
        # Q[j] - Q[j + 1] + tau I must be positive definite: a Cholesky factor exists.
        chain, scale = Q.reshape(-1, m, n, n), q_norm.reshape(-1, m)
        step = chain[:, :-1] - chain[:, 1:]
        step += (CHAIN_TOL * np.maximum(1.0, np.maximum(scale[:, :-1], scale[:, 1:])))[
            ..., None, None] * np.eye(n)
        try:
            np.linalg.cholesky(step)
        except np.linalg.LinAlgError:
            raise ValueError("Q must not increase along a chain") from None
        if not r_min > COUPLING_TOL * max(1.0, np.linalg.norm(A, "fro")):
            m = 1  # the rules do not hold: every point is its own chain

    H = np.empty((2 * n, 2 * n))  # one Hamiltonian at a time: dgees copies it
    H[:n, :n] = A
    H[:n, n:] = R
    H[n:, n:] = -A.T
    outcomes: list = [None] * k
    forms = {}  # point -> (T, Z, stable eigenvalue mask)
    for start in range(0, k, m):
        for i in range(start + m - 1, start - 1, -1):
            H[n:, :n] = -Q[i]
            T, _, wr, _, Z, _, info = lapack.dgees(_unsorted, H)
            if info != 0:
                outcomes[i] = RiccatiFailureError(
                    f"no real Schur form of the Hamiltonian (dgees info {info})")
            elif np.abs(wr).min() <= RICCATI_AXIS_TOL:
                for j in range(start, i + 1):
                    outcomes[j] = NoStabilizingSolutionError(
                        "Hamiltonian has an eigenvalue on the imaginary axis; "
                        "no stabilizing solution")
                break
            else:
                forms[i] = (T, Z, wr < 0.0)

    def branch(points, stable):
        """The points whose branch yields a well-conditioned ``U1``, and their
        candidates ``P = U2 U1^-1``, symmetrized."""
        kept, U = [], np.empty((len(points), 2 * n, n))
        for i in points:
            T, Z, lhp = forms[i]
            _, Zs, _, _, dim, _, _, info = lapack.dtrsen(lhp if stable else ~lhp, T, Z, job="N")
            if info == 0 and dim == n:
                U[len(kept)] = Zs[:, :n]
                kept.append(i)
        U = U[:len(kept)]
        well = ~(np.linalg.cond(U[:, :n]) > 1e12)
        U = U[well]
        P = U[:, n:] @ np.linalg.inv(U[:, :n])
        return [i for i, w in zip(kept, well) if w], 0.5 * (P + P.swapaxes(1, 2))

    def settle(points, P):
        """Record the candidates ``P`` of ``points`` that solve the equation;
        return which of them are clearly not positive definite."""
        lowest, p_norm = _lowest(A, R, Q[points], P)
        for i, P_i, low in zip(points, P, lowest):
            if low > 0.0:
                outcomes[i] = P_i
        return lowest < -STABLE_BAND * np.maximum(1.0, p_norm)

    # The stable branch walks every chain in step, one point per chain per
    # stacked call; each walk lists its points high index first, for pop().
    walks = [[i for i in range(start + m - 1, start - 1, -1) if i in forms]
             for start in range(0, k, m)]
    walks = [w for w in walks if w]
    while walks:
        heads = [w.pop() for w in walks]
        points, P = branch(heads, stable=True)
        stop = {i for i, clear in zip(points, settle(points, P)) if clear}
        walks = [w for w, i in zip(walks, heads) if w and i not in stop]

    pending = sorted(i for i in forms if outcomes[i] is None)
    if pending:
        settle(*branch(pending, stable=False))
        pending = [i for i in pending if outcomes[i] is None]
    if r_norm == 0.0 and pending:
        # Degenerate quadratic term: the equation is a general Sylvester equation,
        # solvable even when A has eigenvalues in both half planes.  When two
        # eigenvalues of A nearly cancel, scipy warns and perturbs the
        # equation; the residual and definiteness checks judge the result.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", 'Input "a" has an eigenvalue pair', RuntimeWarning)
            P = np.array([linalg.solve_continuous_lyapunov(A.T, -Q[i]) for i in pending])
        settle(pending, 0.5 * (P + P.swapaxes(1, 2)))
    return [RiccatiFailureError(
        "no symmetric positive definite solution on either invariant-subspace branch")
        if out is None else out for out in outcomes]


def solve_riccati_stabilizing(A: np.ndarray, R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve ``A'P + PA + PRP + Q = 0`` for a symmetric positive definite P:
    :func:`solve_riccati_grid` on one chain of one point.

    The branch whose ``U2 U1^-1`` is positive definite is returned; the
    stable-subspace branch is tried first, then the anti-stable one.  For
    indefinite Q (the observer synthesis instances) only the anti-stable
    branch yields a PD solution, so ``A + R P`` Hurwitz is guaranteed only
    when the stable branch succeeds.  When R = 0 and neither branch yields
    P, the Sylvester equation ``A'P + PA + Q = 0`` is solved directly.

    Raises
    ------
    NoStabilizingSolutionError
        If the Hamiltonian has an eigenvalue within :data:`RICCATI_AXIS_TOL`
        of the imaginary axis.
    RiccatiFailureError
        If the Schur form cannot be computed, or no branch yields a symmetric
        positive definite P with residual below ``1e-6 * max(1, ||P||_F^2)``.
    """
    (out,) = solve_riccati_grid(A, R, [Q])
    if isinstance(out, Exception):
        raise out
    return out


def min_singular_values_freq(A: np.ndarray, C: np.ndarray, ws) -> np.ndarray:
    """Smallest singular value of ``[j w I - A; C]`` at each frequency of ``ws``.

    A and C are validated once.  The complex ``(n + p) x n`` matrices of
    :data:`SWEEP_BLOCK` frequencies at a time differ only in the imaginary
    part of their diagonal; they are stacked and passed to one batched
    complex LAPACK singular-value call, which treats each matrix on its own,
    so a frequency's value does not depend on the block it falls in.
    """
    A = as_matrix(A, name="A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("A must be square")
    C = as_matrix(C, cols=n, name="C")
    ws = as_vector(ws, name="ws")
    stack = np.empty((min(SWEEP_BLOCK, ws.size), n + C.shape[0], n), dtype=complex)
    stack[:] = np.vstack([-A, C])
    diag = np.arange(n)
    out = np.empty(ws.size)
    for start in range(0, ws.size, SWEEP_BLOCK):
        w = ws[start:start + SWEEP_BLOCK]
        block = stack[:w.size]
        block.imag[:, diag, diag] = w[:, None]
        out[start:start + w.size] = np.linalg.svd(block, compute_uv=False)[:, -1]
    return out


def min_singular_value_freq(A: np.ndarray, C: np.ndarray, w: float) -> float:
    """Smallest singular value of ``[j w I - A; C]`` at frequency ``w`` (rad/s):
    the one-point case of :func:`min_singular_values_freq`."""
    return float(min_singular_values_freq(A, C, [w])[0])


def is_negative_definite(M: np.ndarray, margin: float = 0.0):
    """Test ``M < -margin I`` for a symmetric M; also return the worst eigenvalue.

    M is one matrix, giving ``(bool, float)``, or a stack ``(k, m, m)``,
    giving two arrays of length k, each entry the one-matrix result for its
    matrix.  M is symmetrized before testing; a relative asymmetry beyond
    1e-10 is rejected.  The symmetric eigensolver is only accurate to about
    ``m eps ||M||_2``, so a worst eigenvalue inside that band below
    ``-margin`` does not certify.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] < 1 or M.shape[-2] != M.shape[-1]:
        raise ValueError(f"M must be square or a stack of square matrices, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("M contains non-finite entries")
    Mt = M.swapaxes(-1, -2)
    if np.any(_fro(M - Mt) > 1e-10 * np.maximum(1.0, _fro(M))):
        raise ValueError("M is not symmetric to the required tolerance")
    sym = M + Mt
    sym *= 0.5  # in place: one stack-sized temporary fewer
    eig = np.linalg.eigvalsh(sym)
    worst = eig[..., -1]
    roundoff = M.shape[-1] * np.finfo(float).eps * np.max(np.abs(eig), axis=-1)
    certified = worst < -margin - roundoff
    if M.ndim == 2:
        return bool(certified), float(worst)
    return certified, worst
