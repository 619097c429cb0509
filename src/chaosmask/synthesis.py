"""Observer-gain synthesis and certification.

The gain comes from a constructive route: parameterize the certificate as
``N = eta * Cbold'`` and solve the resulting Riccati equality over a grid of
``eta`` and strictness slacks, then certify every candidate against the full
block inequality.  No general-purpose SDP solver is involved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

from .errors import GainNotCertifiedError, InfeasibleSynthesisError, RiccatiFailureError, \
    NoStabilizingSolutionError
from .models import ExtendedSystem
from .numerics import as_matrix, is_negative_definite, min_singular_value_freq, \
    min_singular_values_freq, solve_riccati_grid, solve_riccati_stabilizing

#: eta grid for the constructive search (25 points, logarithmic).
ETA_GRID = tuple(np.logspace(-2.0, 6.0, 25))

#: Strictness slacks converting the strict inequality into solvable equalities.
EPS_GRID = (1e-6, 1e-4, 1e-2)

#: Imaginary-axis tolerance of the level-set test, relative to ``||H||_1``: an
#: eigenvalue of Byers' Hamiltonian with ``|Re| <= AXIS_TOL ||H||_1`` counts
#: as a crossing.
AXIS_TOL = 1e-8

#: Relative tolerance of the delta bracket: the upper end stops when no
#: midpoint lowers it by more than this, and the lower end's bisection stops
#: when its interval is this narrow, relative to the upper end.
DELTA_RTOL = 1e-12

#: Factor by which the lower end's distance below ``delta_hi`` grows until a
#: level without crossings is found; bisection then narrows the last step.
_GAP_GROWTH = 8.0


@dataclass(frozen=True)
class ObserverGain:
    """Certified extended-observer gain with its quadratic certificate.

    ``margin`` is the largest eigenvalue of the certified block inequality
    (negative means feasible); ``ell_used`` is the Lipschitz constant the
    certificate covers.
    """

    L: np.ndarray
    P: np.ndarray
    N: np.ndarray
    margin: float
    ell_used: float

    def __post_init__(self):
        P = as_matrix(self.P, name="P")
        if np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) <= 0:
            raise ValueError("P must be symmetric positive definite")
        if np.linalg.norm(self.N - P @ self.L, "fro") >= 1e-8 * max(1.0, np.linalg.norm(self.N, "fro")):
            raise ValueError("N must equal P L")
        if self.margin >= 0:
            raise ValueError("margin must be negative (certified feasibility)")


@dataclass(frozen=True)
class UnobservabilityReport:
    """Distance to unobservability as a bracket ``delta <= delta* <= delta_hi``,
    where ``delta* = min_w sigma_min([j w I - A; C])``.

    ``delta_hi`` is attained: it is ``sigma_min`` at ``w_star``.  ``delta``
    is a level at which Byers' Hamiltonian has no eigenvalue within
    :data:`AXIS_TOL` ``||H||_1`` of the imaginary axis, so no singular value
    of the pencil reaches it at any real frequency; it is a lower bound up to
    that eigen-solver tolerance.  The upper end stops when a step lowers it
    by at most :data:`DELTA_RTOL` of itself, and the lower end lies within
    ``DELTA_RTOL * delta_hi`` of a level at which the test found a crossing.
    ``profile`` holds the samples the bracket evaluated, sorted by
    frequency, as columns ``(w, sigma_min)``; ``delta_hi`` is its minimum.
    """

    delta: float
    delta_hi: float
    w_star: float
    profile: np.ndarray  # (k, 2) columns: w, sigma_min

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.delta, self.delta_hi, self.w_star)):
            raise ValueError("delta, delta_hi and w_star must be finite")
        if not 0.0 <= self.delta <= self.delta_hi:
            raise ValueError("the bracket must satisfy 0 <= delta <= delta_hi")


def default_w_max(A: np.ndarray) -> float:
    return 10.0 * (1.0 + float(np.linalg.norm(A, "fro")))


def frequency_profile(A, C, w_max: float | None = None, n_grid: int = 2000) -> np.ndarray:
    """``sigma_min([j w I - A; C])`` on ``n_grid`` equally spaced frequencies of
    ``[0, w_max]`` (conjugate symmetry covers negative ones), as ``(n_grid, 2)``
    columns ``(w, sigma_min)``: one
    :func:`~chaosmask.numerics.min_singular_values_freq` call.  This is the
    profile that ``distance --profile-out`` and ``reproduce-paper`` write;
    :func:`distance_to_unobservability` does not need it.
    """
    A = as_matrix(A, name="A")
    if w_max is None:
        w_max = default_w_max(A)
    if w_max <= 0:
        raise ValueError("w_max must be positive")
    if n_grid < 100:
        raise ValueError("n_grid must be at least 100")
    ws = np.linspace(0.0, w_max, n_grid)
    return np.column_stack([ws, min_singular_values_freq(A, C, ws)])


def _crossings(A: np.ndarray, CtC: np.ndarray, gamma: float):
    """The frequencies ``w >= 0`` at which some singular value of
    ``[j w I - A; C]`` equals ``gamma > 0``: by Byers (1988), the eigenvalues
    ``j w`` of ``H = [[A, gamma I], [C'C / gamma - gamma I, -A']]``, taken
    within :data:`AXIS_TOL` ``||H||_1`` of the imaginary axis.  None where H
    overflows or LAPACK's ``dgeev`` fails, so that the level cannot be
    tested.  scipy's ``dgeev`` is used, not ``np.linalg.eigvals``: it runs
    on the LAPACK build whose Hessenberg QR code the Riccati grid's ``dgees``
    already uses, where numpy's pages in a second copy: its first call
    added 540-640 KB of peak RSS in a fresh process."""
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = gamma * np.eye(n)
    H[n:, n:] = -A.T
    with np.errstate(over="ignore"):
        H[n:, :n] = CtC / gamma - gamma * np.eye(n)
        scale = np.max(np.sum(np.abs(H), axis=0))
    if not math.isfinite(scale):
        return None
    wr, wi, _, _, info = lapack.dgeev(H, compute_vl=0, compute_vr=0)
    if info != 0:
        return None
    return np.abs(wi[np.abs(wr) <= AXIS_TOL * scale])


def distance_to_unobservability(A, C) -> UnobservabilityReport:
    """Distance to unobservability of (A, C), ``delta* = min_w
    sigma_min([j w I - A; C])``, bracketed from level sets of Byers'
    Hamiltonian (see :func:`_crossings`).

    Upper end: from ``gamma = sigma_min`` at ``w = 0``, take the crossings
    at level gamma, evaluate ``sigma_min`` at the midpoints of consecutive
    crossings in one :func:`~chaosmask.numerics.min_singular_values_freq`
    call, and lower gamma to the smallest value found, as Boyd &
    Balakrishnan (1990) do for the H-infinity norm; stop when no midpoint
    lowers it by more than :data:`DELTA_RTOL`.  Lower end: the distance below
    ``delta_hi`` grows by :data:`_GAP_GROWTH` until a level without
    crossings is found, then bisection narrows it to :data:`DELTA_RTOL`.
    Where ``sigma_min`` reaches 0, ``delta = delta_hi = 0``.  A level at
    which H overflows (``C'C / gamma`` for a tiny gamma) is never certified,
    so the lower end can only be 0 there.
    """
    A = as_matrix(A, name="A")
    C = as_matrix(C, cols=A.shape[0], name="C")
    with np.errstate(over="ignore"):
        CtC = C.T @ C
    ws, vals = [0.0], [min_singular_value_freq(A, C, 0.0)]
    gamma, w_star = vals[0], 0.0
    while gamma > 0.0:
        cross = _crossings(A, CtC, gamma)
        if cross is None:
            break
        w = np.array(sorted({0.0, *cross.tolist()}))
        mid = 0.5 * (w[1:] + w[:-1])
        if mid.size == 0:
            break
        sig = min_singular_values_freq(A, C, mid)
        ws += mid.tolist()
        vals += sig.tolist()
        i = int(np.argmin(sig))
        if not sig[i] < gamma:
            break
        converged = gamma - sig[i] <= DELTA_RTOL * gamma
        gamma, w_star = float(sig[i]), float(mid[i])
        if converged:
            break

    def certified(level):
        cross = _crossings(A, CtC, level)
        return cross is not None and cross.size == 0

    lo, hi = 0.0, gamma
    gap = DELTA_RTOL * gamma
    while gap < gamma:
        if certified(gamma - gap):
            lo = gamma - gap
            break
        hi = gamma - gap
        gap *= _GAP_GROWTH
    while hi - lo > DELTA_RTOL * gamma:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    profile = np.array(sorted(zip(ws, vals)))
    return UnobservabilityReport(delta=lo, delta_hi=gamma, w_star=w_star, profile=profile)


def check_sufficiency(report: UnobservabilityReport, ell: float) -> bool:
    """Screening test ``delta > ell``: the distance to unobservability strictly
    above the Lipschitz constant.

    ``delta`` is the report's lower end, so the test rests on the safe side:
    it holds the level-set certificate of :func:`distance_to_unobservability`
    (no Hamiltonian eigenvalue within :data:`AXIS_TOL` ``||H||_1`` of the
    imaginary axis), which lies within :data:`DELTA_RTOL` of the level where
    that test stops certifying.  An ``ell`` between ``delta`` and
    ``delta_hi`` is screened out.

    This is Rajamani's (1998) condition for a Lipschitz observer to exist.
    Aboky, Sallet & Vivalda (2002) report that it is not sufficient in
    general, so a True here does not prove a gain exists; the certificate of
    :func:`verify_lmi` (through :func:`synthesize_gain` or
    :func:`verify_gain`) is the proof.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return report.delta > ell


def _error_weight(ext: ExtendedSystem) -> np.ndarray:
    """diag(I_{n_xi}, 0): the weight the Lipschitz bound puts on the xi error."""
    E = np.zeros((ext.n, ext.n))
    E[:ext.n_xi, :ext.n_xi] = np.eye(ext.n_xi)
    return E


def lmi_margins(ext: ExtendedSystem, P: np.ndarray, N: np.ndarray) -> np.ndarray:
    """:func:`verify_lmi` for a stack of certificates ``(P_i, N_i)`` whose P_i
    are known to be symmetric positive definite (they are not checked again).

    ``P`` is ``(k, n, n)`` and ``N`` is ``(k, n, p)``; the k blocks go through
    one stacked :func:`is_negative_definite`, which treats each on its own.
    """
    A, C = ext.Abold, ext.Cbold
    ell = ext.ell
    upper = P @ A + A.T @ P - N @ C - C.T @ N.swapaxes(1, 2) + _error_weight(ext)
    upper = 0.5 * (upper + upper.swapaxes(1, 2))
    if ell == 0.0:
        block = upper
    else:
        try:
            corner = -(ell ** -2)
        except OverflowError:
            raise ValueError(f"ell = {ell:.3g} is too small for the certificate block "
                             "(ell^-2 overflows); a linear masker takes ell = 0") from None
        n = ext.n
        block = np.empty((P.shape[0], 2 * n, 2 * n))
        block[:, :n, :n] = upper
        block[:, :n, n:] = P
        block[:, n:, :n] = P
        block[:, n:, n:] = corner * np.eye(n)
    certified, worst = is_negative_definite(block, margin=0.0)
    # max(worst, 0.0) where not certified: worst when worst >= 0, else 0.0.
    return np.where(certified | (worst >= 0.0), worst, 0.0)


def verify_lmi(ext: ExtendedSystem, P, N) -> float:
    """Largest eigenvalue of the feasibility block matrix (negative iff certified).

    The block is ``[[P A + A'P - N C - C'N' + diag(I, 0), P], [P, -ell^-2 I]]``.
    For ``ell = 0`` the quadratic coupling vanishes and the upper-left block is
    tested alone.  A negative eigenvalue within the eigensolver's round-off
    band (see :func:`is_negative_definite`) does not certify and is returned
    as 0.0, so every caller that tests ``margin < 0`` applies the same rule.
    This is the one-point case of :func:`lmi_margins`, after checking that P
    is symmetric positive definite.
    """
    P = as_matrix(P, rows=ext.n, cols=ext.n, name="P")
    N = as_matrix(N, rows=ext.n, cols=ext.Cbold.shape[0], name="N")
    if np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) <= 0:
        raise ValueError("P must be symmetric positive definite")
    return float(lmi_margins(ext, P[None], N[None])[0])


def synthesize_gain(ext: ExtendedSystem) -> ObserverGain:
    """Search the (eta, eps) grid for a certified extended-observer gain.

    For each pair, ``N = eta Cbold'`` and the Riccati equality

        ``A'P + P A + ell^2 P P + (diag(I,0) - 2 eta C'C + eps I) = 0``

    is solved.  All 75 equalities go through one
    :func:`~chaosmask.numerics.solve_riccati_grid` call, as three chains, one
    per eps, of 25 points in ascending eta: Q falls along each, so the grid
    computes no Schur form for a chain's imaginary-axis prefix and tries the
    stable branch only until it is clearly not positive definite.  The
    outcomes are those of 75 one-point solves.  Every solution is certified
    by one :func:`lmi_margins` call.  ``L = P^-1 N`` is solved
    only for certified points; the one with the most negative margin that
    :func:`verify_gain` re-certifies is returned: a margin at the round-off
    floor can certify against this certificate and not against the one
    ``verify_gain`` builds for the same ``L``.  A point whose P is too
    ill-conditioned to solve for ``L`` (scipy's ``LinAlgWarning``) or for
    ``N = P L`` to hold within the tolerance of :class:`ObserverGain` is
    skipped likewise.

    Raises :class:`InfeasibleSynthesisError` when no grid point certifies
    and re-certifies.  It carries the best margin seen and the whole grid,
    one ``(eta, eps, outcome)`` per point: ``"axis"`` (Hamiltonian eigenvalue
    on the imaginary axis), ``"no PD"`` (no positive definite solution) or
    the margin.
    """
    if ext.mask.ell is None:
        raise ValueError("extended system has no Lipschitz constant")
    A, C = ext.Abold, ext.Cbold
    n = ext.n
    ell = ext.ell
    eta = np.repeat(ETA_GRID, len(EPS_GRID))
    eps = np.tile(EPS_GRID, len(ETA_GRID))
    Q = _error_weight(ext) - (2.0 * eta)[:, None, None] * (C.T @ C) \
        + eps[:, None, None] * np.eye(n)
    # Each eps column is a chain in ascending eta, along which Q decreases;
    # the outcomes come back chain by chain and are put back in grid order.
    chains = solve_riccati_grid(A, (ell ** 2) * np.eye(n),
                                Q.reshape(len(ETA_GRID), len(EPS_GRID), n, n).swapaxes(0, 1))
    outcomes = [chains[c * len(ETA_GRID) + j]
                for j in range(len(ETA_GRID)) for c in range(len(EPS_GRID))]
    solved = [i for i, out in enumerate(outcomes) if isinstance(out, np.ndarray)]
    P = np.array([outcomes[i] for i in solved]).reshape(-1, n, n)
    N = eta[solved][:, None, None] * C.T
    margin = lmi_margins(ext, P, N).tolist()

    # A stable sort keeps grid order among equal margins.
    for j in sorted(range(len(solved)), key=margin.__getitem__):
        if margin[j] >= 0:
            break
        try:
            # P too ill-conditioned to solve L = P^-1 N (LinAlgWarning) or for
            # L to satisfy N = P L (ValueError).
            with warnings.catch_warnings():
                warnings.simplefilter("error", linalg.LinAlgWarning)
                L = linalg.solve(P[j], N[j])
            gain = ObserverGain(L=L, P=P[j], N=N[j], margin=margin[j], ell_used=ell)
            verify_gain(ext, gain.L)
        except (linalg.LinAlgWarning, ValueError, GainNotCertifiedError):
            continue
        return gain
    for i, m in zip(solved, margin):
        outcomes[i] = m
    labels = {NoStabilizingSolutionError: "axis", RiccatiFailureError: "no PD"}
    grid = tuple((float(eta_i), float(eps_i), labels.get(type(out), out))
                 for eta_i, eps_i, out in zip(eta, eps, outcomes))
    raise InfeasibleSynthesisError(min(margin, default=None), grid)


def verify_gain(ext: ExtendedSystem, L) -> ObserverGain:
    """Certify a given gain by constructing a quadratic certificate for it.

    Solves ``(A - L C)'P + P (A - L C) + ell^2 P P + diag(I,0) + eps I = 0``
    over the slack grid; the first PD solution yields ``N = P L`` and the
    block-inequality margin.

    Raises :class:`GainNotCertifiedError` when no slack admits a certificate.
    """
    L = as_matrix(L, rows=ext.n, cols=ext.Cbold.shape[0], name="L")
    A_cl = ext.Abold - L @ ext.Cbold
    n = ext.n
    ell = ext.ell
    R = (ell ** 2) * np.eye(n)
    E = _error_weight(ext)
    for eps in EPS_GRID:
        Q = E + eps * np.eye(n)
        try:
            P = solve_riccati_stabilizing(A_cl, R, Q)
        except (RiccatiFailureError, NoStabilizingSolutionError):
            continue
        N = P @ L
        margin = verify_lmi(ext, P, N)
        if margin < 0:
            return ObserverGain(L=L, P=P, N=N, margin=margin, ell_used=ell)
    raise GainNotCertifiedError("no strictness slack admits a certificate for this gain")
