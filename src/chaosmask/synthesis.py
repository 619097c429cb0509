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

from .errors import GainNotCertifiedError, InfeasibleSynthesisError, RiccatiFailureError, \
    NoStabilizingSolutionError
from .models import ExtendedSystem
from .numerics import as_matrix, is_negative_definite, min_singular_value_freq, \
    min_singular_values_freq, solve_riccati_grid, solve_riccati_stabilizing

#: eta grid for the constructive search (25 points, logarithmic).
ETA_GRID = tuple(np.logspace(-2.0, 6.0, 25))

#: Strictness slacks converting the strict inequality into solvable equalities.
EPS_GRID = (1e-6, 1e-4, 1e-2)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Distance to unobservability with the frequency profile behind it."""

    delta: float
    w_star: float
    profile: np.ndarray  # (n_grid, 2) columns: w, sigma_min

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def default_w_max(A: np.ndarray) -> float:
    return 10.0 * (1.0 + float(np.linalg.norm(A, "fro")))


def distance_to_unobservability(A, C, w_max: float | None = None,
                                n_grid: int = 2000) -> UnobservabilityReport:
    """Distance to unobservability of (A, C): the frequency minimum of
    ``sigma_min([j w I - A; C])``.

    A coarse scan over ``[0, w_max]`` (conjugate symmetry covers negative
    frequencies) is refined by golden-section search around the grid minimum
    to relative tolerance 1e-8.  The scan is one call of
    :func:`~chaosmask.numerics.min_singular_values_freq`, which validates A
    and C once and takes the complex matrices of the whole grid through
    blocked batched complex SVDs; the refinement evaluates one frequency at a
    time.
    The refined value is reported only when it is no worse than the grid's.
    ``profile`` holds the whole grid.
    """
    A = as_matrix(A, name="A")
    C = as_matrix(C, cols=A.shape[0], name="C")
    if w_max is None:
        w_max = default_w_max(A)
    if w_max <= 0:
        raise ValueError("w_max must be positive")
    if n_grid < 100:
        raise ValueError("n_grid must be at least 100")

    ws = np.linspace(0.0, w_max, n_grid)
    vals = min_singular_values_freq(A, C, ws)
    i = int(np.argmin(vals))
    coarse = float(vals[i])

    lo = ws[max(i - 1, 0)]
    hi = ws[min(i + 1, n_grid - 1)]
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = min_singular_value_freq(A, C, c)
    fd = min_singular_value_freq(A, C, d)
    while b - a > 1e-8 * max(1.0, abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = min_singular_value_freq(A, C, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = min_singular_value_freq(A, C, d)
    if fc < fd:
        w_ref, f_ref = c, fc
    else:
        w_ref, f_ref = d, fd
    # Refinement never reports worse than the coarse scan.
    if f_ref <= coarse:
        delta, w_star = float(f_ref), float(w_ref)
    else:
        delta, w_star = coarse, float(ws[i])
    profile = np.column_stack([ws, vals])
    return UnobservabilityReport(delta=delta, w_star=w_star, profile=profile)


def check_sufficiency(report: UnobservabilityReport, ell: float) -> bool:
    """Screening test ``delta > ell``: the distance to unobservability strictly
    above the Lipschitz constant.

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
    :func:`~chaosmask.numerics.solve_riccati_grid` call, and every solution
    is certified by one :func:`lmi_margins` call.  ``L = P^-1 N`` is solved
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
    outcomes = solve_riccati_grid(A, (ell ** 2) * np.eye(n), Q)
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
