"""Plants, chaotic maskers, and the stacked masking+plant system.

The masker nonlinearity is restricted to polynomial maps, so its Jacobian is
exact and its Lipschitz constant over the invariant box has a closed-form
bound from the monomials' coefficients and the box radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedRunError, NotBoundedError
from .numerics import DEFAULT_DT, as_matrix, as_vector

# State norm above which the invariant-box search declares divergence.
BOX_DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class PolynomialMap:
    """Polynomial map R^n_in -> R^n_out as per-output lists of monomials.

    Each monomial is ``(coefficient, exponents)`` with one nonnegative integer
    exponent per input variable.  The terms are compiled once, in output
    order: ``factors[t]`` holds the ``(variable, exponent)`` pairs of term
    ``t`` whose exponent is not zero (none for a constant), and
    ``coef_matrix[i, t]`` is the term's coefficient in output ``i``, so
    ``phi(x) = coef_matrix @ [prod(x[j] ** e for j, e in f) for f in factors]``.
    The simulator builds its monomial table from ``factors``.
    """

    n_in: int
    n_out: int
    terms: tuple  # tuple (per output) of tuples of (coef, exponents-tuple)
    factors: tuple = field(init=False, repr=False, compare=False)
    coef_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("dimensions must be positive")
        if len(self.terms) != self.n_out:
            raise ValueError("one term list per output component required")
        for comp in self.terms:
            for coef, exps in comp:
                if len(exps) != self.n_in:
                    raise ValueError("exponent vector length must equal n_in")
                if not np.isfinite(coef):
                    raise ValueError("coefficients must be finite")
                if any(e < 0 or int(e) != e for e in exps):
                    raise ValueError("exponents must be nonnegative integers")
        flat = [(i, coef, exps) for i, comp in enumerate(self.terms) for coef, exps in comp]
        coef_matrix = np.zeros((self.n_out, len(flat)))
        for t, (i, coef, _) in enumerate(flat):
            coef_matrix[i, t] = coef
        object.__setattr__(self, "factors", tuple(
            tuple((j, int(e)) for j, e in enumerate(exps) if e) for _, _, exps in flat))
        object.__setattr__(self, "coef_matrix", coef_matrix)

    @classmethod
    def zero(cls, n_in: int, n_out: int) -> "PolynomialMap":
        return cls(n_in, n_out, tuple(() for _ in range(n_out)))


@dataclass(frozen=True)
class LtiPlant:
    """Linear plant ``xdot = A x + B u``, ``y = C x``; (A, C) must be observable."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError("A must be square")
        B = as_matrix(self.B, rows=n, name="B")
        C = as_matrix(self.C, cols=n, name="C")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        # Observability stack [C; CA; ...; CA^(n-1)], rank tolerance relative
        # to its largest singular value.
        blocks = [C]
        for _ in range(n - 1):
            blocks.append(blocks[-1] @ A)
        obs = np.vstack(blocks)
        sv = np.linalg.svd(obs, compute_uv=False)
        if np.sum(sv > 1e-8 * sv[0]) < n:
            raise ValueError("(A, C) is not observable")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass
class ChaoticMask:
    """Chaotic masking generator ``xidot = Phi xi + phi(xi)``, ``d = Lambda xi``.

    ``sigma`` (invariant-box radii), ``ell`` (Lipschitz bound of phi over
    the box) and ``d_bound`` (bound on ||Lambda xi|| over the box) start unset
    and are populated by :func:`estimate_invariant_box` /
    :func:`estimate_lipschitz`.  Given ones are checked here: one radius
    ``> 0`` per masker state, ``ell >= 0`` and ``d_bound >= 0``.
    """

    Phi: np.ndarray
    phi: PolynomialMap
    Lambda: np.ndarray
    sigma: np.ndarray | None = None
    ell: float | None = None
    d_bound: float | None = None

    def __post_init__(self):
        Phi = as_matrix(self.Phi, name="Phi")
        n = Phi.shape[0]
        if Phi.shape[1] != n:
            raise ValueError("Phi must be square")
        if self.phi.n_in != n or self.phi.n_out != n:
            raise ValueError("phi must map R^n_xi to R^n_xi")
        Lam = as_matrix(self.Lambda, cols=n, name="Lambda")
        self.Phi = Phi
        self.Lambda = Lam
        if self.sigma is not None:
            self.sigma = as_vector(self.sigma, size=n, name="sigma")
            if np.any(self.sigma <= 0):
                raise ValueError("sigma components must be strictly positive")
        for key, value in (("ell", self.ell), ("d_bound", self.d_bound)):
            if value is not None and not value >= 0:
                raise ValueError(f"{key} must be >= 0, got {value!r}")

    def state(self, xi, name: str = "xi") -> np.ndarray:
        """``xi`` as a masker state: a finite vector of ``n_xi`` entries."""
        return as_vector(xi, size=self.n_xi, name=name)

    @property
    def n_xi(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_y(self) -> int:
        return self.Lambda.shape[0]

    @property
    def is_calibrated(self) -> bool:
        return self.sigma is not None and self.ell is not None and self.d_bound is not None


def rossler_p4(a: float, b: float, Lambda=None) -> ChaoticMask:
    """Rossler prototype-4 masker; chaotic for a = b = 0.5.

    ``xidot1 = -xi2 - xi3``, ``xidot2 = xi1``, ``xidot3 = a (xi2 - xi2^2) - b xi3``.
    Box, Lipschitz constant, and masking-signal bound are left unset.
    """
    Phi = np.array([[0.0, -1.0, -1.0],
                    [1.0, 0.0, 0.0],
                    [0.0, a, -b]])
    phi = PolynomialMap(3, 3, ((), (), (((-a), (0, 2, 0)),)))
    if Lambda is None:
        Lambda = np.eye(3)
    return ChaoticMask(Phi=Phi, phi=phi, Lambda=Lambda)


def scale_mask(mask: ChaoticMask, beta: float) -> ChaoticMask:
    """Rescale the last masker coordinate: ``xi' = diag(1, ..., 1, 1/beta) xi``.

    The dynamics transform by similarity (``Phi' = T Phi T^-1``, monomial
    coefficients transformed accordingly) so masker trajectories map exactly
    through T.  ``Lambda`` is kept as given: the output map is part of the
    scaled masker's design and acts on the new coordinates, which is what
    shrinks the nonlinearity's Lipschitz constant without blowing the masking
    signal back up.  Box, Lipschitz constant, and masking bound are
    invalidated and must be re-estimated.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    n = mask.n_xi
    t = np.ones(n)
    t[-1] = 1.0 / beta
    T = np.diag(t)
    T_inv = np.diag(1.0 / t)
    Phi = T @ mask.Phi @ T_inv
    terms = []
    for i, comp in enumerate(mask.phi.terms):
        new_comp = []
        for coef, exps in comp:
            c = coef * t[i]
            for j, e in enumerate(exps):
                if e:
                    c *= (1.0 / t[j]) ** e
            new_comp.append((c, exps))
        terms.append(tuple(new_comp))
    phi = PolynomialMap(n, n, tuple(terms))
    return ChaoticMask(Phi=Phi, phi=phi, Lambda=mask.Lambda.copy())


def box_steps(t_settle: float = 100.0, t_obs: float = 500.0, margin: float = 0.2,
              dt: float = DEFAULT_DT) -> tuple[int, int]:
    """The settle steps and all steps of :func:`estimate_invariant_box`'s
    window, whose parameters and defaults these are; a parameter out of range
    raises ValueError."""
    if not t_settle >= 0:
        raise ValueError("t_settle must be nonnegative")
    if not t_obs > 0:
        raise ValueError("t_obs must be positive")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not margin >= 0:
        raise ValueError("margin must be nonnegative")
    return int(round(t_settle / dt)), int(round((t_settle + t_obs) / dt))


def estimate_invariant_box(mask: ChaoticMask, xi0, t_settle: float = 100.0,
                           t_obs: float = 500.0, margin: float = 0.2,
                           dt: float = DEFAULT_DT,
                           unscaled: tuple[ChaoticMask, float] | None = None) -> np.ndarray:
    """Estimate the attractor bounding box by simulating past the transient.

    ``sigma_i = (1 + margin) * max |xi_i(t)|`` over the observation window; the
    settle window is discarded.  Also records ``d_bound`` as
    ``(1 + margin) * max ||Lambda xi(t)||`` over the same window (the tight
    value, not ``||Lambda|| ||sigma||``).  Both are stored into ``mask``.

    ``unscaled`` is an optional ``(raw, beta)`` with ``mask = scale_mask(raw,
    beta)``.  The same window, mapped back through ``T^-1 = diag(1, ..., 1,
    beta)``, then gives ``raw`` its box (``mask``'s with the last radius
    times beta) and its ``d_bound``, so one integration serves both masks.

    The trajectory runs through the collapsed RK4 step of
    :func:`chaosmask.sim.masker_loop`.  Raises :class:`NotBoundedError` if
    its norm exceeds 1e6.
    """
    from .sim import masker_loop  # sim imports this module

    n_settle, n_steps = box_steps(t_settle, t_obs, margin, dt)
    xi0 = mask.state(xi0, "xi0")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            traj = masker_loop(mask, dt).integrate(xi0, n_steps)
    except DivergedRunError as exc:
        # A norm past the loop's divergence limit, or an overflow to
        # non-finite values, is the extreme form of unboundedness.
        raise NotBoundedError(
            "masker trajectory is unbounded; the initial condition is likely "
            "outside the basin") from exc
    if np.max(np.linalg.norm(traj, axis=1)) > BOX_DIVERGENCE_NORM:
        raise NotBoundedError(
            "masker trajectory is unbounded; the initial condition is likely outside the basin")
    window = traj[n_settle:]
    mask.sigma = (1.0 + margin) * np.max(np.abs(window), axis=0)
    mask.d_bound = float((1.0 + margin) * np.max(np.linalg.norm(window @ mask.Lambda.T, axis=1)))
    if unscaled is not None:
        raw, beta = unscaled
        back = np.ones(mask.n_xi)
        back[-1] = beta
        raw.sigma = mask.sigma * back
        raw.d_bound = float((1.0 + margin)
                            * np.max(np.linalg.norm((window * back) @ raw.Lambda.T, axis=1)))
    return mask.sigma


def estimate_lipschitz(mask: ChaoticMask) -> float:
    """Lipschitz bound of phi over the box ``[-sigma, sigma]``, stored into ``mask``.

    Each Jacobian entry is a polynomial, and over the box the monomial
    ``c prod_k xi_k^e_k`` has ``|d/dxi_j| <= |c| e_j sigma_j^(e_j - 1)
    prod_(k != j) sigma_k^e_k``.  Summing these per entry bounds ``|J(xi)|``
    entrywise by a matrix ``B``, so ``||J(xi)||_2 <= ||B||_F`` everywhere in
    the box: a bound for every polynomial mask, and exact when one entry
    carries the whole Jacobian (Rossler: ``2 (a / beta) sigma_2``).
    """
    if mask.sigma is None:
        raise ValueError("estimate_invariant_box must run before estimate_lipschitz")
    sigma = mask.sigma
    n = mask.n_xi
    B = np.zeros((n, n))
    for i, comp in enumerate(mask.phi.terms):
        for coef, exps in comp:
            for j, e in enumerate(exps):
                if not e:
                    continue
                term = abs(coef) * e * sigma[j] ** (e - 1)
                for k, ek in enumerate(exps):
                    if k != j and ek:
                        term *= sigma[k] ** ek
                B[i, j] += term
    # hypot scales by the largest entry, so a tiny bound does not underflow
    # to zero as a plain sum of squares does.
    ell = math.hypot(*B.flat)
    mask.ell = ell
    return ell


@dataclass(frozen=True)
class ExtendedSystem:
    """Stacked masker+plant system with state ``col(xi, x)``.

    ``Abold = diag(Phi, A)``, ``Bbold = [0; B]``, ``Cbold = [Lambda C]``, and
    the nonlinearity ``phi`` of ``mask`` acts on the xi components only.
    """

    Abold: np.ndarray
    Bbold: np.ndarray
    Cbold: np.ndarray
    mask: ChaoticMask
    plant: LtiPlant

    @property
    def n(self) -> int:
        return self.Abold.shape[0]

    @property
    def n_xi(self) -> int:
        return self.mask.n_xi

    @property
    def ell(self) -> float:
        return float(self.mask.ell)


def extended_pair(plant: LtiPlant, mask: ChaoticMask) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``Abold = diag(Phi, A)`` and ``Cbold = [Lambda C]``; the mask
    need not be calibrated."""
    if mask.n_y != plant.n_y:
        raise ValueError(
            f"Lambda has {mask.n_y} rows but the plant has {plant.n_y} outputs")
    n_xi = mask.n_xi
    Abold = np.zeros((n_xi + plant.n_x,) * 2)
    Abold[:n_xi, :n_xi] = mask.Phi
    Abold[n_xi:, n_xi:] = plant.A
    Cbold = np.hstack([mask.Lambda, plant.C])
    return Abold, Cbold


def build_extended(plant: LtiPlant, mask: ChaoticMask) -> ExtendedSystem:
    """Assemble the stacked system; the mask must be fully calibrated."""
    Abold, Cbold = extended_pair(plant, mask)
    if not mask.is_calibrated:
        raise ValueError("mask must have sigma, ell, and d_bound set (run the estimators)")
    Bbold = np.vstack([np.zeros((mask.n_xi, plant.n_u)), plant.B])
    return ExtendedSystem(Abold=Abold, Bbold=Bbold, Cbold=Cbold, mask=mask, plant=plant)
