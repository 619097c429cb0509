"""Plants, chaotic maskers, and the stacked masking+plant system.

The masker nonlinearity is restricted to polynomial maps so its Jacobian is
exact, which keeps the grid-based Lipschitz estimate honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationDivergedError, NotBoundedError
from .numerics import DEFAULT_DT, as_matrix, as_vector, integrate_rk4

# Trajectory norm above which the invariant-box search declares divergence.
BOX_DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class PolynomialMap:
    """Polynomial map R^n_in -> R^n_out as per-output lists of monomials.

    Each monomial is ``(coefficient, exponents)`` with one nonnegative integer
    exponent per input variable.  The terms are compiled once: term ``t`` is
    the product over ``w`` of ``x[var[t, w]] ** exp[t, w]`` (unused factors
    have exponent 0), and ``coef_matrix[i, t]`` is its coefficient in output
    ``i``, so ``phi(x) = coef_matrix @ products(x[..., var])``.
    """

    n_in: int
    n_out: int
    terms: tuple  # tuple (per output) of tuples of (coef, exponents-tuple)
    var: np.ndarray = field(init=False, repr=False, compare=False)
    exp: np.ndarray = field(init=False, repr=False, compare=False)
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
        flat = [(i, coef, [(j, e) for j, e in enumerate(exps) if e])
                for i, comp in enumerate(self.terms) for coef, exps in comp]
        width = max([1] + [len(factors) for _, _, factors in flat])
        var = np.zeros((len(flat), width), dtype=np.intp)
        exp = np.zeros((len(flat), width))
        coef_matrix = np.zeros((self.n_out, len(flat)))
        for t, (i, coef, factors) in enumerate(flat):
            for w, (j, e) in enumerate(factors):
                var[t, w], exp[t, w] = j, e
            coef_matrix[i, t] = coef
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "coef_matrix", coef_matrix)

    @classmethod
    def zero(cls, n_in: int, n_out: int) -> "PolynomialMap":
        return cls(n_in, n_out, tuple(() for _ in range(n_out)))

    def products(self, factors: np.ndarray) -> np.ndarray:
        """Monomial values from gathered factors ``x[..., var]`` (coefficients
        excluded), shape ``(..., n_terms)``.

        ``np.float_power`` reproduces the scalar ``x ** e`` bit for bit, which
        the array power and ``x * x`` do not; the chaotic masker integration
        amplifies a last-ulp difference into a visible change of its box.
        """
        p = np.float_power(factors, self.exp)
        m = p[..., 0]
        for w in range(1, p.shape[-1]):
            m = m * p[..., w]
        return m

    def __call__(self, v) -> np.ndarray:
        return self.coef_matrix @ self.products(np.asarray(v, dtype=float)[..., self.var])

    def jacobian(self, v) -> np.ndarray:
        """Exact derivative of every monomial at ``v``."""
        x = as_vector(v, size=self.n_in)
        J = np.zeros((self.n_out, self.n_in))
        for i, comp in enumerate(self.terms):
            for coef, exps in comp:
                for j, e in enumerate(exps):
                    if not e:
                        continue
                    term = coef * e * x[j] ** (e - 1)
                    for k, ek in enumerate(exps):
                        if k != j and ek:
                            term *= x[k] ** ek
                    J[i, j] += term
        return J

    @property
    def is_zero(self) -> bool:
        return all(all(c == 0.0 for c, _ in comp) for comp in self.terms)


def saturate(v, sigma) -> np.ndarray:
    """Componentwise clamp of ``v`` into the box [-sigma_i, sigma_i]."""
    x = as_vector(v)
    s = as_vector(sigma, size=x.size, name="sigma")
    return np.clip(x, -s, s)


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

    ``sigma`` (invariant-box radii), ``ell`` (Lipschitz constant of phi over
    the box) and ``d_bound`` (bound on ||Lambda xi|| over the box) start unset
    and are populated by :func:`estimate_invariant_box` /
    :func:`estimate_lipschitz`.
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

    @property
    def n_xi(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_y(self) -> int:
        return self.Lambda.shape[0]

    def vector_field(self, xi) -> np.ndarray:
        return self.Phi @ xi + self.phi(xi)

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
    if beta <= 0:
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


def estimate_invariant_box(mask: ChaoticMask, xi0, t_settle: float = 100.0,
                           t_obs: float = 500.0, margin: float = 0.2,
                           dt: float = DEFAULT_DT) -> np.ndarray:
    """Estimate the attractor bounding box by simulating past the transient.

    ``sigma_i = (1 + margin) * max |xi_i(t)|`` over the observation window; the
    settle window is discarded.  Also records ``d_bound`` as
    ``(1 + margin) * max ||Lambda xi(t)||`` over the same window (the tight
    value, not ``||Lambda|| ||sigma||``).  Both are stored into ``mask``.

    Raises :class:`NotBoundedError` if the trajectory norm exceeds 1e6.
    """
    if t_obs <= 0:
        raise ValueError("t_obs must be positive")
    xi0 = as_vector(xi0, size=mask.n_xi, name="xi0")

    def field(t, xi):
        return mask.vector_field(xi)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_rk4(field, xi0, dt, t_settle + t_obs)
    except (IntegrationDivergedError, ValueError) as exc:
        # Overflow to non-finite values inside the integrator is the extreme
        # form of unboundedness.
        raise NotBoundedError(
            "masker trajectory is unbounded; the initial condition is likely "
            "outside the basin") from exc
    norms = np.linalg.norm(traj.states, axis=1)
    if np.max(norms) > BOX_DIVERGENCE_NORM:
        raise NotBoundedError(
            "masker trajectory is unbounded; the initial condition is likely outside the basin")
    first = int(round(t_settle / dt))
    window = traj.states[first:]
    sigma = (1.0 + margin) * np.max(np.abs(window), axis=0)
    d_norm = np.linalg.norm(window @ mask.Lambda.T, axis=1)
    mask.sigma = sigma
    mask.d_bound = float((1.0 + margin) * np.max(d_norm))
    return sigma


def estimate_lipschitz(mask: ChaoticMask, grid_per_axis: int = 21) -> float:
    """Lipschitz constant of phi over the box: sup of the Jacobian spectral norm.

    Evaluated on a uniform grid over ``[-sigma, sigma]`` and inflated by 5%;
    the polynomial Jacobian is exact so the inflated grid maximum dominates the
    true supremum for the modest-degree maps used here.  Stored into ``mask``.
    """
    if mask.sigma is None:
        raise ValueError("estimate_invariant_box must run before estimate_lipschitz")
    if grid_per_axis < 3:
        raise ValueError("grid_per_axis must be at least 3")
    n = mask.n_xi
    axes = [np.linspace(-s, s, grid_per_axis) for s in mask.sigma]
    # Only variables that actually appear in some monomial affect the Jacobian;
    # collapse the others to a single grid point to keep the sweep small.
    active = [False] * n
    for comp in mask.phi.terms:
        for _, exps in comp:
            for j, e in enumerate(exps):
                if e:
                    active[j] = True
    axes = [ax if act else np.array([0.0]) for ax, act in zip(axes, active)]
    worst = 0.0
    for point in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n):
        J = mask.phi.jacobian(point)
        worst = max(worst, float(np.linalg.norm(J, 2)))
    ell = 1.05 * worst
    mask.ell = ell
    return ell


@dataclass(frozen=True)
class ExtendedSystem:
    """Stacked masker+plant system with state ``col(xi, x)``.

    ``Abold = diag(Phi, A)``, ``Bbold = [0; B]``, ``Cbold = [Lambda C]``, and
    the nonlinearity acts on the xi components only.
    """

    Abold: np.ndarray
    Bbold: np.ndarray
    Gbold: PolynomialMap
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
    def n_x(self) -> int:
        return self.plant.n_x

    @property
    def ell(self) -> float:
        return float(self.mask.ell)

    def nonlinearity(self, xbold) -> np.ndarray:
        """``Gbold`` evaluated on the raw stacked state (no saturation)."""
        return self.Gbold(xbold)

    def nonlinearity_sat(self, xbold_hat) -> np.ndarray:
        """``Gbold(sat_sigma(xi_hat))``: the observer-side nonlinearity."""
        v = as_vector(xbold_hat, size=self.n)
        xi_hat = saturate(v[:self.n_xi], self.mask.sigma)
        out = np.zeros(self.n)
        out[:self.n_xi] = self.mask.phi(xi_hat)
        return out


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
    n_xi, n_x = mask.n_xi, plant.n_x
    n = n_xi + n_x
    Bbold = np.vstack([np.zeros((n_xi, plant.n_u)), plant.B])
    terms = []
    for comp in mask.phi.terms:
        padded = tuple((coef, tuple(exps) + (0,) * n_x) for coef, exps in comp)
        terms.append(padded)
    terms.extend(() for _ in range(n_x))
    Gbold = PolynomialMap(n, n, tuple(terms))
    return ExtendedSystem(Abold=Abold, Bbold=Bbold, Gbold=Gbold, Cbold=Cbold,
                          mask=mask, plant=plant)
