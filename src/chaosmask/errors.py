"""Exception hierarchy shared by all chaosmask modules."""


class ChaosmaskError(Exception):
    """Base class for every error raised by this package."""


class NotHurwitzError(ChaosmaskError):
    """A matrix required to be Hurwitz has an eigenvalue with nonnegative real part."""


class NoStabilizingSolutionError(ChaosmaskError):
    """The Riccati Hamiltonian has an eigenvalue on (or too close to) the imaginary axis."""


class RiccatiFailureError(ChaosmaskError):
    """No symmetric positive definite Riccati solution could be extracted."""


class NotBoundedError(ChaosmaskError):
    """A trajectory left the working region; the initial condition is likely outside the basin."""


class InfeasibleSynthesisError(ChaosmaskError):
    """No grid point of the gain search produced a certified observer gain that
    re-certifies.

    ``grid`` holds one ``(eta, eps, outcome)`` per grid point, where outcome
    is ``"axis"`` (Hamiltonian eigenvalue on the imaginary axis), ``"no PD"``
    (no positive definite Riccati solution) or the margin reached;
    ``best_margin`` is the smallest margin, None when no point has one.
    """

    def __init__(self, best_margin: float | None, grid: tuple = ()):
        self.best_margin = best_margin
        self.grid = tuple(grid)
        detail = "no candidate produced a positive definite certificate" \
            if best_margin is None else f"best margin encountered: {best_margin:.6g}"
        if best_margin is not None and best_margin < 0:
            detail += ", but no certified gain re-certifies"
        if self.grid:
            outcomes = [out for _, _, out in self.grid]
            n_margin = sum(1 for out in outcomes if not isinstance(out, str))
            detail += (f"; {len(outcomes)} grid points: {outcomes.count('axis')} axis, "
                       f"{outcomes.count('no PD')} no PD, {n_margin} with a margin")
        super().__init__(f"observer-gain synthesis infeasible ({detail})")


class GainNotCertifiedError(ChaosmaskError):
    """A candidate observer gain could not be certified."""


class DivergedRunError(ChaosmaskError):
    """A closed-loop simulation diverged; ``block`` names the state block that
    went non-finite or grew largest (plant x, masker xi, estimator,
    eavesdropper or FDI model)."""

    def __init__(self, t: float, block: str):
        self.t = float(t)
        self.block = block
        super().__init__(f"simulation diverged in the {block} state at t = {self.t:.6g} s")


class ScenarioFormatError(ChaosmaskError, ValueError):
    """A scenario file or a command-line value failed validation."""
