"""Exception hierarchy shared by all chaosmask modules."""


class ChaosmaskError(Exception):
    """Base class for every error raised by this package."""


class IntegrationDivergedError(ChaosmaskError):
    """The integrated state became non-finite."""

    def __init__(self, t: float):
        self.t = float(t)
        super().__init__(f"integration diverged: non-finite state at t = {self.t:.6g} s")


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
    re-certifies."""

    def __init__(self, best_margin: float | None):
        self.best_margin = best_margin
        detail = "no candidate produced a positive definite certificate" \
            if best_margin is None else f"best margin encountered: {best_margin:.6g}"
        if best_margin is not None and best_margin < 0:
            detail += ", but no certified gain re-certifies"
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
