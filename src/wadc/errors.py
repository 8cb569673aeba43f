"""Exception types raised across the wadc package."""


class WadcError(Exception):
    """Base class for all wadc errors."""


class ConfigError(WadcError):
    """Configuration file is malformed or violates the schema."""


class SingularNetwork(WadcError):
    """Internal-node elimination hit a singular block."""


class SingularAlgebraicSystem(WadcError):
    """Stator/network algebraic system is singular at the given rotor angles."""


class NoConvergence(WadcError):
    """Newton iteration failed to converge."""

    def __init__(self, max_iters, final_residual, history=None, hint=""):
        self.max_iters = max_iters
        self.final_residual = final_residual
        self.history = list(history) if history is not None else []
        super().__init__(
            f"no convergence after {max_iters} iterations "
            f"(final scaled residual {final_residual:.3e}){hint}"
        )


class OffEquilibrium(WadcError):
    """The point given to linearize does not satisfy the dynamics to the
    residual linearize needs."""


class JacobianInconsistent(WadcError):
    """Finite-difference Jacobian failed the step-halving consistency check."""


class UnstableLocalLoop(WadcError):
    """Local gains do not render A + B_u K Hurwitz.

    On the shipped benchmark this indicates either a bad operating point or a
    stator sign-convention mismatch; rerun with other equilibrium settings
    before trusting any downstream design.
    """


class IllPosedLyapunov(WadcError):
    """Continuous cost factorization needs an invertible matrix with no
    mirrored eigenvalue pair; close the local loops first."""


class InvalidSampling(WadcError):
    """A sampling period, delay or count of samples in flight is refused."""


class NotStabilizable(WadcError):
    """Riccati iteration diverged or the closed loop is not Schur stable."""


class IndefiniteCost(WadcError):
    """Input-weight pivot of the discrete cost is indefinite."""


class GammaInfeasible(WadcError):
    """A disturbance-attenuation level failed one of the solvability checks."""

    def __init__(self, which_condition, detail=""):
        self.which_condition = which_condition
        msg = f"gamma infeasible: {which_condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnstableSystem(WadcError):
    """Operation requires a Schur-stable state matrix."""


class NotSymmetric(WadcError):
    """Plant or gains violate the machine-swap symmetry needed for the
    built-in oscillation/common decomposition."""


class NotBlockDiagonalizable(WadcError):
    """The built-in oscillation/common transform leaves a transformed plant
    matrix (A_hat, B_u_hat or B_w_hat) coupled across the two modes."""

    def __init__(self, which_equation, residual):
        self.which_equation = which_equation
        self.residual = residual
        super().__init__(
            f"{which_equation} off-block residual {residual:.3e} exceeds "
            "tolerance; both machines' parameters and local gains must match")


class AsymmetricDelays(WadcError):
    """Link-delay matrix must be symmetric with zero diagonal."""


class ScheduleMismatch(WadcError):
    """Modal designs disagree with the controller they should drive: in
    number, sampling period, or the wait its link delays give each mode."""


class StepGridTooFine(WadcError):
    """The integrator step that puts every event on its grid would take
    more steps per sampling period than a run may."""


class HorizonTooLong(WadcError):
    """Simulation horizon needs more sampling periods than a run may step."""

    def __init__(self, asked, periods, h, cap):
        self.periods = periods
        super().__init__(
            f"{asked} asks for {periods:.0f} sampling periods of {h:g} s, "
            f"more than the {cap} a simulation may step: each period writes "
            "one trace row (0.28 kB on the benchmark), so the cap keeps a "
            "trace under about 0.3 GB and a run under about 10 s; shorten "
            "horizon_s or lengthen h_s")


class NonFiniteCost(WadcError):
    """A cost to be reported overflowed to inf or nan."""


class NonFiniteModel(WadcError):
    """A model quantity built from the configuration overflowed to inf or
    nan, or is too large for the products a design forms from it."""
