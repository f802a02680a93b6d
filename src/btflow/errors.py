"""Exception types shared across the solver modules."""


class AllZero(ValueError):
    """Raised when a density candidate has no positive entry to normalize."""


class OutOfDomain(ValueError):
    """Raised when quantile positions or map images leave the grid interval."""


class NonMonotoneMap(ValueError):
    """Raised when a transport map inverts the order of transported cells."""


class DimensionMismatch(ValueError):
    """Raised when species counts or grids of two operands disagree."""


class DegenerateSupport(ValueError):
    """Raised when an optimal map must be evaluated where the source has no mass."""


class NotPositiveDefinite(ValueError):
    """Raised by solvers that require a positive definite coupling matrix."""


class KernelUnderflow(ValueError):
    """Raised when the Gibbs kernel underflows at the grid scale (epsilon too small)."""


class ScalingOverflow(ArithmeticError):
    """Raised when an entropic scaling vector leaves the finite numbers (its prox solve overflowed)."""


class CFLViolation(ValueError):
    """Raised when a requested explicit time step exceeds the stability bound."""

    def __init__(self, dt, dt_max):
        self.dt = dt
        self.dt_max = dt_max
        super().__init__(f"dt={dt:g} exceeds the stability bound {dt_max:g}")


class NegativityDetected(RuntimeError):
    """Raised when an explicit step produces negative cells despite the CFL bound."""


class InvalidDensity(ValueError):
    """Raised when density values break a sign, unit-mass or pressure/fraction invariant."""


class NonpositiveTime(ValueError):
    """Raised when a time or time step that must be finite and positive is not."""


class InfiniteInitialEntropy(ValueError):
    """Raised when the initial energy or Boltzmann entropy of a run is not finite.

    Densities reject non-finite values, so this signals overflow, e.g. the
    quadratic energy of a unit-mass density on an extremely fine grid.
    """


class UnknownField(KeyError):
    """Raised when a diagnostics check references a field the record does not hold."""


class EstimateFailed(AssertionError):
    """Raised by strict runs when a recorded a-priori estimate check fails."""


class ConfigInvalid(ValueError):
    """Raised when a scenario configuration is malformed; names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")
