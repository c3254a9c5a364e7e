"""Exception hierarchy and warning categories."""


class SteerkitError(Exception):
    """Base class for all steerkit errors."""


class InvalidParams(SteerkitError):
    """A parameter set violates its declared invariants."""


class NonConvergence(SteerkitError):
    """The working-point solver could not resolve x_s to its tolerance: the
    tolerance is finer than the float spacing at the root."""


class OffResonance(SteerkitError):
    """Drive is not on the blue sideband of the average cavity frequency."""


class AsymmetricDamping(SteerkitError):
    """Cavity damping rates differ beyond tolerance; the reduced model assumes
    a common kappa."""


class GainNotPositive(SteerkitError):
    """Net parametric gain G = G1 + G2 - gamma is not positive; the temporal
    mode normalizations degenerate."""


class DegenerateVariance(SteerkitError):
    """A conditioning variance is non-positive, or a witness overflows."""


class ZeroVariance(SteerkitError):
    """The measured party quadrature has (numerically) zero variance."""


class IntegratorFailure(SteerkitError):
    """Moment propagation or a kernel normalization overflowed to non-finite
    values."""


class InsufficientTrajectories(SteerkitError):
    """Fewer Monte Carlo trajectories than ``dynamics.MIN_TRAJECTORIES``."""


class MissingModes(SteerkitError):
    """A covariance matrix does not contain a required mode."""


class NoThreshold(SteerkitError):
    """No noise threshold exists in the search range."""


class ConfigError(SteerkitError):
    """A scenario file violates the schema."""


class RegimeWarning(UserWarning):
    """Parameters leave the weak-coupling / resolved-sideband regime in which
    the reduced model is trustworthy."""
