"""Exception hierarchy for spdecov.

Every input check raises a ConfigError, also a ValueError; a matrix
that does not fit its mesh is a ShapeMismatchError, one of them.
Numerical failures (singular factorizations, nonsymmetric matrices,
Cholesky breakdown) all derive from NumericalError so callers can
distinguish them from configuration mistakes.
"""


class SpdeCovError(Exception):
    """Base class for all package errors."""


class ConfigError(SpdeCovError, ValueError):
    """Invalid or inconsistent configuration input; also a ValueError."""


class NumericalError(SpdeCovError):
    """Base class for failures of the numerical core."""


class NonSymmetricError(NumericalError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NoConvergenceError(NumericalError):
    """An iterative eigenvalue or factorization routine failed."""


class SingularError(NumericalError):
    """A pivot collapsed during LU elimination."""


class ShapeMismatchError(ConfigError):
    """Operands have inconsistent dimensions, or meshes do not nest."""


class EllipticityError(ConfigError):
    """The diffusion coefficient dips below the declared lower bound."""


class MismatchedBCError(ConfigError):
    """Two meshes that must share a boundary condition flavor do not."""


class NoPointwiseKernelError(ConfigError):
    """The kernel has no pointwise evaluation (white noise)."""


class CholeskyError(NumericalError):
    """Cholesky factorization failed even after the jitter ladder."""


class TooFewSamplesError(ConfigError):
    """Fewer samples than the estimator needs."""


class DegenerateFitError(ConfigError):
    """Not enough usable (h, err) pairs to fit a convergence rate."""
