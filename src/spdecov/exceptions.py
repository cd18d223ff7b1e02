"""Exception hierarchy for spdecov.

A run fails in one of two ways. Every input check raises a ConfigError,
also a ValueError: a bad parameter, a matrix that does not fit its
mesh, meshes that do not nest or share a boundary condition, a kernel
with no pointwise values, too few samples. A breakdown of the numerical
core raises a NumericalError: a singular or ill-conditioned
factorization, an eigensolver that does not converge, a covariance that
no Cholesky jitter makes positive definite. The message names the
problem.
"""


class SpdeCovError(Exception):
    """Base class for all package errors."""


class ConfigError(SpdeCovError, ValueError):
    """Invalid or inconsistent input; also a ValueError."""


class NumericalError(SpdeCovError):
    """A failure of the numerical core."""
