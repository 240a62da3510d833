"""Shared exception types.

Every named failure mode raised by the library lives here so callers can
catch one base class (OscillabError) or the specific condition. A refused
value is also a ValueError; a numerical failure is not.
"""

from __future__ import annotations


class OscillabError(Exception):
    """Base class for all library errors."""


class EmptyCube(OscillabError, ValueError):
    """A cube contains no cell centers."""


class OutOfDomain(OscillabError, ValueError):
    """A cube (or evaluation point) leaves the grid box."""


class ResolutionTooCoarse(OscillabError, ValueError):
    """Requested dyadic generation is finer than the grid spacing."""


class GridMismatch(OscillabError):
    """Two grid functions (or a function and a space) live on different grids."""


class NonFiniteValues(OscillabError, ValueError):
    """Grid function values that are not all finite."""


class NonPositiveWeight(OscillabError, ValueError):
    """A weight must be strictly positive and finite at every cell."""


class ConvergenceFailure(OscillabError):
    """Luxemburg Newton solve missed MODULAR_TOL within MAX_NEWTON steps."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ConjugateUndefined(OscillabError, ValueError):
    """Conjugate exponent requested where p attains 1."""


class DivisionByZeroNorm(OscillabError):
    """A ratio of norms was requested with a zero denominator."""


class AlphaOutOfRange(OscillabError, ValueError):
    """Fractional order alpha outside the admissible interval."""


class MeanZeroViolation(OscillabError, ValueError):
    """Singular kernel whose angular part does not integrate to zero."""


class UncoveredPoint(OscillabError):
    """A maximal-operator cube family fails to cover some cell center."""


class KernelVanishes(OscillabError):
    """No admissible annulus point keeps |K| bounded away from zero."""


class BadDelta(OscillabError, ValueError):
    """Geometry parameter delta outside (0, 1)."""


class TailTooLarge(OscillabError):
    """Truncated reciprocal-kernel expansion misses its residual budget."""


class ConfigError(OscillabError):
    """Malformed experiment configuration."""
