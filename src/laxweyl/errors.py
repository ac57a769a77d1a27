"""Exception types raised by the workbench.

Every anticipated failure mode has a dedicated class so callers (and the CLI)
can map outcomes to exit codes without string matching.
"""

from __future__ import annotations


class LaxweylError(Exception):
    """Base class for all workbench errors."""


class KernelError(LaxweylError):
    """Errors raised by the exact-arithmetic kernel."""


class DivisionByZero(KernelError):
    """Division of an expression by the zero expression."""


class NotPolynomialIn(KernelError):
    """An operation required an expression polynomial in some variable."""


class RankingViolation(LaxweylError):
    """A solved equation lists a right-hand-side jet not below its principal."""


class DuplicatePrincipal(LaxweylError):
    """Two solved equations claim the same principal derivative."""


class UnderdeterminedSystem(LaxweylError):
    """A system does not have exactly one solved equation per unknown."""


class IdealDenominator(LaxweylError):
    """A denominator reduced to zero modulo the differential ideal."""


class OrderBudgetExceeded(LaxweylError):
    """A reduction needed a prolongation past the system's jet-order budget."""


class NotAQuadric(LaxweylError):
    """The squarefree characteristic polynomial is not quadratic."""


class DegenerateQuadric(LaxweylError):
    """The characteristic quadric is singular modulo the ideal."""


class SingularSample(LaxweylError):
    """A sample point made the metric singular; resample."""


class PoleAtSample(LaxweylError):
    """A sample point hit a pole of a rational function; resample."""


class DegenerateCongruence(LaxweylError):
    """A congruence fails the required nondegeneracy condition."""


class DegenerateFrame(LaxweylError):
    """Plane generators cannot be normalized to the standard frame."""


class DegenerateLinearSystem(LaxweylError):
    """A linear solve expected a one-dimensional solution space."""


class LambdaDependent(LaxweylError):
    """Recovered coefficients depend on the spectral parameter."""


class NoSolution(LaxweylError):
    """A solve found no solution (carries diagnostics)."""

    def __init__(self, message: str, diagnostics: object = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NonUnique(LaxweylError):
    """A solve found a positive-dimensional solution family."""

    def __init__(self, message: str, family_dim: int = 0):
        super().__init__(message)
        self.family_dim = family_dim


class ReparametrizationError(LaxweylError):
    """A congruence could not be brought to the required parametrization."""


class DslError(LaxweylError):
    """Syntax or validation error in a workbench input file."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column
