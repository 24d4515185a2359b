"""Exception types shared across the package."""


class CohexError(Exception):
    """Base class for all package errors."""


class DomainError(CohexError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedOperationError(CohexError, TypeError):
    """The operation is not defined for this variant (e.g. pointwise
    evaluation of a sum of delta peaks)."""


class ConvergenceError(CohexError):
    """An iterative scheme exhausted its budget before reaching tolerance.

    Carries the best available value so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message, partial=None, err_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.err_estimate = err_estimate


class KernelError(CohexError):
    """A quadrature kernel returned a non-finite value: at a quadrature
    node, which never lies inside a declared removable point's bridged
    window, or at the four fit nodes that integrate that window."""


class DegenerateBasisError(DomainError):
    """The two-level mixing is undefined (t = 0 together with omega1 = omega2)."""


class NearResonanceError(DomainError):
    """A formula carrying a 1/(omega2 - omega1) factor was called too close
    to resonance to be meaningful."""


class CrossFormError(CohexError):
    """Two mathematically equivalent organizations of the same quantity
    disagreed beyond tolerance, signalling a transcription bug."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class OracleSizeError(DomainError):
    """A requested exact-diagonalization space exceeds the desk-scale
    dimension guard."""


class EigensolverError(CohexError):
    """The dense eigensolver failed on a thermal-average input."""


class HermiticityError(CohexError):
    """A matrix that must be Hermitian is not, or a thermal average came
    out with a non-negligible imaginary part."""


class SectorError(CohexError):
    """An operator the oracle solves sector by sector has a nonzero entry
    between two of its model's conserved sectors."""
