"""Exception hierarchy shared by all germflow modules."""


class GermflowError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GermflowError):
    """Input cannot be read, or its text does not match the branch / polynomial grammar."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line} col {col}: {message}"
        super().__init__(message)


class SeriesError(GermflowError):
    """Structurally invalid series operation (e.g. quotient not a power series)."""


class PrecisionError(GermflowError):
    """A decision would read a coefficient beyond the known truncation order."""


class PuiseuxError(GermflowError):
    """Newton-Puiseux expansion cannot proceed."""


class IrrationalRootError(PuiseuxError):
    """An edge equation has no rational root; out of engine scope."""


class ReducibleError(PuiseuxError):
    """The input polynomial is detectably reducible along the expansion."""


class ResolutionError(GermflowError):
    """Blowup engine failure (max steps exceeded, degenerate input)."""


class PlanError(GermflowError):
    """Isotopy plan construction failure."""


class NotEquisingularError(PlanError):
    """Plan requested for a pair of branches that are not equisingular."""

    def __init__(self, certificate: str):
        self.certificate = certificate
        super().__init__(f"branches are not equisingular: {certificate}")


class DegenerateSlopeError(PlanError):
    """A tangent slope is 0/infinity where the construction forbids it."""


class NumericError(GermflowError):
    """A numeric run setting is out of range, or a stage's closed-form flow
    produced a non-finite value."""
