"""Exception hierarchy shared across the toolkit.

Validation failures (bad input data) derive from ValidationError so the CLI
can map them to a single exit code; numerical rank ambiguities get their own
class because they signal "cannot decide at this tolerance" rather than
"input is wrong".
"""


class OUSpectraError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OUSpectraError):
    """Rejected input (matrices, parameters, config files)."""


class NotSymmetric(ValidationError):
    """Diffusion matrix is not symmetric."""


class NotPositiveDefinite(ValidationError):
    """Diffusion matrix has a non-positive leading principal minor."""


class NotHurwitz(ValidationError):
    """Drift matrix has an eigenvalue with non-negative real part."""


class InvalidParams(ValidationError, ValueError):
    """Parameter set violates its declared constraints."""


class SchemaError(ValidationError):
    """Model/config file does not match the expected schema."""


class DimensionMismatch(OUSpectraError):
    """Operands live in different coordinate dimensions."""


class SingularSystem(OUSpectraError):
    """A linear system that should be regular turned out singular."""


class BasisUnavailable(OUSpectraError):
    """The requested basis cannot be built for this model/operator."""


class UnsupportedDimension(OUSpectraError):
    """Construction only exists in a specific dimension."""


class ComplexSpectrum(OUSpectraError):
    """Drift spectrum is complex where a real-spectrum construction was requested."""


class RepeatedEigenvalue(OUSpectraError):
    """Drift eigenvalues coincide where distinct ones are required."""


class RankDecisionAmbiguous(OUSpectraError):
    """Singular values straddle the rank threshold band; no safe rank call."""


class ConvergenceFailure(OUSpectraError):
    """An iterative eigen-solver failed to converge."""


class CholeskyFailure(OUSpectraError):
    """Covariance factorization failed; upstream matrix is not usable."""


class UsageError(OUSpectraError):
    """Bad command line invocation."""
