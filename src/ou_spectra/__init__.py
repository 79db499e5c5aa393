"""Spectral analysis of Ornstein-Uhlenbeck generators on polynomial spaces.

Given a symmetric positive-definite diffusion matrix Q and a Hurwitz drift
matrix B, this package computes the invariant Gaussian measure, the
generator's action and matrices on graded polynomial bases, its generalized
eigenspaces up to a degree cap, and pairwise orthogonality reports under the
invariant measure. Rational inputs are processed exactly end to end.
"""

from .errors import (
    BasisUnavailable,
    CholeskyFailure,
    ComplexSpectrum,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParams,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    OUSpectraError,
    RankDecisionAmbiguous,
    RepeatedEigenvalue,
    SchemaError,
    SingularSystem,
    UnsupportedDimension,
    UsageError,
    ValidationError,
)
from .gaussian import MomentTable, gram_matrix, inner_product
from .model import (
    CoordinateChange,
    CovarianceMatrix,
    OUModel,
    covariance_at,
    matrix_exponential,
    normalize_model,
    solve_lyapunov,
    validate_model,
)
from .operator import (
    NormalCheck,
    OperatorMatrix,
    RotationSplit,
    apply_L,
    check_normal,
    hermite_rotation_matrix,
    homogeneous_drift_matrix,
    operator_matrix,
    rotation_split,
    semigroup_apply,
)
from .polynomials import (
    GradedBasis,
    SparsePolynomial,
    index_degree,
    monomial_basis,
    v_order,
)
from .simulate import (
    Ensemble,
    PairingEstimate,
    SimConfig,
    estimate_pairing,
    sample_transition,
    stationary_ensemble,
)
from .spectral import (
    OrthogonalityReport,
    SpectralDecomposition,
    SpectrumSet,
    b_eigenvector_angle,
    drift_eigenvalues,
    generalized_eigenspaces,
    orthogonality_report,
    spectrum,
)
from .worked_examples import (
    Section5Params,
    section4_model,
    section5_eigenfunctions,
    section5_model,
    section5_whitening,
)

__version__ = "0.1.0"
