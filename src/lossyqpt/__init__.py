"""Process tomography of non-trace-preserving polarization channels.

The package covers the full workflow for a single-qubit lossy device:
analytic channel models, simulated photon-counting data, linear-inversion
and maximum-likelihood reconstruction of the process matrix, the
success-probability operator with its spectral classification, and the
loss-aware generalized process fidelity.
"""

__version__ = "0.1.0"

from .channels import (
    ChiMatrix,
    OperatorBasis,
    ProbabilityOperator,
    apply_channel,
    change_basis,
    chi_from_kraus,
    elementary_basis,
    kraus_from_chi,
    pauli_basis,
    probability_operator,
    process_fidelity_ntp,
)
from .errors import (
    DataError,
    DegenerateFitError,
    NotPsdError,
    RepresentationError,
    SingularSystemError,
    TomographyError,
)
from .mle import (
    FitOptions,
    FitReport,
    fit_linear,
    fit_post_selected,
    fit_trace_preserving,
    fit_unconstrained,
    likelihood,
    likelihood_gradient,
    normalize_max_p,
)
from .qmath import EigDecomposition, herm_eig, psd_sqrt, state_fidelity
from .simulator import PpbsParams, SimConfig, ppbs_chi, simulate_counts
from .states import STATE_LABELS, state_catalog, state_density, state_ket
from .tomography import (
    CountTable,
    build_beta,
    invert_beta,
    lambda_from_outputs,
    linear_inversion,
    reconstruct_linear,
    state_tomography,
)

__all__ = [name for name in dir() if not name.startswith("_")]
