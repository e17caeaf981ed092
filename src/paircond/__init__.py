"""Desk-scale numerical lab for fermion-pair condensation in domains with
Dirichlet walls: the relative two-body bound state, condensate energy
minimization on masked domains, domain-approximation continuity, pair trial
states on product grids, and the linear two-body asymptotics."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    Grid,
    GridError,
    PairKernel,
    ScalarField,
    inner_product,
    integrate,
)
from .geometry import (  # noqa: F401
    DomainMask,
    GeometryError,
    box_mask,
    cutoff_eta,
    dilate,
    disk,
    distance_field,
    erode,
    interval,
    lshape,
    mask_from_json,
    mask_to_json,
    minkowski_average,
    slit_square,
)
from .spectral import (  # noqa: F401
    EigenResult,
    SpectralError,
    StencilOperator,
    assemble_dirichlet,
    hardy_quotient,
    onset_threshold,
    smallest_eigenpair,
)
from .pairing import (  # noqa: F401
    PairingError,
    RelativeGroundState,
    compute_couplings,
    cutoff_diagnostics,
    cutoff_state,
    fit_decay_rate,
    matched_relative_state,
    potential_from_descriptor,
    solve_relative,
)
from .gp import (  # noqa: F401
    GPError,
    GPProblem,
    GPSolution,
    continuity_scan,
    gp_energy,
    gp_gradient,
    minimize_gp,
    one_mode_upper_bound,
)
from .bcs import (  # noqa: F401
    BCSConfig,
    BCSError,
    TrialState,
    bcs_energy,
    build_trial_state,
    extract_order_parameter,
    one_body_density,
    semiclassics_check,
)
from .twobody import (  # noqa: F401
    TwoBodyError,
    TwoBodyProblem,
    TwoBodyScanConfig,
    asymptotic_scan,
    decoupled_lower_bound,
    ground_energy,
    twobody_trial_upper_bound,
)
from .reporting import PowerLawFit, ScanReport, fit_power_law  # noqa: F401
