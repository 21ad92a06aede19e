"""Non-Hermitian chain spectra, winding numbers, and boundary sensitivity."""

from .alphasolver import (
    AlphaSet,
    PolyY,
    alpha_from_roots,
    dirichlet_ratio,
    polynomialize,
    roots,
    verify_generic,
)
from .core import (
    ChainStencil,
    EigensolverError,
    LocalizationReport,
    NumericalError,
    Spectrum,
    StateProfiles,
    build_chain_matrix,
    dense_spectrum,
    expectation_profiles,
    hausdorff_points,
    localization_report,
    match_spectra,
    spectral_mismatch,
)
from .models1d import (
    HNParams,
    LongRangeParams,
    SSHParams,
    bloch_1d,
    hn_balanced,
    hn_closed_form,
    hn_eigenvector,
    hn_matrix,
    hn_spectrum,
    impurity_states,
    mixed_longrange_closed_form,
    mixed_longrange_matrix,
    mixed_longrange_spectrum,
    nonwinding_family,
    ssh_balanced,
    ssh_closed_form,
    ssh_matrix,
    ssh_spectrum,
    ssh_zero_mode_predicate,
    unidirectional_matrix,
    unidirectional_spectrum,
)
from .models2d import (
    EnvelopeCurves,
    Stacked2DSpec,
    bc_reduce,
    build_stacked_matrix,
    envelope_curves,
    kagome_matrix,
    separable_square_matrix,
    separable_square_spectrum,
    stacked_hn_balance,
    stacked_hn_spectrum,
    stacked_ssh_balance,
    stacked_ssh_spectrum,
    triangular_spec,
    triangular_spectrum,
)
from .sensitivity import (
    ScreenPolicy,
    SensitivityReport,
    classify_sensitivity,
    delta_sweep,
    hausdorff,
    sensitivity_exponent,
)
from .topology import (
    BlochSampler,
    WindingResult,
    gap_classify,
    tridiag_bloch_det,
    tridiag_det_winding,
    winding_number,
)

__version__ = "0.1.0"
