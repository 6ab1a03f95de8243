"""puosc: classical structure of the fourth-order two-frequency oscillator.

The library covers the model's phase-space charts and Hamiltonians (core),
its linear Lie symmetries and bi-Hamiltonian structure (symmetry), the
complete classification of two-dimensional first-order representations
(embedding), and trajectory integration with ghost-runaway detection
(dynamics).  A CLI (puosc) exposes reproducible experiments.
"""

from .config import EPS_ALGEBRA, EPS_SINGULAR
from .core import (
    JET,
    OSTRO,
    JetState,
    OstroState,
    PoissonTensor,
    Potential,
    PUParams,
    QuadraticObservable,
    VectorField,
    blend_h,
    blend_j,
    blend_j_tabulated,
    flow_matrix,
    free_vector_field,
    h1,
    h2,
    j1,
    j2,
    jet_to_ostro,
    make_params,
    ostro_to_jet,
    poisson_bracket,
    solve_bihamiltonian,
    transport_observable,
    transport_tensor,
)
from .dynamics import (
    ThresholdReport,
    Trajectory,
    closed_form_states,
    field_for,
    integrate,
    mode_decompose,
    mode_energy,
    quartic,
    threshold_search,
)
from .embedding import (
    TransformMap,
    TwoDimModel,
    definiteness_inequality,
    positivity,
    pullback_hamiltonian,
    pushforward_poisson,
    reconciliation_report,
    solve_family,
    sum_of_squares,
    tabulated_family,
    verify_map,
)
from .symmetry import (
    apply_symmetry,
    commutant_basis,
    generated_structure,
    invariant_tensor_space,
    known_generators,
    lie_derivative_residual,
    symmetry_charges,
)

__version__ = "0.1.0"
