"""Exact multiplier arithmetic and spectral invariants for twisted group algebras.

The package is organized by vertical: groups and rational phases at the
bottom, multipliers (2-cocycles) and twisted convolution above them,
then magnetic Bloch representations, invariant trace functionals,
finite dimensional spectral invariants (eta, flow, index), cyclic
cochain transfer with the length filtration, and projection fields over
covers of the circle and torus.
"""

from .errors import TwistlabError
from .phases import Phase, as_rational, rational_str
from .groups import (
    FiniteTableGroup,
    FreeAbelianGroup,
    Group,
    GroupError,
    Homomorphism,
    ProductGroup,
    alternating_group,
    character_turn_tables,
    cyclic_group,
    group_from_json,
    symmetric_group,
    trivial_group,
)
from .multipliers import (
    BilinearMultiplier,
    CocycleReport,
    GeometricMultiplier,
    LatticeGeometry,
    Multiplier,
    MultiplierError,
    PhaseMap,
    ProductMultiplier,
    TableMultiplier,
    all_characters,
    coboundary,
    is_cohomologous_via,
    magnetic_multiplier,
    multiplier_from_json,
    multipliers_equal,
    phase_map_from_json,
    product_characters,
    trivial_multiplier,
    verify_cocycle,
)
from .algebra import (
    AlgebraElement,
    AlgebraError,
    element_from_json,
    projective_iso,
    random_element,
)
from .representations import (
    BlochMap,
    SpectrumResult,
    butterfly_csv,
    butterfly_rows,
    harper_element,
    left_regular,
    moment_match_study,
    reduced_fractions,
    spectrum_union,
)
from .traces import (
    TraceCheck,
    TraceError,
    TraceFunctional,
    UnitaryRep,
    character_functional,
    character_functionals,
    check_invariance,
    check_positivity,
    check_trace_property,
    conjugacy_functional,
    linear_combination,
    matrix_trace,
    product_trace,
    pullback_trace,
    regular_trace,
    summation_trace,
    trace_from_json,
    unitary_trace,
)
from .spectral import (
    EigenDecomposition,
    GradedMatrix,
    MatrixPath,
    SpectralError,
    cycle_complex,
    eigh,
    eigvalsh,
    eta_closed_form,
    eta_operator,
    eta_quadrature,
    mckean_singer,
    product_eta_check,
    spectral_flow,
    twisted_betti,
)
from .cohomology import (
    CohomologyError,
    CyclicCochain,
    GroupCochain,
    derivation_chain,
    growth_fit,
    sobolev_norm,
    to_cyclic,
    transfer_boundary_defect,
)
from .mishchenko import (
    CircleCover,
    CoverError,
    Projection,
    TorusCover,
    circle_projection,
    lott_pairing_circle,
    torus_projection,
)

__version__ = "0.1.0"
