"""Exact arithmetic for quiver moduli: Euler forms, slope stability, the
codimension-2 ample-stability criterion with exhaustive loop and Kronecker
case analyses, two explicit 2x2-matrix moduli models with their conic bundles,
and the Clifford / quaternion / Hilbert-symbol machinery used to decide the
splitting of those conics over the rationals.
"""

from .quiver import (
    Quiver,
    euler_form,
    framed_bundle_relative_dimension,
    gcd_of,
    kronecker_quiver,
    linearization_weights,
    load_quiver,
    loop_quiver,
    moduli_dimension,
    parse_quiver,
    slope,
)
from .stability import (
    AmpleStabilityReport,
    BrauerPrediction,
    HNType,
    check_ample_stability_criterion,
    enumerate_decompositions,
    fine_moduli_predicate,
    hn_codimension,
    hn_types,
    predict_brauer,
    strictly_semistable_wall_codim,
)
from .kronecker import (
    KroneckerTrace,
    NormalizationResult,
    ScanResult,
    grid_box,
    kronecker_criterion_exceptions,
    kronecker_dualize,
    kronecker_inequality_trace,
    kronecker_reflect_sink,
    kronecker_reflect_source,
    loop_criterion_exceptions,
    normalize_kronecker,
)
from .models import (
    ConicFiber,
    K3Point,
    L2Point,
    burnside_dimension,
    k3_conic,
    k3_destabilizer,
    k3_invariants,
    k3_is_stable,
    k3_semiinvariants,
    l2_conic,
    l2_invariants,
    l2_is_stable,
    l2_semiinvariants,
)
from .clifford import (
    CliffordAlgebra,
    QuadraticFormB,
    QuaternionAlgebra,
    StructureConstantAlgebra,
    azumaya_certificate,
    build_clifford,
    form_from_conic,
    hilbert_polynomial_quadric,
    is_azumaya_over_field,
    is_smooth_quadric,
    quaternion_from_ternary,
    standard_form,
)
from .hilbert import (
    ConicPointResult,
    HilbertSymbolEvaluation,
    clifford_invariant_of_model_point,
    conic_has_rational_point,
    hilbert_symbol,
    quaternion_is_split,
    relevant_places,
    symbol_profile,
)

__version__ = "0.1.0"
