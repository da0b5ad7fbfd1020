"""Prescribed-curvature curve synthesis and vertex analysis of plane curves.

The package realizes any continuous curvature function on the circle with
two local maxima and two local minima as the curvature of a simple closed
plane curve, and verifies vertex-count lower bounds for closed curves
against their circumscribed circle.
"""

from .analysis import (
    ConstantCurvature,
    EnclosingCircle,
    EnclosingCircleFailed,
    NoContact,
    NotClosed,
    NotSimple,
    OssermanReport,
    VertexReport,
    contact_components,
    detect_vertices,
    min_enclosing_circle,
    osserman_check,
    random_convex_curve,
    random_star_curve,
)
from .bicircle import (
    Configuration,
    LoopTouchesCore,
    ReducedConfigCoords,
    arclength_to_angle_config,
    closed_form_error,
    core_defect,
    error_winding_on_core_link,
    from_reduced,
    integrated_error,
    is_core,
    to_reduced,
)
from .curvature import (
    AbabPoints,
    CircleDiffeo,
    ConstructionFailed,
    CurvatureProfile,
    HypothesisViolated,
    ScaleFactor,
    StepSpec,
    ZeroTotalCurvature,
    build_h1,
    compose,
    find_abab_points,
    normalize_total,
    profile_from_function,
    profile_from_step,
    total_curvature,
)
from .integrator import (
    ErrorVector,
    InsufficientDensity,
    OriginOnLoop,
    PlanarCurve,
    TooFewSamples,
    error_vector,
    integrate_curve,
    is_simple,
    scale_curve,
    winding_number,
)
from .moebius import (
    MoebiusParameter,
    NumericallyDegenerate,
    evaluation_inverse,
    moebius_apply,
    moebius_lift,
    moebius_on_config,
)
from .solver import (
    BadParameter,
    NoWindingAtRadius,
    PolishDiverged,
    SynthesisFailed,
    SynthesisResult,
    compass_demo,
    error_at_beta,
    find_zero_beta,
    synthesize,
)

__version__ = "0.1.0"
