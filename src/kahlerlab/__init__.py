"""Numerical laboratory for Bergman kernels, Fubini-Study currents and
random zero distributions on model compact Kähler manifolds."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    KahlerlabError,
    ConfigurationError,
    NumericalError,
    IllConditionedError,
    EmptySpaceError,
    DegenerateSpaceError,
    RootFindingError,
    GeneralPositionError,
    NonIntegrableError,
    UnsupportedMetricError,
)
from .geometry import (  # noqa: F401
    Manifold,
    QuadratureRule,
    build_manifold,
    integrate,
    quadrature_nodes,
    wedge_density_11,
)
from .bundles import (  # noqa: F401
    CurrentDescriptor,
    LineBundle,
    Metric,
    curvature_pairing,
    ddc_pairing,
    wedge_descriptors,
)
from .sections import (  # noqa: F401
    SectionSpace,
    build_section_space,
    dimension_profile,
    log_bergman_sup,
    space_dimension,
)
from .testforms import TestForm, constant_form, test_form_dictionary  # noqa: F401
from .fscurrents import (  # noqa: F401
    descriptor_form_pairing,
    descriptor_wedge_pairing,
    divisor_pairing,
    fs_pairing,
    fs_pairings,
    fs_wedge_self_pairing,
)
from .zeros import (  # noqa: F401
    Section,
    SectionTuple,
    ZeroSet,
    common_zeros,
    divisor_zero_set,
    empirical_general_position,
    expected_zero_residual,
    sample_section,
    sample_tuple,
    zero_pairing,
    zero_pairings,
    zeros_on_curve,
)
