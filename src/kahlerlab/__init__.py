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
    log_bergman_sup,
    space_dimension,
)
from .testforms import TestForm, constant_form, test_form_dictionary  # noqa: F401
from .fscurrents import (  # noqa: F401
    descriptor_form_pairing,
    descriptor_form_pairings,
    descriptor_wedge_pairing,
    descriptor_wedge_pairings,
    fs_pairing,
    fs_pairings,
    fs_wedge_pairing,
    fs_wedge_pairings,
)
from .zeros import (  # noqa: F401
    Section,
    ZeroSet,
    common_zeros,
    empirical_general_position,
    expected_zero_residuals,
    point_pairings,
    sample_section,
    sample_tuple,
    zero_pairing,
    zero_pairings,
    zeros_on_curve,
)
