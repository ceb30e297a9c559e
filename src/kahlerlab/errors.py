"""Exception hierarchy.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map it to a stable exit code (configuration -> 2, numerical -> 3).
"""


class KahlerlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(KahlerlabError):
    """Invalid study/CLI/manifold configuration. CLI exit code 2."""


class NumericalError(KahlerlabError):
    """Numerical failure (divergence, conditioning, root finding). CLI exit code 3."""


class IllConditionedError(NumericalError):
    """Gram matrix condition number exceeded the hard cap."""


class EmptySpaceError(NumericalError):
    """A section space became empty (every monomial filtered out)."""


class DegenerateSpaceError(NumericalError):
    """An operation needs dimension >= 1 (d_p >= 1) but the space is a point."""


class RootFindingError(NumericalError):
    """Zero-set extraction failed to account for the full intersection number."""


class GeneralPositionError(NumericalError):
    """Preconditions on singular loci / divisors (general position) violated."""


class UnsupportedMetricError(ConfigurationError):
    """Metric outside the validated model class (see the atom library in
    the ``bundles`` module docstring)."""
