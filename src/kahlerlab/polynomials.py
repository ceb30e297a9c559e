"""Homogeneous and bihomogeneous polynomial sections.

A section of O(d) (or O(d1, d2) on the product) is stored as an exponent
matrix over the flat homogeneous coordinates plus a complex coefficient
vector.  Charts turn a section into an affine polynomial in ``dim`` complex
variables by dropping the chart coordinate; all derivative and elimination
work happens on those chart polynomials, exactly, by exponent shifts; nothing
here ever differentiates numerically.

Monomial enumeration order is fixed (lexicographic in the reduced exponents)
so bases, Gram matrices and cached results are reproducible byte for byte.
"""

import itertools
import numbers

import numpy as np

from ._kernels import eval_monomials
from .errors import ConfigurationError

# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def monomial_exponents(manifold, degree):
    """Exponent rows of the full monomial basis of O(degree).

    degree: int for one factor, one per factor on products.  Rows are int64
    over the homogeneous coordinates, in a fixed lexicographic order: in
    the exponents of each factor's coordinates but its first, the first
    factor's most significant.
    """
    degs = degree_tuple(manifold, degree)
    per_factor = [[(d - sum(t),) + t for t in _tails(sl.stop - sl.start - 1, d)]
                  for sl, d in zip(manifold.factor_slices, degs)]
    rows = [sum(parts, ()) for parts in itertools.product(*per_factor)]
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), manifold.hom_len)


def _tails(k, d):
    """Exponent tuples of length ``k`` with sum at most ``d``, in
    lexicographic order."""
    if k == 0:
        return [()]
    return [(a,) + t for a in range(d + 1) for t in _tails(k - 1, d - a)]


def as_integer(value, what):
    """``value`` as an int: an integer, or a real number with an integral
    value (JSON's ``4.0``).  A bool, text or a non-integral number raises
    ``ConfigurationError``, where ``int()`` would read or truncate it."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


def as_real(value, what):
    """``value`` as a finite float.  A bool, text or a non-finite number
    raises ``ConfigurationError``, where ``float()`` would read it."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and np.isfinite(value)):
        return float(value)
    raise ConfigurationError(f"{what} must be a finite number, got {value!r}")


def _as_int_degree(degree, k):
    out = tuple(as_integer(d, "degree")
                for d in np.ravel(np.asarray(degree, dtype=object)).tolist())
    if len(out) != k:
        raise ConfigurationError(f"degree {degree!r} needs {k} integer(s), "
                                 "one per factor")
    if min(out) < 0:
        raise ConfigurationError("degrees must be non-negative")
    return out


def degree_tuple(manifold, degree):
    """Normalize a degree spec to the per-factor tuple."""
    return _as_int_degree(degree, manifold.factors)


# ---------------------------------------------------------------------------
# chart polynomials (affine, exact calculus)
# ---------------------------------------------------------------------------


class ChartPoly:
    """Polynomial in the affine coordinates of one chart."""

    __slots__ = ("exponents", "coeffs", "nvars")

    def __init__(self, exponents, coeffs, nvars):
        self.exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, nvars)
        self.coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        self.nvars = nvars

    @classmethod
    def zero(cls, nvars):
        return cls(np.zeros((0, nvars), dtype=np.int64), np.zeros(0), nvars)

    @property
    def is_zero(self):
        return self.coeffs.size == 0 or not np.any(self.coeffs)

    def eval(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        if self.coeffs.size == 0:
            return np.zeros(Z.shape[0], dtype=complex)
        mono = eval_monomials(Z, self.exponents, np.ones(len(self.coeffs)))
        return mono @ self.coeffs

    def deriv(self, axis):
        e = self.exponents
        keep = e[:, axis] > 0
        if not np.any(keep):
            return ChartPoly.zero(self.nvars)
        e2 = e[keep].copy()
        c2 = self.coeffs[keep] * e2[:, axis]
        e2[:, axis] -= 1
        return ChartPoly(e2, c2, self.nvars)

    def dense(self):
        """Dense coefficient array indexed by the exponents."""
        if self.coeffs.size == 0:
            return np.zeros((1,) * self.nvars, dtype=complex)
        shape = tuple(int(self.exponents[:, a].max()) + 1
                      for a in range(self.nvars))
        out = np.zeros(shape, dtype=complex)
        np.add.at(out, tuple(self.exponents[:, a] for a in range(self.nvars)),
                  self.coeffs)
        return out


# ---------------------------------------------------------------------------
# homogeneous sections
# ---------------------------------------------------------------------------


class SectionPoly:
    """A polynomial section of O(degree) in homogeneous form."""

    def __init__(self, manifold, degree, exponents, coeffs):
        self.manifold = manifold
        self.degree = degree_tuple(manifold, degree)
        self.exponents = np.asarray(exponents, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if self.exponents.shape != (self.coeffs.size, manifold.hom_len):
            raise ConfigurationError("exponent/coefficient shape mismatch")
        self._check_degrees()
        self._charts = {}

    def _check_degrees(self):
        e = self.exponents
        if e.size == 0:
            return
        for sl, d in zip(self.manifold.factor_slices, self.degree):
            if np.any(e[:, sl].sum(axis=1) != d):
                raise ConfigurationError("inhomogeneous exponent rows")

    @classmethod
    def from_coeff_map(cls, manifold, degree, items):
        """Build from ``{exponent tuple: coefficient}``."""
        exps = np.asarray([k for k, _ in items.items()], dtype=np.int64)
        coeffs = np.asarray([v for _, v in items.items()], dtype=complex)
        if exps.size == 0:
            exps = np.zeros((0, manifold.hom_len), dtype=np.int64)
        return cls(manifold, degree, exps, coeffs)

    @property
    def is_zero(self):
        return self.coeffs.size == 0 or not np.any(self.coeffs)

    def eval_hom(self, points):
        """Values at homogeneous points (caller controls normalization)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        if self.is_zero:
            return np.zeros(pts.shape[0], dtype=complex)
        mono = eval_monomials(pts, self.exponents, np.ones(self.coeffs.size))
        return mono @ self.coeffs

    def chart_poly(self, chart):
        """Affine polynomial on a chart (section / chart-frame power)."""
        if chart in self._charts:
            return self._charts[chart]
        m = self.manifold
        cols = m.chart_columns(chart)
        exps = self.exponents[:, cols] if self.coeffs.size else \
            np.zeros((0, m.dim), dtype=np.int64)
        cp = ChartPoly(exps, self.coeffs, m.dim)
        self._charts[chart] = cp
        return cp

    def partial(self, coord):
        """The homogeneous partial ``d/dz_coord``: a section of one degree
        less along the coordinate's factor, zero where no term holds
        ``z_coord``."""
        f = self.manifold.coord_factors[coord]
        keep = self.exponents[:, coord] > 0
        e = self.exponents[keep].copy()
        c = self.coeffs[keep] * e[:, coord]
        e[:, coord] -= 1
        degree = tuple(d - (g == f) for g, d in enumerate(self.degree))
        return SectionPoly(self.manifold, degree, e, c)

    def multiply(self, other):
        if self.manifold != other.manifold:
            raise ConfigurationError("manifold mismatch in product")
        deg = tuple(a + b for a, b in zip(self.degree, other.degree))
        acc = {}
        for e1, c1 in zip(self.exponents, self.coeffs):
            for e2, c2 in zip(other.exponents, other.coeffs):
                key = tuple(int(x) for x in (e1 + e2))
                acc[key] = acc.get(key, 0.0) + c1 * c2
        items = {k: v for k, v in acc.items() if v != 0}
        return SectionPoly.from_coeff_map(self.manifold, deg, items)

    def vanishing_order(self, coord):
        """Order of vanishing along the coordinate divisor {z_coord = 0}."""
        live = np.abs(self.coeffs) > 0
        if not np.any(live):
            return None
        return int(self.exponents[live, coord].min())


def coordinate_section(manifold, coord):
    """The section z_coord of the degree-one bundle along its factor."""
    if not 0 <= coord < manifold.hom_len:
        raise ConfigurationError(
            f"no homogeneous coordinate {coord} on {manifold!r}")
    deg = tuple(int(f == manifold.coord_factors[coord])
                for f in range(manifold.factors))
    e = np.zeros((1, manifold.hom_len), dtype=np.int64)
    e[0, coord] = 1
    return SectionPoly(manifold, deg, e, np.ones(1))
