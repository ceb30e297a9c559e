"""Model manifolds, charts and quadrature.

Three compact model manifolds are supported: the projective line ``P1``, the
projective plane ``P2`` and the product ``P1xP1``.  Conventions, fixed once
and used everywhere:

* ``d^c = (1/(2 pi i)) (d' - d'')`` so that ``dd^c log|z| = delta_0``.  For a
  scalar ``u`` with complex Hessian ``H`` the current ``dd^c u`` is the
  (1,1)-form ``(i/pi) sum H_{jk} dz_j dz_k-bar``; we represent (1,1)-forms by
  that Hessian-convention matrix throughout, (N, n, n) on every manifold;
  only :func:`ddc_density` turns ``n`` of them into a wedge's density.
* The Kähler form is normalized to unit total volume: ``omega = dd^c (1/2)
  log(1+|z|^2)`` on P1 and P2 (mass 1), and ``omega = (omega_1 + omega_2) /
  sqrt(2)`` on P1xP1 so that ``omega^2 = omega_1 ^ omega_2`` is exactly the
  product of the two factor probability measures.
* Chart regions partition the manifold: chart ``i`` owns the points where
  ``|z_i|`` is maximal.  On each region the radial variables below turn
  smooth integrands into polynomial or analytic profiles for Gauss-Legendre
  quadrature, and all nodes stay strictly inside chart interiors.

Radial variables per chart region:

* P1-type coordinate: ``x = |z|^2 / (1 + |z|^2)`` on ``[0, x_max]``; the unit
  volume form is ``dx dtheta / (2 pi)`` and Lebesgue ``2 dA = dx dtheta /
  (1-x)^2``.
* P2 chart: ``u_j = |zeta_j|^2`` on the region polydisk; ``omega^2 = (1 / (2
  pi^2)) (1 + u_1 + u_2)^{-3} du dtheta`` and ``4 dV = du_1 du_2 dtheta_1
  dtheta_2``.

Quadrature is tensorial per chart: composite Gauss-Legendre panels radially
(with geometric refinement toward declared singular centers) and midpoint
uniform angular grids (exact for trigonometric polynomials of degree below
the node count), switching to composite panels when a center pins an angle.
"""

import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, NumericalError

TWO_PI = 2.0 * math.pi

# bounds the node-sized work arrays of every walk over a rule's blocks
_BLOCK_MAX_NODES = 250_000

# The model manifolds, each described once: the number of homogeneous
# coordinates of each projective factor (``k`` coordinates span a factor
# P^(k-1)), the norm in ``omega = sum_f omega_f / norm`` that gives omega^n
# unit mass, and the quadrature sizes (radial, angular) at resolution r.
_KINDS = {
    "P1": ((2,), 1.0,
           lambda r: (max(8, min(r, 256)), max(16, min(2 * r, 512)))),
    "P2": ((3,), 1.0,
           lambda r: (max(6, min(r // 2, 16)), max(8, min(r, 32)))),
    "P1xP1": ((2, 2), math.sqrt(2.0),
              lambda r: (max(6, min(r // 2, 24)), max(8, min(r, 48)))),
}


def projective_line():
    """The model line, on which divisor lines of surfaces are parametrized."""
    return Manifold("P1")


def reference_monomial_log_norm(manifold, q, exps, adjoint):
    """log of the squared L2 norm of a monomial in the reference metric.

    ``q`` is the per-factor degree tuple and ``exps`` the homogeneous
    exponent row; both may be real, as long as every exponent exceeds -1.
    Closed forms: each factor P^d contributes the ``lgamma`` Dirichlet
    moment ``prod_i Gamma(e_i + 1) / Gamma(q_f + d + 1)`` over the
    exponents ``e_i`` of its coordinates and ``log d!`` in the volume form
    of ``omega^n``; the adjoint frame carries one factor 2 pi per complex
    dimension instead.  The terms add left to right, factor after factor.
    Without ``adjoint`` it is the log mean of ``|z^e|^2 / prod_f |Z_f|^(2
    q_f)`` against ``omega^n``, as ``TestForm.mean`` takes it.
    """

    def lg(n):
        return math.lgamma(n + 1.0)

    base = 0.0
    for sl, d, qf in zip(manifold.factor_slices, manifold.factor_dims, q):
        rest = exps[sl.start + 1:sl.stop]
        for e in rest:
            base += lg(e)
        base += lg(qf - sum(rest))
        base -= lg(qf + d)
    if adjoint:
        return base + manifold.dim * math.log(TWO_PI)
    return base + sum(math.log(math.factorial(d))
                      for d in manifold.factor_dims)


# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------


class Manifold:
    """A model manifold: a product of projective factors, with its atlas and
    normalization constants.

    Attributes
    ----------
    kind : str
        One of ``P1``, ``P2``, ``P1xP1``.
    dim : int
        Complex dimension ``n``.
    num_charts : int
        2 for P1, 3 for P2, 4 for P1xP1: one chart per choice of a
        nonvanishing homogeneous coordinate in each factor, the first
        factor's choice most significant.
    hom_len : int
        Length of the flat homogeneous coordinate vector (2, 3 or 4; the
        P1xP1 vector is ``(z0, z1, w0, w1)`` with each factor normalized
        separately).
    factors : int
        Number of projective factors (1, 1, 2), the independent degree
        slots; also the size of the smooth curvature basis ``omega_1, ..``
        used by current descriptors.
    factor_dims : tuple
        Dimension of each factor.
    factor_slices, axis_slices : tuple of slice
        Each factor's homogeneous columns and affine chart axes.
    coord_factors, axis_factors : tuple
        The factor of each homogeneous coordinate and of each chart axis.
    """

    def __init__(self, kind):
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigurationError(
                f"unknown manifold {kind!r}; expected one of {tuple(_KINDS)}")
        self.kind = kind
        lens, self.omega_norm, self._quadrature_sizes = _KINDS[kind]
        self.factors = len(lens)
        self.factor_dims = tuple(k - 1 for k in lens)
        self.dim = sum(self.factor_dims)
        self.hom_len = sum(lens)
        self.num_charts = math.prod(lens)
        self.canonical_degree = tuple(-k for k in lens)
        self.factor_slices = tuple(
            slice(sum(lens[:f]), sum(lens[:f + 1])) for f in range(len(lens)))
        self.axis_slices = tuple(
            slice(sl.start - f, sl.stop - f - 1)
            for f, sl in enumerate(self.factor_slices))
        self.coord_factors = tuple(f for f, k in enumerate(lens)
                                   for _ in range(k))
        self.axis_factors = tuple(f for f, d in enumerate(self.factor_dims)
                                  for _ in range(d))
        # per chart: the homogeneous column of each affine axis and the
        # chart coordinate of its factor, which it is divided by
        self._charts = []
        for local in itertools.product(*map(range, lens)):
            pairs = [(i, sl.start + c)
                     for sl, c in zip(self.factor_slices, local)
                     for i in range(sl.start, sl.stop) if i != sl.start + c]
            self._charts.append(([i for i, _ in pairs], [d for _, d in pairs]))

    # -- identification ----------------------------------------------------

    def __repr__(self):
        return f"Manifold({self.kind})"

    def __eq__(self, other):
        return isinstance(other, Manifold) and other.kind == self.kind

    def __hash__(self):
        return hash(("Manifold", self.kind))

    # -- charts ------------------------------------------------------------

    def chart_columns(self, chart):
        """Homogeneous columns that become the affine coordinates of a
        chart, in axis order."""
        return self._charts[chart][0]

    def chart_of(self, points):
        """Index of the chart region owning each point (ties -> lowest)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        out = None
        for sl in self.factor_slices:
            # np.argmax breaks ties toward the lowest index
            c = np.argmax(np.abs(pts[:, sl]), axis=1)
            out = c if out is None else out * (sl.stop - sl.start) + c
        return out

    def chart_split(self, points):
        """``(chart, mask, Z)`` for each chart region owning some of the
        homogeneous points, charts ascending: the mask of its points and
        their affine coordinates ``Z`` in it.  The points are not
        normalized.  The charts come from ``np.bincount``, as
        ``np.unique`` would load ``numpy.ma``."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        charts = self.chart_of(pts)
        for chart in np.flatnonzero(np.bincount(charts)).tolist():
            mask = charts == chart
            yield chart, mask, self.to_chart(pts[mask], chart)

    def to_chart(self, points, chart):
        """Homogeneous points -> affine coordinates in ``chart`` (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        cols, dens = self._charts[chart]
        return pts[:, cols] / pts[:, dens]

    def from_chart(self, Z, chart):
        """Affine coordinates in ``chart`` -> normalized homogeneous points."""
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        cols, dens = self._charts[chart]
        out = np.zeros((Z.shape[0], self.hom_len), dtype=complex)
        out[:, dens] = 1.0
        out[:, cols] = Z
        return self.normalize(out)

    def coordinate_line(self, coord):
        """The coordinate divisor ``{z_coord = 0}`` of a surface as a
        projective line: ``(slots, factor)``, the homogeneous columns of its
        two coordinates, in order, and the factor they belong to.

        Without ``z_coord``, a factor left with one coordinate is a point
        (that coordinate is 1 on the line), and the one factor left with two
        is the line.
        """
        lines = []
        for f, sl in enumerate(self.factor_slices):
            rest = tuple(k for k in range(sl.start, sl.stop) if k != coord)
            if len(rest) != 1:
                lines.append((rest, f))
        if len(lines) != 1 or len(lines[0][0]) != 2:
            raise ConfigurationError(
                "coordinate divisors live on surfaces here")
        return lines[0]

    def normalize(self, points):
        """Scale homogeneous vectors to unit norm (per factor on products)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex)).copy()
        for sl in self.factor_slices:
            pts[:, sl] /= np.linalg.norm(pts[:, sl], axis=1, keepdims=True)
        return pts

    # -- local potentials and forms -----------------------------------------

    def _factor_square(self, Z, index):
        """``|zeta_f|^2`` of factor ``index`` at chart points, shape (N,)."""
        sl = self.axis_slices[index]
        if self.factor_dims[index] == 1:
            return np.abs(Z[:, sl.start]) ** 2
        return np.sum(np.abs(Z[:, sl]) ** 2, axis=1)

    def factor_squares(self, Z):
        """``|zeta_f|^2`` of every factor at chart points, (N, factors)."""
        out = np.empty((Z.shape[0], self.factors))
        for f in range(self.factors):
            out[:, f] = self._factor_square(Z, f)
        return out

    def log_factors(self, chart, Z):
        """Per-factor values ``log(1 + |zeta_f|^2)`` at chart points.

        Shape (N, factors).  The reference weight of the bundle O(d) is
        ``sum_f (d_f / 2) * log_factors[:, f]``.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        return np.log1p(self.factor_squares(Z))

    def omega_basis_matrix(self, index, chart, Z):
        """Hessian-convention matrix of the basis form ``omega_index``,
        shape (N, dim, dim).

        The basis spans the smooth reference curvatures, one factor
        pullback per factor: ``(omega,)`` on P1 and P2, ``(omega_1,
        omega_2)`` on P1xP1.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        D = 1.0 + self._factor_square(Z, index)
        if self.factor_dims[index] == 1:
            a = self.axis_slices[index].start
            H = np.zeros((Z.shape[0], self.dim, self.dim), dtype=complex)
            H[:, a, a] = 0.5 / D ** 2
            return H
        # a plane factor is the whole surface
        H = np.empty((Z.shape[0], 2, 2), dtype=complex)
        for j in range(2):
            for k in range(2):
                H[:, j, k] = 0.5 * ((j == k) / D
                                    - np.conj(Z[:, j]) * Z[:, k] / D ** 2)
        return H

    def omega_coeffs(self):
        """Coefficients of the Kähler form in the omega basis."""
        return np.full(self.factors, 1.0 / self.omega_norm)

    def canonical_factor(self, chart, Z):
        """``|frame of K_X|^{-2}`` for the metric induced by ``omega^n``.

        Returns ``e^{-2 rho}`` where ``rho`` is the canonical weight, the
        product over factors P^d of ``2 pi^d D^(d+1)``: ``2 pi D^2`` on P1,
        ``2 pi^2 D^3`` on P2, ``4 pi^2 Dz^2 Dw^2`` on P1xP1.  Its ``dd^c
        log``-curvature is exactly ``sum_i canonical_degree[i] * omega_i``.
        """
        lf = self.log_factors(chart, Z)
        const = 1.0
        arg = None
        for f, d in enumerate(self.factor_dims):
            const *= TWO_PI * math.pi ** (d - 1)
            term = (d + 1.0) * lf[:, f]
            arg = term if arg is None else arg + term
        return const * np.exp(arg)

    def intersection_number(self, degrees):
        """``<D_1 ... D_n>`` of ``n = dim`` divisors of the given per-factor
        degrees.

        ``prod_f omega_f^(dim f)`` has mass one and every other monomial in
        the factor forms vanishes, so the number sums, over the ways of
        taking each factor as often as its dimension, one degree from each
        divisor.
        """
        total = 0
        for pick in itertools.product(range(self.factors),
                                      repeat=len(degrees)):
            if all(pick.count(f) == d for f, d in enumerate(self.factor_dims)):
                total += math.prod(deg[f] for deg, f in zip(degrees, pick))
        return total

    # -- distances ----------------------------------------------------------

    def chordal_distance(self, points, centers):
        """Sine of the Fubini-Study angle between point rows (in [0, 1]).

        On products the maximum of the factor distances is used.
        """
        a = self.normalize(points)
        b = self.normalize(centers)
        if a.shape[0] == 1 and b.shape[0] > 1:
            a = np.broadcast_to(a, b.shape)
        if b.shape[0] == 1 and a.shape[0] > 1:
            b = np.broadcast_to(b, a.shape)
        out = None
        for sl in self.factor_slices:
            d = _sine_dist(a[:, sl], b[:, sl])
            out = d if out is None else np.maximum(out, d)
        return out

    # -- deterministic evaluation grids --------------------------------------

    def sample_grid(self, count):
        """A deterministic, well-spread set of points (N, hom_len).

        Low-discrepancy (Halton) sequences pushed through the Gaussian
        quantile (:func:`_ndtri`, a numpy port of the Cephes ``ndtri``)
        give FS-uniform homogeneous vectors, per factor on products; no RNG
        involved, so grids are reproducible across runs and platforms.
        """
        # each homogeneous coordinate draws on two bases (real, imaginary)
        parts = [_halton_unitary(count, sl.stop - sl.start,
                                 base_shift=2 * sl.start)
                 for sl in self.factor_slices]
        return np.concatenate(parts, axis=1)


def _sine_dist(a, b):
    # |a ^ b| for unit vectors: equals sin of the FS angle and avoids the
    # cancellation of 1 - |<a,b>|^2 at small separations
    k = a.shape[1]
    acc = np.zeros(a.shape[0])
    for i in range(k):
        for j in range(i + 1, k):
            acc += np.abs(a[:, i] * b[:, j] - a[:, j] * b[:, i]) ** 2
    return np.sqrt(np.minimum(acc, 1.0))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _halton(idx, base):
    out = np.zeros(len(idx))
    i = np.asarray(idx, dtype=np.int64) + 1
    fb = 1.0 / base
    scale = fb
    while np.any(i > 0):
        out += scale * (i % base)
        i //= base
        scale *= fb
    return out


# Cephes ndtri (Moshier): rational approximations of the inverse normal CDF,
# highest-degree coefficient first; the leading 1 of each Q is implicit.
_NDTRI_S2PI = 2.50662827463100050242E0
_NDTRI_EXPM2 = 0.13533528323661269189      # exp(-2)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x):
    # math.log, not np.log: numpy's vectorized log differs from libm in the
    # last bit on about 1e-4 of the tail inputs, which would move the grids
    return np.array([math.log(v) for v in x.tolist()])


def _ndtri(u):
    """Inverse of the standard normal CDF on ``[0, 1]``, elementwise.

    A port of the Cephes ``ndtri`` with its operation order, so that it
    returns the same bits as ``scipy.special.ndtri``.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    upper = u > 1.0 - _NDTRI_EXPM2
    y = np.where(upper, 1.0 - u, u)
    mid = y > _NDTRI_EXPM2
    ym = y[mid] - 0.5
    y2 = ym * ym
    x = ym + ym * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
    out[mid] = x * _NDTRI_S2PI
    edge = y == 0.0
    out[edge] = np.where(upper[edge], np.inf, -np.inf)
    tail = ~mid & ~edge
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.empty_like(x)
    zn, zf = z[near], z[~near]
    x1[near] = zn * _polevl(zn, _NDTRI_P1) / _p1evl(zn, _NDTRI_Q1)
    x1[~near] = zf * _polevl(zf, _NDTRI_P2) / _p1evl(zf, _NDTRI_Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _halton_unitary(count, clen, base_shift=0):
    idx = np.arange(count)
    u = np.array([_halton(idx, _PRIMES[(base_shift + j) % len(_PRIMES)])
                  for j in range(2 * clen)])
    g = _ndtri(np.clip(u, 1e-12, 1.0 - 1e-12)).T
    vec = g[:, :clen] + 1j * g[:, clen:]
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    return vec


def build_manifold(kind):
    """Construct one of the model manifolds: ``P1``, ``P2`` or ``P1xP1``."""
    return Manifold(kind)


# ---------------------------------------------------------------------------
# composite panels
# ---------------------------------------------------------------------------

_GL_CACHE = {}


def _gl(order):
    if order not in _GL_CACHE:
        x, w = leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def _gl_on(a, b, order):
    x, w = _gl(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _panel_nodes(a, b, targets, base_panels, order, sing_order, levels):
    """Composite GL nodes on [a, b], geometrically refined toward targets."""
    width = b - a
    if width <= 0:
        raise ConfigurationError("empty radial interval")
    cuts = {a, b}
    for k in range(1, base_panels):
        cuts.add(a + width * k / base_panels)
    for t in targets:
        t = min(max(t, a), b)
        for k in range(1, levels + 1):
            step = width * 0.5 ** k
            if t - step > a:
                cuts.add(t - step)
            if t + step < b:
                cuts.add(t + step)
        if a < t < b:
            cuts.add(t)  # split at the center so no node lands on it
    cs = sorted(cuts)
    nodes, weights = [], []
    for lo, hi in zip(cs[:-1], cs[1:]):
        near = any(abs(lo - t) < 1.5 * (hi - lo) or abs(hi - t) < 1.5 * (hi - lo)
                   for t in targets) if targets else False
        x, w = _gl_on(lo, hi, sing_order if near else order)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _angular_nodes(m, targets, levels, order):
    """Angular nodes on [0, 2pi): midpoint-uniform, or panels near targets."""
    if not targets:
        theta = TWO_PI * (np.arange(m) + 0.5) / m
        w = np.full(m, TWO_PI / m)
        return theta, w, True
    cuts = {0.0, TWO_PI}
    for t in targets:
        t = t % TWO_PI
        cuts.add(t)
        for k in range(1, levels + 1):
            step = TWO_PI * 0.5 ** k
            cuts.add((t - step) % TWO_PI)
            cuts.add((t + step) % TWO_PI)
    base = max(8, m // 4)
    for k in range(base):
        cuts.add(TWO_PI * k / base)
    cs = sorted(c for c in cuts if 0.0 <= c <= TWO_PI)
    if cs[0] > 0.0:
        cs.insert(0, 0.0)
    if cs[-1] < TWO_PI:
        cs.append(TWO_PI)
    nodes, weights = [], []
    for lo, hi in zip(cs[:-1], cs[1:]):
        if hi - lo < 1e-13:
            continue
        x, w = _gl_on(lo, hi, order)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights), False


# ---------------------------------------------------------------------------
# quadrature rule
# ---------------------------------------------------------------------------


class Axis:
    """One complex coordinate direction of a chart block."""

    def __init__(self, style, x, wx, theta, wtheta, theta_uniform):
        self.style = style              # "p1" (compactified) or "disk" (u=r^2)
        self.x = x
        self.wx = wx
        self.theta = theta
        self.wtheta = wtheta
        self.theta_uniform = theta_uniform

    @property
    def radius(self):
        if self.style == "p1":
            return np.sqrt(self.x / (1.0 - self.x))
        return np.sqrt(self.x)

    @property
    def leb_factor(self):
        """Radial weight so that (leb_factor dx) (dtheta) = 2 dA."""
        if self.style == "p1":
            return self.wx / (1.0 - self.x) ** 2
        return self.wx


class Block:
    """Tensor quadrature over one chart region.

    The nodes are a tensor grid of ``r e^{i theta}`` per axis, in the order
    ``(x0, theta0, x1, theta1)`` of :attr:`shape`, so a field that is a
    radial factor times an angular phase, such as a test form's ``chi``
    (:meth:`TestForm.block_values`), is taken from the axes without the
    complex mesh.

    Besides its nodes and weights, built on first use, a block keeps a memo
    of values that do not depend on the power p: the test-form values of
    :meth:`form_values` (on the blocks of a divisor line rule, those of the
    forms' restrictions to the line) and each form's ``dd^c`` weights
    (``bundles.pair_blocks``), which come from the factor Laplacians of
    chi on the block's axes (:meth:`TestForm.block_laplacian`) with no
    Hessian and no basis matrix.  Each entry is a read-only array kept for
    as long as the block lives; the blocks of
    :meth:`QuadratureRule.capped_blocks` live and die with their rule.

    A block of :meth:`QuadratureRule.torus_reduced` has ``torus_reduced``
    set: each node stands for its whole torus orbit, and a test form takes
    its torus average there.
    """

    def __init__(self, manifold, chart, axes, torus_reduced=False):
        self.manifold = manifold
        self.chart = chart
        self.axes = axes
        self.torus_reduced = torus_reduced
        self._mesh = None
        self._wvol = None
        self._wleb = None
        self._memo = {}

    @property
    def shape(self):
        return tuple(s for ax in self.axes for s in (len(ax.x), len(ax.theta)))

    @property
    def num_nodes(self):
        n = 1
        for s in self.shape:
            n *= s
        return n

    def _build(self):
        axs = self.axes
        Z = np.empty(self.shape + (len(axs),), dtype=np.complex128)
        for i, ax in enumerate(axs):
            # one phase per angle; nodes keep r * exp(1j * theta) bit for bit
            col = np.multiply.outer(ax.radius, np.exp(1j * ax.theta))
            Z[..., i] = col.reshape(col.shape + (1, 1) * (len(axs) - 1 - i))
        Z = Z.reshape(-1, len(axs))

        # Lebesgue weight (2^n dV) and unit-volume weight (omega^n)
        wleb_parts = []
        for ax in axs:
            wleb_parts.extend([ax.leb_factor, ax.wtheta])
        wleb = _outer_ravel(wleb_parts)

        # per factor: dx dtheta / (2 pi) on a line, (1/(2 pi^2))
        # (1+u1+u2)^-3 du dtheta on a plane
        m = self.manifold
        wvol_parts = []
        planes = []
        for f, d in enumerate(m.factor_dims):
            fax = axs[m.axis_slices[f]]
            if d == 1:
                wvol_parts.extend([fax[0].wx, fax[0].wtheta / TWO_PI])
                continue
            s = np.zeros(self.shape)
            for a in range(m.axis_slices[f].start, m.axis_slices[f].stop):
                s += axs[a].x.reshape((-1,) + (1,) * (2 * (len(axs) - a) - 1))
            planes.append((1.0 / (2.0 * math.pi ** 2)) / (1.0 + s) ** 3)
            for ax in fax:
                wvol_parts.extend([ax.wx, ax.wtheta])
        wvol = _outer_ravel(wvol_parts)
        for dens in planes:
            wvol = wvol * dens.ravel()
        self._mesh = Z
        self._wvol = wvol
        self._wleb = wleb

    def split(self, max_nodes):
        """Yield sub-blocks of at most ``max_nodes`` nodes, cut along the
        first radial axis (one radial row where a row alone is larger).

        Sub-blocks cover the same region with the same nodes, so integrals
        over them add up exactly; consumers use this to bound the size of
        per-block work arrays.  Each holds whole rows of the first radial
        axis, with every angle and every later axis, so a row-wise
        reduction or FFT over a sub-block equals the whole block's.

        Sub-blocks are fresh, even when one suffices, and build their own
        meshes on first use; this block's mesh stays unbuilt.  A loop over
        the generator therefore holds one sub-block's mesh at a time.
        """
        ax0 = self.axes[0]
        per_node = self.num_nodes // len(ax0.x)
        group = max(1, max_nodes // max(per_node, 1))
        for i in range(0, len(ax0.x), group):
            sl = slice(i, i + group)
            sub = Axis(ax0.style, ax0.x[sl], ax0.wx[sl], ax0.theta,
                       ax0.wtheta, ax0.theta_uniform)
            yield Block(self.manifold, self.chart,
                        [sub] + list(self.axes[1:]), self.torus_reduced)

    def memo(self, key, compute):
        """The array ``compute()`` gives at this block's nodes, computed on
        the first call for ``key`` and kept read-only.

        ``key`` must name values that never change, such as an immutable
        test form; it is held for as long as the block.
        """
        vals = self._memo.get(key)
        if vals is None:
            vals = compute()
            vals.flags.writeable = False
            self._memo[key] = vals
        return vals

    def form_values(self, form):
        """``form.chi`` at this block's nodes as a read-only float array,
        from :meth:`TestForm.block_values`.

        A form is evaluated once per block and kept in the memo, keyed by
        the form object itself (forms are immutable: ``with_scale`` makes a
        new one).  A constant form keeps no node array, only its one value
        broadcast to the nodes.
        """
        return self.memo(form, lambda: form.block_values(self))

    @property
    def points(self):
        if self._mesh is None:
            self._build()
        return self._mesh

    @property
    def weights_volume(self):
        if self._wvol is None:
            self._build()
        return self._wvol

    @property
    def weights_lebesgue(self):
        if self._wleb is None:
            self._build()
        return self._wleb


def _outer_ravel(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = np.multiply.outer(acc, p)
    return acc.ravel()


class QuadratureRule:
    """Partition-of-charts tensor quadrature with singular refinement.

    ``blocks`` hold the nodes.  All weights are strictly positive and nodes
    avoid chart boundaries and declared singular centers by construction.
    """

    def __init__(self, manifold, resolution, blocks):
        self.manifold = manifold
        self.resolution = resolution
        self.blocks = blocks
        self._capped = None
        self._line_rules = {}
        self._reduced = None

    @property
    def num_nodes(self):
        return sum(b.num_nodes for b in self.blocks)

    def capped_blocks(self):
        """Blocks partitioned to at most ``_BLOCK_MAX_NODES`` nodes each.

        The list is built once and memoized.  Its blocks keep their nodes,
        weights and memo (see :class:`Block`; a paired form's ``chi`` and
        ``dd^c`` weights take 8 bytes per node each) while this rule lives;
        drop the rule to free them.
        """
        if self._capped is None:
            self._capped = [sb for b in self.blocks
                            for sb in b.split(_BLOCK_MAX_NODES)]
        return self._capped

    def torus_reduced(self):
        """This rule with each angular axis cut to one node, theta = pi
        with weight 2 pi: exact for torus-invariant integrands, and a test
        form takes its torus average on its blocks.  Built once and kept
        with this rule, with its blocks' memo.
        """
        if self._reduced is None:
            theta, wtheta = np.array([math.pi]), np.array([TWO_PI])
            self._reduced = QuadratureRule(self.manifold, self.resolution, [
                Block(b.manifold, b.chart, [
                    Axis(ax.style, ax.x, ax.wx, theta, wtheta, True)
                    for ax in b.axes], torus_reduced=True)
                for b in self.blocks])
        return self._reduced

    def line_rule(self, resolution):
        """The P1 rule at ``resolution`` for integrals over lines in this
        surface, such as divisor restrictions.

        It is built once per resolution and kept with this rule, so every
        pairing on this rule shares it and the memo of its blocks.
        """
        if resolution not in self._line_rules:
            self._line_rules[resolution] = quadrature_nodes(
                projective_line(), resolution)
        return self._line_rules[resolution]


def _sizes(manifold, resolution):
    r = int(resolution)
    if r < 4:
        raise ConfigurationError("resolution must be >= 4")
    return manifold._quadrature_sizes(r)


def _levels(resolution, dim=1):
    # geometric refinement depth: curves afford deep ladders, but on
    # surfaces the ladder length enters the tensor grid once per axis
    if dim == 1:
        return int(min(44, 10 + 3 * math.log2(max(resolution, 4))))
    return int(min(18, 8 + 2 * math.log2(max(resolution, 4))))


def quadrature_nodes(manifold, resolution, singular_refinement=None,
                     angular_min=None, radial_min=None):
    """Build the tensor quadrature rule for a manifold.

    Parameters
    ----------
    manifold : Manifold
    resolution : int
        Controls node counts per axis (monotone, polynomial growth with
        per-manifold caps chosen so smooth library integrands are integrated
        to near machine precision well before the caps bind).
    singular_refinement : list, optional
        Centers to refine toward.  Each entry is either a homogeneous point
        (sequence of ``hom_len`` complex numbers) or a coordinate-divisor
        marker ``("coord", i)`` for the divisor ``{z_i = 0}``.
    angular_min, radial_min : int, optional
        Floors on the angular/radial node counts (used by Gram assembly to
        guarantee exactness for a given basis degree).
    """
    m = manifold
    k_rad, m_ang = _sizes(m, resolution)
    if radial_min:
        k_rad = max(k_rad, int(radial_min))
    if angular_min:
        m_ang = max(m_ang, int(angular_min))
    lev = _levels(resolution, m.dim)
    centers = list(singular_refinement or ())

    blocks = []
    for chart in range(m.num_charts):
        rad_targets, ang_targets = _chart_targets(m, chart, centers)
        axes = []
        for a in range(m.dim):
            style = "p1" if _line_axis(m, a) else "disk"
            xmax = _axis_xmax(m, a)
            base_panels = max(1, k_rad // 16)
            x, wx = _panel_nodes(0.0, xmax, rad_targets[a], base_panels,
                                 min(16, max(8, k_rad)), 10, lev)
            # top up to the requested radial count with uniform splits
            while len(x) < k_rad:
                base_panels += 1
                x, wx = _panel_nodes(0.0, xmax, rad_targets[a], base_panels,
                                     min(16, max(8, k_rad)), 10, lev)
            th, wth, uni = _angular_nodes(m_ang, ang_targets[a], lev, 10)
            axes.append(Axis(style, x, wx, th, wth, uni))
        blocks.append(Block(m, chart, axes))
    return QuadratureRule(m, resolution, blocks)


def _line_axis(m, axis):
    """Whether a chart axis is the coordinate of a line factor."""
    return m.factor_dims[m.axis_factors[axis]] == 1


def _axis_xmax(m, axis):
    """Upper end of an axis's radial variable on a chart region: the
    region is ``|zeta| <= 1``, where ``x = r^2 / (1 + r^2)`` on a line
    factor and ``u = r^2`` on a plane."""
    return 0.5 if _line_axis(m, axis) else 1.0


def _chart_targets(m, chart, centers):
    """Radial/angular refinement targets per axis for one chart."""
    rad = [[] for _ in range(m.dim)]
    ang = [[] for _ in range(m.dim)]
    for c in centers:
        if is_coord_marker(c):
            _coord_divisor_targets(m, chart, int(c[1]), rad)
            continue
        pt = np.asarray(c, dtype=complex).reshape(1, -1)
        if pt.shape[1] != m.hom_len:
            raise ConfigurationError(
                f"refinement center must have {m.hom_len} homogeneous entries")
        with np.errstate(divide="ignore", invalid="ignore"):
            Z = m.to_chart(m.normalize(pt), chart)[0]
        for a in range(m.dim):
            za = Z[a]
            if not np.isfinite(za):
                continue
            r = abs(za)
            xmax = _axis_xmax(m, a)
            if _line_axis(m, a):
                xval = r * r / (1.0 + r * r)
            else:
                xval = r * r
            if xval <= xmax * (1.0 + 1e-9):
                rad[a].append(min(xval, xmax))
                if r > 1e-9:
                    ang[a].append(float(np.angle(za)))
    return rad, ang


def is_coord_marker(center):
    """Whether a refinement center is the marker ``("coord", i)`` of the
    divisor ``{z_i = 0}`` rather than a homogeneous point."""
    return (isinstance(center, tuple) and len(center) == 2
            and center[0] == "coord")


def _coord_divisor_targets(m, chart, idx, rad):
    # the divisor {z_idx = 0} is the origin of its axis in the charts where
    # z_idx is an affine coordinate
    cols = m.chart_columns(chart)
    if idx in cols:
        rad[cols.index(idx)].append(0.0)


def too_many_dropped(nbad, nodes):
    """Whether ``nbad`` of a block's ``nodes`` are too many to drop.

    A block may lose the weight of a few isolated nodes where a field is
    non-finite or a family vanishes; more than ``max(8, nodes // 10000)``
    means the field itself is at fault.
    """
    return nbad > max(8, nodes // 10000)


def integrate(field, rule, integrable=False):
    """Integrate a scalar field against ``omega^n`` (total mass one).

    Parameters
    ----------
    field : callable
        ``field(chart_index, Z)`` with ``Z`` of shape (N, dim) complex chart
        coordinates, returning (N,) real values.
    rule : QuadratureRule
    integrable : bool
        Allow non-finite values at isolated nodes (they are dropped); without
        the flag any non-finite node raises ``NumericalError``.
    """
    total = 0.0
    for b in rule.capped_blocks():
        vals = np.asarray(field(b.chart, b.points), dtype=float)
        w = b.weights_volume
        bad = ~np.isfinite(vals)
        if np.any(bad):
            nbad = int(np.count_nonzero(bad))
            if not integrable or too_many_dropped(nbad, vals.size):
                raise NumericalError(
                    f"non-finite field values at {nbad} nodes of chart {b.chart}")
            vals = np.where(bad, 0.0, vals)
            w = np.where(bad, 0.0, w)
        total += float(np.dot(vals, w))
    return total


def wedge_density_11(A, B):
    """Scalar density (w.r.t. dV) of ``A ^ B`` for two (1,1)-matrices.

    A, B have shape (N, 2, 2) in the Hessian convention; the wedge of the
    corresponding (1,1)-forms is ``(4/pi^2) perm(A,B) dV`` with
    ``perm = A11 B22 + A22 B11 - A12 B21 - A21 B12``.
    """
    perm = (A[:, 0, 0] * B[:, 1, 1] + A[:, 1, 1] * B[:, 0, 0]
            - A[:, 0, 1] * B[:, 1, 0] - A[:, 1, 0] * B[:, 0, 1])
    return (4.0 / math.pi ** 2) * np.real(perm)


def ddc_density(*hessians):
    """Density against ``Block.weights_lebesgue`` of the wedge of ``dim``
    (1,1)-forms, each an (N, dim, dim) Hessian-convention matrix.

    The weights carry ``2 dA`` on a curve, where the form of ``H`` is ``(Re
    H / pi) 2 dA``, and ``4 dV`` on a surface, where the wedge of ``A`` and
    ``B`` is ``wedge_density_11(A, B) dV``.
    """
    if len(hessians) != hessians[0].shape[-1]:
        raise ConfigurationError("a density wedges dim (1,1)-forms")
    if len(hessians) == 1:
        return np.real(hessians[0][:, 0, 0]) / math.pi
    return wedge_density_11(*hessians) / 4.0
