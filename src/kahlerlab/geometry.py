"""Model manifolds, charts and quadrature.

Three compact model manifolds are supported: the projective line ``P1``, the
projective plane ``P2`` and the product ``P1xP1``.  Conventions, fixed once
and used everywhere:

* ``d^c = (1/(2 pi i)) (d' - d'')`` so that ``dd^c log|z| = delta_0``.  For a
  scalar ``u`` with complex Hessian ``H`` the current ``dd^c u`` is the
  (1,1)-form ``(i/pi) sum H_{jk} dz_j dz_k-bar``; we represent (1,1)-forms by
  that Hessian-convention matrix throughout.
* The Kähler form is normalized to unit total volume: ``omega = dd^c (1/2)
  log(1+|z|^2)`` on P1 and P2 (mass 1), and ``omega = (omega_1 + omega_2) /
  sqrt(2)`` on P1xP1 so that ``omega^2 = omega_1 ^ omega_2`` is exactly the
  product of the two factor probability measures.
* Chart regions partition the manifold: chart ``i`` owns the points where
  ``|z_i| / s_i`` is maximal (``s`` is an optional seam vector, default all
  ones).  On each region the radial variables below turn smooth integrands
  into polynomial or analytic profiles for Gauss-Legendre quadrature, and all
  nodes stay strictly inside chart interiors.

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

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, NumericalError

TWO_PI = 2.0 * math.pi

_KINDS = ("P1", "P2", "P1xP1")

# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------


class Manifold:
    """A model manifold with its atlas and normalization constants.

    Attributes
    ----------
    kind : str
        One of ``P1``, ``P2``, ``P1xP1``.
    dim : int
        Complex dimension ``n``.
    num_charts : int
        2 for P1, 3 for P2, 4 for P1xP1.
    hom_len : int
        Length of the flat homogeneous coordinate vector (2, 3 or 4; the
        P1xP1 vector is ``(z0, z1, w0, w1)`` with each factor normalized
        separately).
    factors : int
        Number of independent degree slots (1, 1, 2); also the size of the
        smooth curvature basis ``omega_1, ..`` used by current descriptors.
    """

    def __init__(self, kind):
        if kind not in _KINDS:
            raise ConfigurationError(
                f"unknown manifold {kind!r}; expected one of {_KINDS}")
        self.kind = kind
        if kind == "P1":
            self.dim = 1
            self.num_charts = 2
            self.hom_len = 2
            self.factors = 1
            self.canonical_degree = (-2,)
        elif kind == "P2":
            self.dim = 2
            self.num_charts = 3
            self.hom_len = 3
            self.factors = 1
            self.canonical_degree = (-3,)
        else:
            self.dim = 2
            self.num_charts = 4
            self.hom_len = 4
            self.factors = 2
            self.canonical_degree = (-2, -2)

    # -- identification ----------------------------------------------------

    def __repr__(self):
        return f"Manifold({self.kind})"

    def __eq__(self, other):
        return isinstance(other, Manifold) and other.kind == self.kind

    def __hash__(self):
        return hash(("Manifold", self.kind))

    # -- charts ------------------------------------------------------------

    def chart_of(self, points, seam=None):
        """Index of the chart region owning each point (ties -> lowest)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        s = self._seam(seam)
        if self.kind in ("P1", "P2"):
            return _argmax_low(np.abs(pts) / s[None, :])
        cz = _argmax_low(np.abs(pts[:, :2]) / s[None, :2])
        cw = _argmax_low(np.abs(pts[:, 2:]) / s[None, 2:])
        return 2 * cz + cw

    def to_chart(self, points, chart):
        """Homogeneous points -> affine coordinates in ``chart`` (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        if self.kind == "P1":
            c = chart
            return (pts[:, 1 - c] / pts[:, c])[:, None]
        if self.kind == "P2":
            c = chart
            others = [i for i in range(3) if i != c]
            return pts[:, others] / pts[:, [c]]
        cz, cw = divmod(chart, 2)
        z = pts[:, 1 - cz] / pts[:, cz]
        w = pts[:, 3 - cw] / pts[:, 2 + cw]
        return np.stack([z, w], axis=1)

    def from_chart(self, Z, chart):
        """Affine coordinates in ``chart`` -> normalized homogeneous points."""
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        n = Z.shape[0]
        out = np.zeros((n, self.hom_len), dtype=complex)
        if self.kind == "P1":
            out[:, chart] = 1.0
            out[:, 1 - chart] = Z[:, 0]
        elif self.kind == "P2":
            others = [i for i in range(3) if i != chart]
            out[:, chart] = 1.0
            out[:, others[0]] = Z[:, 0]
            out[:, others[1]] = Z[:, 1]
        else:
            cz, cw = divmod(chart, 2)
            out[:, cz] = 1.0
            out[:, 1 - cz] = Z[:, 0]
            out[:, 2 + cw] = 1.0
            out[:, 3 - cw] = Z[:, 1]
        return self.normalize(out)

    def normalize(self, points):
        """Scale homogeneous vectors to unit norm (per factor on products)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex)).copy()
        if self.kind == "P1xP1":
            pts[:, :2] /= np.linalg.norm(pts[:, :2], axis=1, keepdims=True)
            pts[:, 2:] /= np.linalg.norm(pts[:, 2:], axis=1, keepdims=True)
        else:
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts

    def _seam(self, seam):
        if seam is None:
            return np.ones(self.hom_len)
        s = np.asarray(seam, dtype=float)
        if s.shape != (self.hom_len,) or np.any(s <= 0):
            raise ConfigurationError(
                f"seam must be {self.hom_len} positive floats")
        return s

    # -- local potentials and forms -----------------------------------------

    def log_factors(self, chart, Z):
        """Per-factor values ``log(1 + |zeta|^2)`` at chart points.

        Shape (N, factors): one column on P1/P2, two (z- and w-factor) on
        P1xP1.  The reference weight of the bundle O(d) is
        ``sum_i (d_i / 2) * log_factors[:, i]``.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        if self.kind == "P1xP1":
            return np.stack([
                np.log1p(np.abs(Z[:, 0]) ** 2),
                np.log1p(np.abs(Z[:, 1]) ** 2),
            ], axis=1)
        return np.log1p(np.sum(np.abs(Z) ** 2, axis=1))[:, None]

    def omega_basis_matrix(self, index, chart, Z):
        """Hessian-convention matrix of the basis form ``omega_index``.

        The basis spans the smooth reference curvatures: ``(omega,)`` on P1
        and P2, ``(omega_1, omega_2)`` (factor pullbacks) on P1xP1.  Returned
        shape: (N,) on P1, (N, 2, 2) on surfaces.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        n = Z.shape[0]
        if self.kind == "P1":
            D = 1.0 + np.abs(Z[:, 0]) ** 2
            return 0.5 / D ** 2
        if self.kind == "P2":
            D = 1.0 + np.sum(np.abs(Z) ** 2, axis=1)
            H = np.empty((n, 2, 2), dtype=complex)
            for j in range(2):
                for k in range(2):
                    H[:, j, k] = 0.5 * ((j == k) / D
                                        - np.conj(Z[:, j]) * Z[:, k] / D ** 2)
            return H
        H = np.zeros((n, 2, 2), dtype=complex)
        D = 1.0 + np.abs(Z[:, index]) ** 2
        H[:, index, index] = 0.5 / D ** 2
        return H

    def omega_coeffs(self):
        """Coefficients of the Kähler form in the omega basis."""
        if self.kind == "P1xP1":
            r = 1.0 / math.sqrt(2.0)
            return np.array([r, r])
        return np.array([1.0])

    def omega_matrix(self, chart, Z):
        """Hessian-convention matrix of the Kähler form at chart points."""
        coeffs = self.omega_coeffs()
        acc = None
        for i, c in enumerate(coeffs):
            m = self.omega_basis_matrix(i, chart, Z)
            acc = c * m if acc is None else acc + c * m
        return acc

    def canonical_factor(self, chart, Z):
        """``|frame of K_X|^{-2}`` for the metric induced by ``omega^n``.

        Returns ``e^{-2 rho}`` where ``rho`` is the canonical weight:
        ``2 pi D^2`` on P1, ``2 pi^2 D^3`` on P2, ``4 pi^2 Dz^2 Dw^2`` on
        P1xP1.  Its ``dd^c log``-curvature is exactly ``sum_i
        canonical_degree[i] * omega_i``.
        """
        lf = self.log_factors(chart, Z)
        if self.kind == "P1":
            return TWO_PI * np.exp(2.0 * lf[:, 0])
        if self.kind == "P2":
            return TWO_PI * math.pi * np.exp(3.0 * lf[:, 0])
        return TWO_PI ** 2 * np.exp(2.0 * lf[:, 0] + 2.0 * lf[:, 1])

    # -- distances ----------------------------------------------------------

    def chordal_distance(self, points, centers):
        """Sine of the Fubini-Study angle between point rows (in [0, 1]).

        On P1xP1 the maximum of the two factor distances is used.
        """
        a = self.normalize(points)
        b = self.normalize(centers)
        if a.shape[0] == 1 and b.shape[0] > 1:
            a = np.broadcast_to(a, b.shape)
        if b.shape[0] == 1 and a.shape[0] > 1:
            b = np.broadcast_to(b, a.shape)
        if self.kind == "P1xP1":
            dz = _sine_dist(a[:, :2], b[:, :2])
            dw = _sine_dist(a[:, 2:], b[:, 2:])
            return np.maximum(dz, dw)
        return _sine_dist(a, b)

    # -- deterministic evaluation grids --------------------------------------

    def sample_grid(self, count, offset=0):
        """A deterministic, well-spread set of points (N, hom_len).

        Low-discrepancy (Halton) sequences pushed through the Gaussian
        quantile (:func:`_ndtri`, a numpy port of the Cephes ``ndtri``)
        give FS-uniform homogeneous vectors; no RNG involved, so grids are
        reproducible across runs and platforms.
        """
        if self.kind == "P1xP1":
            a = _halton_unitary(count, 2, offset=offset, base_shift=0)
            b = _halton_unitary(count, 2, offset=offset, base_shift=4)
            return np.concatenate([a, b], axis=1)
        return _halton_unitary(count, self.hom_len, offset=offset)


def _argmax_low(score):
    # np.argmax already breaks ties toward the lowest index
    return np.argmax(score, axis=1).astype(int)


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


def _halton_unitary(count, clen, offset=0, base_shift=0):
    idx = np.arange(offset, offset + count)
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

    Besides its nodes and weights, built on first use, a block keeps a memo
    of node values that do not depend on the power p: the test-form values
    of :meth:`form_values` and what the pairings store with :meth:`memo`
    (wedge densities of the reference forms, form values at embedded
    divisor-line nodes).  Each entry is a read-only array kept
    for as long as the block lives; the blocks of
    :meth:`QuadratureRule.capped_blocks` live as long as their rule, so a
    study's memo goes with its target rule.
    """

    def __init__(self, manifold, chart, axes):
        self.manifold = manifold
        self.chart = chart
        self.axes = axes
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

        m = self.manifold
        if m.kind == "P1":
            wvol_parts = [axs[0].wx, axs[0].wtheta / TWO_PI]
            wvol = _outer_ravel(wvol_parts)
        elif m.kind == "P1xP1":
            wvol_parts = [axs[0].wx, axs[0].wtheta / TWO_PI,
                          axs[1].wx, axs[1].wtheta / TWO_PI]
            wvol = _outer_ravel(wvol_parts)
        else:  # P2: (1/(2 pi^2)) (1+u1+u2)^-3 du dtheta
            u1 = axs[0].x
            u2 = axs[1].x
            base = _outer_ravel([axs[0].wx, axs[0].wtheta,
                                 axs[1].wx, axs[1].wtheta])
            umesh = np.meshgrid(u1, np.ones_like(axs[0].theta),
                                u2, np.ones_like(axs[1].theta),
                                indexing="ij")
            s = umesh[0] + umesh[2]
            dens = (1.0 / (2.0 * math.pi ** 2)) / (1.0 + s) ** 3
            wvol = base * dens.ravel()
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
                        [sub] + list(self.axes[1:]))

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
        """``form.chi`` at this block's nodes as a read-only float array.

        A form is evaluated once per block and kept in the memo, keyed by
        the form object itself (forms are immutable: ``with_scale`` makes a
        new one).  A constant form keeps no node array, only its one value
        broadcast to the nodes.
        """
        def chi():
            vals = np.asarray(form.chi(self.chart, self.points), dtype=float)
            if form.constant:
                return np.broadcast_to(vals[0], vals.shape)
            return vals

        return self.memo(form, chi)

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

    Parameters are recorded for reproducibility; ``blocks`` hold the actual
    nodes.  All weights are strictly positive and nodes avoid chart seams and
    declared singular centers by construction.
    """

    def __init__(self, manifold, resolution, blocks, singular_refinement, seam):
        self.manifold = manifold
        self.resolution = resolution
        self.blocks = blocks
        self.singular_refinement = singular_refinement
        self.seam = seam
        self._capped = None
        self._line_rules = {}

    @property
    def num_nodes(self):
        return sum(b.num_nodes for b in self.blocks)

    def capped_blocks(self, max_nodes=250_000):
        """Blocks partitioned to at most ``max_nodes`` nodes each.

        The list is built once and memoized.  Its blocks keep their nodes,
        weights and memo of p-independent values (see :class:`Block`) for
        as long as this rule lives; drop the rule to free them.
        """
        if self._capped is None:
            self._capped = [sb for b in self.blocks
                            for sb in b.split(max_nodes)]
        return self._capped

    def line_rule(self, resolution):
        """The P1 rule at ``resolution`` for integrals over lines in this
        surface, such as divisor restrictions.

        It is built once per resolution and kept with this rule, so every
        pairing on this rule shares it and the memo of its blocks.
        """
        if resolution not in self._line_rules:
            self._line_rules[resolution] = quadrature_nodes(
                build_manifold("P1"), resolution)
        return self._line_rules[resolution]

    def nodes_homogeneous(self):
        out = [self.manifold.from_chart(b.points, b.chart)
               for b in self.capped_blocks()]
        return np.concatenate(out, axis=0)

    def weights(self):
        return np.concatenate([b.weights_volume
                               for b in self.capped_blocks()])

    def fingerprint(self):
        bits = [self.manifold.kind, str(self.resolution)]
        for b in self.blocks:
            bits.append("x".join(str(s) for s in b.shape))
        if self.seam is not None:
            bits.append("s" + ",".join(repr(float(v)) for v in self.seam))
        for c in self.singular_refinement or ():
            bits.append(repr(c))
        return "|".join(bits)


def _sizes(kind, resolution):
    r = int(resolution)
    if r < 4:
        raise ConfigurationError("resolution must be >= 4")
    if kind == "P1":
        return max(8, min(r, 256)), max(16, min(2 * r, 512))
    if kind == "P2":
        return max(6, min(r // 2, 16)), max(8, min(r, 32))
    return max(6, min(r // 2, 24)), max(8, min(r, 48))


def _levels(resolution, dim=1):
    # geometric refinement depth: curves afford deep ladders, but on
    # surfaces the ladder length enters the tensor grid once per axis
    if dim == 1:
        return int(min(44, 10 + 3 * math.log2(max(resolution, 4))))
    return int(min(18, 8 + 2 * math.log2(max(resolution, 4))))


def quadrature_nodes(manifold, resolution, singular_refinement=None, seam=None,
                     angular_min=None, radial_min=None, angular_override=None,
                     radial_order=None):
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
    seam : sequence of float, optional
        Positive per-coordinate weights deforming the chart partition
        (default all ones); used to validate chart-decomposition invariance.
    angular_min, radial_min : int, optional
        Floors on the angular/radial node counts (used by Gram assembly to
        guarantee exactness for a given basis degree).
    angular_override : int, optional
        Force exactly this many uniform angular nodes per axis (only valid
        without angular refinement targets).  ``1`` gives the torus-reduced
        rule: a single midpoint angle carrying the full 2 pi weight, exact
        for rotation-invariant integrands.
    radial_order : int, optional
        On axes without radial refinement targets, use a single
        Gauss-Legendre panel of this order (exactness up to polynomial
        degree ``2 * radial_order - 1`` in the radial variable).
    """
    m = manifold
    k_rad, m_ang = _sizes(m.kind, resolution)
    if radial_min:
        k_rad = max(k_rad, int(radial_min))
    if angular_min:
        m_ang = max(m_ang, int(angular_min))
    lev = _levels(resolution, m.dim)
    seam_vec = m._seam(seam) if seam is not None else None
    centers = list(singular_refinement or ())

    blocks = []
    for chart in range(m.num_charts):
        rad_targets, ang_targets = _chart_targets(m, chart, centers, seam_vec)
        axes = []
        for a in range(m.dim):
            if m.kind == "P2":
                style = "disk"
                xmax = _p2_axis_radius(m, chart, a, seam_vec) ** 2
            else:
                style = "p1"
                xmax = _p1_axis_xmax(m, chart, a, seam_vec)
            if radial_order and not rad_targets[a]:
                x, wx = _gl_on(0.0, xmax, int(radial_order))
            else:
                base_panels = max(1, k_rad // 16)
                x, wx = _panel_nodes(0.0, xmax, rad_targets[a], base_panels,
                                     min(16, max(8, k_rad)), 10, lev)
                # top up to the requested radial count with uniform splits
                while len(x) < k_rad:
                    base_panels += 1
                    x, wx = _panel_nodes(0.0, xmax, rad_targets[a],
                                         base_panels,
                                         min(16, max(8, k_rad)), 10, lev)
            if angular_override:
                if ang_targets[a]:
                    raise ConfigurationError(
                        "angular_override conflicts with angular refinement")
                th, wth, uni = _angular_nodes(int(angular_override), [],
                                              lev, 10)
            else:
                th, wth, uni = _angular_nodes(m_ang, ang_targets[a], lev, 10)
            axes.append(Axis(style, x, wx, th, wth, uni))
        blocks.append(Block(m, chart, axes))
    return QuadratureRule(m, resolution, blocks, centers, seam_vec)


def _p1_axis_xmax(m, chart, axis, seam):
    if seam is None:
        return 0.5
    if m.kind == "P1":
        c = chart
        ratio = (seam[1 - c] / seam[c]) ** 2
    else:  # P1xP1
        cz, cw = divmod(chart, 2)
        if axis == 0:
            ratio = (seam[1 - cz] / seam[cz]) ** 2
        else:
            ratio = (seam[3 - cw] / seam[2 + cw]) ** 2
    # region |zeta| <= s_other/s_this ... x = r^2/(1+r^2)
    return 1.0 / (1.0 + 1.0 / ratio)


def _p2_axis_radius(m, chart, axis, seam):
    if seam is None:
        return 1.0
    others = [i for i in range(3) if i != chart]
    return seam[others[axis]] / seam[chart]


def _chart_targets(m, chart, centers, seam):
    """Radial/angular refinement targets per axis for one chart."""
    rad = [[] for _ in range(m.dim)]
    ang = [[] for _ in range(m.dim)]
    for c in centers:
        if isinstance(c, tuple) and len(c) == 2 and c[0] == "coord":
            idx = int(c[1])
            _coord_divisor_targets(m, chart, idx, rad)
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
            if m.kind == "P2":
                xmax = _p2_axis_radius(m, chart, a, seam) ** 2
                xval = r * r
            else:
                xmax = _p1_axis_xmax(m, chart, a, seam)
                xval = r * r / (1.0 + r * r)
            if xval <= xmax * (1.0 + 1e-9):
                rad[a].append(min(xval, xmax))
                if r > 1e-9:
                    ang[a].append(float(np.angle(za)))
    return rad, ang


def _coord_divisor_targets(m, chart, idx, rad):
    if m.kind == "P1":
        # divisor {z_idx = 0} is the origin of chart (1 - idx)
        if chart == 1 - idx:
            rad[0].append(0.0)
    elif m.kind == "P2":
        if chart != idx:
            others = [i for i in range(3) if i != chart]
            rad[others.index(idx)].append(0.0)
    else:
        cz, cw = divmod(chart, 2)
        if idx < 2:
            # {z_idx = 0} is the z-origin of the opposite z-chart
            if cz == 1 - idx:
                rad[0].append(0.0)
        else:
            if cw == 1 - (idx - 2):
                rad[1].append(0.0)


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
