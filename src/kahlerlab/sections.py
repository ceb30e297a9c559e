"""L2 spaces of holomorphic sections and Bergman kernel functions.

Sections of ``L^p`` (or of the adjoint twist ``L^p (x) K_X``) are polynomials
in the homogeneous coordinates; the inner product is the L2 product for a
hermitian metric ``h^p = e^{-2 p phi}`` on ``L^p`` against the volume form of
the reference metric (adjoint sections integrate against the Lebesgue density
of their chart frames, so no auxiliary volume form enters).

When ``phi`` has poles, only sections vanishing to sufficient order along the
pole divisors are square integrable; the basis is filtered accordingly and the
forced vanishing orders are recorded as ``base_divisors``.

Three Gram assembly strategies share one orthonormalization path:

* rotation-invariant weights: the Gram matrix is diagonal in the monomial
  basis, and a torus-reduced rule (one angular node carrying the full 2 pi
  weight) integrates the diagonal exactly in the angular directions;
* smooth weights and coordinate-axis poles: the angular dependence enters
  through finitely many Fourier modes of ``e^{-2 p psi}``, so an FFT over the
  uniform angular grids contracts radial basis profiles against those modes;
* poles along curves in general position (P1 only): node-wise assembly in log
  space on a mesh refined toward the pole points.

All three run in log space wherever magnitudes can leave the comfortable
range of double precision; overflow is detected and raised, never clipped.
"""

import math

import numpy as np

from ._kernels import eval_monomials, gram_contract
from .errors import (ConfigurationError, DegenerateSpaceError,
                     EmptySpaceError, IllConditionedError, NumericalError,
                     UnsupportedMetricError)
from .geometry import quadrature_nodes
from .polynomials import (SectionPoly, _chart_columns, coordinate_section,
                          degree_tuple, monomial_exponents)

TWO_PI = 2.0 * math.pi

# Gram condition number beyond which the basis is rejected as numerically
# dependent; orthonormalization would amplify noise past ~sqrt(cond) * eps.
CONDITION_CAP = 1.0e12

# Largest per-factor section degree for which raw chart-frame monomial values
# provably stay inside double range on the (seam-deformed) chart regions.
_MAX_DEGREE = 400

_MODE_TABLE_BYTES = 2.5e8
_LOG_FLOOR = -745.0


def section_degree(manifold, bundle_degree, p, adjoint=True):
    """Per-factor polynomial degree of ``H^0(L^p)`` or its adjoint twist."""
    d = degree_tuple(manifold, bundle_degree)
    if adjoint:
        return tuple(p * df + cf
                     for df, cf in zip(d, manifold.canonical_degree))
    return tuple(p * df for df in d)


def reference_monomial_log_norm(manifold, q, exps, adjoint):
    """log of the squared L2 norm of a monomial in the reference metric.

    ``q`` is the per-factor degree tuple and ``exps`` the homogeneous
    exponent row.  Closed forms: each factor contributes a Beta moment, the
    adjoint frame carries one factor 2 pi per complex dimension.
    """

    def lg(n):
        return math.lgamma(n + 1.0)

    kind = manifold.kind
    if kind == "P1":
        a = int(exps[1])
        base = lg(a) + lg(q[0] - a) - lg(q[0] + 1)
        return base + (math.log(TWO_PI) if adjoint else 0.0)
    if kind == "P2":
        a, b = int(exps[1]), int(exps[2])
        base = lg(a) + lg(b) + lg(q[0] - a - b) - lg(q[0] + 2)
        return base + (2.0 * math.log(TWO_PI) if adjoint else math.log(2.0))
    a, b = int(exps[1]), int(exps[3])
    base = (lg(a) + lg(q[0] - a) - lg(q[0] + 1)
            + lg(b) + lg(q[1] - b) - lg(q[1] + 1))
    return base + (2.0 * math.log(TWO_PI) if adjoint else 0.0)


def vanishing_order_required(p, lelong_coeff):
    """Minimal vanishing order along a pole of the given Lelong coefficient.

    A section with local order k is square integrable against
    ``e^{-2 p phi}`` iff ``k > p * nu - 1``; the threshold case is excluded.
    """
    return int(math.floor(p * lelong_coeff - 1.0 + 1e-9)) + 1


def _coord_factor(manifold, coord):
    if manifold.kind == "P1xP1":
        return 0 if coord < 2 else 1
    return 0


class SectionSpace:
    """An orthonormal-izable polynomial model of ``H^0(X, L^p (x) K_X)``.

    Basis elements are ``scale * z^alpha * prod_j Q_j^{k_j}`` where the
    ``Q_j`` are pole sections in general position whose vanishing the metric
    forces (coordinate-axis poles are folded into the exponents ``alpha``).
    Scales normalize each element to unit reference norm, which keeps Gram
    matrices O(1) across degrees.
    """

    def __init__(self, metric, p, adjoint=True, resolution=None, method=None):
        p = int(p)
        if p < 1:
            raise ConfigurationError("power p must be a positive integer")
        self.metric = metric
        self.p = p
        self.adjoint = bool(adjoint)
        self.manifold = metric.manifold
        self.q = section_degree(self.manifold, metric.bundle.degree, p,
                                adjoint)
        if any(qf < 0 for qf in self.q):
            raise EmptySpaceError(
                f"degree {self.q} has no nonzero sections")
        if max(self.q) > _MAX_DEGREE:
            raise ConfigurationError(
                f"section degree {max(self.q)} exceeds supported maximum "
                f"{_MAX_DEGREE}")
        self._resolution = resolution
        self._method = method
        self._build_basis()
        self._gram = None
        self._coeff = None
        self.rule = None

    # -- basis ---------------------------------------------------------------

    def _build_basis(self):
        m = self.manifold
        shift = np.zeros(m.hom_len, dtype=np.int64)
        self.base_divisors = []
        self.sigma_polys = []
        for comp, nu in self.metric.singular_components():
            k = vanishing_order_required(self.p, nu)
            if k <= 0:
                continue
            self.base_divisors.append((comp, k))
            if comp[0] == "coord":
                shift[comp[1]] += k
            else:
                self.sigma_polys.append((comp[2], k))

        q_red = list(self.q)
        for i in range(m.hom_len):
            if shift[i]:
                q_red[_coord_factor(m, i)] -= int(shift[i])
        for Q, k in self.sigma_polys:
            for f in range(m.factors):
                q_red[f] -= k * Q.degree[f]
        if any(qf < 0 for qf in q_red):
            raise EmptySpaceError(
                "metric poles force vanishing beyond the available degree; "
                "the space of integrable sections is zero")
        self.q_reduced = tuple(q_red)

        red = monomial_exponents(m, self.q_reduced if m.factors > 1
                                 else self.q_reduced[0])
        self.coordinate_shift = shift
        self.exponents = red + shift[None, :]
        # degree of the monomial part alone (coordinate poles folded in)
        self.q_monomial = tuple(
            qf - sum(k * Q.degree[f] for Q, k in self.sigma_polys)
            for f, qf in enumerate(self.q))
        mono_q = self.q_monomial
        self.log_scales = np.array([
            -0.5 * reference_monomial_log_norm(m, mono_q, e, self.adjoint)
            for e in self.exponents])
        self.scales = np.exp(self.log_scales)

    @property
    def dim(self):
        return self.exponents.shape[0]

    def base_polynomials(self):
        """Forced common factors as ``(SectionPoly, order)`` pairs."""
        out = []
        for comp, k in self.base_divisors:
            if comp[0] == "coord":
                out.append((coordinate_section(self.manifold, comp[1]), k))
            else:
                out.append((comp[2], k))
        return out

    def section_polynomial(self, coeffs):
        """The section with the given coefficients in the scaled basis."""
        c = np.asarray(coeffs, dtype=complex).reshape(-1)
        if c.size != self.dim:
            raise ConfigurationError("coefficient length mismatch")
        poly = SectionPoly(self.manifold,
                           self.q_monomial if self.manifold.factors > 1
                           else self.q_monomial[0],
                           self.exponents, c * self.scales)
        for Q, k in self.sigma_polys:
            for _ in range(k):
                poly = poly.multiply(Q)
        return poly

    # -- chart evaluation ------------------------------------------------------

    def monomial_values(self, chart, Z):
        """Scaled basis values at chart points without the forced factors.

        Entry ``j`` is ``scale_j * z^alpha_j``; multiplied by ``prod_j
        Q_j(z)^{k_j}`` it gives ``basis_values``.  Callers that want
        logarithms add ``sum_j k_j log|Q_j|`` instead, which stays finite
        where that product underflows.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        cols = _chart_columns(self.manifold, chart)
        return eval_monomials(Z, self.exponents[:, cols], self.scales)

    def basis_values(self, chart, Z, derivs=False):
        """Scaled basis values (and chart derivatives) at chart points."""
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        cols = _chart_columns(self.manifold, chart)
        E = self.exponents[:, cols]
        B = self.monomial_values(chart, Z)
        if self.sigma_polys:
            S = np.ones(Z.shape[0], dtype=complex)
            for Q, k in self.sigma_polys:
                S *= Q.chart_poly(chart).eval(Z) ** k
        else:
            S = None
        if not derivs:
            return B if S is None else B * S[:, None]

        dB = []
        for ax in range(len(cols)):
            Em = E.copy()
            Em[:, ax] = np.maximum(E[:, ax] - 1, 0)
            dB.append(eval_monomials(Z, Em,
                                     self.scales * E[:, ax].astype(float)))
        if S is None:
            return B, dB
        dS = []
        for ax in range(len(cols)):
            acc = np.zeros(Z.shape[0], dtype=complex)
            for Q, k in self.sigma_polys:
                cp = Q.chart_poly(chart)
                vals = cp.eval(Z)
                dvals = cp.deriv(ax).eval(Z)
                with np.errstate(divide="ignore", invalid="ignore"):
                    acc += k * np.where(vals != 0, dvals / vals, 0.0)
            dS.append(acc)
        full = B * S[:, None]
        dfull = [dB[ax] * S[:, None] + full * dS[ax][:, None]
                 for ax in range(len(cols))]
        return full, dfull

    def section_values(self, chart, Z, derivs=False):
        """Orthonormal section values (and derivatives) in the chart frame."""
        C = self.coeff_matrix()
        if not derivs:
            return self.basis_values(chart, Z) @ C
        B, dB = self.basis_values(chart, Z, derivs=True)
        return B @ C, [d @ C for d in dB]

    def reduced_section_values(self, chart, Z, derivs=False):
        """Orthonormal sections divided by their forced common factors.

        Both coordinate-axis shifts and polynomial factors are dropped, so
        the returned family has no common zero divisor and sums of its
        squared moduli stay strictly positive away from isolated points.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        cols = _chart_columns(self.manifold, chart)
        E = (self.exponents - self.coordinate_shift[None, :])[:, cols]
        C = self.coeff_matrix()
        B = eval_monomials(Z, E, self.scales)
        if not derivs:
            return B @ C
        dB = []
        for ax in range(len(cols)):
            Em = E.copy()
            Em[:, ax] = np.maximum(E[:, ax] - 1, 0)
            dB.append(eval_monomials(Z, Em,
                                     self.scales * E[:, ax].astype(float)))
        return B @ C, [d @ C for d in dB]

    # -- Gram assembly ---------------------------------------------------------

    def _has_point_centers(self):
        return any(not (isinstance(c, tuple) and len(c) == 2
                        and c[0] == "coord")
                   for c in self.metric.refinement_centers())

    def _dispatch(self):
        if self._method is not None:
            return self._method
        if self.sigma_polys or self._has_point_centers():
            # poles along curves off the coordinate axes
            return "nodes"
        if self.metric.torus_invariant:
            return "diagonal"
        return "modes"

    def gram(self):
        if self._gram is None:
            method = self._dispatch()
            if method == "diagonal" and not (self.metric.torus_invariant
                                             and not self.sigma_polys):
                raise ConfigurationError(
                    "diagonal Gram assembly needs a rotation-invariant "
                    "metric with coordinate-axis poles only")
            if method == "diagonal":
                self._gram = self._gram_diagonal()
            elif method == "modes":
                self._gram = self._gram_modes()
            elif method == "nodes":
                self._gram = self._gram_nodes()
            else:
                raise ConfigurationError(f"unknown gram method {method!r}")
            self.gram_method = method
        return self._gram

    def _axis_plan(self):
        """(radial_min, radial_order, angular_min) for Gram quadrature."""
        qmax = max(self.q)
        res = self._resolution or 24
        ang = 2 * qmax + 8
        if self.manifold.kind == "P2":
            return max(int(0.55 * qmax) + 14, res // 2 + 8), None, ang
        if not self.metric.atoms:
            # pure reference metric: the radial integrand is a polynomial of
            # degree q, one Gauss panel of this order integrates it exactly
            return qmax // 2 + 10, qmax // 2 + 4, ang
        return max(qmax // 2 + 10, res), None, ang

    def _measure_weights(self, block):
        """Full per-node weights of the Gram measure on one block."""
        return block.weights_lebesgue if self.adjoint else block.weights_volume

    def _radial_split(self, block):
        """Radial mesh data: log radii, reference weight, radial measure.

        Returns (logr (R, n), phi_ref (R,), w_rad (R,)) over the radial
        mesh in C order, with all scalar measure constants folded into
        ``w_rad`` so angular weights can be used raw.
        """
        axs = block.axes
        logr = [np.log(ax.radius) for ax in axs]
        if self.adjoint:
            wr = [ax.leb_factor for ax in axs]
            const = 1.0
        elif self.manifold.kind == "P2":
            wr = [ax.wx for ax in axs]
            const = 1.0 / (2.0 * math.pi ** 2)
        else:
            wr = [ax.wx for ax in axs]
            const = (1.0 / TWO_PI) ** len(axs)
        grids = np.meshgrid(*logr, indexing="ij")
        LR = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*wr, indexing="ij")
        w_rad = const * np.prod([g.ravel() for g in wgrids], axis=0)
        if self.manifold.kind == "P2" and not self.adjoint:
            u = np.exp(2.0 * LR)
            w_rad = w_rad / (1.0 + u[:, 0] + u[:, 1]) ** 3
        P = np.exp(LR).astype(complex)
        phi_ref = self.metric.bundle.reference_weight(block.chart, P)
        return LR, phi_ref, w_rad

    def _gram_diagonal(self):
        rad_min, rad_order, _ = self._axis_plan()
        rule = quadrature_nodes(
            self.manifold, self._resolution or 24,
            singular_refinement=self.metric.refinement_centers(),
            radial_min=rad_min, radial_order=rad_order, angular_override=1)
        self.rule = rule
        diag = np.zeros(self.dim)
        for block in rule.blocks:
            cols = _chart_columns(self.manifold, block.chart)
            E = self.exponents[:, cols].astype(float)
            LR = np.log(np.abs(block.points))
            phi = self.metric.weight(block.chart, block.points)
            arg = 2.0 * (LR @ E.T + self.log_scales[None, :]
                         - self.p * phi[:, None])
            if arg.max() > 690.0:
                raise NumericalError(
                    "Gram integrand overflows double precision")
            diag += self._measure_weights(block) @ np.exp(arg)
        return np.diag(diag).astype(complex)

    def _gram_modes(self):
        m = self.manifold
        rad_min, rad_order, ang_min = self._axis_plan()
        rule = quadrature_nodes(
            m, self._resolution or 24,
            singular_refinement=self.metric.refinement_centers(),
            radial_min=rad_min, radial_order=rad_order, angular_min=ang_min)
        self.rule = rule
        G = np.zeros((self.dim, self.dim), dtype=complex)
        for block in rule.blocks:
            G += self._gram_modes_block(block)
        return G

    def _gram_modes_block(self, block):
        m = self.manifold
        for ax in block.axes:
            if not ax.theta_uniform:
                raise ConfigurationError(
                    "Fourier-mode Gram assembly needs uniform angular grids")
        cols = _chart_columns(m, block.chart)
        E = self.exponents[:, cols]
        shape = block.shape
        naxes = len(block.axes)

        psi = self.metric.psi(block.chart, block.points)
        expo = -2.0 * self.p * psi
        if expo.max() > 690.0:
            raise NumericalError("pole weight overflows double precision")
        W = np.exp(expo).reshape(shape)

        # angular transform: Theta[delta] = sum_k wtheta W(theta_k) e^{i
        # delta theta_k}, computed by FFT with the midpoint phase shift
        qax = [int(E[:, a].max()) if self.dim else 0 for a in range(naxes)]
        idx, ph, nm = [], [], []
        for a, ax in enumerate(block.axes):
            M = len(ax.theta)
            if M < 2 * qax[a] + 2:
                raise ConfigurationError("angular grid under-resolves modes")
            d = np.arange(-qax[a], qax[a] + 1)
            idx.append((-d) % M)
            ph.append(np.exp(1j * math.pi * d / M) * ax.wtheta[0])
            nm.append(d.size)

        LR, phi_ref, w_rad = self._radial_split(block)
        R = LR.shape[0]
        if R * int(np.prod(nm)) * 16 > _MODE_TABLE_BYTES:
            raise ConfigurationError(
                "Fourier mode table too large; lower the resolution or "
                "the section degree")

        if naxes == 1:
            F = np.fft.fft(W, axis=1)
            what = F[:, idx[0]] * ph[0][None, :]
            didx = (E[:, 0][:, None] - E[:, 0][None, :]) + qax[0]
        else:
            F = np.fft.fftn(W, axes=(1, 3))
            gath = F[:, idx[0]][:, :, :, idx[1]]
            gath = gath.transpose(0, 2, 1, 3)
            what = gath.reshape(R, nm[0] * nm[1])
            what = what * np.outer(ph[0], ph[1]).ravel()[None, :]
            d1 = (E[:, 0][:, None] - E[:, 0][None, :]) + qax[0]
            d2 = (E[:, 1][:, None] - E[:, 1][None, :]) + qax[1]
            didx = d1 * nm[1] + d2

        with np.errstate(divide="ignore"):
            lw = np.log(w_rad)
        arg = (LR @ E.T.astype(float) + self.log_scales[None, :]
               - self.p * phi_ref[:, None] + 0.5 * lw[:, None])
        if arg.max() > 690.0:
            raise NumericalError("Gram integrand overflows double precision")
        rad = np.exp(arg)
        return gram_contract(rad, np.ascontiguousarray(what),
                             didx.astype(np.int64))

    def _gram_nodes(self):
        m = self.manifold
        if m.kind != "P1":
            raise UnsupportedMetricError(
                "Gram assembly for poles along curves in general position "
                "is only supported on P1")
        q = self.q[0]
        rule = quadrature_nodes(
            m, self._resolution or 24,
            singular_refinement=self.metric.refinement_centers(),
            radial_min=max(q // 2 + 12, self._resolution or 24),
            angular_min=int(8.5 * q) + 32)
        self.rule = rule
        G = np.zeros((self.dim, self.dim), dtype=complex)
        chunk = max(1, int(2e6) // max(self.dim, 1))
        for block in rule.blocks:
            w_all = self._measure_weights(block)
            pts = block.points
            for lo in range(0, pts.shape[0], chunk):
                sl = slice(lo, lo + chunk)
                B = self.basis_values(block.chart, pts[sl])
                phi = self.metric.weight(block.chart, pts[sl])
                absB = np.abs(B)
                with np.errstate(divide="ignore"):
                    L = np.log(absB) - self.p * phi[:, None]
                if L.max() > 300.0:
                    raise NumericalError(
                        "Gram integrand overflows double precision")
                Efield = np.zeros_like(B)
                nz = absB > 0.0
                Efield[nz] = np.exp(L[nz]) * (B[nz] / absB[nz])
                G += (Efield * w_all[sl, None]).T @ np.conj(Efield)
        return G

    # -- orthonormalization ------------------------------------------------------

    def coeff_matrix(self):
        """Columns are orthonormal sections in the scaled basis."""
        if self._coeff is None:
            G = self.gram()
            G = 0.5 * (G + G.conj().T)
            lam, U = np.linalg.eigh(G)
            if lam[0] <= 0.0:
                raise DegenerateSpaceError(
                    "Gram matrix is numerically singular")
            cond = lam[-1] / lam[0]
            # the cap protects quadrature-assembled Grams, whose entries
            # carry node-level error that eigh amplifies by the condition
            # number; the diagonal path is analytic and rescales entrywise,
            # so a wide dynamic range is harmless there
            if cond > CONDITION_CAP and self.gram_method != "diagonal":
                raise IllConditionedError(
                    f"Gram condition number {cond:.3e} exceeds "
                    f"{CONDITION_CAP:.0e}")
            self.gram_condition = float(cond)
            self._coeff = np.conj(U) * lam ** -0.5
        return self._coeff

    def load_orthonormal(self, coeff, condition, method):
        """Install a precomputed orthonormalization (skips the Gram solve)."""
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.shape != (self.dim, self.dim):
            raise ConfigurationError(
                f"coefficient matrix must be {(self.dim, self.dim)}, "
                f"got {coeff.shape}")
        self._coeff = coeff
        self.gram_condition = float(condition)
        self.gram_method = str(method)

    # -- Bergman kernel ----------------------------------------------------------

    def log_bergman(self, chart, Z):
        """log of the Bergman function at chart points (metric scalar)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        V = self.section_values(chart, Z)
        sq = np.einsum("ij,ij->i", np.abs(V), np.abs(V))
        out = np.full(Z.shape[0], _LOG_FLOOR)
        nz = sq > 0.0
        out[nz] = np.log(sq[nz])
        phi = self.metric.weight(chart, Z)
        out -= 2.0 * self.p * phi
        if self.adjoint:
            out += np.log(self.manifold.canonical_factor(chart, Z))
        return out

    def log_bergman_hom(self, points):
        """log Bergman function at homogeneous points (any scaling)."""
        P = self.manifold.normalize(np.atleast_2d(
            np.asarray(points, dtype=complex)))
        charts = self.manifold.chart_of(P)
        out = np.empty(P.shape[0])
        for chart in range(self.manifold.num_charts):
            mask = charts == chart
            if not np.any(mask):
                continue
            Z = self.manifold.to_chart(P[mask], chart)
            out[mask] = self.log_bergman(chart, Z)
        return out

    def bergman_hom(self, points):
        return np.exp(self.log_bergman_hom(points))


def build_section_space(metric, p, adjoint=True, resolution=None,
                        method=None, orthonormalize=True):
    """Construct the section space and (by default) its orthonormal basis.

    ``method`` overrides Gram dispatch for cross-validation: "diagonal",
    "modes", or "nodes".  With ``orthonormalize=False`` only the filtered
    basis is built, which is enough to read off dimensions.
    """
    space = SectionSpace(metric, p, adjoint=adjoint, resolution=resolution,
                         method=method)
    if orthonormalize:
        space.coeff_matrix()
    return space


def space_dimension(metric, p, adjoint=True):
    """dim H^0 of integrable sections; 0 when the filter empties it."""
    try:
        return SectionSpace(metric, p, adjoint=adjoint).dim
    except EmptySpaceError:
        return 0


def dimension_profile(metric, p_values, adjoint=True):
    """Dimension versus power, with the p^n-normalized ratio."""
    n = metric.manifold.dim
    rows = []
    for p in p_values:
        d = space_dimension(metric, int(p), adjoint=adjoint)
        rows.append({"p": int(p), "dim": d, "ratio": d / float(p) ** n})
    return rows


def log_bergman_sup(space, grid_count=400, exclude=(), exclude_radius=0.0):
    """sup of |log P_p| / p over a deterministic sample grid.

    ``exclude`` lists homogeneous points or ``("coord", i)`` markers whose
    chordal ``exclude_radius``-neighborhoods are dropped (the Bergman
    function vanishes identically on forced base divisors, so sups are only
    meaningful away from them).
    """
    pts = space.manifold.sample_grid(grid_count)
    keep = np.ones(pts.shape[0], dtype=bool)
    for c in exclude:
        if isinstance(c, tuple) and len(c) == 2 and c[0] == "coord":
            norms = np.linalg.norm(pts, axis=1)
            keep &= np.abs(pts[:, c[1]]) / norms > exclude_radius
        else:
            ref = np.asarray(c, dtype=complex).reshape(1, -1)
            keep &= space.manifold.chordal_distance(
                pts, np.repeat(ref, pts.shape[0], axis=0)) > exclude_radius
    if not np.any(keep):
        raise ConfigurationError("exclusions removed every grid point")
    vals = space.log_bergman_hom(pts[keep])
    return float(np.max(np.abs(vals)) / space.p)
