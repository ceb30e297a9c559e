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
  basis, so it is kept as the real vector of its diagonal.  For log poles
  on monomials (or none, as for FS) its entries are Dirichlet moments with
  real exponents, taken in closed form with no rule; other atoms sum over
  the torus reduction of their rule (``QuadratureRule.torus_reduced``: one
  angle carrying the full 2 pi weight), exact in the angular directions;
* smooth weights and coordinate-axis poles (``modes``): the weight is
  ``e^{-2 p psi}``, whose angular moments an FFT over the uniform angular
  grids takes;
* poles along curves in general position (``nodes``, P1 only): on a grid
  refined toward the pole points, the weight is the node weight, assembled
  from per-radius and per-angle vectors and one ``log|Q|`` per pole
  polynomial ``Q``, which nets the forced factor ``|Q|^(2k)`` against the
  pole weight (no node mesh is built unless an atom other than a log pole
  needs one); a cos/sin matmul over the refined angles takes its moments.
  Log poles on one linear form ``a . Z`` are coordinate poles in ``w = U
  Z``, ``U`` unitary with ``w_0 = a . Z / |a|``: their Gram is ``T^T
  diag(g) conj(T)`` for the rotated closed form ``g`` and the change of
  basis ``T``, no rule.

The tensor methods ``modes`` and ``nodes`` share one assembly, radial basis
profiles contracted against the angular moments of their weight.

All of them run in log space wherever magnitudes can leave the comfortable
range of double precision; overflow is detected and raised, never clipped.

The orthonormal frame keeps the form of its Gram: a diagonal Gram gives the
real vector of scales ``G_aa^-1/2``, O(dim) however large the space, and the
other two give a dense complex matrix.  :meth:`SectionSpace.orthonormal` is
the one place that applies a frame, so no other module knows which form a
space holds.
"""

import functools
import math

import numpy as np

from ._kernels import eval_monomials, gram_contract
from .bundles import LogPoleAtom, Metric, _poly_norm_key
from .errors import (ConfigurationError, DegenerateSpaceError,
                     EmptySpaceError, IllConditionedError, NumericalError,
                     UnsupportedMetricError)
from .geometry import (TWO_PI, is_coord_marker, quadrature_nodes,
                       reference_monomial_log_norm)
from .polynomials import SectionPoly, degree_tuple, monomial_exponents

# Gram condition number beyond which the basis is rejected as numerically
# dependent; orthonormalization would amplify noise past ~sqrt(cond) * eps.
CONDITION_CAP = 1.0e12

# Largest per-factor section degree for which raw chart-frame monomial values
# provably stay inside double range on the chart regions.
_MAX_DEGREE = 400

# Version of the Gram and dictionary numerics, part of every cache key.  Bump
# it whenever a change moves the bits of a Gram matrix, or a change to the
# test-form dictionary's grid, stream or normalization moves a scale, so
# that cached orthonormalizations and dictionaries from older code miss.
# The dictionary's pruned ``eigvalsh`` moved no scale.  Version 2: separable ``nodes`` assembly.  Version
# 3: ``nodes`` angular moments taken per radial slab, whose matmuls round
# differently from the whole block's (up to 1.3e-15 relative).  Version 4:
# separable node weight, one log|Q| per pole (within 2e-15 of version 3 on
# the off-axis pole of O(2) at p = 4, 5, 7, 8).  Version 5:
# ``gram_contract`` chunks of at most 2^18 gathered entries, which move the
# Grams past that size (up to 5.3e-16 relative on the P1xP1 smoothed max
# at p = 10).  Version 6: closed-form diagonal Grams for monomial log poles
# (exact where the rule missed by up to 0.64 in a log norm).  Version 7:
# diagonal Grams orthonormalize entrywise, with the coefficient columns in
# monomial order (``eigh`` sorted them by eigenvalue).  Version 8: log poles
# on one linear form of P1 take the rotated closed form, no ``nodes`` rule
# (exact where the rule missed by up to 1.6e-8 in a log Bergman function).
NUMERICS_VERSION = 8

_MODE_TABLE_BYTES = 2.5e8
# Node budget of one radial slab of the tensor Gram paths (see ``gram``): a
# slab's node-sized arrays take 0.5 MB real, 1 MB complex.
_SLAB_NODES = 65_536
_LOG_FLOOR = -745.0


def section_degree(manifold, bundle_degree, p, adjoint=True):
    """Per-factor polynomial degree of ``H^0(L^p)`` or its adjoint twist."""
    d = degree_tuple(manifold, bundle_degree)
    if adjoint:
        return tuple(p * df + cf
                     for df, cf in zip(d, manifold.canonical_degree))
    return tuple(p * df for df in d)


def vanishing_order_required(p, lelong_coeff):
    """Minimal vanishing order along a pole of the given Lelong coefficient.

    A section with local order k is square integrable against
    ``e^{-2 p phi}`` iff ``k > p * nu - 1``; the threshold case is excluded.
    """
    return int(math.floor(p * lelong_coeff - 1.0 + 1e-9)) + 1


def _log_ratio(Q, rep):
    """``log|Q / rep|`` for two polynomials of one ``_poly_norm_key``."""
    j = int(np.argmax(np.abs(Q.coeffs)))
    (i,) = np.flatnonzero((rep.exponents == Q.exponents[j]).all(axis=1))
    return math.log(abs(Q.coeffs[j])) - math.log(abs(rep.coeffs[i]))


def _pole_on_grid(coeffs, exps, radius, phases):
    """A one-variable chart polynomial on the tensor grid ``r e^{i theta}``:
    the table ``c_k r^e_k`` (radius x term) times the table ``e^{i e_k
    theta}`` (term x angle)."""
    return (coeffs * np.power.outer(radius, exps)) @ phases


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
        self._resolution = resolution or 24  # of a rule-based Gram
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
                q_red[m.coord_factors[i]] -= int(shift[i])
        for Q, k in self.sigma_polys:
            for f in range(m.factors):
                q_red[f] -= k * Q.degree[f]
        if any(qf < 0 for qf in q_red):
            raise EmptySpaceError(
                "metric poles force vanishing beyond the available degree; "
                "the space of integrable sections is zero")
        self.q_reduced = tuple(q_red)

        red = monomial_exponents(m, self.q_reduced)
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

    @property
    def torus_invariant(self):
        """Whether the metric is torus-invariant and no basis element
        carries a polynomial factor: then the Gram is diagonal in the
        monomial basis and the reduced family norm depends on the radii
        ``|z_i|`` only."""
        return self.metric.torus_invariant and not self.sigma_polys

    def section_polynomial(self, coeffs):
        """The section with the given coefficients in the scaled basis."""
        c = np.asarray(coeffs, dtype=complex).reshape(-1)
        if c.size != self.dim:
            raise ConfigurationError("coefficient length mismatch")
        poly = SectionPoly(self.manifold, self.q_monomial, self.exponents,
                           c * self.scales)
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
        cols = self.manifold.chart_columns(chart)
        return eval_monomials(Z, self.exponents[:, cols], self.scales)

    def basis_values(self, chart, Z):
        """Scaled basis values at chart points."""
        B = self.monomial_values(chart, Z)
        if not self.sigma_polys:
            return B
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        S = np.ones(Z.shape[0], dtype=complex)
        for Q, k in self.sigma_polys:
            S *= Q.chart_poly(chart).eval(Z) ** k
        return B * S[:, None]

    def section_values(self, chart, Z):
        """Orthonormal section values in the chart frame."""
        return self.orthonormal(self.basis_values(chart, Z))

    def reduced_section_values(self, chart, Z, derivs=False):
        """Orthonormal sections divided by their forced common factors.

        Both coordinate-axis shifts and polynomial factors are dropped, so
        the returned family has no common zero divisor and sums of its
        squared moduli stay strictly positive away from isolated points.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        cols = self.manifold.chart_columns(chart)
        E = (self.exponents - self.coordinate_shift[None, :])[:, cols]
        B = eval_monomials(Z, E, self.scales)
        if not derivs:
            return self.orthonormal(B)
        dB = []
        for ax in range(len(cols)):
            Em = E.copy()
            Em[:, ax] = np.maximum(E[:, ax] - 1, 0)
            dB.append(eval_monomials(Z, Em,
                                     self.scales * E[:, ax].astype(float)))
        return self.orthonormal(B), [self.orthonormal(d) for d in dB]

    # -- Gram assembly ---------------------------------------------------------

    def _dispatch(self):
        if self._method is not None:
            return self._method
        if self.torus_invariant:
            return "diagonal"
        if self.sigma_polys or not all(
                map(is_coord_marker, self.metric.refinement_centers())):
            # poles along curves off the coordinate axes
            return "nodes"
        return "modes"

    def gram_plan(self):
        """The Gram method and the parameters of its quadrature rule.

        The parameters are the keyword arguments ``quadrature_nodes`` takes
        besides the resolution and the refinement centers, or ``None`` for
        a closed-form Gram, which needs no rule: a ``diagonal`` Gram of log
        poles, or a dispatched (not an explicit) ``nodes`` Gram of log poles
        on one linear form.  A rule-based ``diagonal`` Gram runs on the
        torus reduction of its rule.  No node is built, so the plan is cheap
        enough to key caches on.
        """
        method = self._dispatch()
        if method == "diagonal":
            if not self.torus_invariant:
                raise ConfigurationError(
                    "diagonal Gram assembly needs a rotation-invariant "
                    "metric with coordinate-axis poles only")
            if all(a.kind == "log_pole" for _, a in self.metric.atoms):
                return method, None
            return method, {"radial_min": self._axis_plan()[0]}
        if method == "modes":
            rad_min, ang_min = self._axis_plan()
            return method, {"radial_min": rad_min, "angular_min": ang_min}
        if method == "nodes":
            if self.manifold.dim != 1:
                raise UnsupportedMetricError(
                    "Gram assembly for poles along curves in general "
                    "position is only supported on P1")
            atoms = [a for _, a in self.metric.atoms]
            if (self._method is None and all(
                    a.kind == "log_pole" and a.dtot == 1 for a in atoms)
                    and len({_poly_norm_key(a.Q) for a in atoms}) == 1):
                return method, None  # see _gram_rotated
            q = self.q[0]
            return method, {
                "radial_min": max(q // 2 + 12, self._resolution),
                "angular_min": int(8.5 * q) + 32}
        raise ConfigurationError(f"unknown gram method {method!r}")

    def gram_fingerprint(self):
        """JSON-ready identity of the Gram numerics, built without nodes."""
        method, plan = self.gram_plan()
        res = None if plan is None else self._resolution
        return {"numerics": NUMERICS_VERSION, "method": method,
                "resolution": res, "rule": plan}

    def gram(self):
        """The Gram of the scaled basis, assembled once and kept.

        The ``diagonal`` method gives the real vector ``G_aa`` of the
        diagonal, ``modes`` and ``nodes`` the dense complex matrix.  A plan
        without rule gives the closed form: the Dirichlet moments, or for
        ``nodes`` their rotated image ``T^T diag(g) conj(T)``
        (``_gram_rotated``).  Otherwise builds ``self.rule`` and sums the
        per-block Grams of the dispatched method.  The tensor methods
        (``modes`` and ``nodes``) share one assembly, :meth:`_tensor_gram`,
        and differ only in the weight whose angular moments they take and in
        the transform that takes them (:meth:`_modes_rows`,
        :meth:`_nodes_rows`).  They walk each block in radial slabs of at
        most ``_SLAB_NODES`` nodes and never build a block's whole mesh, so
        their node-sized work arrays stay near 1 MB each however finely the
        rule is refined; only arrays of one row per radius span a whole
        block.
        """
        if self._gram is None:
            method, plan = self.gram_plan()
            if plan is None:
                self._gram = (self._gram_closed_form() if method == "diagonal"
                              else self._gram_rotated())
            else:
                self.rule = quadrature_nodes(
                    self.manifold, self._resolution,
                    singular_refinement=self.metric.refinement_centers(),
                    **plan)
                if method == "diagonal":
                    self._gram = self._gram_diagonal(self.rule.torus_reduced())
                else:
                    slab_rows = (self._modes_rows if method == "modes"
                                 else self._nodes_rows)
                    G = np.zeros((self.dim, self.dim), dtype=complex)
                    for block in self.rule.blocks:
                        E = self.exponents[
                            :, self.manifold.chart_columns(block.chart)]
                        q = E.max(axis=0)
                        G += self._tensor_gram(E, q, map(
                            slab_rows(block, q), block.split(_SLAB_NODES)))
                    self._gram = G
            self.gram_method = method
        return self._gram

    def _axis_plan(self):
        """(radial_min, angular_min) for Gram quadrature."""
        qmax = max(self.q)
        ang = 2 * qmax + 8
        if max(self.manifold.factor_dims) > 1:  # disk radial variables
            return max(int(0.55 * qmax) + 14, self._resolution // 2 + 8), ang
        return max(qmax // 2 + 10, self._resolution), ang

    def _gram_closed_form(self):
        """The diagonal Gram of monomial log poles as Dirichlet moments.

        Against ``e^{-2 p psi}`` an atom ``c log_pole(a Z^e, t)`` shifts the
        exponents by ``-s``, ``s = p c (t / dtot) e``, the degree of factor
        ``f`` by ``-S_f``, the sum of ``s`` over its coordinates, and the
        log norm by ``-2 p c (t / dtot) log|a|``: so ``log G_aa = L(q - S,
        alpha - s) + 2 log scale_a`` plus those constants, for the reference
        moment ``L``, exact at any Lelong remainder and 0 bit for bit on FS.
        """
        m = self.manifold
        s = np.zeros(m.hom_len)
        const = 0.0
        for c, atom in self.metric.atoms:
            w = self.p * c * (atom.t / atom.dtot)
            s += w * atom.Q.exponents[0]
            const -= 2.0 * w * math.log(abs(atom.Q.coeffs[0]))
        q = [qf - s[sl].sum() for qf, sl in zip(self.q, m.factor_slices)]
        log_g = [reference_monomial_log_norm(m, q, e - s, self.adjoint)
                 for e in self.exponents]
        return np.exp(np.add(log_g, const) + 2.0 * self.log_scales)

    def _gram_rotated(self):
        """``T^T diag(g) conj(T)`` for log poles on one ``Q = q . Z`` of P1.

        In ``w = U Z``, row ``b`` of ``T`` expands ``s_a z^a Q^k = s_a |q|^k
        w_0^k (U^H w)^a`` over the basis ``s'_b w_0^k w_1^b`` of the rotated
        space by the action ``D = exp(-i H)`` of ``U^H`` on binary forms of
        degree ``n``: unitary on ``sqrt(C(n, b)) w_0^(n-b) w_1^b``, where its
        Hermitian generator ``H`` is tridiagonal and one ``eigh`` takes it."""
        Q, k = (self.sigma_polys or [(self.metric.atoms[0][1].Q, 0)])[0]
        q = Q.exponents.T @ Q.coeffs  # the coefficients of z_0 and z_1
        toric = SectionSpace(Metric(self.metric.bundle, [
            (c, LogPoleAtom(SectionPoly(self.manifold, 1, [[1, 0]], [
                np.linalg.norm(a.Q.coeffs)]), a.t))
            for c, a in self.metric.atoms]), self.p, self.adjoint)
        # U = [[u0, u1], [-conj u1, conj u0]] is exp(t N / sin t) for N =
        # U - cos t, as N^2 = -sin^2 t; u1 != 0, as Q is no monomial
        u = q / np.linalg.norm(q)
        sin = math.hypot(u[0].imag, abs(u[1]))
        ts = math.atan2(sin, u[0].real) / sin  # t / sin t
        n, b = self.dim - 1, np.arange(self.dim)
        off = -1j * ts * u[1] * np.sqrt(b[1:] * (n - b[:-1]))
        lam, V = np.linalg.eigh(np.diag(ts * u[0].imag * (n - 2.0 * b))
                                + np.diag(off, -1) + np.diag(off.conj(), 1))
        # D_cb sqrt(C(n, c) / C(n, b)) is the monomial expansion, |D| <= 1
        D = (V * np.exp(-1j * lam)) @ V.conj().T
        h = 0.5 * np.cumsum(np.log(np.r_[1.0, b[1:] / (n + 1.0 - b[1:])]))
        arg = (np.add.outer(-h - toric.log_scales, h + self.log_scales)
               + k * math.log(np.linalg.norm(q)))
        g = toric._gram_closed_form()
        if 2.0 * arg.max() + math.log(g.max()) > 690.0:
            raise NumericalError("Gram integrand overflows double precision")
        T = D * np.exp(arg)
        return T.T @ (g[:, None] * T.conj())

    def _gram_diagonal(self, rule):
        """The diagonal Gram as node sums on a torus-reduced ``rule``."""
        diag = np.zeros(self.dim)
        for block in rule.blocks:
            cols = self.manifold.chart_columns(block.chart)
            E = self.exponents[:, cols].astype(float)
            LR = np.log(np.abs(block.points))
            phi = self.metric.weight(block.chart, block.points)
            arg = 2.0 * (LR @ E.T + self.log_scales[None, :]
                         - self.p * phi[:, None])
            if arg.max() > 690.0:
                raise NumericalError(
                    "Gram integrand overflows double precision")
            diag += (block.weights_lebesgue if self.adjoint
                     else block.weights_volume) @ np.exp(arg)
        return diag

    def _tensor_gram(self, E, q, slabs):
        """One block's Gram from radial profiles and angular moments.

        On the tensor grid ``z = r e^{i theta}`` a product of basis elements
        is ``s_a s_b r^(e_a + e_b) e^{i (e_a - e_b) . theta}`` times the
        weight, so the node sum contracts the profiles ``exp(log s_a + e_a .
        log r + o(r))`` in pairs against the weight's moment at the mode
        ``e_a - e_b`` (``gram_contract``); ``o`` is half the log of what of
        the weight and measure depends on the radii alone.  ``q`` holds the per-axis maxima
        of the chart exponents ``E``; a row of moments holds the modes
        ``-q..q`` of every axis in C order.  ``slabs`` gives per radial
        slab its log radii (row x axis), the terms of ``o`` (per-row arrays,
        added in order) and its rows of moments.
        """
        didx = np.zeros((self.dim, self.dim), dtype=np.int64)
        for e, qa in zip(E.T, q):
            didx = didx * (2 * qa + 1) + (e[:, None] - e[None, :] + qa)
        Et = E.T.astype(float)
        args, moments = [], []
        for LR, offsets, what in slabs:
            arg = LR @ Et + self.log_scales
            for off in offsets:
                arg += off[:, None]
            args.append(arg)
            moments.append(what)
        arg = np.concatenate(args)
        # gram_contract multiplies two profiles, so products must fit
        if 2.0 * arg.max() > 690.0:
            raise NumericalError("Gram integrand overflows double precision")
        return gram_contract(np.exp(arg), np.concatenate(moments), didx)

    def _modes_rows(self, block, q):
        """The slab -> rows function of a ``modes`` :meth:`_tensor_gram`.

        The weight is ``e^{-2 p psi}`` on the slab mesh; its moments are
        ``sum_k wtheta W(theta_k) e^{i d theta_k}``, one FFT over the
        uniform angular axes gathered at ``-d`` with the midpoint phase
        shift.  The offsets are the halves ``-p phi_ref`` and ``log(w) / 2``
        of the reference weight and of the radial measure ``w``, into which
        every scalar measure constant is folded, so the angular weights
        enter raw.
        """
        m = self.manifold
        n = len(block.axes)
        idx, phases = [], []
        for qa, ax in zip(q, block.axes):
            if not ax.theta_uniform:
                raise ConfigurationError(
                    "Fourier-mode Gram assembly needs uniform angular grids")
            M = len(ax.theta)
            if M < 2 * qa + 2:
                raise ConfigurationError("angular grid under-resolves modes")
            d = np.arange(-qa, qa + 1)
            idx.append((-d) % M)
            phases.append(np.exp(1j * math.pi * d / M) * ax.wtheta[0])
        phase = functools.reduce(np.multiply.outer, phases).ravel()
        if math.prod(len(ax.x) for ax in block.axes) * phase.size * 16 \
                > _MODE_TABLE_BYTES:
            raise ConfigurationError(
                "Fourier mode table too large; lower the resolution or "
                "the section degree")
        # unit volume per factor: dx / (2 pi) on a line, (1/(2 pi^2))
        # (1+u1+u2)^-3 du on a plane
        const = 1.0 if self.adjoint else math.prod(
            1.0 / TWO_PI if d == 1 else 1.0 / (2.0 * math.pi ** 2)
            for d in m.factor_dims)

        def rows(slab):
            expo = -2.0 * self.p * self.metric.psi(slab.chart, slab.points)
            if expo.max() > 690.0:
                raise NumericalError("pole weight overflows double precision")
            F = np.fft.fftn(np.exp(expo).reshape(slab.shape),
                            axes=tuple(range(1, 2 * n, 2)))
            for a, ix in enumerate(idx):
                F = np.take(F, ix, axis=2 * a + 1)
            what = F.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))
            # the radial mesh in C order
            LR = np.stack(np.meshgrid(*[np.log(ax.radius) for ax in slab.axes],
                                      indexing="ij"), axis=-1).reshape(-1, n)
            w_rad = const * functools.reduce(np.multiply.outer, [
                ax.leb_factor if self.adjoint else ax.wx
                for ax in slab.axes]).ravel()
            for sl, d in zip(m.axis_slices, m.factor_dims):
                if d > 1 and not self.adjoint:
                    u = np.exp(2.0 * LR[:, sl])
                    w_rad = w_rad / (1.0 + u[:, 0] + u[:, 1]) ** 3
            phi_ref = self.metric.bundle.reference_weight(
                slab.chart, np.exp(LR).astype(complex))
            with np.errstate(divide="ignore"):
                lw = np.log(w_rad)
            return (LR, (-self.p * phi_ref, 0.5 * lw),
                    what.reshape(len(LR), phase.size) * phase)
        return rows

    def _node_weight_terms(self):
        """The real node weight of the ``nodes`` Gram, in separable parts.

        Returns ``(ref, const, poles, others)`` such that, at ``z = r e^{i
        theta}``,

            ell = log w(r) + log w(theta) + ref log(1 + r^2) + const
                  + sum_Q kappa_Q log|Q(z)| - 2 p sum_others c psi(z).

        ``poles`` lists each distinct pole polynomial once (matched by
        ``bundles._poly_norm_key``) as ``[Q, kappa_Q, forced]``, where
        ``kappa_Q = 2 k_Q - 2 p sum c t / deg Q`` nets the forced factor
        ``|Q|^(2 k_Q)`` against the log-pole atoms on ``Q``, and ``forced``
        says that the basis vanishes on ``{Q = 0}``.  A scaled copy of a
        listed polynomial adds its log scale to ``const``.  The atoms that
        are not log poles come back as ``others``, pairs ``(c, atom)``.
        """
        p = self.p
        ref = -p * float(self.metric.bundle.degree[0])
        const = 0.0
        poles = {}
        others = []

        def add(Q, kappa, forced):
            nonlocal const
            entry = poles.setdefault(_poly_norm_key(Q), [Q, 0.0, False])
            entry[1] += kappa
            entry[2] |= forced
            const += kappa * _log_ratio(Q, entry[0])

        for c, atom in self.metric.atoms:
            if atom.kind != "log_pole":
                others.append((c, atom))
                continue
            s = c * atom.t / atom.dtot
            ref += p * s * atom.Q.degree[0]
            add(atom.Q, -2.0 * p * s, False)
        for Q, k in self.sigma_polys:
            add(Q, 2.0 * k, True)
        return ref, const, list(poles.values()), others

    def _nodes_rows(self, block, q):
        """The slab -> rows function of a ``nodes`` :meth:`_tensor_gram`.

        The weight is the real node weight ``ell = -2 p phi + sum_j 2 k_j
        log|Q_j| + log w`` on a P1 block.  Its offset is ``c(r) / 2`` for the
        row maximum ``c(r)`` of ``ell``, and its moments are those of
        ``exp(ell - c)`` by a cos/sin matmul, so refined non-uniform angles
        are fine.

        ``ell`` is assembled from the parts of ``_node_weight_terms``, each
        pole polynomial on the grid being a per-radius table times a
        per-angle one.  So the two powers of ``|Q|`` share one logarithm,
        ``kappa_Q = 0`` takes none, and only atoms other than log poles are
        evaluated at the nodes and build a mesh, one slab's at a time.
        Slabs hold whole angular rows, so each ``c(r)`` is the row maximum
        over the whole block.
        """
        (ax,) = block.axes
        phase = np.multiply.outer(ax.theta, np.arange(-q[0], q[0] + 1))
        cos, sin = np.cos(phase), np.sin(phase)
        ref, const, poles, others = self._node_weight_terms()
        tables = []
        for Q, kappa, forced in poles:
            cp = Q.chart_poly(block.chart)
            e = cp.exponents[:, 0]
            tables.append((cp.coeffs, e, np.exp(1j * np.multiply.outer(
                e, ax.theta)), kappa, forced))
        with np.errstate(divide="ignore"):
            b = np.log(ax.wtheta if self.adjoint else ax.wtheta / TWO_PI)

        def rows(slab):
            sax = slab.axes[0]
            r = sax.radius
            with np.errstate(divide="ignore", invalid="ignore"):
                a = (np.log(sax.leb_factor if self.adjoint else sax.wx)
                     + ref * np.log1p(r * r) + const)
                ell = np.add.outer(a, b)
                for coeffs, e, phases, kappa, forced in tables:
                    vals = _pole_on_grid(coeffs, e, r, phases)
                    if kappa:
                        ell += kappa * np.log(np.abs(vals))
                    if forced:
                        # the forced factor vanishes with the basis, so
                        # the node contributes nothing
                        ell[vals == 0.0] = -np.inf
                for coeff, atom in others:
                    ell -= 2.0 * self.p * coeff * atom.psi(
                        self.manifold, slab.chart, slab.points).reshape(
                            slab.shape)
            # nan is inf - inf, at a node where a vanishing forced factor
            # or measure weight meets a pole: it contributes nothing
            ell[np.isnan(ell)] = -np.inf
            c = ell.max(axis=1)
            if c.max() == np.inf:
                raise NumericalError("Gram weight is infinite at a node")
            c[c == -np.inf] = 0.0
            dens = np.exp(ell - c[:, None])
            return (np.log(r)[:, None], (0.5 * c,),
                    dens @ cos + 1j * (dens @ sin))
        return rows

    # -- orthonormalization ------------------------------------------------------

    def coeff_matrix(self):
        """The orthonormal frame in the scaled basis, in its Gram's form.

        A diagonal Gram gives the real vector ``G_aa^-1/2``: orthonormal
        section ``a`` is basis element ``a`` times its entry, in monomial
        order.  Any other Gram is orthonormalized by ``eigh`` into a matrix
        whose columns are orthonormal sections, in ascending eigenvalue
        order.  Apply it with :meth:`orthonormal`.
        """
        if self._coeff is None:
            G = self.gram()
            diagonal = self.gram_method == "diagonal"
            if diagonal:
                lam = G
            else:
                lam, U = np.linalg.eigh(0.5 * (G + G.conj().T))
            if lam.min() <= 0.0:
                raise DegenerateSpaceError(
                    "Gram matrix is numerically singular")
            cond = lam.max() / lam.min()
            # the cap protects quadrature-assembled Grams, whose entries
            # carry node-level error that eigh amplifies by the condition
            # number; a diagonal Gram, closed form or not, rescales
            # entrywise, so a wide dynamic range is harmless there
            if cond > CONDITION_CAP and not diagonal:
                raise IllConditionedError(
                    f"Gram condition number {cond:.3e} exceeds "
                    f"{CONDITION_CAP:.0e}")
            self.gram_condition = float(cond)
            self._coeff = (lam ** -0.5 if diagonal
                           else np.conj(U) * lam ** -0.5)
        return self._coeff

    def orthonormal(self, values):
        """Values of the scaled basis (last axis) in the orthonormal frame.

        The one application of :meth:`coeff_matrix`: a scale per column for
        a diagonal Gram, a matrix product otherwise.
        """
        c = self.coeff_matrix()
        return values * c if self.gram_method == "diagonal" else values @ c

    def load_orthonormal(self, coeff, condition, method):
        """Install a precomputed frame of the form :meth:`coeff_matrix`
        gives for ``method`` (skips the Gram solve)."""
        diagonal = method == "diagonal"
        coeff = np.asarray(coeff, dtype=float if diagonal else complex)
        shape = (self.dim,) if diagonal else (self.dim, self.dim)
        if coeff.shape != shape:
            raise ConfigurationError(
                f"{method} frame must have shape {shape}, got {coeff.shape}")
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
        P = self.manifold.normalize(points)
        out = np.empty(P.shape[0])
        for chart, mask, Z in self.manifold.chart_split(P):
            out[mask] = self.log_bergman(chart, Z)
        return out


def build_section_space(metric, p, adjoint=True, resolution=None,
                        method=None):
    """Construct the section space and its orthonormal basis.

    ``method`` overrides Gram dispatch for cross-validation: "diagonal",
    "modes", or "nodes".  A :class:`SectionSpace` constructed directly
    holds the filtered basis alone and orthonormalizes on first use.
    """
    space = SectionSpace(metric, p, adjoint=adjoint, resolution=resolution,
                         method=method)
    space.coeff_matrix()
    return space


def space_dimension(metric, p, adjoint=True):
    """dim H^0 of integrable sections; 0 when the filter empties it."""
    try:
        return SectionSpace(metric, p, adjoint=adjoint).dim
    except EmptySpaceError:
        return 0


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
        if is_coord_marker(c):
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
