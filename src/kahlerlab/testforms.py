"""Smooth test forms with exact complex Hessians.

Scalar test functions are built from the U(1)-invariant family

    chi = Re(c * A(z) * conj(B(z))) / prod_f |z_f|^{2 s_f}

where A, B are homogeneous sections of matching degrees ``s_f`` per factor.
This family is closed under the chart calculus: chi and its complex Hessian
evaluate from exact chart-polynomial derivatives, so pairings built on them
never use numerical differentiation.  It contains the squared-modulus ratios
(A = B) and the harmonic cross terms (A != B) and separates points well.

On surfaces a test form of bidegree (1,1) is ``chi`` times a fixed closed
combination of the reference forms (``omega``, or a factor form on the
product); its dd^c is then ``dd^c chi ^ (that form)``, again exact.

In polar chart coordinates ``z_k = r_k e^{i theta_k}`` chi is separable:
each term pair ``(alpha, beta)`` of the chart polynomials ``a``, ``b``
contributes

    r^(alpha + beta) Re(c a_alpha conj(b_beta) e^{i (alpha - beta) . theta})

times ``E(r) = prod_f (1 + sum_{axes of f} r_k^2)^(-s_f)``, which depends on
the radii alone.  A quadrature block is a tensor grid of radii and angles
per axis, so :meth:`TestForm.block_values` takes chi there as one radial
array times one angular array per term pair, with no complex mesh.  On the
coordinate line ``{z_i = 0}`` of a surface chi is again a form of this
family, of P1 (:meth:`TestForm.restriction`).  chi's mean against
``omega^n`` is a sum of Dirichlet moments (:meth:`TestForm.mean`).

Every dictionary entry is normalized by a deterministic grid estimate of
``sup|chi| + sup rho(Hess chi) / pi`` so that entries share a common scale.
"""

import itertools
import math

import numpy as np

from .errors import ConfigurationError
from .geometry import projective_line, reference_monomial_log_norm
from .polynomials import SectionPoly, monomial_exponents

# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


class TestForm:
    """chi = Re(c A conj(B)) / prod D^s, optionally times a closed 2-form.

    ``omega_part`` is None for scalar test functions and a coefficient
    vector over the reference basis forms for (1,1) test forms on surfaces.
    """

    __test__ = False  # keep pytest collection away from the class name

    def __init__(self, manifold, c, A, B, omega_part=None, label="", scale=1.0):
        self.manifold = manifold
        self.c = complex(c)
        self.A = A
        self.B = B
        if A is not None:
            if A.degree != B.degree:
                raise ConfigurationError("A and B must share their degree")
            self.s = tuple(A.degree)
        else:
            self.s = (0,) * manifold.factors
        self.omega_part = (None if omega_part is None
                           else np.asarray(omega_part, dtype=float))
        self.label = label
        self.scale = float(scale)
        self._charts = {}
        self._lines = {}

    @property
    def constant(self):
        """Whether chi is a constant (the form has no sections A, B)."""
        return self.A is None

    # -- chart data ----------------------------------------------------------

    def _chart(self, chart):
        if chart not in self._charts:
            if self.A is None:
                self._charts[chart] = None
            else:
                a = self.A.chart_poly(chart)
                b = self.B.chart_poly(chart)
                n = self.manifold.dim
                self._charts[chart] = (
                    a, b,
                    [a.deriv(j) for j in range(n)],
                    [b.deriv(j) for j in range(n)],
                )
        return self._charts[chart]

    def chi(self, chart, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        if self.A is None:
            return np.full(Z.shape[0], np.real(self.c) * self.scale)
        a, b, _, _ = self._chart(chart)
        D = 1.0 + self.manifold.factor_squares(Z)
        E = np.prod(D ** (-np.asarray(self.s, dtype=float)), axis=1)
        S = np.real(self.c * a.eval(Z) * np.conj(b.eval(Z)))
        return self.scale * S * E

    def block_values(self, block):
        """chi at the nodes of a quadrature block, in its node order, taken
        from the block's axes (see the module docstring).

        ``E(r)`` and ``r^(alpha + beta)`` come from each axis's radii and
        the phases from its angles; each term pair then takes one node-sized
        multiply(-add) of its radial array by its angular one.  The values
        equal ``chi(block.chart, block.points)`` up to rounding; on the
        blocks of a torus-reduced rule they are chi's torus average, where
        a term pair whose exponents differ drops.  A constant form gives
        its one value broadcast to the nodes.
        """
        if self.A is None:
            return np.broadcast_to(np.real(self.c) * self.scale,
                                   (block.num_nodes,))
        a, b, _, _ = self._chart(block.chart)
        axes = block.axes
        radii = [ax.radius for ax in axes]
        dims = len(block.shape)

        def along(v, d):
            # a vector along dimension d of the block's (x0, th0, x1, th1)
            return v.reshape((1,) * d + (-1,) + (1,) * (dims - 1 - d))

        E = self.scale
        for f, sl in enumerate(self.manifold.axis_slices):
            if self.s[f]:
                D = 1.0
                for k in range(sl.start, sl.stop):
                    D = D + along(radii[k] ** 2, 2 * k)
                E = E * D ** -float(self.s[f])
        out = None
        for ea, ca in zip(a.exponents, a.coeffs):
            for eb, cb in zip(b.exponents, b.coeffs):
                if block.torus_reduced and not np.array_equal(ea, eb):
                    continue
                R, P = E, self.c * ca * np.conj(cb)
                for k, ax in enumerate(axes):
                    if ea[k] + eb[k]:
                        R = R * along(radii[k] ** (ea[k] + eb[k]), 2 * k)
                    if ea[k] != eb[k]:
                        P = P * along(np.exp(1j * float(ea[k] - eb[k])
                                             * ax.theta), 2 * k + 1)
                if out is None:
                    out = np.multiply(R, np.real(P), out=np.empty(block.shape))
                else:
                    out += R * np.real(P)
        if out is None:  # every term vanished or averaged out
            return np.zeros(block.num_nodes)
        return out.ravel()

    def mean(self):
        """The exact ``int chi omega^n``, with no quadrature rule: the
        term pairs of A and B with equal exponent rows ``alpha`` times the
        Dirichlet moment of ``|z^alpha|^2 / prod_f |Z_f|^(2 s_f)``
        (:func:`geometry.reference_monomial_log_norm`); the torus averages
        the others out.  A restriction's mean is taken on its line."""
        if self.A is None:
            return float(np.real(self.c)) * self.scale
        total = 0.0
        for ea, ca in zip(self.A.exponents, self.A.coeffs):
            for eb, cb in zip(self.B.exponents, self.B.coeffs):
                if np.array_equal(ea, eb):
                    moment = math.exp(reference_monomial_log_norm(
                        self.manifold, self.s, ea, adjoint=False))
                    total += float(np.real(self.c * ca * np.conj(cb))) * moment
        return self.scale * total

    def restriction(self, coord):
        """chi on the coordinate line ``{z_coord = 0}`` of a surface, as a
        test function of P1 whose homogeneous coordinates are the line's
        ``slots`` (:meth:`Manifold.coordinate_line`).

        A term of A or B with a positive exponent at ``z_coord`` vanishes on
        the line and drops; the others keep their exponents at the slots,
        and a coordinate fixed to 1 on the line contributes 1, to the
        sections and to the ``|z_f|^{2 s_f}`` of its factor.  The line form
        is made once per coordinate and kept, so the memo entries of a line
        block are shared by every pairing of this form.
        """
        line = self._lines.get(coord)
        if line is None:
            slots, f = self.manifold.coordinate_line(coord)
            p1 = projective_line()

            def on_line(S):
                keep = S.exponents[:, coord] == 0
                return SectionPoly(p1, S.degree[f],
                                   S.exponents[keep][:, list(slots)],
                                   S.coeffs[keep])

            A, B = ((None, None) if self.A is None
                    else (on_line(self.A), on_line(self.B)))
            line = TestForm(p1, self.c, A, B, None,
                            f"{self.label}|z{coord}=0", self.scale)
            self._lines[coord] = line
        return line

    def hessian(self, chart, Z):
        """Complex Hessian of chi, shape (N, dim, dim)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        n = self.manifold.dim
        N = Z.shape[0]
        if self.A is None:
            return np.zeros((N, n, n), dtype=complex)
        a, b, da, db = self._chart(chart)
        fac = self.manifold.axis_factors
        D = 1.0 + self.manifold.factor_squares(Z)
        svec = np.asarray(self.s, dtype=float)
        E = np.prod(D ** (-svec), axis=1)

        Av = a.eval(Z)
        Bv = b.eval(Z)
        Aj = [da[j].eval(Z) for j in range(n)]
        Bj = [db[j].eval(Z) for j in range(n)]

        # e_j = d_j log E = -s_f conj(z_j) / D_f
        e = [-svec[fac[j]] * np.conj(Z[:, j]) / D[:, fac[j]] for j in range(n)]

        c = self.c
        S = 0.5 * (c * Av * np.conj(Bv) + np.conj(c * Av * np.conj(Bv)))
        Sj = [0.5 * (c * Aj[j] * np.conj(Bv)
                     + np.conj(c) * np.conj(Av) * Bj[j]) for j in range(n)]

        H = np.empty((N, n, n), dtype=complex)
        for j in range(n):
            for k in range(n):
                Sjk = 0.5 * (c * Aj[j] * np.conj(Bj[k])
                             + np.conj(c) * np.conj(Aj[k]) * Bj[j])
                Sk_bar = np.conj(Sj[k])
                if fac[j] == fac[k]:
                    f = fac[j]
                    de = -svec[f] * ((1.0 if j == k else 0.0) / D[:, f]
                                     - np.conj(Z[:, j]) * Z[:, k] / D[:, f] ** 2)
                else:
                    de = 0.0
                H[:, j, k] = (Sjk * E + Sj[j] * E * np.conj(e[k])
                              + Sk_bar * E * e[j]
                              + S * E * (e[j] * np.conj(e[k]) + de))
        H *= self.scale
        return H

    # -- metadata --------------------------------------------------------------

    def with_scale(self, scale):
        return TestForm(self.manifold, self.c, self.A, self.B,
                        self.omega_part, self.label, scale)

    def __repr__(self):
        return f"TestForm({self.label})"


def constant_form(manifold, omega_part=None, label="one"):
    return TestForm(manifold, 1.0, None, None, omega_part, label)


# ---------------------------------------------------------------------------
# dictionaries
# ---------------------------------------------------------------------------


def _monomial_section(manifold, degree, expo):
    e = np.asarray(expo, dtype=np.int64)[None, :]
    return SectionPoly(manifold, degree, e, np.ones(1))


def _scalar_specs(manifold):
    """Deterministic stream of (c, A, B, label) scalar generators."""
    yield None  # the constant function
    s_total = 1
    while True:
        degrees = [d for d in itertools.product(range(s_total + 1),
                                                repeat=manifold.factors)
                   if sum(d) == s_total]
        for deg in degrees:
            exps = monomial_exponents(manifold, deg)
            for ia in range(len(exps)):
                for ib in range(ia, len(exps)):
                    A = _monomial_section(manifold, deg, exps[ia])
                    B = _monomial_section(manifold, deg, exps[ib])
                    la = "".join(str(int(x)) for x in exps[ia])
                    lb = "".join(str(int(x)) for x in exps[ib])
                    yield (1.0, A, B, f"re[{la}|{lb}]s{s_total}")
                    if ia != ib:
                        yield (1j, A, B, f"im[{la}|{lb}]s{s_total}")
        s_total += 1


def _normalize(form, grid_charts):
    sup_chi = 0.0
    sup_h = 0.0
    for chart, Z in grid_charts:
        chi = form.chi(chart, Z)
        sup_chi = max(sup_chi, float(np.max(np.abs(chi))))
        H = form.hessian(chart, Z)
        ev = np.linalg.eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, 1, 2))))
        sup_h = max(sup_h, float(np.max(np.abs(ev))))
    norm = sup_chi + sup_h / np.pi
    if norm < 1e-12:
        return None
    return form.with_scale(form.scale / norm)


def _norm_grid(manifold):
    return [(c, Z) for c, _, Z in manifold.chart_split(
        manifold.sample_grid(600))]


def test_form_dictionary(manifold, m, count=12):
    """Normalized test forms for pairing currents of codimension ``m``.

    ``m = 1``: test objects for (1,1)-currents (functions on P1, chi times a
    closed reference form on surfaces).  ``m = 2`` (surfaces): test functions
    for measures.  The first entry always has unit mass pairing (the constant
    function / the Kähler form) and is exactly unnormalized.
    """
    if m not in (1, 2):
        raise ConfigurationError("codimension m must be 1 or 2")
    if m == 2 and manifold.dim != 2:
        raise ConfigurationError("m = 2 needs a surface")
    scalar = m == 2 or manifold.dim == 1

    if scalar:
        omega_parts = [None]
    else:
        # the Kähler form, then each factor form on products
        omega_parts = [manifold.omega_coeffs()]
        if manifold.factors > 1:
            omega_parts += list(np.eye(manifold.factors))

    grid = _norm_grid(manifold)
    out = []
    spec_it = _scalar_specs(manifold)
    while len(out) < count:
        spec = next(spec_it)
        for op in omega_parts:
            if len(out) >= count:
                break
            if spec is None:
                label = "one" if op is None else f"one*w{_oplabel(op)}"
                out.append(constant_form(manifold, op, label))
                continue
            c, A, B, lab = spec
            if op is not None:
                lab = f"{lab}*w{_oplabel(op)}"
            form = TestForm(manifold, c, A, B, op, lab)
            form = _normalize(form, grid)
            if form is not None:
                out.append(form)
    return out


def _oplabel(op):
    return "".join(f"{x:g}" for x in np.round(op, 3))


test_form_dictionary.__test__ = False  # not a pytest item despite the name
