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

The family is also closed under the Fubini-Study Laplacian of each
projective factor ``f = P^{n_f}``:

    Lap_f chi = sum_{i in f} chi[c, d_i A, d_i B] - s_f (s_f + n_f) chi

with ``d_i`` the homogeneous partials and ``chi[c, d_i A, d_i B]`` the
member of degree ``s - e_f`` with the same ``c`` and scale
(:meth:`TestForm.laplacian_forms`).  A form's ``dd^c`` against a potential
is a combination of these Laplacians (``bundles._ddc_weights``), so on a
quadrature block it comes from the same values on the block's axes as chi
(:meth:`TestForm.block_laplacian`), with no complex Hessian.

At chart points, forms are evaluated as one stack: :func:`form_chis` gives
every form's chi and :func:`form_hessians` every form's complex Hessian.
The A, B and partials of all forms share one exponent table per chart,
which takes one ``eval_monomials`` call, and one product with their
coefficient matrix gives every polynomial's values.  ``TestForm.chi`` and
``TestForm.hessian`` are one-form calls of these; the Hessians serve the
dictionary's normalization and the tests.  The arithmetic runs on
forms-major ``(F, N)`` rows, one contiguous row of points per form, in
the operation order of a single form, so each form gets the bits of its
own evaluation whatever other forms share the stack
(``tests/test_testforms.py``).  Rows, not ``(N, F)`` columns, because a
form's row then passes through the same numpy loops as a lone form's
points: numpy's vectorized complex product rounds differently from its
scalar one (see ``_kernels``), so a layout that sends values through
other loops may move last bits.  The factors ``E = prod_f (1 +
|zeta_f|^2)^(-s_f)`` and their derivatives depend on the degrees ``s``
alone and are taken once per distinct ``s``.

Every dictionary entry is normalized by a deterministic grid estimate of
``sup|chi| + sup rho(Hess chi) / pi`` so that entries share a common scale.
The dictionary normalizes its candidates together: one stacked ``chi`` and
Hessian per chart of the 600-point grid.  A closed-form spectral radius of
every Hermitian part picks each form's sup candidates, the points within
1e-8 (relative) of its largest, and one ``eigvalsh`` over those alone gives
the sup with the bits of an ``eigvalsh`` at every point.  The scales
depend on the manifold, ``m`` and the count alone, so
:func:`kahlerlab.cache.cached_dictionary` stores them and
:func:`replay_dictionary` takes the forms back from the candidate stream
with no grid; a change to the grid, the stream or the normalization that
moves a scale bumps ``sections.NUMERICS_VERSION``, which keys that entry.
"""

import itertools
import math

import numpy as np

from ._kernels import eval_monomials
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
        self._laplacians = {}

    @property
    def constant(self):
        """Whether chi is a constant (the form has no sections A, B)."""
        return self.A is None

    # -- chart data ----------------------------------------------------------

    def _chart(self, chart):
        """The chart polynomials ``(a, b, d_0 a, ..., d_0 b, ...)`` of A
        and B and their partials, None for a constant form."""
        if chart not in self._charts:
            if self.A is None:
                self._charts[chart] = None
            else:
                a = self.A.chart_poly(chart)
                b = self.B.chart_poly(chart)
                n = self.manifold.dim
                self._charts[chart] = (
                    (a, b) + tuple(a.deriv(j) for j in range(n))
                    + tuple(b.deriv(j) for j in range(n)))
        return self._charts[chart]

    def chi(self, chart, Z):
        """chi at chart points, shape (N,): :func:`form_chis` of this form."""
        return form_chis([self], chart, Z)[0]

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
        a, b = self._chart(block.chart)[:2]
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

    def laplacian_forms(self, factor):
        """The family members ``chi[c, d_i A, d_i B]`` of degree ``s -
        e_factor``, one per homogeneous coordinate ``i`` of the factor with
        ``d_i A`` and ``d_i B`` both nonzero, at this form's ``c`` and
        scale; with ``-s_f (s_f + n_f) chi`` they sum to the factor's
        Laplacian (see the module docstring).  Made once per factor and
        kept, as the restrictions are; none for a form of degree 0 there.
        """
        forms = self._laplacians.get(factor)
        if forms is None:
            forms = []
            if self.s[factor]:
                sl = self.manifold.factor_slices[factor]
                for i in range(sl.start, sl.stop):
                    dA, dB = self.A.partial(i), self.B.partial(i)
                    if not (dA.is_zero or dB.is_zero):
                        forms.append(TestForm(self.manifold, self.c, dA, dB,
                                              None, f"{self.label}/d{i}",
                                              self.scale))
            self._laplacians[factor] = forms
        return forms

    def block_laplacian(self, block, coeffs):
        """``sum_f coeffs[f] Lap_f chi`` at the nodes of a quadrature block,
        ``Lap_f`` the Fubini-Study Laplacian of factor ``f``, from the
        :meth:`block_values` of chi and of its :meth:`laplacian_forms`.
        A factor of coefficient 0 or of degree 0 adds nothing; zeros when
        none is left, as for a constant form.
        """
        live = [(f, float(k)) for f, k in enumerate(coeffs)
                if k != 0.0 and self.s[f]]
        if not live:
            return np.zeros(block.num_nodes)
        dims = self.manifold.factor_dims
        shift = sum(k * self.s[f] * (self.s[f] + dims[f]) for f, k in live)
        out = -shift * self.block_values(block)
        for f, k in live:
            for g in self.laplacian_forms(f):
                out += k * g.block_values(block)
        return out

    def hessian(self, chart, Z):
        """Complex Hessian of chi, shape (N, dim, dim): :func:`form_hessians`
        of this form."""
        return form_hessians([self], chart, Z)[0]

    # -- metadata --------------------------------------------------------------

    def with_scale(self, scale):
        return TestForm(self.manifold, self.c, self.A, self.B,
                        self.omega_part, self.label, scale)

    def __repr__(self):
        return f"TestForm({self.label})"


def constant_form(manifold, omega_part=None, label="one"):
    return TestForm(manifold, 1.0, None, None, omega_part, label)


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------


def form_chis(forms, chart, Z):
    """chi of each form, all of one manifold, at chart points ``Z`` (N,
    dim): shape (F, N), one row per form, each with the bits of the form's
    own evaluation (see the module docstring)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    out = np.empty((len(forms), Z.shape[0]))
    live = []
    for i, f in enumerate(forms):
        if f.constant:
            out[i] = np.real(f.c) * f.scale
        else:
            live.append(i)
    if live:
        fs = [forms[i] for i in live]
        A, B = _section_rows(fs, chart, Z, partials=False)
        c = np.array([f.c for f in fs])[:, None]
        S = np.real(c * A * np.conj(B))
        scale = np.array([f.scale for f in fs])[:, None]
        out[live] = scale * S * _weight_rows(fs, Z, partials=False)
    return out


def form_hessians(forms, chart, Z):
    """Complex Hessian of each form's chi, all of one manifold, at chart
    points ``Z`` (N, dim): shape (F, N, dim, dim), zeros for a constant
    form."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    N, n = Z.shape
    live = [i for i, f in enumerate(forms) if not f.constant]
    if len(live) < len(forms) or not forms:
        out = np.zeros((len(forms), N, n, n), dtype=complex)
        if live:
            out[live] = form_hessians([forms[i] for i in live], chart, Z)
        return out
    fac = forms[0].manifold.axis_factors
    V = _section_rows(forms, chart, Z, partials=True)
    Av, Bv, Aj, Bj = V[0], V[1], V[2:2 + n], V[2 + n:]
    E, e, de = _weight_rows(forms, Z, partials=True)

    c = np.array([f.c for f in forms])[:, None]
    S = 0.5 * (c * Av * np.conj(Bv) + np.conj(c * Av * np.conj(Bv)))
    Sj = [0.5 * (c * Aj[j] * np.conj(Bv)
                 + np.conj(c) * np.conj(Av) * Bj[j]) for j in range(n)]

    H = np.empty((len(forms), N, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            Sjk = 0.5 * (c * Aj[j] * np.conj(Bj[k])
                         + np.conj(c) * np.conj(Aj[k]) * Bj[j])
            Sk_bar = np.conj(Sj[k])
            H[:, :, j, k] = (Sjk * E + Sj[j] * E * np.conj(e[k])
                             + Sk_bar * E * e[j]
                             + S * E * (e[j] * np.conj(e[k]) + de(j, k)))
    H *= np.array([f.scale for f in forms])[:, None, None, None]
    return H


def _section_rows(forms, chart, Z, partials):
    """The chart polynomials of non-constant forms at chart points, role
    by role: a complex (roles, F, N) array whose role 0 holds each form's
    A and role 1 its B; with ``partials`` the next ``dim`` roles hold the
    partials ``d_j A`` and the last ``dim`` the ``d_j B``.

    Every distinct exponent row of these polynomials enters one table,
    which one ``eval_monomials`` call evaluates, and one product with the
    (polynomials, table) coefficient matrix gives every polynomial's
    values.  A one-term polynomial's row holds its one coefficient and
    zeros, so it takes the one product ``ChartPoly.eval`` takes.
    """
    per_form = [f._chart(chart) for f in forms]
    roles = len(per_form[0]) if partials else 2
    polys = [polys_f[r] for r in range(roles) for polys_f in per_form]
    where, table, entries = {}, [], []
    for r, p in enumerate(polys):
        for e, coeff in zip(p.exponents, p.coeffs):
            col = where.setdefault(e.tobytes(), len(table))
            if col == len(table):
                table.append(e)
            entries.append((r, col, coeff))
    if not table:
        return np.zeros((roles, len(forms), Z.shape[0]), dtype=complex)
    rows, cols, coeffs = zip(*entries)
    C = np.zeros((len(polys), len(table)), dtype=complex)
    np.add.at(C, (list(rows), list(cols)), coeffs)
    mono = eval_monomials(Z, np.array(table), np.ones(len(table)))
    return (C @ mono.T).reshape(roles, len(forms), Z.shape[0])


def _weight_rows(forms, Z, partials):
    """``E = prod_f D_f^(-s_f)`` of each form on (F, N) rows, ``D_f = 1 +
    |zeta_f|^2``; with ``partials`` also its log-derivatives ``e_j = d_j
    log E`` (a list over j) and the function ``de(j, k)`` of the
    second-order terms.

    They depend on the form's degrees ``s`` alone, so each distinct ``s``
    takes them once, in one form's arithmetic, and each form takes its
    ``s``'s rows: a (1, N) view when the forms share one ``s``, a gathered
    copy otherwise.
    """
    manifold = forms[0].manifold
    fac = manifold.axis_factors
    D = 1.0 + manifold.factor_squares(Z)
    index = {}
    pick = [index.setdefault(f.s, len(index)) for f in forms]
    svecs = [np.asarray(s, dtype=float) for s in index]

    def rows(per_s):
        return per_s[0][None] if len(per_s) == 1 else np.stack(per_s)[pick]

    E = rows([np.prod(D ** (-svec), axis=1) for svec in svecs])
    if not partials:
        return E
    # e_j = d_j log E = -s_f conj(z_j) / D_f
    e = [rows([-svec[fac[j]] * np.conj(Z[:, j]) / D[:, fac[j]]
               for svec in svecs]) for j in range(manifold.dim)]

    def de(j, k):
        if fac[j] != fac[k]:
            return 0.0
        f = fac[j]
        q = ((1.0 if j == k else 0.0) / D[:, f]
             - np.conj(Z[:, j]) * Z[:, k] / D[:, f] ** 2)
        return rows([-svec[f] * q for svec in svecs])

    return E, e, de


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


def _candidates(manifold, omega_parts):
    """The dictionary's stream of unnormalized forms: each scalar
    generator times each omega part, the constant function first."""
    for spec in _scalar_specs(manifold):
        for op in omega_parts:
            if spec is None:
                label = "one" if op is None else f"one*w{_oplabel(op)}"
                yield constant_form(manifold, op, label)
                continue
            c, A, B, lab = spec
            if op is not None:
                lab = f"{lab}*w{_oplabel(op)}"
            yield TestForm(manifold, c, A, B, op, lab)


def _normalized(forms, grid_charts):
    """The forms with unit grid norm ``sup|chi| + sup rho(Hess chi) / pi``,
    in order; a constant form is kept as it is and a form of norm below
    1e-12 is dropped.  Every form's chi and Hessian on a grid chart come
    from one stacked call each, once per generator: its forms differ only
    in their omega part, which the norm does not see."""
    keys = [(f.c, f.scale, id(f.A), id(f.B)) for f in forms]
    live = {k: f for k, f in zip(keys, forms) if not f.constant}
    sup_chi = np.zeros(len(live))
    sup_h = np.zeros(len(live))
    if live:
        stack = list(live.values())
        for chart, Z in grid_charts:
            chi = form_chis(stack, chart, Z)
            sup_chi = np.maximum(sup_chi, np.max(np.abs(chi), axis=1))
            sup_h = np.maximum(sup_h, _sup_spectral_radii(
                form_hessians(stack, chart, Z)))
    norms = dict(zip(live, sup_chi + sup_h / np.pi))
    out = []
    for f, k in zip(forms, keys):
        if f.constant:
            out.append(f)
            continue
        norm = float(norms[k])
        if not norm < 1e-12:
            out.append(f.with_scale(f.scale / norm))
    return out


# points whose closed-form spectral radius lies this close (relative) to a
# form's largest are sup candidates; both that estimate and eigvalsh are
# within a few ulps of the exact radius, so the sup is always among them
_SUP_SLACK = 1e-8


def _sup_spectral_radii(H):
    """Each form's largest spectral radius of the Hermitian parts of its
    Hessians ``H`` (F, N, n, n), with the bits of an ``eigvalsh`` over all
    of them.

    The spectral radius of a Hermitian part ``[[a, b], [conj b, d]]`` is
    ``|a + d| / 2 + sqrt(((a - d) / 2)^2 + |b|^2)`` (``|a|`` for 1x1).
    That closed form picks each form's points within ``_SUP_SLACK`` of its
    largest value, and one ``eigvalsh`` runs on those alone.  A point whose
    estimate is NaN stays a candidate, so a NaN reaches the sup as it
    would through the full ``eigvalsh``.
    """
    Hh = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    a = Hh[..., 0, 0].real
    if H.shape[-1] == 1:
        est = np.abs(a)
    else:
        d = Hh[..., 1, 1].real
        est = (np.abs(a + d) / 2
               + np.sqrt(((a - d) / 2) ** 2 + np.abs(Hh[..., 0, 1]) ** 2))
    keep = ~(est < (1.0 - _SUP_SLACK) * np.max(est, axis=1, keepdims=True))
    rows = np.nonzero(keep)[0]
    out = np.zeros(len(H))
    np.maximum.at(out, rows,
                  np.max(np.abs(np.linalg.eigvalsh(Hh[keep])), axis=1))
    return out


def _norm_grid(manifold):
    return [(c, Z) for c, _, Z in manifold.chart_split(
        manifold.sample_grid(600))]


def _stream(manifold, m):
    """The candidate stream of the codimension-``m`` dictionary."""
    if m not in (1, 2):
        raise ConfigurationError("codimension m must be 1 or 2")
    if m == 2 and manifold.dim != 2:
        raise ConfigurationError("m = 2 needs a surface")
    if m == 2 or manifold.dim == 1:
        omega_parts = [None]
    else:
        # the Kähler form, then each factor form on products
        omega_parts = [manifold.omega_coeffs()]
        if manifold.factors > 1:
            omega_parts += list(np.eye(manifold.factors))
    return _candidates(manifold, omega_parts)


def test_form_dictionary(manifold, m, count=12):
    """Normalized test forms for pairing currents of codimension ``m``.

    ``m = 1``: test objects for (1,1)-currents (functions on P1, chi times a
    closed reference form on surfaces).  ``m = 2`` (surfaces): test functions
    for measures.  The first entry always has unit mass pairing (the constant
    function / the Kähler form) and is exactly unnormalized.  The first
    ``count`` candidates of the stream are normalized together; the next
    ones refill the places of any dropped.
    """
    stream = _stream(manifold, m)
    grid = _norm_grid(manifold)
    out = []
    while len(out) < count:
        out += _normalized(list(itertools.islice(stream, count - len(out))),
                           grid)
    return out


def replay_dictionary(manifold, m, labels, scales):
    """The dictionary of :func:`test_form_dictionary` from its labels and
    scales, with no grid and no normalization: the candidate stream's
    forms in order, each non-constant one at its stored scale (a constant
    keeps its own).  None when a label is not the stream's next one.

    A form of the monomial stream never has grid norm 0, so a dictionary
    drops no candidate and is the first ``count`` forms of its stream.
    """
    out = []
    for form, label, scale in zip(_stream(manifold, m), labels, scales):
        if form.label != label:
            return None
        out.append(form if form.constant else form.with_scale(scale))
    return out


def _oplabel(op):
    return "".join(f"{x:g}" for x in np.round(op, 3))


test_form_dictionary.__test__ = False  # not a pytest item despite the name
