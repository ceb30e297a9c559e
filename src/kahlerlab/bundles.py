"""Line bundles, singular Hermitian metrics and curvature bookkeeping.

A metric on O(degree) is stored as the reference Fubini-Study metric times
``exp(-2 psi)`` where ``psi`` is an affine combination of *atoms*: globally
defined, bounded-above perturbations.  Atom library:

* ``log_pole(Q, t)``: ``psi = (t / deg Q) log(|Q| / |Z|^{deg Q})``; weight
  with a logarithmic pole of relative strength ``t`` along ``{Q = 0}``.
* ``max_log(t)`` (P1): ``psi = t log(max(|z0|, |z1|) / |Z|)``; continuous but
  not smooth, curvature charges the unit circle.
* ``smoothed_max(Q1, Q2, c, t)``: ``psi = (t / (2 deg)) log((|Q1|^2 +
  c |Q2|^2) / |Z|^{2 deg})``; a smooth regularization of the previous kind.

Curvatures are never formed by numerical differentiation.  Metrics whose
atoms have closed-form curvature expose a :class:`CurrentDescriptor` (smooth
multiple of the reference forms + weighted divisors + circle measure), and
``curvature_pairing`` evaluates ``<c1(L, h), phi>`` for any metric by moving
``dd^c`` onto the test form, which is exact for closed-form cross-checks.

Every current here is a global potential plus a closed class.  A closed
class pairs with no quadrature rule (:func:`class_pairings`): ``omega_i``
wedged with a form's omega part is an intersection number times
``omega^n`` at every point, so the pairing is that number times the form's
exact mean (``TestForm.mean``).  What needs a rule walks its blocks through
one routine, :func:`pair_blocks`: the forms against ``dd^c`` of potentials
and against pointwise densities, all forms, potentials and densities in
one pass.  Each form's per-block ``dd^c`` weights stay in the block's memo,
so every later walk over the rule reuses them.  ``ddc_pairing`` and the
potential of ``curvature_pairing`` are one-form calls of it.  Point masses
(zeros on curves and of pairs on surfaces, divisors of curves, transverse
divisor intersections) pair through the one routine
:func:`point_mass_pairings`, which evaluates all forms at once on the
stacked points of all its point sets.
"""

import functools

import numpy as np

from .errors import (
    ConfigurationError,
    GeneralPositionError,
    UnsupportedMetricError,
)
from .geometry import too_many_dropped
from .polynomials import degree_tuple
from .testforms import form_chis

# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


class LineBundle:
    """O(degree) with the fixed reference metric of weight
    ``sum_f (degree_f / 2) log(1 + |zeta_f|^2)``."""

    def __init__(self, manifold, degree):
        self.manifold = manifold
        self.degree = degree_tuple(manifold, degree)
        if any(d < 0 for d in self.degree):
            raise ConfigurationError("bundle degree must be non-negative")

    def __repr__(self):
        return f"LineBundle({self.manifold.kind}, {self.degree})"

    def __eq__(self, other):
        return (isinstance(other, LineBundle)
                and other.manifold == self.manifold
                and other.degree == self.degree)

    def __hash__(self):
        return hash(("LineBundle", self.manifold.kind, self.degree))

    def reference_weight(self, chart, Z):
        lf = self.manifold.log_factors(chart, Z)
        return lf @ (0.5 * np.asarray(self.degree, dtype=float))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


class _Atom:
    kind = "abstract"
    smooth = False
    torus_invariant = False

    def psi(self, manifold, chart, Z):  # pragma: no cover - interface
        raise NotImplementedError

    def descriptor_terms(self, manifold):
        """Closed-form dd^c psi as (omega_vec, divisors, circle) or None."""
        return None

    def centers(self, manifold):
        """Quadrature refinement centers for the singular set."""
        return []

    def params(self):
        return ()

    def fingerprint(self):
        """JSON-ready identity, complete enough to key caches on."""
        return {"kind": self.kind}

    def __repr__(self):
        return f"{self.kind}{self.params()}"


def _is_monomial(Q):
    return Q.coeffs.size == 1


def _poly_norm_key(Q):
    # scale-free identity of the divisor {Q = 0}
    c = Q.coeffs / Q.coeffs[np.argmax(np.abs(Q.coeffs))]
    items = tuple(sorted((tuple(int(x) for x in e), complex(np.round(v, 12)))
                         for e, v in zip(Q.exponents, c)))
    return (Q.degree, items)


def _poly_fingerprint(Q):
    # JSON-ready exact identity (coefficients included, unlike _poly_norm_key)
    degree = list(Q.degree) if isinstance(Q.degree, tuple) else int(Q.degree)
    terms = sorted([[int(x) for x in e], float(v.real), float(v.imag)]
                   for e, v in zip(Q.exponents, Q.coeffs))
    return {"degree": degree, "terms": terms}


class LogPoleAtom(_Atom):
    kind = "log_pole"

    def __init__(self, Q, t):
        if Q.is_zero:
            raise ConfigurationError("pole section must be nonzero")
        if not 0.0 < t <= 1.0:
            raise ConfigurationError("pole strength t must be in (0, 1]")
        self.Q = Q
        self.t = float(t)
        self.dtot = sum(Q.degree)
        self.torus_invariant = _is_monomial(Q)
        self.smooth = False

    def psi(self, manifold, chart, Z):
        vals = np.abs(self.Q.chart_poly(chart).eval(Z))
        lf = manifold.log_factors(chart, Z)
        ref = lf @ (0.5 * np.asarray(self.Q.degree, dtype=float))
        with np.errstate(divide="ignore"):
            return (self.t / self.dtot) * (np.log(vals) - ref)

    def descriptor_terms(self, manifold):
        omega = -(self.t / self.dtot) * np.asarray(self.Q.degree, dtype=float)
        divisors = []
        s = self.t / self.dtot
        if self.torus_invariant:
            e = self.Q.exponents[0]
            for i, mult in enumerate(e):
                if mult > 0:
                    divisors.append((("coord", i), s * float(mult)))
        else:
            divisors.append((("poly", _poly_norm_key(self.Q), self.Q), s))
        return omega, divisors, 0.0

    def centers(self, manifold):
        if self.torus_invariant:
            e = self.Q.exponents[0]
            return [("coord", i) for i in range(len(e)) if e[i] > 0]
        if manifold.dim == 1:
            return [pt for pt in _p1_roots(self.Q)]
        return []

    def params(self):
        return (self.Q.degree, self.t)

    def fingerprint(self):
        return {"kind": self.kind, "t": self.t, "Q": _poly_fingerprint(self.Q)}


class MaxLogAtom(_Atom):
    kind = "max_log"
    torus_invariant = True
    smooth = False

    def __init__(self, t):
        if not 0.0 < t <= 1.0:
            raise ConfigurationError("strength t must be in (0, 1]")
        self.t = float(t)

    def psi(self, manifold, chart, Z):
        if manifold.dim != 1:
            raise UnsupportedMetricError("max_log atoms live on P1")
        r2 = np.abs(Z[:, 0]) ** 2
        return self.t * (0.5 * np.log(np.maximum(1.0, r2))
                         - 0.5 * np.log1p(r2))

    def descriptor_terms(self, manifold):
        return np.array([-self.t]), [], self.t

    def params(self):
        return (self.t,)

    def fingerprint(self):
        return {"kind": self.kind, "t": self.t}


class SmoothedMaxAtom(_Atom):
    kind = "smoothed_max"

    def __init__(self, Q1, Q2, c, t):
        if Q1.degree != Q2.degree:
            raise ConfigurationError("smoothing sections must share a degree")
        if c <= 0 or not 0.0 < t <= 1.0:
            raise ConfigurationError("need c > 0 and t in (0, 1]")
        self.Q1 = Q1
        self.Q2 = Q2
        self.c = float(c)
        self.t = float(t)
        self.dtot = sum(Q1.degree)
        self.torus_invariant = _is_monomial(Q1) and _is_monomial(Q2)
        self.smooth = True  # valid when Q1, Q2 have no common zero

    def psi(self, manifold, chart, Z):
        v1 = np.abs(self.Q1.chart_poly(chart).eval(Z)) ** 2
        v2 = np.abs(self.Q2.chart_poly(chart).eval(Z)) ** 2
        lf = manifold.log_factors(chart, Z)
        ref = lf @ np.asarray(self.Q1.degree, dtype=float)
        s = v1 + self.c * v2
        if np.any(s == 0.0):
            raise UnsupportedMetricError(
                "smoothed_max sections share a zero; weight is not smooth")
        return (self.t / (2.0 * self.dtot)) * (np.log(s) - 2.0 * ref)

    def params(self):
        return (self.Q1.degree, self.c, self.t)

    def fingerprint(self):
        return {"kind": self.kind, "t": self.t, "c": self.c,
                "Q1": _poly_fingerprint(self.Q1),
                "Q2": _poly_fingerprint(self.Q2)}


def _p1_roots(Q):
    """Roots of a binary form on P1 as homogeneous points."""
    c = np.zeros(Q.degree[0] + 1, dtype=complex)
    for e, v in zip(Q.exponents, Q.coeffs):
        c[int(e[1])] += v  # coefficient of z1^a z0^{d-a}
    # roots in the chart z = z1/z0; leading zeros mean roots at [0:1]
    out = []
    deg = Q.degree[0]
    top = max(i for i in range(deg + 1) if abs(c[i]) > 0)
    for _ in range(deg - top):
        out.append(np.array([0.0, 1.0], dtype=complex))
    poly = c[:top + 1][::-1]  # np.roots wants highest power first, in z
    if top > 0:
        for r in np.roots(poly):
            out.append(np.array([1.0, r], dtype=complex))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class Metric:
    """Reference metric times exp(-2 sum_k coeff_k psi_k)."""

    def __init__(self, bundle, atoms=()):
        self.bundle = bundle
        self.atoms = []
        for coeff, atom in atoms:
            coeff = float(coeff)
            if coeff == 0.0:
                continue
            if coeff < 0.0 and not atom.smooth:
                raise ConfigurationError(
                    "negative weight on a singular atom is unbounded above")
            self.atoms.append((coeff, atom))

    # -- constructors --------------------------------------------------------

    @classmethod
    def fubini_study(cls, bundle):
        return cls(bundle, ())

    @classmethod
    def log_pole(cls, bundle, Q, t):
        return cls(bundle, [(1.0, LogPoleAtom(Q, t))])

    @classmethod
    def max_log(cls, bundle, t):
        return cls(bundle, [(1.0, MaxLogAtom(t))])

    @classmethod
    def smoothed_max(cls, bundle, Q1, Q2, c, t):
        return cls(bundle, [(1.0, SmoothedMaxAtom(Q1, Q2, c, t))])

    @classmethod
    def interpolate(cls, h, g, eps):
        """The metric with weight ``(phi_h + eps phi_g) / (1 + eps)``.

        Both metrics must live on the same bundle; the result does too.
        """
        if h.bundle != g.bundle:
            raise ConfigurationError("can only interpolate on one bundle")
        if eps < 0:
            raise ConfigurationError("interpolation weight must be >= 0")
        lam = 1.0 / (1.0 + eps)
        atoms = [(lam * c, a) for c, a in h.atoms]
        atoms += [((1.0 - lam) * c, a) for c, a in g.atoms]
        return cls(h.bundle, atoms)

    # -- structure -----------------------------------------------------------

    @property
    def manifold(self):
        return self.bundle.manifold

    @property
    def smooth(self):
        return all(a.smooth for _, a in self.atoms)

    @property
    def torus_invariant(self):
        return all(a.torus_invariant for _, a in self.atoms)

    def label(self):
        if not self.atoms:
            return "fs"
        return "+".join(f"{c:g}*{a!r}" for c, a in self.atoms)

    # -- evaluation ----------------------------------------------------------

    def psi(self, chart, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        out = np.zeros(Z.shape[0])
        for coeff, atom in self.atoms:
            out += coeff * atom.psi(self.manifold, chart, Z)
        return out

    def weight(self, chart, Z):
        """Full local weight phi = phi_ref + psi (of the metric on L)."""
        return self.bundle.reference_weight(chart, Z) + self.psi(chart, Z)

    # -- singular structure ---------------------------------------------------

    def _merged_divisors(self):
        """The atoms' descriptor divisors summed per component key, as
        ``(component, coefficient)`` pairs in first-seen key order; atoms
        without a closed-form curvature carry none."""
        acc = {}
        payloads = {}
        for coeff, atom in self.atoms:
            terms = atom.descriptor_terms(self.manifold)
            for comp, nu in terms[1] if terms else ():
                key = component_key(comp)
                payloads[key] = comp
                acc[key] = acc.get(key, 0.0) + coeff * nu
        return [(payloads[k], v) for k, v in acc.items()]

    def singular_components(self):
        """Merged pole components as ``(component, coefficient)`` pairs,
        one per component key, keeping those of positive coefficient."""
        return [(c, v) for c, v in self._merged_divisors() if v > 0]

    def refinement_centers(self):
        seen = []
        for _, atom in self.atoms:
            for c in atom.centers(self.manifold):
                seen.append(c)
        return seen

    def curvature_descriptor(self):
        """Closed-form c1(L, h); raises ``UnsupportedMetricError`` unless
        every atom supports one."""
        omega = np.asarray(self.bundle.degree, dtype=float)
        circle = 0.0
        for coeff, atom in self.atoms:
            terms = atom.descriptor_terms(self.manifold)
            if terms is None:
                raise UnsupportedMetricError(
                    f"the curvature of {self.label()} has no closed-form "
                    "decomposition")
            avec, _, circ = terms
            omega = omega + coeff * avec
            circle += coeff * circ
        divisors = [(c, v) for c, v in self._merged_divisors() if v != 0.0]
        return CurrentDescriptor(self.manifold, omega, divisors, circle)


# ---------------------------------------------------------------------------
# closed-form currents
# ---------------------------------------------------------------------------


class CurrentDescriptor:
    """A closed (1,1)-current with a known decomposition.

    ``omega``: coefficients over the reference basis (omega on P1/P2;
    omega_1, omega_2 on the product).  ``divisors``: ((kind, ...), coeff)
    integration currents.  ``circle``: coefficient of the unit-circle
    equilibrium measure (P1 only).
    """

    def __init__(self, manifold, omega, divisors=(), circle=0.0):
        self.manifold = manifold
        self.omega = np.asarray(omega, dtype=float).reshape(manifold.factors)
        self.divisors = list(divisors)
        self.circle = float(circle)


def component_key(comp):
    """The identity of a divisor component: a coordinate component
    ``("coord", i)`` is its own key, a polynomial one ``("poly", key, Q)``
    is keyed by ``("poly", key)`` without the polynomial."""
    return comp[:2] if comp[0] == "poly" else comp


def _unit_degree(manifold, factor):
    return tuple(int(f == factor) for f in range(manifold.factors))


def wedge_descriptors(A, B):
    """Formal wedge of two closed-form currents on a surface.

    Returns a dict with keys ``omega_pairs`` (factors x factors matrix over
    the basis forms), ``divisor_omega`` (list of (component, omega_vec),
    the vector already scaled by the component's coefficient), and ``points`` (list of (hom_point, mass)) from transverse
    divisor intersections.  A component repeated on both sides contributes
    no point mass; distinct components must be coordinate divisors, anything
    else raises.
    """
    m = A.manifold
    if m.dim != 2:
        raise ConfigurationError("wedges need a surface")
    if A.circle or B.circle:
        raise ConfigurationError("circle measures only pair on P1")
    omega_pairs = np.outer(A.omega, B.omega)
    divisor_omega = []
    for comp, nu in A.divisors:
        divisor_omega.append((comp, nu * B.omega.copy()))
    for comp, nu in B.divisors:
        divisor_omega.append((comp, nu * A.omega.copy()))
    points = []
    for comp_a, nu_a in A.divisors:
        for comp_b, nu_b in B.divisors:
            if comp_a == comp_b:
                # repeated divisor: the local potential depends on a single
                # coordinate, so the pair contributes nothing to the wedge
                continue
            if comp_a[0] != "coord" or comp_b[0] != "coord":
                raise GeneralPositionError(
                    "closed-form wedges support coordinate divisors only")
            pts = _coord_intersection(m, comp_a[1], comp_b[1])
            if pts is None:
                raise GeneralPositionError(
                    f"divisors {comp_a} and {comp_b} are not in general position")
            for p in pts:
                points.append((p, nu_a * nu_b))
    return {"omega_pairs": omega_pairs, "divisor_omega": divisor_omega,
            "points": points}


def _coord_intersection(manifold, i, j):
    """Transverse intersection points of coordinate divisors (or None).

    The divisors meet in one point when, in every factor, exactly one
    coordinate is left nonzero, which is then 1; otherwise (two lines of
    one P1 factor) they do not meet.
    """
    if i == j:
        return None
    p = np.zeros(manifold.hom_len, dtype=complex)
    for sl in manifold.factor_slices:
        free = [k for k in range(sl.start, sl.stop) if k not in (i, j)]
        if len(free) != 1:
            return []
        p[free[0]] = 1.0
    return [p]


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def pair_blocks(rule, forms, potentials=(), densities=()):
    """Pair forms with potentials and densities in one walk over the rule's
    capped blocks; returns ``(pot, dens)``.

    ``pot[r, j] = int_X u_r dd^c(forms[j])`` (0.0 without potentials): a
    potential maps a block to finite node values, each (N,) array one row
    paired by ``np.dot``, each (N, k) array k rows paired by one matrix
    product, against the form's :func:`_ddc_weights`.
    ``dens[k, j]`` sums ``np.dot(integrand(chi_j, forms[j]), w)`` over the
    blocks' ``(integrand, w) = densities[k](block, mats)``, with ``chi_j``
    from :meth:`Block.form_values` and ``mats(i)`` the (N, n, n) basis
    matrix of factor i.

    ``dd^c`` weights stay in each block's memo under ``(form,
    "ddc_weights")`` for every later walk.  The basis matrices serve the
    densities alone: taken once per block where a density asks for them,
    and freed before the potentials, the block's peak.  Entries add shares
    in block order; a matrix product's last bits can move with the number
    of forms.
    """
    m = rule.manifold
    forms = list(forms)
    dens = np.zeros((len(densities), len(forms)))
    pot = 0.0
    for b in rule.capped_blocks():
        if densities:
            mats = functools.cache(
                lambda i, b=b: m.omega_basis_matrix(i, b.chart, b.points))
            for row, density in zip(dens, densities):
                integrand, w = density(b, mats)
                row += np.array([float(np.dot(integrand(b.form_values(f), f),
                                              w)) for f in forms])
            del mats  # free before the potentials, the block's peak
        if not potentials:
            continue
        ws = [b.memo((f, "ddc_weights"), lambda: _ddc_weights(f, b))
              for f in forms]
        W = np.stack(ws, axis=1)
        if len(forms) == 1:
            # BLAS sums a one-column product (gemv) in another order than a
            # wider one (gemm); a repeated column keeps a lone form on gemm
            W = np.repeat(W, 2, axis=1)
        rows = []
        for U in (U for u in potentials for U in u(b)):
            rows += ([[float(np.dot(U, w)) for w in ws]] if U.ndim == 1
                     else list((U.T @ W)[:, :len(forms)]))
        pot = pot + np.array(rows).reshape(-1, len(forms))
    return pot, dens


def _ddc_weights(form, block):
    """Node weights of ``u -> int u dd^c(form)`` over one block, from the
    Fubini-Study Laplacians of the form's chi on the block's axes
    (:meth:`TestForm.block_laplacian`), with no Hessian and no basis matrix.

    The part of ``dd^c chi`` along a factor ``P^d`` has trace ``(2 / d)
    Lap_f chi`` against ``omega_f``.  Wedged with the form's omega part (a
    multiple of ``omega`` on P2, the factor forms on P1xP1, where the mixed
    parts drop, and nothing on a curve) it gives ``sum_f (2 / d_f) I_f
    Lap_f chi omega^n``, ``I_f`` the intersection number of the factor's
    class with the omega part; the weights are that sum times the volume
    weights.  A constant form's zero weights are one value broadcast to
    the nodes; a test function on a surface has no ``dd^c`` pairing and
    raises ``ConfigurationError``.
    """
    if form.constant:
        return np.broadcast_to(0.0, (block.num_nodes,))
    m = form.manifold
    _require_omega_parts(m, [form])
    coeffs = [(2.0 / d) * m.intersection_number(
        [_unit_degree(m, f)] + [form.omega_part] * (m.dim - 1))
        for f, d in enumerate(m.factor_dims)]
    return form.block_laplacian(block, coeffs) * block.weights_volume


def _field_potential(u, integrable):
    """The :func:`pair_blocks` potential of a scalar field ``u(chart, Z)``,
    its non-finite values handled as in :func:`finite_potential`."""
    return lambda b: [finite_potential(
        np.asarray(u(b.chart, b.points), dtype=float), integrable)]


def ddc_pairing(scalar_field, form, rule, integrable=False):
    """``int_X u dd^c(form)`` for a scalar field ``u(chart, Z)`` (see
    :func:`pair_blocks`)."""
    potential = _field_potential(scalar_field, integrable)
    return float(pair_blocks(rule, [form], [potential])[0][0, 0])


def finite_potential(u, integrable):
    """Node values of a potential with its non-finite entries set to 0.

    ``u`` holds one block's node values, or one column of them per field.
    Integrable (quasi-psh) potentials may be non-finite at a few isolated
    nodes, whose quadrature weight is then dropped; more than
    ``geometry.too_many_dropped`` allows in one column, or any without
    ``integrable``, raises.
    """
    bad = ~np.isfinite(u)
    if not np.any(bad):
        return u
    nbad = int(np.max(np.count_nonzero(bad, axis=0)))
    if not integrable or too_many_dropped(nbad, u.shape[0]):
        raise ConfigurationError(
            f"non-finite potential at {nbad} nodes; "
            "pass integrable=True only for quasi-psh potentials")
    return np.where(bad, 0.0, u)


def _form_omega_factors(form, mats):
    """The (1,1)-forms a form's omega part wedges into a density, from a
    block's basis matrices, ``mats(i)`` that of factor i: none for a test
    function, the omega part's matrix for a (1,1) test form."""
    if form.omega_part is None:
        return ()
    acc = None
    for i, c in enumerate(np.asarray(form.omega_part, dtype=float)):
        if c == 0.0:
            continue
        acc = c * mats(i) if acc is None else acc + c * mats(i)
    return (np.zeros_like(mats(0)) if acc is None else acc,)


def class_pairings(manifold, degree, forms):
    """``<c, f>`` of the class ``c = sum_i degree[i] omega_i`` against each
    form, with no quadrature rule: ``omega_i ^ omega_k`` is their
    intersection number times ``omega^n`` at every point (on a curve
    ``omega_0 = omega``), so each entry is the intersection number of ``c``
    and the form's omega part times the form's mean (``TestForm.mean``).
    """
    _require_omega_parts(manifold, forms)
    return np.array([manifold.intersection_number(
        [degree] + [f.omega_part] * (manifold.dim - 1)) * f.mean()
        for f in forms], dtype=float)


def _require_omega_parts(manifold, forms):
    if manifold.dim == 2 and any(f.omega_part is None for f in forms):
        raise ConfigurationError(
            "(1,1)-current pairings on surfaces need omega-carrying forms")


def pair_omega_basis(index, form):
    """``<omega_index ^ (form), 1>``: the smooth reference pairing."""
    return float(class_pairings(form.manifold,
                                _unit_degree(form.manifold, index), [form])[0])


def curvature_pairing(metric, form, rule):
    """``<c1(L, h), form>``, by moving dd^c onto the form.

    The reference class pairs in closed form (:func:`class_pairings`); the
    potential term integrates the bounded-above perturbation against
    dd^c(form) on ``rule``, so no derivative of the (possibly singular)
    weight is ever taken.
    """
    total = float(class_pairings(metric.manifold, metric.bundle.degree,
                                 [form])[0])
    if metric.atoms:
        potential = _field_potential(metric.psi, not metric.smooth)
        total += float(pair_blocks(rule, [form], [potential])[0][0, 0])
    return total


def curve_divisor_points(comp):
    """The points of a divisor component of P1, repeated by multiplicity:
    ``[0:1]`` or ``[1:0]`` for ``("coord", i)``, the roots of ``Q`` for a
    polynomial component ``("poly", key, Q)``."""
    if comp[0] == "coord":
        pt = np.zeros(2, dtype=complex)
        pt[1 - comp[1]] = 1.0
        return [pt]
    return _p1_roots(comp[2])


def point_mass_pairings(manifold, forms, point_sets, totals=None):
    """``totals[s, j] + sum_k mass_k f_j(point_k)`` over the ``(point,
    mass)`` pairs of each point set ``s``: the (sets, forms) matrix
    (``totals`` defaults to zeros and is added to in place).

    The forms are evaluated once, together, on the stacked points of all
    sets (:func:`form_values_hom`); the masses add into each set's row one
    point after another, in point order, so an entry is the same number
    whatever other sets share the call.
    """
    point_sets = list(point_sets)
    if totals is None:
        totals = np.zeros((len(point_sets), len(forms)))
    points = [pm for pms in point_sets for pm in pms]
    if not (points and forms):
        return totals
    owner = np.repeat(np.arange(len(point_sets)), [len(s) for s in point_sets])
    V = form_values_hom(manifold, forms, np.stack([pt for pt, _ in points]))
    mass = np.array([k for _, k in points], dtype=float)
    np.add.at(totals, owner, mass[:, None] * V)
    return totals


def form_values_hom(manifold, forms, points):
    """chi of each form at homogeneous points: shape (points, forms), the
    points in their order, each chart's points in one
    :func:`testforms.form_chis` call."""
    pts = manifold.normalize(points)
    out = np.empty((pts.shape[0], len(forms)))
    for chart, mask, Z in manifold.chart_split(pts):
        out[mask] = form_chis(forms, chart, Z).T
    return out
