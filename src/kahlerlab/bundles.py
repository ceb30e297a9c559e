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
"""

import math

import numpy as np

from .errors import (
    ConfigurationError,
    GeneralPositionError,
    UnsupportedMetricError,
)
from .geometry import wedge_density_11
from .polynomials import SectionPoly, degree_tuple

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

    @property
    def total_degree(self):
        return sum(self.degree)

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

    def components(self, manifold):
        """Singular divisor components as (key, lelong_coeff) pairs."""
        return []

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

    def components(self, manifold):
        _, divisors, _ = self.descriptor_terms(manifold)
        return divisors

    def centers(self, manifold):
        if self.torus_invariant:
            e = self.Q.exponents[0]
            return [("coord", i) for i in range(len(e)) if e[i] > 0]
        if manifold.kind == "P1":
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
        if manifold.kind != "P1":
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

    def singular_components(self):
        """Merged pole components as (key, payload, lelong_coeff)."""
        acc = {}
        payloads = {}
        for coeff, atom in self.atoms:
            for comp, nu in atom.components(self.manifold):
                if comp[0] == "coord":
                    key = comp
                    payloads[key] = comp
                else:
                    key = ("poly", comp[1])
                    payloads[key] = comp
                acc[key] = acc.get(key, 0.0) + coeff * nu
        return [(payloads[k], v) for k, v in acc.items() if v > 0]

    def refinement_centers(self):
        seen = []
        for _, atom in self.atoms:
            for c in atom.centers(self.manifold):
                seen.append(c)
        return seen

    def curvature_descriptor(self):
        """Closed-form c1(L, h) if every atom supports one, else None."""
        omega = np.asarray(self.bundle.degree, dtype=float)
        divisors = {}
        payloads = {}
        circle = 0.0
        for coeff, atom in self.atoms:
            terms = atom.descriptor_terms(self.manifold)
            if terms is None:
                return None
            avec, divs, circ = terms
            omega = omega + coeff * avec
            circle += coeff * circ
            for comp, nu in divs:
                key = comp[:2] if comp[0] == "poly" else comp
                payloads[key] = comp
                divisors[key] = divisors.get(key, 0.0) + coeff * nu
        div_list = [(payloads[k], v) for k, v in divisors.items() if v != 0.0]
        return CurrentDescriptor(self.manifold, omega, div_list, circle)


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

    def scale(self, c):
        return CurrentDescriptor(
            self.manifold, c * self.omega,
            [(comp, c * nu) for comp, nu in self.divisors], c * self.circle)

    def add(self, other):
        if other.manifold != self.manifold:
            raise ConfigurationError("descriptor manifolds differ")
        divisors = {}
        payloads = {}
        for comp, nu in list(self.divisors) + list(other.divisors):
            key = comp[:2] if comp[0] == "poly" else comp
            payloads[key] = comp
            divisors[key] = divisors.get(key, 0.0) + nu
        div_list = [(payloads[k], v) for k, v in divisors.items() if v != 0.0]
        return CurrentDescriptor(self.manifold, self.omega + other.omega,
                                 div_list, self.circle + other.circle)

    def mass(self):
        """Total mass <T ^ omega^{n-1}, 1> from the closed forms."""
        m = self.manifold
        total = float(self.omega @ _omega_factor_masses(m))
        for comp, nu in self.divisors:
            total += nu * _divisor_omega_mass(m, comp)
        if m.kind == "P1":
            total += self.circle
        return total

    def lelong_coefficient(self, comp_key):
        for comp, nu in self.divisors:
            key = comp[:2] if comp[0] == "poly" else comp
            if key == comp_key:
                return nu
        return 0.0


def _omega_factor_masses(manifold):
    """<omega_i ^ omega^{n-1}, 1> for the basis forms."""
    if manifold.kind == "P1":
        return np.array([1.0])
    if manifold.kind == "P2":
        return np.array([1.0])
    # omega_i ^ (omega_1 + omega_2)/sqrt(2): only the cross term survives
    r = 1.0 / math.sqrt(2.0)
    return np.array([r, r])


def _divisor_omega_mass(manifold, comp):
    """<[D] ^ omega^{n-1}, 1> for one component."""
    m = manifold
    if comp[0] == "coord":
        if m.kind == "P1":
            return 1.0
        if m.kind == "P2":
            return 1.0
        return 1.0 / math.sqrt(2.0)
    Q = comp[2]
    if m.kind == "P1":
        return float(sum(Q.degree))
    if m.kind == "P2":
        return float(Q.degree[0])
    d1, d2 = Q.degree
    return (d1 + d2) / math.sqrt(2.0)


def wedge_descriptors(A, B):
    """Formal wedge of two closed-form currents on a surface.

    Returns a dict with keys ``omega_pairs`` (factors x factors matrix over
    the basis forms), ``divisor_omega`` (list of (component, omega_vec,
    coeff)), and ``points`` (list of (hom_point, mass)) from transverse
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
    """Transverse intersection points of coordinate divisors (or None)."""
    if i == j:
        return None
    if manifold.kind == "P2":
        k = ({0, 1, 2} - {i, j}).pop()
        p = np.zeros(3, dtype=complex)
        p[k] = 1.0
        return [p]
    # product: lines from the same factor never meet transversally
    if (i < 2) == (j < 2):
        return []
    zi, wj = (i, j) if i < 2 else (j, i)
    p = np.zeros(4, dtype=complex)
    p[1 - zi] = 1.0
    p[2 + (1 - (wj - 2))] = 1.0
    return [p]


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def ddc_pairing(scalar_field, form, rule, integrable=False):
    """``int_X u dd^c(form)`` for a scalar field u.

    ``form`` follows the test-form protocol: ``chi(chart, Z)``,
    ``hessian(chart, Z)`` and ``omega_part`` (None on P1, basis coefficients
    on surfaces, where the form is chi times that combination).
    """
    total = 0.0
    for b in rule.capped_blocks():
        u = np.asarray(scalar_field(b.chart, b.points), dtype=float)
        u = finite_potential(u, integrable)
        total += float(np.dot(u, ddc_weights(form, b)))
    return total


def ddc_weights(form, block):
    """Node weights of ``u -> int u dd^c(form)`` over one quadrature block.

    Each entry is the ``dd^c`` density of the form times the quadrature
    weight of its node, so ``np.dot(u, ddc_weights(form, block))`` is the
    block's share of ``ddc_pairing`` for a field with node values u.  The
    vector does not depend on u: one serves every field paired with the
    form.
    """
    m = block.manifold
    H = form.hessian(block.chart, block.points)
    if m.dim == 1:
        return (np.real(H) / math.pi) * block.weights_lebesgue
    omega_a = _form_omega_matrix(m, form, block.chart, block.points)
    return wedge_density_11(H, omega_a) * (block.weights_lebesgue / 4.0)


def finite_potential(u, integrable):
    """Node values of a potential with its non-finite entries set to 0.

    ``u`` holds one block's node values, or one column of them per field.
    Integrable (quasi-psh) potentials may be non-finite at a few isolated
    nodes, whose quadrature weight is then dropped; more than ``max(8,
    nodes // 10000)`` in one column, or any without ``integrable``, raises.
    """
    bad = ~np.isfinite(u)
    if not np.any(bad):
        return u
    nbad = int(np.max(np.count_nonzero(bad, axis=0)))
    if not integrable or nbad > max(8, u.shape[0] // 10000):
        raise ConfigurationError(
            f"non-finite potential at {nbad} nodes; "
            "pass integrable=True only for quasi-psh potentials")
    return np.where(bad, 0.0, u)


def _form_omega_matrix(manifold, form, chart, Z):
    acc = None
    for i, c in enumerate(np.asarray(form.omega_part, dtype=float)):
        if c == 0.0:
            continue
        mat = manifold.omega_basis_matrix(i, chart, Z)
        acc = c * mat if acc is None else acc + c * mat
    if acc is None:
        acc = np.zeros((Z.shape[0], 2, 2), dtype=complex)
    return acc


def pair_omega_basis(index, form, rule):
    """``<omega_index ^ (form), 1>``: the smooth reference pairing."""
    m = rule.manifold
    total = 0.0
    for b in rule.capped_blocks():
        chi = np.asarray(form.chi(b.chart, b.points), dtype=float)
        if m.dim == 1:
            dens = np.real(m.omega_basis_matrix(index, b.chart, b.points))
            total += float(np.dot(chi * dens, b.weights_lebesgue)) / math.pi
        else:
            A = m.omega_basis_matrix(index, b.chart, b.points)
            Bm = _form_omega_matrix(m, form, b.chart, b.points)
            dens = wedge_density_11(A, Bm)
            total += float(np.dot(chi * dens, b.weights_lebesgue / 4.0))
    return total


def curvature_pairing(metric, form, rule):
    """``<c1(L, h), form>`` by moving dd^c onto the test form.

    Exact for the smooth reference part; the potential term integrates the
    bounded-above perturbation against dd^c(form), so no derivative of the
    (possibly singular) weight is ever taken.
    """
    total = 0.0
    for i, d in enumerate(metric.bundle.degree):
        if d != 0:
            total += d * pair_omega_basis(i, form, rule)
    if metric.atoms:
        total += ddc_pairing(lambda c, Z: metric.psi(c, Z), form, rule,
                             integrable=not metric.smooth)
    return total


def descriptor_pairing_p1(descriptor, form, rule):
    """``<T, chi>`` on P1 from the closed-form decomposition."""
    m = descriptor.manifold
    if m.kind != "P1":
        raise ConfigurationError("this pairing is the P1 evaluator")
    total = descriptor.omega[0] * pair_omega_basis(0, form, rule)
    for comp, nu in descriptor.divisors:
        if comp[0] == "coord":
            pt = np.zeros((1, 2), dtype=complex)
            pt[0, 1 - comp[1]] = 1.0
            total += nu * _form_value_at(m, form, pt)
        else:
            Q = comp[2]
            for root in _p1_roots(Q):
                total += nu * _form_value_at(m, form, root[None, :])
    if descriptor.circle:
        theta = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
        Z = np.exp(1j * theta)[:, None]
        vals = np.asarray(form.chi(0, Z), dtype=float)
        total += descriptor.circle * float(vals.mean())
    return total


def _form_value_at(manifold, form, points):
    pts = manifold.normalize(points)
    charts = manifold.chart_of(pts)
    out = 0.0
    for c in np.unique(charts):
        sel = charts == c
        Z = manifold.to_chart(pts[sel], int(c))
        out += float(np.sum(np.asarray(form.chi(int(c), Z), dtype=float)))
    return out
