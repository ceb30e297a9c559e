"""Normalized currents of orthonormal section families.

For a family spanning the p-th space with squared frame norm F the induced
current is ``(1/2p) dd^c log F``.  Two independent evaluation routes are
provided and kept deliberately separate:

* ``"potential"`` moves dd^c onto the test form, so only the globally
  defined log-norm potential of the family is ever sampled.  It tolerates
  any admissible metric.

* ``"derivative"`` differentiates the reduced family pointwise and adds the
  forced divisor parts explicitly; the pointwise Hessian never sees the
  distributional mass sitting on the base divisor, so skipping that
  correction is a silent factor-of-everything bug.

Agreement of the two routes is a strong end-to-end check and is exercised
by the test suite.  Wedge pairings (surfaces, bidegree (2,2)) decompose the
square of the current into the smooth part, divisor restrictions of the
reduced family, and transverse intersection points; a divisor paired with
itself contributes nothing, by the rule of
:func:`kahlerlab.bundles.wedge_descriptors` applied to the families'
classes (:func:`_family_class`).

One routine, :func:`log_norm_pairings`, pairs both a family current and
the zero divisors of single sections (``E[Z_s] = p gamma_p``): each is
``dd^c`` of a log-norm potential plus the closed class ``p c1(L) (+
c1(K_X))`` of the reference metric.  The potential is taken in the
reference frame, so the metric perturbation cancels between its two parts
and is never evaluated.

Closed parts need no rule.  A closed class pairs as an intersection
number times the form's exact mean (:func:`bundles.class_pairings`), and a
coordinate divisor as the mean of the form's restriction to its line
(:func:`_line_pairings`), so the pairings of closed-form currents
(``descriptor_form_pairings``, ``descriptor_wedge_pairings``) and the
forced divisors of the derivative route take no rule.

Block-outer rule: every pairing that integrates a potential or a density
takes a list of forms and walks the quadrature blocks through
:func:`bundles.pair_blocks`, the blocks outside and the forms inside.
What does not depend on the form (log-norm potentials, reduced Hessians,
omega basis matrices, quadrature weights) is computed once per block and
handed to it as a potential or a density.
The densities of torus-invariant families
(:attr:`SectionSpace.torus_invariant`) depend on the radii only: their
walks take the rule's torus reduction (:meth:`QuadratureRule.torus_reduced`),
where each form pairs through its torus average, as on the full rule.
The one-form functions (``fs_pairing``, ``fs_wedge_pairing``,
``descriptor_form_pairing``, ``descriptor_wedge_pairing``) are one-entry
calls of the batched ones.  Each form's entry adds its block shares in
block order, but as :func:`bundles.pair_blocks` says, a matrix product's
last bits can move with the number of forms: on the potential route a form
alone and in a batch can differ in the last bits.

What depends on neither the form list nor p lives with the quadrature
rule, so a sweep over p on one rule computes it once: each form's ``chi``
and ``dd^c`` weights, the divisor line rules
(:meth:`QuadratureRule.line_rule`) and the values of the forms'
restrictions to the lines (:meth:`TestForm.restriction`) on their blocks.
It is freed with the rule.
"""

from __future__ import annotations

import numpy as np

from ._kernels import eval_monomials
from .bundles import (CurrentDescriptor, _form_omega_factors,
                      _require_omega_parts, class_pairings,
                      curve_divisor_points, finite_potential, form_values_hom,
                      pair_blocks, point_mass_pairings, wedge_descriptors)
# benchmarks/tracer.py patches curvature_pairing here
from .bundles import curvature_pairing  # noqa: F401
from .errors import (ConfigurationError, GeneralPositionError, NumericalError)
from .geometry import ddc_density, too_many_dropped
from .testforms import form_chis
# benchmarks/test_benchmark.py checks that the tracer patches it here
from .geometry import quadrature_nodes  # noqa: F401

__all__ = [
    "fs_pairing", "fs_pairings", "fs_wedge_pairing", "fs_wedge_pairings",
    "form_values_hom", "log_norm_pairings", "descriptor_form_pairing",
    "descriptor_form_pairings", "descriptor_wedge_pairing",
    "descriptor_wedge_pairings", "ReducedHessianField",
]

# Log-norm values (nodes x columns) evaluated per chunk by
# ``log_norm_pairings``, about 1.5 MB of temporaries; the products are
# memory bound, so larger chunks gain no speed and only raise peak memory.
_LOG_NORM_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# form-independent fields
# ---------------------------------------------------------------------------


class ReducedHessianField:
    """Pointwise Hessian of ``log F_red / (2p)`` of one space.

    Called with a block's chart and nodes it returns ``(H, bad)`` where H
    is (N, n, n) and ``bad`` flags nodes where the reduced family vanished
    (isolated; their quadrature weight is dropped by the caller).  It
    keeps nothing: the pairings call it once per block and serve every
    form from that one value.
    """

    def __init__(self, space):
        self.space = space

    def __call__(self, chart, Z):
        return _reduced_hessian(self.space, chart, Z)


def _reduced_hessian(space, chart, Z):
    return _family_hessian(
        space.reduced_section_values(chart, Z, derivs=True), space.p)


def _family_hessian(values, p):
    """``(F_ab F - F_a conj(F_b)) / (2p F^2)``, the Hessian of ``log F /
    (2p)`` of a family with ``F = sum |V|^2``, shape (N, n, n).

    ``values`` is ``(V, dV)``: the family's values, one column per member,
    and the list of its n chart derivatives.  V is overwritten, and freed
    here when the caller keeps no reference to it.  Returns ``(H, bad)``
    with ``bad`` flagging the nodes where F vanished; H is 0 there.
    """
    V, dV = values
    del values
    n = len(dV)
    F = np.einsum("nj,nj->n", np.abs(V), np.abs(V))
    bad = F < 1e-290
    Fs = np.where(bad, 1.0, F)
    scale = 1.0 / (2.0 * p)
    Vc = np.conj(V, out=V)  # V is read no more
    Fa = [np.einsum("nj,nj->n", d, Vc) for d in dV]
    del V, Vc  # node-by-member sized: free before the second derivatives
    Fs2 = Fs ** 2
    H = np.empty((Fs.shape[0], n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            Fab = np.einsum("nj,nj->n", dV[a], np.conj(dV[b]))
            H[:, a, b] = scale * (Fab * Fs - Fa[a] * np.conj(Fa[b])) / Fs2
    H[bad] = 0.0
    return H, bad


def _drop_vanished(block, bad, weights, what):
    """Block weights without the nodes where a reduced family vanished.

    A few isolated nodes are expected; more than
    ``geometry.too_many_dropped`` allows in one block means the family is
    degenerate and raises.  So does any node of a torus-reduced block: it
    stands for a whole torus orbit.
    """
    nbad = int(np.count_nonzero(bad))
    if nbad and (block.torus_reduced or too_many_dropped(nbad, len(bad))):
        raise NumericalError(f"{what} vanished at {nbad} quadrature nodes")
    return np.where(bad, 0.0, weights) if nbad else weights


def _walk_rule(rule, *spaces):
    """The rule a density walk of the spaces' families takes: its torus
    reduction when every family is torus-invariant."""
    return (rule.torus_reduced() if all(sp.torus_invariant for sp in spaces)
            else rule)


# ---------------------------------------------------------------------------
# main pairing, two routes
# ---------------------------------------------------------------------------


def fs_pairing(space, form, rule, route="potential"):
    """``<(1/2p) dd^c log F_p, form>`` for an orthonormalized space."""
    return float(fs_pairings(space, [form], rule, route)[0])


def fs_pairings(space, forms, rule, route="potential"):
    """:func:`fs_pairing` of one space against each form, as an array."""
    forms = list(forms)
    _require_omega_parts(space.manifold, forms)
    if route == "potential":
        return log_norm_pairings(space, forms, rule, family=True)[0] / space.p
    if route != "derivative":
        raise ConfigurationError(f"unknown pairing route {route!r}")
    totals = _pointwise_pairings(space, forms, rule)
    for comp, k in space.base_divisors:
        totals += (k / space.p) * _divisor_pairings(space.manifold, comp,
                                                    forms)
    return totals


def log_norm_pairings(space, forms, rule, sections=None, family=False):
    """``int u dd^c f + p <c1(L), f> (+ <c1(K_X), f>)`` for log-norm
    potentials u of the space, in one walk over the rule.

    A section with coefficient column c has the reference-frame log-norm
    ``log|M c| + base``: ``M`` holds the scaled monomials and ``base`` (see
    :func:`_log_norm_base`) the rest, so the metric perturbation, which
    would enter both terms, cancels and ``c1(L)`` is the reference class.
    The result has, with ``family``, first p times the current pairing of
    the space's orthonormal family (potential ``1/2 log sum_j |s_j|^2 +
    base``, ``s`` the :meth:`SectionSpace.orthonormal` frame of ``M``),
    then a row ``<[s_j = 0], f>`` per column c_j of ``sections``.  ``M``
    and ``base`` serve all rows of a block.  A family takes its frame in
    node chunks of at most ``_LOG_NORM_CHUNK`` (node, member) entries,
    sections go in column chunks of at most ``_LOG_NORM_CHUNK`` (nodes,
    columns) entries.  A potential non-finite at too many nodes of a block
    raises as in ``bundles.finite_potential``.
    """
    forms = list(forms)
    m = space.manifold
    if rule is None:
        raise ConfigurationError("log-norm pairings need a quadrature rule")
    _require_omega_parts(m, forms)

    def log_norms(b):
        M = space.monomial_values(b.chart, b.points)
        base = _log_norm_base(space, b.chart, b.points)
        if family:
            sq = np.empty(len(M))
            step = max(1, _LOG_NORM_CHUNK // space.dim)
            for lo in range(0, len(M), step):
                A = np.abs(space.orthonormal(M[lo:lo + step]))
                sq[lo:lo + step] = np.einsum("nj,nj->n", A, A)
                del A  # free before the sections' chunks
            yield finite_potential(0.5 * _log_modulus(sq) + base,
                                   integrable=True)
        if sections is not None:
            step = max(1, _LOG_NORM_CHUNK // M.shape[0])
            for lo in range(0, sections.shape[1], step):
                U = _log_modulus(M @ sections[:, lo:lo + step]) + base[:, None]
                yield finite_potential(U, integrable=True)

    out, _ = pair_blocks(rule, forms, [log_norms])
    const = space.p * class_pairings(m, space.metric.bundle.degree, forms)
    if space.adjoint:
        const += class_pairings(m, m.canonical_degree, forms)
    return out + const


def _log_modulus(values):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


def _log_norm_base(space, chart, Z):
    """The part of a log-norm potential shared by every section of the
    space, in the reference frame.

    ``-p phi_ref`` (+ ``1/2 log`` of the canonical factor for adjoint
    spaces) plus the forced factors ``sum_j k_j log|Q_j|``, taken as
    logarithms so that nodes near an off-axis pole keep finite values:
    adding ``log`` of the monomial part of a section gives its log-norm
    for the reference metric.
    """
    u = -space.p * space.metric.bundle.reference_weight(chart, Z)
    if space.adjoint:
        u += 0.5 * np.log(space.manifold.canonical_factor(chart, Z))
    for Q, k in space.sigma_polys:
        u += k * _log_modulus(Q.chart_poly(chart).eval(Z))
    return u


def _pointwise_pairings(space, forms, rule):
    field = ReducedHessianField(space)

    def reduced(b, mats):
        H, bad = field(b.chart, b.points)
        wq = _drop_vanished(b, bad, b.weights_lebesgue, "reduced family")
        return (lambda chi, f: chi * ddc_density(
            H, *_form_omega_factors(f, mats))), wq

    return pair_blocks(_walk_rule(rule, space), forms,
                       densities=[reduced])[1][0]


# ---------------------------------------------------------------------------
# divisor currents
# ---------------------------------------------------------------------------


def _divisor_pairings(manifold, comp, forms):
    """``<[D], f>`` of one singular component for each form.

    On curves divisors are point masses and the form is a test function.
    On surfaces the forms carry an ``omega_part``, which both callers
    check, and the pairing is the restriction integral over a coordinate
    divisor (:func:`_line_pairings`); polynomial components of surfaces
    have no closed-form parametrization here.
    """
    if manifold.dim == 1:
        return point_mass_pairings(
            manifold, forms,
            [[(pt, 1.0) for pt in curve_divisor_points(comp)]])[0]
    return _line_pairings(manifold, comp, [f.omega_part for f in forms],
                          forms)


def _line_pairings(manifold, comp, omega_vecs, forms):
    """``int_D chi_f * (omega_vec_f . basis)|_D`` over a coordinate divisor,
    one entry per form, with no quadrature rule.

    On the line ``D`` the basis form of the line's own factor restricts to
    the line's unit volume form and the others to 0, so each entry is that
    factor's coefficient times the mean of the form's restriction to the
    line (:meth:`TestForm.restriction`, :meth:`TestForm.mean`).
    """
    if comp[0] != "coord":
        raise GeneralPositionError(
            "surface divisor pairings need coordinate components")
    _, factor = manifold.coordinate_line(comp[1])
    return np.array([float(vec[factor]) * f.restriction(comp[1]).mean()
                     for vec, f in zip(omega_vecs, forms)])


def _line_rule(q_line, surface):
    """The P1 rule over a divisor line at resolution ``max(48, 2 q_line)``,
    for families of degree ``q_line`` on it: the surface rule's
    :meth:`QuadratureRule.line_rule`, shared by every pairing on it."""
    return surface.line_rule(max(48, 2 * q_line))


# ---------------------------------------------------------------------------
# closed-form current pairings
# ---------------------------------------------------------------------------


def descriptor_form_pairing(descriptor, form):
    """``<T, form>`` for a closed-form (1,1)-current on any model, with no
    quadrature rule.

    The circle measure of a P1 current pairs as the mean of the test
    function over 256 midpoints of the unit circle.
    """
    return float(descriptor_form_pairings(descriptor, [form])[0])


def descriptor_form_pairings(descriptor, forms):
    """:func:`descriptor_form_pairing` against each form, as an array."""
    forms = list(forms)
    m = descriptor.manifold
    totals = class_pairings(m, descriptor.omega, forms)
    for comp, nu in descriptor.divisors:
        totals += nu * _divisor_pairings(m, comp, forms)
    if descriptor.circle:
        theta = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
        chis = form_chis(forms, 0, np.exp(1j * theta)[:, None])
        for j, chi in enumerate(chis):
            totals[j] += descriptor.circle * float(chi.mean())
    return totals


def descriptor_wedge_pairing(manifold, wedge, form):
    """``<A ^ B, chi>`` from a closed-form wedge decomposition, with no
    quadrature rule.

    ``wedge`` is the output of :func:`kahlerlab.bundles.wedge_descriptors`;
    ``form`` must be a scalar test function (no omega part).  The smooth
    part is its intersection number times ``omega^2`` at every point.
    """
    return float(descriptor_wedge_pairings(manifold, wedge, [form])[0])


def descriptor_wedge_pairings(manifold, wedge, forms):
    """:func:`descriptor_wedge_pairing` against each form, as an array."""
    forms = list(forms)
    if any(f.omega_part is not None for f in forms):
        raise ConfigurationError("bidegree (2,2) currents pair with functions")
    unit = np.eye(manifold.factors)
    smooth = sum(c * manifold.intersection_number([unit[i], unit[j]])
                 for (i, j), c in np.ndenumerate(wedge["omega_pairs"]))
    totals = smooth * np.array([f.mean() for f in forms])
    for comp, vec in wedge["divisor_omega"]:
        totals += _line_pairings(manifold, comp, [vec] * len(forms), forms)
    return point_mass_pairings(manifold, forms, [wedge["points"]],
                               totals[None])[0]


# ---------------------------------------------------------------------------
# self-wedge of the family current (surfaces)
# ---------------------------------------------------------------------------


def fs_wedge_pairing(space_a, space_b, form, rule):
    """``<gamma_a ^ gamma_b, chi>`` for two section spaces over one surface.

    The product expands into the pointwise wedge of the two reduced
    families, each family restricted to the other's forced divisors, and
    the transverse intersections between the two divisor collections,
    taken from :func:`bundles.wedge_descriptors` of the two families'
    classes.  A component shared by both collections carries no
    intersection mass: both local potentials depend on the same coordinate
    there.
    """
    return float(fs_wedge_pairings(space_a, space_b, [form], rule)[0])


def fs_wedge_pairings(space_a, space_b, forms, rule):
    """:func:`fs_wedge_pairing` against each form, as an array."""
    forms = list(forms)
    m = space_a.manifold
    if m.dim != 2:
        raise ConfigurationError("current wedges need a surface")
    if space_b.manifold != m:
        raise ConfigurationError("both factors must live on one manifold")
    if any(f.omega_part is not None for f in forms):
        raise ConfigurationError("bidegree (2,2) currents pair with functions")
    same = space_b is space_a
    field_a = ReducedHessianField(space_a)
    field_b = ReducedHessianField(space_b)

    def reduced_wedge(b, mats):
        Ha, bad = field_a(b.chart, b.points)
        if same:
            Hb = Ha
        else:
            Hb, bad_b = field_b(b.chart, b.points)
            bad = bad | bad_b
        dens = ddc_density(Ha, Hb)
        wq = _drop_vanished(b, bad, b.weights_lebesgue, "reduced families")
        return (lambda chi, f: chi * dens), wq

    totals = pair_blocks(_walk_rule(rule, space_a, space_b), forms,
                         densities=[reduced_wedge])[1][0]
    on_a = [_restricted_pairings(space_b, comp, forms, rule)
            for comp, _ in space_a.base_divisors]
    on_b = on_a if same else [_restricted_pairings(space_a, comp, forms, rule)
                              for comp, _ in space_b.base_divisors]
    for (_, k), r in zip(space_a.base_divisors, on_a):
        totals += (k / space_a.p) * r
    for (_, k), r in zip(space_b.base_divisors, on_b):
        totals += (k / space_b.p) * r
    wedge = wedge_descriptors(_family_class(space_a), _family_class(space_b))
    return point_mass_pairings(m, forms, [wedge["points"]], totals[None])[0]


def _family_class(space):
    """The class of the family current with its forced divisors kept.

    ``(q - sum_D k_D deg D) / p`` over the reference forms plus ``(k_D / p)
    [D]``: cohomologous to ``q / p``, but a wedge of two such classes drops
    the self-intersection of a shared divisor, as the wedge of the family
    currents does.
    """
    m = space.manifold
    omega = np.asarray(space.q, dtype=float)
    divisors = []
    for comp, k in space.base_divisors:
        if comp[0] == "coord":
            degree = np.zeros(m.factors)
            degree[m.coord_factors[comp[1]]] = 1.0
        else:
            degree = np.asarray(comp[2].degree, dtype=float)
        omega = omega - k * degree
        divisors.append((comp, k / space.p))
    return CurrentDescriptor(m, omega / space.p, divisors, 0.0)


def _restricted_pairings(space, comp, forms, surface):
    """``<[D] ^ beta, chi_f>`` for each form: the reduced current
    restricted to a divisor, its family evaluated once per line block (of
    the line rule's torus reduction, for a torus-invariant space).

    The line rule is the surface rule's (see :func:`_line_rule`), and the
    values of the forms' restrictions to the line
    (:meth:`TestForm.restriction`) stay in its blocks' memo: both live as
    long as ``surface``, so every p of a study on one rule shares them;
    only the family depends on p.
    """
    Rc, q_line = _line_family(space, comp)
    exps = np.arange(q_line + 1)

    def restricted(b, mats):
        e = exps if b.chart == 0 else q_line - exps
        V = eval_monomials(b.points, e[:, None], np.ones(q_line + 1)) @ Rc
        dV = eval_monomials(b.points, np.maximum(e - 1, 0)[:, None],
                            e.astype(float)) @ Rc
        H, bad = _family_hessian((V, [dV]), space.p)
        wq = _drop_vanished(b, bad, b.weights_lebesgue, "restricted family")
        dens = ddc_density(H)
        return (lambda chi, f: chi * dens), wq

    return pair_blocks(_walk_rule(_line_rule(q_line, surface), space),
                       [f.restriction(comp[1]) for f in forms],
                       densities=[restricted])[1][0]


def _line_family(space, comp):
    """Coefficients of the reduced family restricted to a coordinate divisor.

    Returns ``(Rc, q_line)`` where column j of Rc holds the binary-form
    coefficients of the j-th orthonormal section over the slots
    ``s^(q_line - a) t^a``.
    """
    if comp[0] != "coord":
        raise GeneralPositionError(
            "restrictions are available for coordinate divisors only")
    m = space.manifold
    i = comp[1]
    slots, _ = m.coordinate_line(i)
    E = space.exponents - space.coordinate_shift[None, :]
    keep = E[:, i] == 0
    if not np.any(keep):
        raise NumericalError("reduced family vanishes on the divisor")
    a_slot = E[keep, slots[1]]
    q_line = int(E[keep][0, slots[0]] + E[keep][0, slots[1]])
    R = np.zeros((q_line + 1, space.exponents.shape[0]))
    R[a_slot, np.nonzero(keep)[0]] = space.scales[keep]
    return space.orthonormal(R), q_line
