import math
import tracemalloc

import numpy as np
import pytest

from kahlerlab import fscurrents, geometry
from kahlerlab._kernels import eval_monomials
from kahlerlab.bundles import (CurrentDescriptor, LineBundle, LogPoleAtom,
                               Metric, SmoothedMaxAtom, _coord_intersection,
                               curvature_pairing, curve_divisor_points,
                               ddc_pairing, pair_omega_basis,
                               wedge_descriptors)
from kahlerlab.errors import (ConfigurationError, GeneralPositionError,
                              NumericalError)
from kahlerlab.fscurrents import (descriptor_form_pairing,
                                  descriptor_form_pairings,
                                  descriptor_wedge_pairing,
                                  descriptor_wedge_pairings,
                                  form_values_hom, fs_pairing, fs_pairings,
                                  fs_wedge_pairing, fs_wedge_pairings,
                                  log_norm_pairings)
from kahlerlab.geometry import (build_manifold, ddc_density,
                                quadrature_nodes, wedge_density_11)
from kahlerlab.polynomials import SectionPoly, coordinate_section
from kahlerlab.sections import build_section_space
from kahlerlab.testforms import TestForm, constant_form, test_form_dictionary
from kahlerlab.zeros import potential_rule


@pytest.fixture(scope="module")
def p1():
    return build_manifold("P1")


@pytest.fixture(scope="module")
def p2():
    return build_manifold("P2")


def two_pole_metric(m, L, t0, t1, i0=0, i1=1):
    a = Metric.log_pole(L, coordinate_section(m, i0), t0)
    b = Metric.log_pole(L, coordinate_section(m, i1), t1)
    return Metric(L, a.atoms + b.atoms)


# -- reference family: the current is an exact multiple of omega ------------


def test_reference_family_current_is_exact_multiple_of_omega(p1):
    L = LineBundle(p1, 2)
    p = 8
    rule = quadrature_nodes(p1, 32)
    forms = test_form_dictionary(p1, 1)[:5]
    for adjoint, shift in ((True, -2.0 / p), (False, 0.0)):
        sp = build_section_space(Metric.fubini_study(L), p, adjoint=adjoint)
        factor = 2.0 + shift
        for f in forms:
            base = factor * pair_omega_basis(0, f)
            assert abs(fs_pairing(sp, f, rule, "potential") - base) < 1e-12
            assert abs(fs_pairing(sp, f, rule, "derivative") - base) < 1e-12


# -- the two routes agree on singular metrics --------------------------------


def test_routes_agree_on_log_pole_curve(p1):
    L = LineBundle(p1, 2)
    p = 16
    h = Metric.log_pole(L, coordinate_section(p1, 0), 0.5)
    sp = build_section_space(h, p)
    assert sp.base_divisors == [(("coord", 0), 8)]
    rule = quadrature_nodes(p1, 48, singular_refinement=h.refinement_centers())
    forms = test_form_dictionary(p1, 1)
    A = fs_pairings(sp, forms, rule, "potential")
    B = fs_pairings(sp, forms, rule, "derivative")
    assert np.abs(A - B).max() < 1e-9
    one = constant_form(p1)
    # total mass is topological: degree plus the adjoint twist
    assert abs(fs_pairing(sp, one, rule, "potential") - (2 - 2 / p)) < 1e-12
    assert abs(fs_pairing(sp, one, rule, "derivative") - (2 - 2 / p)) < 1e-12


def test_routes_agree_on_polynomial_pole_curve(p1):
    L = LineBundle(p1, 2)
    Q = SectionPoly(p1, 2, np.array([[2, 0], [0, 2]]), np.array([1.0, -1.0]))
    h = Metric.log_pole(L, Q, 0.25)
    sp = build_section_space(h, 16)
    assert [(c[0], k) for c, k in sp.base_divisors] == [("poly", 2)]
    rule = quadrature_nodes(p1, 48, singular_refinement=h.refinement_centers())
    forms = test_form_dictionary(p1, 1)
    A = fs_pairings(sp, forms, rule, "potential")
    B = fs_pairings(sp, forms, rule, "derivative")
    assert np.abs(A - B).max() < 1e-10


def test_routes_agree_on_surface(p2):
    L = LineBundle(p2, 1)
    h = two_pole_metric(p2, L, 0.25, 0.25)
    sp = build_section_space(h, 16, resolution=32)
    rule = quadrature_nodes(p2, 8, singular_refinement=h.refinement_centers())
    forms = test_form_dictionary(p2, 1)[1:4]
    A = fs_pairings(sp, forms, rule, "potential")
    B = fs_pairings(sp, forms, rule, "derivative")
    assert np.abs(A - B).max() < 1e-6


# -- mass bookkeeping --------------------------------------------------------


def test_surface_masses_are_exact(p2):
    L = LineBundle(p2, 1)
    p = 16
    h = two_pole_metric(p2, L, 0.25, 0.25)
    sp = build_section_space(h, p, resolution=32)
    assert [k for _, k in sp.base_divisors] == [4, 4]
    rule = quadrature_nodes(p2, 24)
    one_w = constant_form(p2, omega_part=[1.0])
    target = 1 - 3 / p
    assert abs(fs_pairing(sp, one_w, rule, "potential") - target) < 1e-10
    assert abs(fs_pairing(sp, one_w, rule, "derivative") - target) < 1e-10
    # squaring the current loses exactly (k/p)^2 per divisor: a divisor
    # paired against itself carries no mass
    one = constant_form(p2)
    wedge_target = target ** 2 - 2 * (4 / p) ** 2
    assert abs(fs_wedge_pairing(sp, sp, one, rule) - wedge_target) < 1e-10


def test_product_masses_are_exact():
    m = build_manifold("P1xP1")
    L = LineBundle(m, (1, 2))
    p = 8
    h = two_pole_metric(m, L, 0.5, 0.25, i0=0, i1=2)
    sp = build_section_space(h, p, resolution=32)
    assert sp.base_divisors == [(("coord", 0), 4), (("coord", 2), 2)]
    rule = quadrature_nodes(m, 12)
    for vec, target in (([1.0, 0.0], 2 - 2 / p), ([0.0, 1.0], 1 - 2 / p)):
        one_w = constant_form(m, omega_part=vec)
        assert abs(fs_pairing(sp, one_w, rule, "potential") - target) < 1e-9
        assert abs(fs_pairing(sp, one_w, rule, "derivative") - target) < 1e-9
    # divisors sit on different rulings, so every cross term survives and
    # the squared mass matches the full product of classes
    one = constant_form(m)
    full = 2 * (1 - 2 / p) * (2 - 2 / p)
    assert abs(fs_wedge_pairing(sp, sp, one, rule) - full) < 1e-9


# -- divisor restriction integrals -------------------------------------------


def _divisor_current(m, comp):
    """``[D]`` of one component as a closed-form current."""
    return CurrentDescriptor(m, np.zeros(m.factors), [(comp, 1.0)])


def test_divisor_restriction_pairings(p2):
    z0 = coordinate_section(p2, 0)
    from kahlerlab.testforms import TestForm
    chi = TestForm(p2, 1.0, z0, z0, omega_part=[1.0], label="vanishing")
    one_w = constant_form(p2, [1.0])
    got = descriptor_form_pairings(_divisor_current(p2, ("coord", 0)),
                                   [chi, one_w])
    # chi vanishes identically on its own divisor
    assert got[0] == 0.0
    assert abs(got[1] - 1.0) < 1e-12

    m = build_manifold("P1xP1")
    forms = [constant_form(m, omega_part=[1.0, 0.0]),
             constant_form(m, omega_part=[0.0, 1.0])]
    got = descriptor_form_pairings(_divisor_current(m, ("coord", 0)), forms)
    assert abs(got[0] - 0.0) < 1e-12
    assert abs(got[1] - 1.0) < 1e-12


def test_closed_form_current_matches_stokes_route():
    cases = [("P1", 1, 48, 1e-9), ("P2", 1, 8, 1e-5), ("P1xP1", (1, 1), 8, 1e-9)]
    for kind, deg, res, tol in cases:
        m = build_manifold(kind)
        h = Metric.log_pole(LineBundle(m, deg), coordinate_section(m, 0), 1.0)
        rule = quadrature_nodes(m, res,
                                singular_refinement=h.refinement_centers())
        desc = h.curvature_descriptor()
        for f in test_form_dictionary(m, 1)[:4]:
            a = curvature_pairing(h, f, rule)
            b = descriptor_form_pairing(desc, f)
            assert abs(a - b) < tol, (kind, f.label, abs(a - b))


# A test form's mean on the rules of these tests (block sums of chi times
# the volume weights against ``TestForm.mean``) is off by up to 2.1e-10 on
# P2 rules of at most 8 radial nodes and by less than 1e-14 on the P1 and
# P1xP1 rules.
QUADRATURE_ERROR = {"P1": 1e-14, "P2": 2.5e-10, "P1xP1": 1e-14}


def _ref_descriptor_form_pairing(descriptor, form, rule):
    """``<T, form>`` one form per pass over the rule: the smooth part block
    by block, divisors of curves as point masses and those of surfaces on
    the line rule of ``rule``."""
    m = descriptor.manifold
    total = 0.0
    for b in rule.capped_blocks():
        chi = form.block_values(b)
        for i, c in enumerate(descriptor.omega):
            if c == 0.0:
                continue
            A = m.omega_basis_matrix(i, b.chart, b.points)
            if m.dim == 1:
                total += c * float(np.dot(chi * np.real(A[:, 0, 0]),
                                          b.weights_lebesgue)) / math.pi
                continue
            Bm = sum(w * m.omega_basis_matrix(k, b.chart, b.points)
                     for k, w in enumerate(form.omega_part))
            total += c * float(np.dot(chi * wedge_density_11(A, Bm),
                                      b.weights_lebesgue / 4.0))
    for comp, nu in descriptor.divisors:
        if m.dim == 1:
            total += nu * sum(float(form_values_hom(m, [form], pt[None])[0, 0])
                              for pt in curve_divisor_points(comp))
            continue
        _, factor = m.coordinate_line(comp[1])
        line = form.restriction(comp[1])
        for b in fscurrents._line_rule(0, rule).capped_blocks():
            total += nu * form.omega_part[factor] * float(
                np.dot(line.block_values(b), b.weights_volume))
    if descriptor.circle:
        theta = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
        chi = np.asarray(form.chi(0, np.exp(1j * theta)[:, None]),
                         dtype=float)
        total += descriptor.circle * float(chi.mean())
    return total


@pytest.mark.parametrize("kind", ["P1", "P2", "P1xP1"])
def test_descriptor_form_pairings_match_the_per_form_passes(monkeypatch,
                                                            kind):
    m = build_manifold(kind)
    L = LineBundle(m, 1 if kind != "P1xP1" else (1, 1))
    if kind == "P1":
        # omega, a divisor and the circle measure
        h = Metric(L, Metric.log_pole(L, coordinate_section(m, 0), 0.5).atoms
                   + Metric.max_log(L, 0.25).atoms)
    elif kind == "P2":
        h = two_pole_metric(m, L, 0.25, 0.5)
    else:
        h = Metric.log_pole(L, coordinate_section(m, 2), 0.5)
    desc = h.curvature_descriptor()

    def rule_of_nodes():
        return quadrature_nodes(m, 8 if m.dim == 2 else 16,
                                singular_refinement=h.refinement_centers())

    forms = test_form_dictionary(m, 1, 6)
    want = [_ref_descriptor_form_pairing(desc, f, rule_of_nodes())
            for f in forms]
    calls = []
    basis = type(m).omega_basis_matrix

    def counted(self, *args):
        calls.append(args[0])
        return basis(self, *args)

    monkeypatch.setattr(type(m), "omega_basis_matrix", counted)
    got = descriptor_form_pairings(desc, forms)
    np.testing.assert_allclose(got, want, rtol=0, atol=QUADRATURE_ERROR[kind])
    # the pairing is closed-form: it takes no omega basis matrix
    assert calls == []
    assert descriptor_form_pairing(desc, forms[2]) == got[2]


def test_descriptor_wedge_mass(p2):
    L = LineBundle(p2, 1)
    nu = 0.25
    h = two_pole_metric(p2, L, nu, nu)
    W = wedge_descriptors(h.curvature_descriptor(), h.curvature_descriptor())
    got = descriptor_wedge_pairing(p2, W, constant_form(p2))
    assert abs(got - (1 - 2 * nu ** 2)) < 1e-9


# -- argument validation ------------------------------------------------------


def test_pairing_guards(p1, p2):
    L = LineBundle(p2, 1)
    sp = build_section_space(Metric.fubini_study(L), 4)
    rule = quadrature_nodes(p2, 8)
    scalar = constant_form(p2)
    with pytest.raises(ConfigurationError):
        fs_pairing(sp, scalar, rule)
    with pytest.raises(ConfigurationError):
        pair_omega_basis(0, scalar)
    with pytest.raises(ConfigurationError):
        fs_pairing(sp, constant_form(p2, omega_part=[1.0]), rule, route="nope")
    with pytest.raises(ConfigurationError):
        fs_wedge_pairing(sp, sp, constant_form(p2, omega_part=[1.0]), rule)
    sp1 = build_section_space(Metric.fubini_study(LineBundle(p1, 1)), 4)
    with pytest.raises(ConfigurationError):
        fs_wedge_pairing(sp1, sp1, constant_form(p1),
                         quadrature_nodes(p1, 8))
    Q = SectionPoly(p2, 1, np.array([[1, 0, 0]]), np.array([1.0]))
    with pytest.raises(GeneralPositionError):
        descriptor_form_pairings(_divisor_current(p2, ("poly", 0, Q)),
                                 [constant_form(p2, omega_part=[1.0])])


def test_form_point_values_preserve_order(p2):
    f = test_form_dictionary(p2, 1)[1]
    pts = p2.sample_grid(40)
    vals = form_values_hom(p2, [f], pts)[:, 0]
    single = [form_values_hom(p2, [f], pts[i:i + 1])[0, 0]
              for i in range(40)]
    assert np.allclose(vals, single, atol=1e-14)


# -- batched pairings against per-form loops -----------------------------------
#
# The references below pair one form at a time, block by block, the way a
# single pairing is defined; the batched routines must reproduce them.


def _chi(form, block):
    # the library's block values, so the batching is checked bit for bit
    return form.block_values(block)


def _ref_restricted(space, comp, form, surface, nflag=0, full=False):
    """The restricted pairing on the line rule of the surface rule
    ``surface``, with the first ``nflag`` nodes of each line block dropped
    as if the family vanished there.  A torus-invariant family walks the
    line rule's torus reduction, as the library does, unless ``full``."""
    Rc, q_line = fscurrents._line_family(space, comp)
    rule = fscurrents._line_rule(q_line, surface)
    if space.torus_invariant and not full:
        rule = rule.torus_reduced()
    line_form = form.restriction(comp[1])
    exps = np.arange(q_line + 1)
    total = 0.0
    for b in rule.capped_blocks():
        Z = b.points
        e = exps if b.chart == 0 else q_line - exps
        V = eval_monomials(Z, e[:, None], np.ones(q_line + 1)) @ Rc
        dV = eval_monomials(Z, np.maximum(e - 1, 0)[:, None],
                            e.astype(float)) @ Rc
        F = np.einsum("nj,nj->n", np.abs(V), np.abs(V))
        bad = F < 1e-290
        bad[:nflag] = True
        Fs = np.where(bad, 1.0, F)
        Fa = np.einsum("nj,nj->n", dV, np.conj(V))
        Faa = np.einsum("nj,nj->n", np.abs(dV), np.abs(dV))
        H = np.real(Faa * Fs - np.abs(Fa) ** 2) / Fs ** 2 / (2.0 * space.p)
        wq = np.where(bad, 0.0, b.weights_lebesgue)
        chi = _chi(line_form, b)
        total += float(np.dot(chi * H / math.pi, wq))
    return total


def _ref_fs_wedge(sa, sb, form, rule, full=False):
    """The wedge pairing block by block; two torus-invariant families walk
    the rule's torus reduction, as the library does, unless ``full``."""
    m = sa.manifold
    toric = sa.torus_invariant and sb.torus_invariant and not full
    walk = rule.torus_reduced() if toric else rule
    total = 0.0
    for b in walk.capped_blocks():
        Ha, bad_a = fscurrents._reduced_hessian(sa, b.chart, b.points)
        Hb, bad_b = fscurrents._reduced_hessian(sb, b.chart, b.points)
        bad = bad_a | bad_b
        dens = wedge_density_11(Ha, Hb)
        assert np.count_nonzero(bad) <= max(8, b.points.shape[0] // 10000)
        wq = np.where(bad, 0.0, b.weights_lebesgue / 4.0)
        total += float(np.dot(_chi(form, b) * dens, wq))
    for comp, k in sa.base_divisors:
        total += (k / sa.p) * _ref_restricted(sb, comp, form, rule,
                                              full=full)
    for comp, k in sb.base_divisors:
        total += (k / sb.p) * _ref_restricted(sa, comp, form, rule,
                                              full=full)
    for comp_a, ka in sa.base_divisors:
        for comp_b, kb in sb.base_divisors:
            if comp_a[1] != comp_b[1]:
                for pt in _coord_intersection(m, comp_a[1], comp_b[1]):
                    total += (ka * kb / (sa.p * sb.p)) * float(
                        form_values_hom(m, [form], pt[None, :])[0, 0])
    return total


def _ref_descriptor_wedge(m, wedge, form, rule):
    pairs = wedge["omega_pairs"]
    total = 0.0
    for b in rule.capped_blocks():
        mats = [m.omega_basis_matrix(i, b.chart, b.points)
                for i in range(m.factors)]
        for i in range(m.factors):
            for j in range(m.factors):
                if pairs[i, j] != 0.0:
                    dens = wedge_density_11(mats[i], mats[j])
                    total += pairs[i, j] * float(np.dot(
                        _chi(form, b) * dens, b.weights_lebesgue / 4.0))
    line_rule = fscurrents._line_rule(0, rule)
    for comp, vec in wedge["divisor_omega"]:
        _, omega_index = m.coordinate_line(comp[1])
        for b in line_rule.capped_blocks():
            chi = _chi(form.restriction(comp[1]), b)
            total += vec[omega_index] * float(np.dot(chi, b.weights_volume))
    for pt, mass in wedge["points"]:
        total += mass * float(form_values_hom(m, [form], pt[None])[0, 0])
    return total


def _wedge_case(name):
    """(manifold, metric a, metric b, p) of one wedge test case."""
    if name == "P1xP1":
        m = build_manifold("P1xP1")
        h = two_pole_metric(m, LineBundle(m, (1, 2)), 0.5, 0.25, i0=0, i1=2)
        return m, h, h, 6
    m = build_manifold("P2")
    L = LineBundle(m, 1)
    ha = Metric.log_pole(L, coordinate_section(m, 0), 0.5)
    if name == "P2-self":
        return m, ha, ha, 8
    # poles on distinct coordinates meet in a transverse point
    return m, ha, Metric.log_pole(L, coordinate_section(m, 1), 0.25), 8


def _ref_reduced_hessian(space, chart, Z):
    """``fscurrents._reduced_hessian`` on surfaces as it was, with every
    sum taken inside the ``(a, b)`` loop."""
    V, dV = space.reduced_section_values(chart, Z, derivs=True)
    F = np.einsum("nj,nj->n", np.abs(V), np.abs(V))
    bad = F < 1e-290
    Fs = np.where(bad, 1.0, F)
    scale = 1.0 / (2.0 * space.p)
    H = np.empty((Z.shape[0], 2, 2), dtype=complex)
    for a in range(2):
        Fa = np.einsum("nj,nj->n", dV[a], np.conj(V))
        for b in range(2):
            Fab = np.einsum("nj,nj->n", dV[a], np.conj(dV[b]))
            Fb = np.einsum("nj,nj->n", dV[b], np.conj(V))
            H[:, a, b] = scale * (Fab * Fs - Fa * np.conj(Fb)) / Fs ** 2
    H[bad] = 0.0
    return H, bad


@pytest.mark.parametrize("kind", ["P1", "P2", "P1xP1"])
def test_hessians_are_n_by_n_on_every_manifold(kind):
    # every (1,1)-form is an (N, n, n) Hessian, curves included, and a
    # density wedges exactly n of them
    m = build_manifold(kind)
    n = m.dim
    L = LineBundle(m, (1,) * m.factors)
    sp = build_section_space(
        Metric.log_pole(L, coordinate_section(m, 0), 0.5), 6, resolution=16)
    b = quadrature_nodes(m, 8).capped_blocks()[0]
    shape = (b.num_nodes, n, n)
    forms = test_form_dictionary(m, 1, 3)
    assert forms[0].constant
    for f in forms:
        assert f.hessian(b.chart, b.points).shape == shape
    mats = [m.omega_basis_matrix(i, b.chart, b.points)
            for i in range(m.factors)]
    assert [mat.shape for mat in mats] == [shape] * m.factors
    H, bad = fscurrents.ReducedHessianField(sp)(b.chart, b.points)
    assert H.shape == shape and bad.shape == (b.num_nodes,)
    assert ddc_density(*[H] * n).shape == (b.num_nodes,)
    with pytest.raises(ConfigurationError):
        ddc_density(*[H] * (n + 1))


@pytest.mark.parametrize("case", ["P2-self", "P1xP1"])
def test_reduced_hessian_keeps_its_bits(case):
    m, h, _, p = _wedge_case(case)
    sp = build_section_space(h, p, resolution=16)
    assert sp.base_divisors
    for b in quadrature_nodes(m, 8).capped_blocks():
        H, bad = fscurrents._reduced_hessian(sp, b.chart, b.points)
        ref_H, ref_bad = _ref_reduced_hessian(sp, b.chart, b.points)
        assert H.tobytes() == ref_H.tobytes()
        assert bad.tobytes() == ref_bad.tobytes()


@pytest.mark.parametrize("case", ["P2-self", "P2-transverse", "P1xP1"])
def test_batched_wedge_pairings_match_the_per_form_loop(case):
    m, ha, hb, p = _wedge_case(case)
    sa = build_section_space(ha, p, resolution=16)
    sb = sa if hb is ha else build_section_space(hb, p, resolution=16)
    assert sa.base_divisors and sb.base_divisors
    rule = quadrature_nodes(m, 8)
    forms = test_form_dictionary(m, 2, 4)
    got = fs_wedge_pairings(sa, sb, forms, rule)
    ref = [_ref_fs_wedge(sa, sb, f, rule) for f in forms]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    wedge = wedge_descriptors(ha.curvature_descriptor(),
                              hb.curvature_descriptor())
    if case == "P2-transverse":
        assert len(wedge["points"]) == 1
    got = descriptor_wedge_pairings(m, wedge, forms)
    ref = [_ref_descriptor_wedge(m, wedge, f, rule) for f in forms]
    np.testing.assert_allclose(got, ref, rtol=0, atol=QUADRATURE_ERROR[m.kind])
    assert got[1] == descriptor_wedge_pairing(m, wedge, forms[1])


def test_batched_potential_pairings_match_the_per_form_loop(p1):
    L = LineBundle(p1, 2)
    h = Metric.log_pole(L, coordinate_section(p1, 0), 0.5)
    sp = build_section_space(h, 8)
    rule = quadrature_nodes(p1, 32, singular_refinement=h.refinement_centers())
    forms = test_form_dictionary(p1, 1, 5)

    def family_log_norm(chart, Z):
        # 1/2 log of the family's squared norm in the reference frame
        V = sp.orthonormal(sp.monomial_values(chart, Z))
        F = np.einsum("nj,nj->n", np.abs(V), np.abs(V))
        base = -sp.p * L.reference_weight(chart, Z)
        base += 0.5 * np.log(p1.canonical_factor(chart, Z))
        return 0.5 * np.log(F) + base

    # forms odd under a symmetry pair to rounding noise (~1e-17), so the
    # reference adds its terms in the routine's order
    ref = []
    for f in forms:
        om = pair_omega_basis(0, f)
        total = ddc_pairing(family_log_norm, f, rule, integrable=True)
        total += sp.p * (2 * om) - 2 * om
        ref.append(total / sp.p)
    np.testing.assert_allclose(fs_pairings(sp, forms, rule), ref,
                               rtol=1e-12, atol=0)


def test_family_row_traced_memory_stays_chunk_sized(p1):
    # the p1-zeros pole at p = 8: 11 members on a potential rule whose
    # largest capped block holds 249,280 nodes
    h = Metric.log_pole(LineBundle(p1, 2), SectionPoly.from_coeff_map(
        p1, 1, {(1, 0): 1.0, (0, 1): 0.6 + 0.3j}), 0.5)
    sp = build_section_space(h, 8)
    rule = potential_rule(h)
    nodes = max(b.num_nodes for b in rule.capped_blocks())
    assert (sp.dim, nodes) == (11, 249_280)
    tracemalloc.start()
    try:
        log_norm_pairings(sp, [constant_form(p1)], rule, family=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the block's 43.9 MB monomial values, the whole block's frame
    # product and its modulus peaked at 74 MB; in node chunks the rest of
    # the walk (the block's mesh, weights and potential) takes 23 MB
    assert peak - 16 * sp.dim * nodes < 32 * 2 ** 20


def _non_toric_space(p2):
    """A P2 space with the base divisor ``{z0 = 0}`` whose metric is not
    torus-invariant (a smoothed max off the axes), so that its reduced
    family could vanish at isolated nodes: a toric family vanishes on whole
    torus orbits."""
    L = LineBundle(p2, 1)
    Q1 = SectionPoly.from_coeff_map(p2, 1, {(1, 0, 0): 1.0, (0, 1, 0): 0.5})
    Q2 = SectionPoly.from_coeff_map(p2, 1, {(0, 0, 1): 1.0, (0, 1, 0): -0.3})
    h = Metric(L, [(1.0, LogPoleAtom(coordinate_section(p2, 0), 0.5)),
                   (0.5, SmoothedMaxAtom(Q1, Q2, 0.1, 0.5))])
    sp = build_section_space(h, 8, resolution=16)
    assert not sp.torus_invariant and sp.gram_method == "modes"
    assert sp.base_divisors == [(("coord", 0), 4)]
    return sp


@pytest.mark.parametrize("nbad", [3, 40])
def test_vanished_nodes_are_dropped_or_raise(p2, monkeypatch, nbad):
    sp = _non_toric_space(p2)
    rule = quadrature_nodes(p2, 8)
    forms = test_form_dictionary(p2, 2, 3)
    clean = fs_wedge_pairings(sp, sp, forms, rule)
    reduced_hessian = fscurrents._reduced_hessian

    def flagged(space, chart, Z):
        # H stays finite at the flagged nodes: only the weights drop them
        H, bad = reduced_hessian(space, chart, Z)
        bad = bad.copy()
        bad[:nbad] = True
        return H, bad

    monkeypatch.setattr(fscurrents, "_reduced_hessian", flagged)
    omega_forms = [constant_form(p2, omega_part=[1.0])]
    if nbad > 8:
        with pytest.raises(NumericalError):
            fs_wedge_pairings(sp, sp, forms, rule)
        with pytest.raises(NumericalError):
            fs_pairings(sp, omega_forms, rule, route="derivative")
        return
    got = fs_wedge_pairings(sp, sp, forms, rule)
    ref = [_ref_fs_wedge(sp, sp, f, rule) for f in forms]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    assert np.all(got != clean)


@pytest.mark.parametrize("nbad", [3, 40])
def test_vanished_line_nodes_are_dropped_or_raise(p2, monkeypatch, nbad):
    sp = _non_toric_space(p2)
    comp = sp.base_divisors[0][0]
    # the forms of the dictionary that do not vanish on {z0 = 0}
    forms = [test_form_dictionary(p2, 2, 10)[i] for i in (0, 6, 9)]
    rule = quadrature_nodes(p2, 8)
    clean = fscurrents._restricted_pairings(sp, comp, forms, rule)
    family_hessian = fscurrents._family_hessian

    def flagged(values, p):
        # H stays finite at the flagged nodes: only the weights drop them
        H, bad = family_hessian(values, p)
        bad = bad.copy()
        bad[:nbad] = True
        return H, bad

    monkeypatch.setattr(fscurrents, "_family_hessian", flagged)
    if nbad > 8:
        with pytest.raises(NumericalError):
            fscurrents._restricted_pairings(sp, comp, forms, rule)
        return
    got = fscurrents._restricted_pairings(sp, comp, forms, rule)
    ref = [_ref_restricted(sp, comp, f, rule, nflag=nbad) for f in forms]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    assert np.all(got != clean)


def _toric_space(p2):
    h = Metric.log_pole(LineBundle(p2, 1), coordinate_section(p2, 0), 0.5)
    sp = build_section_space(h, 8, resolution=16)
    assert sp.torus_invariant
    return sp


@pytest.mark.parametrize("where", ["surface", "line"])
def test_a_vanished_radial_node_drops_its_orbit(p2, monkeypatch, where):
    # a torus-invariant family walks the torus-reduced rule, where one
    # vanished node stands for a whole torus orbit, so it raises
    sp = _toric_space(p2)
    comp = sp.base_divisors[0][0]
    forms = test_form_dictionary(p2, 2, 2)
    rule = quadrature_nodes(p2, 8)
    if where == "surface":
        walked = rule.torus_reduced()
        name = "_reduced_hessian"
    else:
        _, q_line = fscurrents._line_family(sp, comp)
        walked = fscurrents._line_rule(q_line, rule).torus_reduced()
        name = "_family_hessian"
    blocks = walked.capped_blocks()
    field = getattr(fscurrents, name)
    k = 5  # the flagged node of each reduced block

    def flagged(*args):
        H, bad = field(*args)
        bad = bad.copy()
        bad[k] = True
        return H, bad

    dropped = []
    drop = fscurrents._drop_vanished

    def recorded(block, bad, weights, what):
        dropped.append((block, bad))
        return np.where(bad, 0.0, weights)

    monkeypatch.setattr(fscurrents, name, flagged)
    monkeypatch.setattr(fscurrents, "_drop_vanished", recorded)

    def pairings():
        if where == "surface":
            return fs_wedge_pairings(sp, sp, forms, rule)
        return fscurrents._restricted_pairings(sp, comp, forms, rule)

    pairings()
    assert len(dropped) >= len(blocks)
    for b, (walked, bad) in zip(blocks, dropped):
        assert walked is b and b.torus_reduced
        np.testing.assert_array_equal(np.flatnonzero(bad), [k])
    monkeypatch.setattr(fscurrents, "_drop_vanished", drop)
    with pytest.raises(NumericalError, match="at 1 quadrature nodes"):
        pairings()


def _captured_densities(monkeypatch):
    """Patch ``fscurrents.pair_blocks`` so that each walk appends a list of
    ``(block, density)``: each density's integrand at ``chi = 1``."""
    walks = []
    walk = fscurrents.pair_blocks

    def capturing(rule, forms, potentials=(), densities=(), **kwargs):
        seen = []
        walks.append(seen)

        def wrap(density):
            def seen_density(b, mats):
                integrand, w = density(b, mats)
                seen.append((b, integrand(np.ones(b.num_nodes), forms[0])))
                return integrand, w
            return seen_density

        return walk(rule, forms, potentials, [wrap(d) for d in densities],
                    **kwargs)

    monkeypatch.setattr(fscurrents, "pair_blocks", capturing)
    return walks


def _node_line_hessian(space, comp, b):
    """The restricted family's Hessian at every node of a line block."""
    Rc, q_line = fscurrents._line_family(space, comp)
    exps = np.arange(q_line + 1)
    e = exps if b.chart == 0 else q_line - exps
    V = eval_monomials(b.points, e[:, None], np.ones(q_line + 1)) @ Rc
    dV = eval_monomials(b.points, np.maximum(e - 1, 0)[:, None],
                        e.astype(float)) @ Rc
    return fscurrents._family_hessian((V, [dV]), space.p)[0]


def _assert_spread(rule, seen, node_density):
    """The densities ``seen`` on the walk of ``rule.torus_reduced()``, one
    angle per axis, against ``node_density(b)`` at every node of the full
    rule's capped blocks: each reduced node's density holds on its orbit."""
    reduced = rule.torus_reduced()
    assert [b for b, _ in seen] == reduced.capped_blocks()
    got = np.concatenate([dens for _, dens in seen])
    start = 0
    for full, red in zip(rule.blocks, reduced.blocks):
        dens = got[start:start + red.num_nodes].reshape(red.shape)
        start += red.num_nodes
        row = 0
        for b in full.split(geometry._BLOCK_MAX_NODES):
            ref = node_density(b).reshape(b.shape)
            rows = len(b.axes[0].x)
            gap = np.abs(dens[row:row + rows] - ref)
            row += rows
            assert np.max(gap) <= 1e-13 * np.max(np.abs(ref))
        assert row == red.shape[0]
    assert start == len(got)


@pytest.mark.parametrize("resolution", [8, 16])
@pytest.mark.parametrize("case", ["P2-self", "P2-transverse", "P1xP1"])
def test_spread_densities_match_the_per_node_ones(case, resolution,
                                                  monkeypatch):
    # a torus-invariant walk takes each density at one angle per axis of
    # the reduced rule; it must be the per-node density at every angle
    m, sa, sb, _ = _wedge_spaces(case)
    assert sa.torus_invariant and sb.torus_invariant
    rule = quadrature_nodes(m, resolution)
    forms = test_form_dictionary(m, 2, 2)
    walks = _captured_densities(monkeypatch)

    def wedge(b):
        Ha, _ = fscurrents._reduced_hessian(sa, b.chart, b.points)
        Hb, _ = fscurrents._reduced_hessian(sb, b.chart, b.points)
        return ddc_density(Ha, Hb)

    fs_wedge_pairings(sa, sb, forms, rule)
    _assert_spread(rule, walks[0], wedge)
    for sp, other in ((sa, sb), (sb, sa)):
        for comp, _ in other.base_divisors:
            del walks[:]
            fscurrents._restricted_pairings(sp, comp, forms, rule)
            (seen,) = walks
            _, q_line = fscurrents._line_family(sp, comp)
            _assert_spread(fscurrents._line_rule(q_line, rule), seen,
                           lambda b: ddc_density(
                               _node_line_hessian(sp, comp, b)))


@pytest.mark.parametrize("toric", [True, False])
def test_reduced_hessian_takes_the_radial_slice_of_toric_spaces(p2, toric,
                                                                monkeypatch):
    sp = _toric_space(p2) if toric else _non_toric_space(p2)
    rule = quadrature_nodes(p2, 8)
    sizes = []
    call = fscurrents.ReducedHessianField.__call__

    def counted(self, chart, Z):
        sizes.append(Z.shape[0])
        return call(self, chart, Z)

    monkeypatch.setattr(fscurrents.ReducedHessianField, "__call__", counted)
    fs_wedge_pairings(sp, sp, test_form_dictionary(p2, 2, 2), rule)
    reduced = rule.torus_reduced()
    walked = reduced if toric else rule
    assert sizes == [b.num_nodes for b in walked.capped_blocks()]
    # a reduced block is its block's radial slice: one node per radial tuple
    for b, r in zip(rule.blocks, reduced.blocks):
        assert r.num_nodes == math.prod(len(ax.x) for ax in b.axes)
        assert r.num_nodes < b.num_nodes


def _mixed_form(m, omega_part=None):
    """A form with equal- and unequal-exponent term pairs and a complex
    ``c``: its torus average keeps the pairs of equal exponents."""
    if m.kind == "P1":
        deg = 1
        a = {(1, 0): 1.0, (0, 1): 0.3 - 0.2j}
        b = {(1, 0): 1.2, (0, 1): 0.5j}
    elif m.kind == "P2":
        deg = 1
        a = {(1, 0, 0): 1.0, (0, 1, 0): 0.3 - 0.2j}
        b = {(1, 0, 0): 1.2, (0, 0, 1): 0.5j}
    else:
        deg = (1, 1)
        a = {(1, 0, 1, 0): 1.0, (0, 1, 1, 0): 0.3 - 0.2j}
        b = {(1, 0, 1, 0): 1.2, (0, 1, 0, 1): 0.5j}
    return TestForm(m, 0.4 + 0.9j, SectionPoly.from_coeff_map(m, deg, a),
                    SectionPoly.from_coeff_map(m, deg, b), omega_part,
                    "mixed")


def _averages_out(form):
    """Whether no term pair of the form has equal exponents."""
    return not form.constant and not any(
        np.array_equal(ea, eb) for ea in form.A.exponents
        for eb in form.B.exponents)


def _full_pointwise(space, forms, rule):
    """The derivative route's pointwise part on the full rule, with the
    reduced Hessian at every node."""
    m = space.manifold
    totals = np.zeros(len(forms))
    for b in rule.capped_blocks():
        H, bad = fscurrents._reduced_hessian(space, b.chart, b.points)
        assert not np.any(bad)
        mats = [m.omega_basis_matrix(i, b.chart, b.points)
                for i in range(m.factors)]
        for i, f in enumerate(forms):
            if m.dim == 1:
                dens = np.real(H[:, 0, 0]) / math.pi
                w = b.weights_lebesgue
            else:
                omega = sum(c * mat for c, mat in zip(f.omega_part, mats))
                dens = wedge_density_11(H, omega)
                w = b.weights_lebesgue / 4.0
            totals[i] += float(np.dot(f.block_values(b) * dens, w))
    return totals


def _toric_p1_space():
    p1 = build_manifold("P1")
    h = Metric.log_pole(LineBundle(p1, 2), coordinate_section(p1, 0), 0.5)
    return p1, build_section_space(h, 8)


# Largest gap between a torus-invariant pairing on the torus-reduced rule
# and the per-node loop on the full rule, relative to the largest pairing
# of the call: measured at most 8.4e-16 over the cases below, at
# resolutions 8 and 16.
TORUS_REDUCTION_ERROR = 2e-15


@pytest.mark.parametrize("case", ["P2-self", "P2-transverse", "P1xP1", "P1"])
def test_torus_reduced_walks_match_the_full_rule(case, monkeypatch):
    if case == "P1":
        m, sa = _toric_p1_space()
        sb = sa
    else:
        m, sa, sb, _ = _wedge_spaces(case)
    assert sa.torus_invariant and sb.torus_invariant
    rule = quadrature_nodes(m, 8)
    reduced = rule.torus_reduced()

    def assert_close(got, ref, forms):
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= TORUS_REDUCTION_ERROR * scale
        for f, g in zip(forms, got):
            if _averages_out(f):
                assert g == 0.0, f.label

    sizes = []
    call = fscurrents.ReducedHessianField.__call__

    def counted(self, chart, Z):
        sizes.append(Z.shape[0])
        return call(self, chart, Z)

    monkeypatch.setattr(fscurrents.ReducedHessianField, "__call__", counted)
    omega = None if m.dim == 1 else m.omega_coeffs()
    forms = test_form_dictionary(m, 1, 8) + [_mixed_form(m, omega)]
    assert any(map(_averages_out, forms))
    got = fs_pairings(sa, forms, rule, route="derivative")
    ref = _full_pointwise(sa, forms, rule)
    for comp, k in sa.base_divisors:
        ref += (k / sa.p) * fscurrents._divisor_pairings(m, comp, forms)
    assert_close(got, ref, forms)
    # one Hessian per reduced block, at its nodes
    assert sizes == [b.num_nodes for b in reduced.capped_blocks()]
    if m.dim == 1:
        return

    forms = test_form_dictionary(m, 2, 8) + [_mixed_form(m)]
    del sizes[:]
    got = fs_wedge_pairings(sa, sb, forms, rule)
    ref = [_ref_fs_wedge(sa, sb, f, rule, full=True) for f in forms]
    assert_close(got, np.array(ref), forms)
    per_block = 1 if sb is sa else 2
    assert sizes == [b.num_nodes for b in reduced.capped_blocks()
                     for _ in range(per_block)]
    for sp, other in ((sa, sb), (sb, sa)):
        for comp, _ in other.base_divisors:
            got = fscurrents._restricted_pairings(sp, comp, forms, rule)
            ref = [_ref_restricted(sp, comp, f, rule, full=True)
                   for f in forms]
            assert_close(got, np.array(ref), forms)


# -- p-independent values live with the rule -------------------------------------


def _wedge_spaces(case):
    m, ha, hb, p = _wedge_case(case)
    sa = build_section_space(ha, p, resolution=16)
    sb = sa if hb is ha else build_section_space(hb, p, resolution=16)
    wedge = wedge_descriptors(ha.curvature_descriptor(),
                              hb.curvature_descriptor())
    return m, sa, sb, wedge


def test_wedge_pairings_on_one_rule_build_one_line_rule(monkeypatch):
    m, sa, sb, wedge = _wedge_spaces("P2-transverse")
    rule = quadrature_nodes(m, 8)
    forms = test_form_dictionary(m, 2, 3)
    built = []
    build = geometry.quadrature_nodes

    def counted(manifold, resolution, *args, **kwargs):
        built.append((manifold.kind, resolution))
        return build(manifold, resolution, *args, **kwargs)

    monkeypatch.setattr(geometry, "quadrature_nodes", counted)
    first = fs_wedge_pairings(sa, sb, forms, rule)
    second = fs_wedge_pairings(sa, sb, forms, rule)
    descriptor_wedge_pairings(m, wedge, forms)
    assert built == [("P1", 48)]
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("case", ["P2-transverse", "P1xP1"])
def test_reused_rule_gives_the_fresh_rule_floats(case):
    m, sa, sb, wedge = _wedge_spaces(case)
    forms = test_form_dictionary(m, 2, 4)
    omega_forms = test_form_dictionary(m, 1, 4)

    def pairings(rule):
        return np.concatenate([
            fs_wedge_pairings(sa, sb, forms, rule),
            descriptor_wedge_pairings(m, wedge, forms),
            fs_pairings(sa, omega_forms, rule, route="derivative"),
        ])

    reused = quadrature_nodes(m, 8)
    first = pairings(reused)
    again = pairings(reused)
    fresh = pairings(quadrature_nodes(m, 8))
    assert again.tobytes() == first.tobytes() == fresh.tobytes()


def test_divisor_lines_keep_separate_values(p2):
    # |z_0|^2-type forms vanish on {z0 = 0} but not on {z1 = 0}, so a memo
    # of the line blocks keyed by the form alone would hand the second
    # line the first's values
    sp = build_section_space(Metric.fubini_study(LineBundle(p2, 1)), 4)
    forms = test_form_dictionary(p2, 2, 4)[1:]
    rule = quadrature_nodes(p2, 8)
    shared = [fscurrents._restricted_pairings(sp, ("coord", i), forms, rule)
              for i in (0, 1)]
    fresh = [fscurrents._restricted_pairings(sp, ("coord", i), forms,
                                             quadrature_nodes(p2, 8))
             for i in (0, 1)]
    assert not np.array_equal(shared[0], shared[1])
    for got, ref in zip(shared, fresh):
        assert got.tobytes() == ref.tobytes()
