import functools
import math

import numpy as np
import pytest

from kahlerlab.errors import (ConfigurationError, GeneralPositionError,
                              UnsupportedMetricError)
from kahlerlab.geometry import (Manifold, build_manifold, ddc_density,
                                quadrature_nodes, wedge_density_11)
from kahlerlab.polynomials import (SectionPoly, coordinate_section,
                                   monomial_exponents)
from kahlerlab.bundles import (
    LineBundle,
    Metric,
    _coord_intersection,
    _ddc_weights,
    _form_omega_factors,
    _unit_degree,
    class_pairings,
    curvature_pairing,
    finite_potential,
    form_values_hom,
    pair_blocks,
    pair_omega_basis,
    point_mass_pairings,
    wedge_descriptors,
)
from kahlerlab.fscurrents import (descriptor_form_pairing,
                                  descriptor_form_pairings, fs_pairings)
from kahlerlab.sections import SectionSpace, build_section_space
from kahlerlab.testforms import TestForm, constant_form, test_form_dictionary as form_dictionary
from kahlerlab.zeros import (ZeroSet, curve_zero_sets, point_pairings,
                             sample_section, zero_pairings)


@pytest.fixture(scope="module")
def p1():
    return build_manifold("P1")


@pytest.fixture(scope="module")
def p2():
    return build_manifold("P2")


def p1_metrics(p1):
    L = LineBundle(p1, 3)
    z1 = coordinate_section(p1, 1)
    Qgen = SectionPoly.from_coeff_map(p1, 2, {(2, 0): 1.0, (0, 2): -0.5})
    return L, [
        Metric.fubini_study(L),
        Metric.log_pole(L, z1, 0.5),
        Metric.log_pole(L, Qgen, 0.7),
        Metric.max_log(L, 0.6),
    ]


def test_p1_curvature_pairing_matches_closed_form(p1):
    L, metrics = p1_metrics(p1)
    forms = form_dictionary(p1, 1, count=8)
    for metric in metrics:
        rule = quadrature_nodes(
            p1, 48, singular_refinement=metric.refinement_centers())
        desc = metric.curvature_descriptor()
        one = constant_form(p1, p1.omega_coeffs())
        assert abs(descriptor_form_pairings(desc, [one])[0] - 3.0) < 1e-12
        for f in forms:
            a = curvature_pairing(metric, f, rule)
            b = descriptor_form_pairing(desc, f)
            assert abs(a - b) < 1e-7


def test_curvature_mass_is_degree(p2):
    L = LineBundle(p2, 2)
    met = Metric.log_pole(L, coordinate_section(p2, 0), 0.25)
    rule = quadrature_nodes(p2, 32,
                            singular_refinement=met.refinement_centers())
    one = constant_form(p2, p2.omega_coeffs())
    assert abs(curvature_pairing(met, one, rule) - 2.0) < 1e-9


def test_p2_pole_pairing_closed_form(p2):
    # chi = |z0|^2/|Z|^2 vanishes on the pole divisor {z0 = 0}, so the
    # divisor part drops and <c1, chi w> = (d - t) int chi w^2 = (d - t)/3
    L = LineBundle(p2, 2)
    t = 0.25
    met = Metric.log_pole(L, coordinate_section(p2, 0), t)
    rule = quadrature_nodes(p2, 32,
                            singular_refinement=met.refinement_centers())
    A = coordinate_section(p2, 0)
    f = TestForm(p2, 1.0, A, A, p2.omega_coeffs(), "t0*w")
    v = curvature_pairing(met, f, rule)
    assert abs(v - (2 - t) / 3.0) < 1e-8


def test_product_pole_pairing_closed_form():
    pp = build_manifold("P1xP1")
    L = LineBundle(pp, (2, 1))
    met = Metric.log_pole(L, coordinate_section(pp, 0), 0.5)
    rule = quadrature_nodes(pp, 24,
                            singular_refinement=met.refinement_centers())
    one = constant_form(pp, pp.omega_coeffs())
    assert abs(curvature_pairing(met, one, rule) - 3 / math.sqrt(2)) < 1e-9
    A = coordinate_section(pp, 0)
    f = TestForm(pp, 1.0, A, A, pp.omega_coeffs(), "x*w")
    expected = (1.5 + 1.0) * 0.5 / math.sqrt(2)
    assert abs(curvature_pairing(met, f, rule) - expected) < 1e-8


def test_interpolated_metric_weight_is_affine(p1):
    L = LineBundle(p1, 2)
    h = Metric.log_pole(L, coordinate_section(p1, 0), 0.5)
    g = Metric.fubini_study(L)
    eps = 0.25
    mix = Metric.interpolate(h, g, eps)
    Z = np.array([[0.4 - 0.3j], [1.0 + 0.2j]])
    expected = (h.weight(0, Z) + eps * g.weight(0, Z)) / (1 + eps)
    assert np.allclose(mix.weight(0, Z), expected, atol=1e-14)
    # lelong coefficient scales accordingly
    desc = mix.curvature_descriptor()
    nu, = [nu for comp, nu in desc.divisors if comp == ("coord", 0)]
    assert abs(nu - 0.5 / (1 + eps)) < 1e-14


def test_singular_components_merge(p1):
    L = LineBundle(p1, 2)
    z0 = coordinate_section(p1, 0)
    m1 = Metric.log_pole(L, z0, 0.5)
    m2 = Metric.log_pole(L, z0, 0.25)
    mix = Metric(L, m1.atoms + m2.atoms)
    comps = mix.singular_components()
    assert len(comps) == 1
    comp, nu = comps[0]
    assert comp == ("coord", 0)
    assert abs(nu - 0.75) < 1e-14


def test_singular_components_are_the_positive_descriptor_divisors(p2):
    L = LineBundle(p2, 2)
    z0z1 = SectionPoly.from_coeff_map(p2, 2, {(1, 1, 0): 1.0})
    off_axis = SectionPoly.from_coeff_map(p2, 1, {(1, 0, 0): 1.0,
                                                 (0, 1, 0): 0.5})
    h = Metric.log_pole(L, coordinate_section(p2, 0), 0.5)
    # g has the pole of h again (from z0 z1) and an off-axis one
    g = Metric(L, [(1.0, Metric.log_pole(L, z0z1, 0.5).atoms[0][1]),
                   (0.5, Metric.log_pole(L, off_axis, 0.4).atoms[0][1])])
    mix = Metric.interpolate(h, g, 0.5)
    divisors = mix.curvature_descriptor().divisors
    assert [c[:2] for c, _ in divisors] == [
        ("coord", 0), ("coord", 1), ("poly", divisors[2][0][1])]
    assert mix.singular_components() == [(c, v) for c, v in divisors if v > 0]
    # a smoothed max has neither divisors nor a closed-form descriptor
    smooth = Metric.smoothed_max(L, coordinate_section(p2, 0),
                                 coordinate_section(p2, 1), 1.0, 0.5)
    assert smooth.singular_components() == []
    with pytest.raises(UnsupportedMetricError):
        smooth.curvature_descriptor()


def test_negative_weight_on_singular_atom_rejected(p1):
    L = LineBundle(p1, 2)
    pole = Metric.log_pole(L, coordinate_section(p1, 0), 0.5)
    with pytest.raises(ConfigurationError):
        Metric(L, [(-1.0, pole.atoms[0][1])])


def test_psi_bounded_above(p1):
    L = LineBundle(p1, 1)
    met = Metric.log_pole(L, coordinate_section(p1, 1), 1.0)
    grid = p1.sample_grid(200)
    charts = p1.chart_of(grid)
    for c in (0, 1):
        sel = charts == c
        vals = met.psi(c, p1.to_chart(grid[sel], c))
        assert np.all(vals <= 1e-12)


def test_wedge_descriptor_points(p2):
    L = LineBundle(p2, 2)
    a = Metric.log_pole(L, coordinate_section(p2, 0), 0.25)
    b = Metric.log_pole(L, coordinate_section(p2, 1), 0.25)
    W = wedge_descriptors(a.curvature_descriptor(), b.curvature_descriptor())
    assert W["omega_pairs"].shape == (1, 1)
    assert abs(W["omega_pairs"][0, 0] - (2 - 0.25) ** 2) < 1e-14
    (pt, mass), = W["points"]
    assert abs(mass - 0.25 ** 2) < 1e-14
    assert np.allclose(pt, [0, 0, 1])
    # a divisor wedged with itself carries no point mass: the local potential
    # depends on one variable only, so its determinant vanishes.  Total mass
    # drops below d^2 by exactly nu^2.
    Wself = wedge_descriptors(a.curvature_descriptor(), a.curvature_descriptor())
    assert Wself["points"] == []
    total = float(Wself["omega_pairs"].sum())
    total += sum(float(np.sum(vec)) for _, vec in Wself["divisor_omega"])
    assert abs(total - (4.0 - 0.25 ** 2)) < 1e-12


def test_coordinate_intersections_of_every_pair():
    def points(kind):
        m = build_manifold(kind)
        return [[None if r is None else [p.tolist() for p in r]
                 for r in (_coord_intersection(m, i, j)
                           for j in range(m.hom_len))]
                for i in range(m.hom_len)]

    assert points("P1") == [[None, []], [[], None]]
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert points("P2") == [[None, [e[2]], [e[1]]], [[e[2]], None, [e[0]]],
                            [[e[1]], [e[0]], None]]
    assert points("P1xP1") == [
        [None, [], [[0, 1, 0, 1]], [[0, 1, 1, 0]]],
        [[], None, [[1, 0, 0, 1]], [[1, 0, 1, 0]]],
        [[[0, 1, 0, 1]], [[1, 0, 0, 1]], None, []],
        [[[0, 1, 1, 0]], [[1, 0, 1, 0]], [], None]]


def test_divisor_masses_and_intersection_numbers():
    def mass(kind, comp):
        # <[D] ^ omega^(n-1), 1>: the class of D against the constant form
        m = build_manifold(kind)
        degree = (_unit_degree(m, m.coord_factors[comp[1]])
                  if comp[0] == "coord" else comp[2].degree)
        one = constant_form(m, m.omega_coeffs())
        return float(class_pairings(m, degree, [one])[0])

    def poly(kind, degree):
        m = build_manifold(kind)
        return ("poly", None, SectionPoly(
            m, degree, monomial_exponents(m, degree)[:1], [1.0]))

    # exact floats: reports and descriptor masses carry these bits
    assert [mass("P1", ("coord", i)) for i in range(2)] == [1.0, 1.0]
    assert [mass("P2", ("coord", i)) for i in range(3)] == [1.0] * 3
    assert [mass("P1xP1", ("coord", i)) for i in range(4)] == [
        0.7071067811865475] * 4
    assert mass("P1", poly("P1", 5)) == 5.0
    assert mass("P2", poly("P2", 5)) == 5.0
    assert mass("P1xP1", poly("P1xP1", (1, 2))) == 2.1213203435596424
    assert mass("P1xP1", poly("P1xP1", (3, 1))) == 2.82842712474619
    # the omega basis forms' masses
    pp = build_manifold("P1xP1")
    one = constant_form(pp, pp.omega_coeffs())
    assert [class_pairings(pp, _unit_degree(pp, f), [one])[0]
            for f in range(2)] == [0.7071067811865475, 0.7071067811865475]
    # the Bezout numbers of common_zeros
    assert build_manifold("P2").intersection_number([(2,), (3,)]) == 6
    assert pp.intersection_number([(1, 2), (2, 3)]) == 7
    assert pp.intersection_number([(3, 1), (0, 4)]) == 12


def test_total_wedge_mass_bookkeeping(p2):
    # full mass of c1(h_a) ^ c1(h_b) equals d_a d_b by multilinearity
    L = LineBundle(p2, 2)
    a = Metric.log_pole(L, coordinate_section(p2, 0), 0.25)
    b = Metric.log_pole(L, coordinate_section(p2, 1), 0.5)
    W = wedge_descriptors(a.curvature_descriptor(), b.curvature_descriptor())
    total = float(W["omega_pairs"].sum())
    for comp, vec in W["divisor_omega"]:
        total += float(np.sum(vec))  # coordinate line pairs omega_i to 1
    total += sum(mass for _, mass in W["points"])
    assert abs(total - 4.0) < 1e-12


# -- one pass over the rule against per-form, per-term block loops ------------
#
# The references pair one form with one basis form or one field at a time,
# block by block, the way the two kinds of term are defined.  The basis
# pairings left the walk for closed forms (``bundles.class_pairings``); they
# are compared with the block loop at the rules' own quadrature error.

# A test form's mean on these rules (block sums of chi times the volume
# weights against ``TestForm.mean``) is off by up to 2.1e-10 on P2 rules of
# at most 8 radial nodes and by less than 1e-14 on the P1 and P1xP1 rules.
QUADRATURE_ERROR = {"P1": 1e-14, "P2": 2.5e-10, "P1xP1": 1e-14}


def _ref_form_omega_matrix(m, form, chart, Z):
    acc = None
    for i, c in enumerate(np.asarray(form.omega_part, dtype=float)):
        if c == 0.0:
            continue
        mat = m.omega_basis_matrix(i, chart, Z)
        acc = c * mat if acc is None else acc + c * mat
    if acc is None:
        acc = np.zeros((Z.shape[0], 2, 2), dtype=complex)
    return acc


def _ref_pair_omega_basis(index, form, rule):
    m = rule.manifold
    total = 0.0
    for b in rule.capped_blocks():
        # the library's block values, so the batching is checked bit for bit
        chi = form.block_values(b)
        if m.dim == 1:
            dens = np.real(m.omega_basis_matrix(index, b.chart,
                                                b.points)[:, 0, 0])
            total += float(np.dot(chi * dens, b.weights_lebesgue)) / math.pi
        else:
            A = m.omega_basis_matrix(index, b.chart, b.points)
            Bm = _ref_form_omega_matrix(m, form, b.chart, b.points)
            dens = wedge_density_11(A, Bm)
            total += float(np.dot(chi * dens, b.weights_lebesgue / 4.0))
    return total


def _ref_ddc_pairing(scalar_field, form, rule, integrable):
    total = 0.0
    for b in rule.capped_blocks():
        u = np.asarray(scalar_field(b.chart, b.points), dtype=float)
        u = finite_potential(u, integrable)
        # the library's weights, so the walk is checked bit for bit; the
        # weights are held to the Hessian assembly below
        total += float(np.dot(u, _ddc_weights(form, b)))
    return total


def _ref_ddc_weights(forms, block, nodes):
    """The ``dd^c`` weights at some nodes of a block as the Hessian
    assembly took them, one row per form: its complex Hessian wedged with
    its omega part's basis matrix, times the Lebesgue weights."""
    m = block.manifold
    Z = block.points[nodes]
    mats = functools.cache(lambda i: m.omega_basis_matrix(i, block.chart, Z))
    return [ddc_density(f.hessian(block.chart, Z),
                        *_form_omega_factors(f, mats))
            * block.weights_lebesgue[nodes] for f in forms]


def _pole_case(kind):
    m = build_manifold(kind)
    if kind == "P1":
        # off-axis pole: the refinement center is not a coordinate point
        Q = SectionPoly.from_coeff_map(m, 1, {(1, 0): 1.0, (0, 1): 0.6 + 0.3j})
        return m, Metric.log_pole(LineBundle(m, 2), Q, 0.5), 32
    deg = (1, 2) if kind == "P1xP1" else 1
    return m, Metric.log_pole(LineBundle(m, deg), coordinate_section(m, 0),
                              0.5), 8


@pytest.mark.parametrize("kind", ["P1", "P2", "P1xP1"])
def test_form_pairings_match_per_form_block_loops(kind):
    m, h, res = _pole_case(kind)
    rule = quadrature_nodes(m, res,
                            singular_refinement=h.refinement_centers())
    forms = form_dictionary(m, 1, 4)
    A = coordinate_section(m, 1)
    # |z_1|^2-type chi, the first factor's on the product: the dictionary's
    # first forms there vary along the pole-free factor only
    forms.append(TestForm(m, 1.0, A, A, None if m.dim == 1 else
                          m.omega_coeffs(), "t1"))
    fields = [(h.psi, True),
              (lambda chart, Z: np.cos(np.abs(Z[:, 0]) + np.abs(Z[:, -1])),
               False)]
    ddc, _ = pair_blocks(rule, forms, [
        lambda b, u=u, integrable=integrable: [finite_potential(
            np.asarray(u(b.chart, b.points), dtype=float), integrable)]
        for u, integrable in fields])
    om = [[pair_omega_basis(i, f) for f in forms] for i in range(m.factors)]
    ref_om = [[_ref_pair_omega_basis(i, f, rule) for f in forms]
              for i in range(m.factors)]
    ref_ddc = [[_ref_ddc_pairing(u, f, rule, integrable) for f in forms]
               for u, integrable in fields]
    np.testing.assert_allclose(om, ref_om, rtol=0,
                               atol=QUADRATURE_ERROR[kind])
    np.testing.assert_array_equal(ddc, ref_ddc)
    assert abs(ddc[0, -1]) > 1e-3 and np.any(ddc[1] != 0.0)


def _weight_case_forms(m):
    """The 30-form dictionary, the ``t1`` form above, a multi-term ``A !=
    B`` form and, on the product, forms of degree 0 along one factor."""
    rng = np.random.default_rng(11)
    op = None if m.dim == 1 else m.omega_coeffs()
    forms = form_dictionary(m, 1, 30)
    A = coordinate_section(m, 1)
    forms.append(TestForm(m, 1.0, A, A, op, "t1"))
    deg = (1, 2) if m.factors == 2 else 2
    exps = monomial_exponents(m, deg)
    A = SectionPoly(m, deg, exps, rng.standard_normal(len(exps))
                    + 1j * rng.standard_normal(len(exps)))
    B = SectionPoly(m, deg, exps[-3:], [0.5, -1.0j, 0.25 + 0.75j])
    forms.append(TestForm(m, 0.7 - 0.4j, A, B, op, "multi", scale=0.3))
    if m.factors == 2:
        A = SectionPoly.from_coeff_map(m, (0, 2), {(0, 0, 2, 0): 1.0,
                                                   (0, 0, 1, 1): 0.5j})
        B = SectionPoly.from_coeff_map(m, (0, 2), {(0, 0, 0, 2): 1.0,
                                                   (0, 0, 1, 1): -0.3})
        for op in (m.omega_coeffs(), np.array([0.3, 1.2])):
            forms.append(TestForm(m, 1.0 + 0.5j, A, B, op, "s0"))
    return forms


@pytest.mark.parametrize("kind", ["P1", "P2", "P1xP1"])
def test_ddc_weights_match_the_hessian_assembly(kind):
    m, h, res = _pole_case(kind)
    rule = quadrature_nodes(m, res,
                            singular_refinement=h.refinement_centers())
    forms = _weight_case_forms(m)
    assert len(forms) >= 32 and forms[0].constant
    rng = np.random.default_rng(5)
    for b in rule.capped_blocks():
        # the pointwise reference at a sixth of the nodes, drawn from all
        # radii and angles, keeps the Hessians of 30 forms on these rules
        # to a second
        nodes = np.sort(rng.choice(b.num_nodes, b.num_nodes // 6,
                                   replace=False))
        for f, ref in zip(forms[1:], _ref_ddc_weights(forms[1:], b, nodes)):
            np.testing.assert_allclose(_ddc_weights(f, b)[nodes], ref,
                                       rtol=0,
                                       atol=1e-13 * np.max(np.abs(ref)))
        # a constant form's weights are one zero broadcast to the nodes
        w = _ddc_weights(forms[0], b)
        assert w.shape == (b.num_nodes,) and w.strides == (0,)
        assert not w.any()
    if m.dim == 2:
        # a test function has no dd^c pairing on a surface
        A = coordinate_section(m, 1)
        with pytest.raises(ConfigurationError):
            _ddc_weights(TestForm(m, 1.0, A, A, None, "scalar"), b)


def test_potential_route_evaluates_each_form_once_per_block(p2, monkeypatch):
    h = Metric.log_pole(LineBundle(p2, 1), coordinate_section(p2, 0), 0.5)
    sp = build_section_space(h, 8)    # dimension 3: sections to sample
    rule = quadrature_nodes(p2, 8, singular_refinement=h.refinement_centers())
    assert len(rule.capped_blocks()) == 3
    forms = form_dictionary(p2, 1, 3)
    calls = {}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(TestForm, "hessian")
    counted(TestForm, "block_laplacian")
    counted(TestForm, "chi")
    counted(Manifold, "omega_basis_matrix")
    counted(Metric, "psi")
    seeds = [(5, i) for i in range(4)]
    assert forms[0].constant and not any(f.constant for f in forms[1:])
    # the second walk takes every form's weights from the blocks' memo
    for pair, walks in ((lambda: fs_pairings(sp, forms, rule), 1),
                        (lambda: zero_pairings(sp, seeds, forms, rule), 0)):
        calls.update(hessian=0, block_laplacian=0, chi=0,
                     omega_basis_matrix=0, psi=0)
        pair()
        # the metric perturbation cancels between potential and closed part
        assert calls["psi"] == 0
        # the weights come from the blocks' axes, with no Hessian and no
        # basis matrix; a constant form's are a broadcast zero
        assert calls["block_laplacian"] == 6 * walks
        assert calls["hessian"] == 0
        assert calls["omega_basis_matrix"] == 0
        assert calls["chi"] <= 9 * walks


# -- point masses: one routine for zero sets and wedge points -----------------


def _ref_point_pairings(zerosets, forms):
    """``zeros.point_pairings`` as it was: per form, a ``np.bincount`` over
    the set of each point of multiplicity times value."""
    out = np.zeros((len(zerosets), len(forms)))
    points = [(pt, k) for zs in zerosets for pt, k in zs.points]
    if not points:
        return out
    owner = np.repeat(np.arange(len(zerosets)),
                      [len(zs.points) for zs in zerosets])
    mult = np.array([k for _, k in points])
    P = np.stack([pt for pt, _ in points])
    man = zerosets[0].manifold
    for j, f in enumerate(forms):
        out[:, j] = np.bincount(owner, weights=mult * form_values_hom(
            man, [f], P)[:, 0], minlength=len(zerosets))
    return out


def _ref_point_mass_pairings(manifold, forms, points, totals):
    """The one-set ``bundles.point_mass_pairings`` as it was: ``totals +=
    mass * row`` one point after another."""
    totals = totals.copy()
    P = np.stack([pt for pt, _ in points])
    V = np.stack([form_values_hom(manifold, [f], P)[:, 0] for f in forms],
                 axis=1)
    for (_, mass), row in zip(points, V):
        totals += mass * row
    return totals


def test_point_masses_of_curve_zero_sets_keep_their_bits(p1):
    # coordinate and off-axis poles force zeros of multiplicity above 1
    off_axis = SectionPoly.from_coeff_map(p1, 1, {(1, 0): 1.0,
                                                 (0, 1): 0.6 + 0.3j})
    sets = []
    for Q in (coordinate_section(p1, 0), off_axis):
        sp = SectionSpace(Metric.log_pole(LineBundle(p1, 2), Q, 0.8), 6)
        C = np.stack([sample_section(sp, (31, i)).coeffs for i in range(3)],
                     axis=1)
        sets += curve_zero_sets(sp, C)
    assert max(k for zs in sets for _, k in zs.points) > 1
    sets.insert(2, ZeroSet(p1, []))
    forms = form_dictionary(p1, 1, 5)
    ref = _ref_point_pairings(sets, forms)
    np.testing.assert_array_equal(point_pairings(sets, forms), ref)
    np.testing.assert_array_equal(point_mass_pairings(
        p1, forms, [zs.points for zs in sets]), ref)
    assert not ref[2].any() and np.all(ref[[0, 1, 3, 4, 5, 6]] != 0.0)


@pytest.mark.parametrize("kind", ["P2", "P1xP1"])
def test_wedge_points_add_onto_totals_with_their_bits(kind):
    m = build_manifold(kind)
    if kind == "P2":
        L = LineBundle(m, 2)
        qa = SectionPoly.from_coeff_map(m, 2, {(1, 1, 0): 1.0})
        qb = coordinate_section(m, 2)
    else:
        L = LineBundle(m, (1, 1))
        qa = SectionPoly.from_coeff_map(m, (1, 1), {(1, 0, 1, 0): 1.0})
        qb = SectionPoly.from_coeff_map(m, (1, 1), {(0, 1, 0, 1): 1.0})
    wedge = wedge_descriptors(
        Metric.log_pole(L, qa, 0.5).curvature_descriptor(),
        Metric.log_pole(L, qb, 0.3).curvature_descriptor())
    points = wedge["points"]
    assert len(points) == 2
    forms = form_dictionary(m, 2, 5)
    totals = np.random.default_rng(7).standard_normal(len(forms))
    ref = _ref_point_mass_pairings(m, forms, points, totals)
    got = totals[None].copy()
    assert point_mass_pairings(m, forms, [points], got) is got
    np.testing.assert_array_equal(got[0], ref)
