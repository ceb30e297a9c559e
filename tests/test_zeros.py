import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kahlerlab.bundles import (LineBundle, Metric, curvature_pairing,
                               ddc_pairing, pair_omega_basis)
from kahlerlab.errors import (ConfigurationError, DegenerateSpaceError,
                              GeneralPositionError)
from kahlerlab.fscurrents import fs_pairing
from kahlerlab.geometry import build_manifold, quadrature_nodes
from kahlerlab.polynomials import (SectionPoly, coordinate_section,
                                   linear_section)
from kahlerlab.sections import SectionSpace, build_section_space
from kahlerlab.testforms import TestForm, constant_form, test_form_dictionary
from kahlerlab.zeros import (Section, SectionTuple, common_zeros,
                             divisor_zero_set, empirical_general_position,
                             expected_zero_residual, sample_section,
                             sample_tuple, zero_pairing, zero_pairings,
                             zeros_on_curve)


@pytest.fixture(scope="module")
def p1():
    return build_manifold("P1")


@pytest.fixture(scope="module")
def p2():
    return build_manifold("P2")


@pytest.fixture(scope="module")
def pp():
    return build_manifold("P1xP1")


def fs_space(m, degree, p):
    return build_section_space(Metric.fubini_study(LineBundle(m, degree)), p)


# -- sampling: determinism, normalization, seed splitting --------------------


def test_sampling_is_deterministic_and_unit_norm(p1):
    sp = fs_space(p1, 1, 8)
    a = sample_section(sp, (7, 3))
    b = sample_section(sp, (7, 3))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert abs(np.linalg.norm(a.coeffs) - 1.0) < 1e-14
    assert not np.allclose(a.coeffs, sample_section(sp, (7, 4)).coeffs)
    # a bare integer is shorthand for the one element record
    assert np.array_equal(sample_section(sp, 5).coeffs,
                          sample_section(sp, (5,)).coeffs)


def test_tuple_members_split_the_seed(p1):
    sp = fs_space(p1, 1, 8)
    tup = sample_tuple([sp, sp], (7, 3))
    assert np.array_equal(tup.members[0].coeffs,
                          sample_section(sp, (7, 3, 0)).coeffs)
    assert np.array_equal(tup.members[1].coeffs,
                          sample_section(sp, (7, 3, 1)).coeffs)
    assert tup.general_position == "unchecked"


def test_seed_records_are_validated(p1):
    sp = fs_space(p1, 1, 8)
    with pytest.raises(ConfigurationError):
        sample_section(sp, ())
    with pytest.raises(ConfigurationError):
        sample_section(sp, (1.5,))
    # q = 0 leaves a single section up to scale, nothing to draw
    with pytest.raises(DegenerateSpaceError):
        sample_section(fs_space(p1, 1, 2), (0,))


# -- sampling law ------------------------------------------------------------
#
# Unit coefficient vectors drawn from the complex Gaussian are uniform on the
# sphere, so each squared coordinate is Beta(1, n-1) distributed with mean
# 1/n and variance (n-1)/(n^2 (n+1)), and the law is invariant under unitary
# changes of the orthonormal frame.


def test_coordinate_masses_match_sphere_moments(p1):
    sp = fs_space(p1, 1, 7)
    n = sp.dim
    N = 10_000
    P = np.abs(np.stack(
        [sample_section(sp, (11, i)).coeffs for i in range(N)])) ** 2
    se = np.sqrt((n - 1) / (n ** 2 * (n + 1)) / N)
    assert np.max(np.abs(P.mean(axis=0) - 1.0 / n)) < 3 * se


def test_projection_law_is_rotation_invariant(p1):
    sp = fs_space(p1, 1, 7)
    n = sp.dim
    C = np.stack([sample_section(sp, (11, i)).coeffs for i in range(10_000)])
    rng = np.random.default_rng(np.random.SeedSequence(777))
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u /= np.linalg.norm(u)
    ks = stats.ks_2samp(np.abs(C[:, 0]) ** 2, np.abs(C @ u.conj()) ** 2)
    assert ks.pvalue > 0.01


def test_tuple_members_are_uncorrelated(p1):
    sp = fs_space(p1, 1, 7)
    tups = [sample_tuple([sp, sp], (5, i)) for i in range(2000)]
    a = np.stack([t.members[0].coeffs for t in tups])
    b = np.stack([t.members[1].coeffs for t in tups])
    cap = 3.0 / np.sqrt(2000)
    assert abs(np.corrcoef(a[:, 0].real, b[:, 0].real)[0, 1]) < cap
    assert abs(np.corrcoef(np.abs(a[:, 1]), np.abs(b[:, 2]))[0, 1]) < cap


# -- zeros of curve sections --------------------------------------------------


def test_roots_of_unity_section(p1):
    k = 5
    s = SectionPoly.from_coeff_map(p1, k, {(0, k): 1.0, (k, 0): -1.0})
    zs = zeros_on_curve(s)
    assert zs.total_multiplicity == k and len(zs.points) == k
    assert all(mult == 1 for _, mult in zs.points)
    angles = sorted(np.angle(pt[1] / pt[0]) for pt, _ in zs.points)
    expected = sorted(np.angle(np.exp(2j * np.pi * np.arange(k) / k)))
    assert max(abs(a - b) for a, b in zip(angles, expected)) < 1e-10


def test_coordinate_power_concentrates_at_one_point(p1):
    k = 5
    zs = zeros_on_curve(SectionPoly.from_coeff_map(p1, k, {(k, 0): 1.0}))
    assert [(0.0, 1.0)] == [tuple(np.abs(pt)) for pt, _ in zs.points]
    assert zs.points[0][1] == k


def test_random_section_zeros_are_complete_and_vanish(p1):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    exps = np.stack([8 - np.arange(9), np.arange(9)], axis=1)
    s = SectionPoly(p1, 8, exps, c)
    zs = zeros_on_curve(s)
    assert zs.total_multiplicity == 8
    resid = max(abs(s.eval_hom(pt[None])[0]) for pt, _ in zs.points)
    assert resid / np.linalg.norm(c) < 1e-8


def test_zeros_on_curve_rejects_bad_input(p1, p2):
    with pytest.raises(ConfigurationError):
        zeros_on_curve(SectionPoly.from_coeff_map(p1, 2, {}))
    with pytest.raises(ConfigurationError):
        zeros_on_curve(coordinate_section(p2, 0))


coefficient = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
    lambda t: complex(*t))


@given(st.lists(coefficient, min_size=2, max_size=7).filter(
    lambda cs: any(c != 0 for c in cs)))
@settings(deadline=None, max_examples=60)
def test_zero_count_always_matches_the_degree(cs):
    m = build_manifold("P1")
    q = len(cs) - 1
    s = SectionPoly.from_coeff_map(
        m, q, {(q - j, j): c for j, c in enumerate(cs) if c != 0})
    zs = zeros_on_curve(s)
    assert zs.total_multiplicity == q
    assert sum(mult for _, mult in zs.points) == q
    if zs.points:
        worst = max(abs(s.eval_hom(pt[None])[0]) for pt, _ in zs.points)
        assert worst / np.linalg.norm(s.coeffs) < 1e-6


# -- pairing against point configurations -------------------------------------


def test_pairing_vanishes_on_disjoint_support(p1):
    k = 4
    s = SectionPoly.from_coeff_map(p1, k, {(0, k): 1.0, (k, 0): -1.0})
    chi = TestForm(p1, 1.0, s, s, label="vanishing")
    assert zero_pairing(zeros_on_curve(s), chi) == 0.0


def test_mass_pairing_counts_multiplicity(p1):
    k = 4
    s = SectionPoly.from_coeff_map(p1, k, {(0, k): 1.0, (k, 0): -1.0})
    assert zero_pairing(zeros_on_curve(s), constant_form(p1)) == 4.0


def test_point_pairing_rejects_omega_forms(p1):
    s = SectionPoly.from_coeff_map(p1, 2, {(0, 2): 1.0, (2, 0): -1.0})
    with pytest.raises(ConfigurationError):
        zero_pairing(zeros_on_curve(s), constant_form(p1, [1.0]))


# -- surface intersections ----------------------------------------------------


def test_plane_intersection_matches_linear_algebra(p2):
    z0, z1 = coordinate_section(p2, 0), coordinate_section(p2, 1)
    l1 = linear_section(p2, [1.0, 2.0, -1.0])
    l2 = linear_section(p2, [0.5, -1.0, 3.0])
    zs = common_zeros([z0.multiply(l1), z1.multiply(l2)])
    assert zs.total_multiplicity == 4 and len(zs.points) == 4
    A = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])
    _, _, V = np.linalg.svd(A)
    hand = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 3.0, 1.0]),
            np.array([1.0, 0.0, 1.0]), V[-1]]
    for h in hand:
        h = p2.normalize(h[None].astype(complex))[0]
        d = min(float(p2.chordal_distance(h[None], pt[None])[0])
                for pt, _ in zs.points)
        assert d < 1e-10


def test_random_plane_pair_meets_the_intersection_bound(p2):
    sp = fs_space(p2, 1, 6)
    tup = sample_tuple([sp, sp], (11, 0))
    zs = common_zeros(tup)
    assert tup.general_position == "verified"
    assert zs.total_multiplicity == 9
    resid = max(abs(s.poly.eval_hom(pt[None])[0]) / np.linalg.norm(s.coeffs)
                for pt, _ in zs.points for s in tup.members)
    assert resid < 1e-7


def test_equal_sections_fail_general_position(p2):
    s = coordinate_section(p2, 0).multiply(linear_section(p2, [1.0, 2.0, -1.0]))
    tup = SectionTuple([s, s])
    with pytest.raises(GeneralPositionError):
        common_zeros(tup)
    assert tup.general_position == "failed"


def test_split_bidegree_pair_has_a_closed_form_point(pp):
    s1 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 1.0})
    s2 = SectionPoly.from_coeff_map(
        pp, (0, 1), {(0, 0, 1, 0): 1.0, (0, 0, 0, 1): -3.0})
    zs = common_zeros([s1, s2])
    assert zs.total_multiplicity == 1
    pt = pp.normalize(np.array([1.0, -2.0, 3.0, 1.0], dtype=complex)[None])[0]
    assert float(pp.chordal_distance(pt[None], zs.points[0][0][None])[0]) < 1e-10


def test_parallel_fiber_pair_is_empty(pp):
    s1 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 1.0})
    s3 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0})
    zs = common_zeros([s1, s3])
    assert zs.total_multiplicity == 0 and zs.points == [] and zs.target == 0


def test_shared_fiber_fails_general_position(pp):
    s1 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 1.0})
    s4 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 4.0, (0, 1, 0, 0): 2.0})
    with pytest.raises(GeneralPositionError):
        common_zeros([s1, s4])


def test_random_bidegree_pair_meets_the_intersection_bound(pp):
    sp = fs_space(pp, (1, 1), 3)
    tup = sample_tuple([sp, sp], (21, 5))
    zs = common_zeros(tup)
    assert tup.general_position == "verified"
    assert zs.total_multiplicity == 2
    resid = max(abs(s.poly.eval_hom(pt[None])[0]) / np.linalg.norm(s.coeffs)
                for pt, _ in zs.points for s in tup.members)
    assert resid < 1e-7


def test_tangential_intersection_carries_multiplicity(p2):
    conic = SectionPoly.from_coeff_map(p2, 2, {(0, 2, 0): 1.0, (1, 0, 1): -1.0})
    zs = common_zeros([conic, coordinate_section(p2, 2)])
    assert zs.total_multiplicity == 2 and len(zs.points) == 1
    assert zs.points[0][1] == 2
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert float(p2.chordal_distance(e0[None], zs.points[0][0][None])[0]) < 1e-6


# -- empirical general position ------------------------------------------------


def test_general_position_detects_shared_factors(p2):
    z0 = coordinate_section(p2, 0)
    l1 = linear_section(p2, [1.0, 2.0, -1.0])
    l2 = linear_section(p2, [0.5, -1.0, 3.0])
    f = linear_section(p2, [1.0, 1.0, 1.0])
    assert not empirical_general_position([l1.multiply(f), l2.multiply(f)])
    assert not empirical_general_position(
        [z0.multiply(l1), z0.multiply(l2)])
    # the shared coordinate factor is invisible in the affine chart
    assert not empirical_general_position([z0, z0.multiply(l1)])
    g = linear_section(p2, [2.0, -1.0, 0.5])
    triple = SectionPoly(p2, 1, f.exponents, 3.0 * f.coeffs)
    assert not empirical_general_position([f.multiply(g), triple])
    tup = SectionTuple([l1.multiply(l1), l2.multiply(l2)])
    assert empirical_general_position(tup)
    assert tup.general_position == "verified"


# -- divisor pairings ----------------------------------------------------------


def test_divisor_and_point_pairings_agree(p1):
    sp = fs_space(p1, 1, 6)
    sec = sample_section(sp, (3, 1))
    zs = zeros_on_curve(sec)
    div = divisor_zero_set(sec)
    plain = quadrature_nodes(p1, 32)
    one = constant_form(p1)
    assert abs(zero_pairing(zs, one) - zero_pairing(div, one, plain)) < 1e-5
    refined = quadrature_nodes(
        p1, 32, singular_refinement=[pt for pt, _ in zs.points])
    for f in test_form_dictionary(p1, 1, count=6):
        assert abs(zero_pairing(zs, f) - zero_pairing(div, f, refined)) < 1e-8


def test_off_axis_pole_divisor_and_point_pairings_agree(p1):
    # p = 8 forces Q^4 into every section; on nodes refined towards the
    # root of Q the expanded product underflows, its logarithm must not
    Q = linear_section(p1, [1.0, 0.6 + 0.3j])
    h = Metric.log_pole(LineBundle(p1, 2), Q, 0.5)
    sp = build_section_space(h, 8)
    sec = sample_section(sp, (3, 1))
    zs = zeros_on_curve(sec)
    div = divisor_zero_set(sec)
    rule = quadrature_nodes(p1, 48, singular_refinement=h.refinement_centers())
    one = constant_form(p1)
    assert abs(zero_pairing(zs, one) - zero_pairing(div, one, rule)) < 1e-10
    # the zeros of the section itself are not refined, hence the looser cap
    for f in test_form_dictionary(p1, 1, count=3)[1:]:
        assert abs(zero_pairing(zs, f) - zero_pairing(div, f, rule)) < 5e-4


def _loop_divisor_pairing(sec, form, rule):
    """One section's divisor pairing as one ddc_pairing of the log-norm of
    its expanded polynomial, plus the curvature terms."""
    sp = sec.space

    def log_norm(chart, Z):
        with np.errstate(divide="ignore"):
            u = np.log(np.abs(sec.poly.chart_poly(chart).eval(Z)))
        u -= sp.p * sp.metric.weight(chart, Z)
        if sp.adjoint:
            u += 0.5 * np.log(sp.manifold.canonical_factor(chart, Z))
        return u

    total = ddc_pairing(log_norm, form, rule, integrable=True)
    total += sp.p * curvature_pairing(sp.metric, form, rule)
    if sp.adjoint:
        for i, cdeg in enumerate(sp.manifold.canonical_degree):
            total += cdeg * pair_omega_basis(i, form, rule)
    return total


@pytest.mark.parametrize("case", ["fs", "coordinate-pole"])
def test_batched_surface_pairings_match_the_per_sample_loop(p2, case):
    if case == "fs":
        h, p, samples, count = Metric.fubini_study(LineBundle(p2, 1)), 5, 4, 3
    else:
        h = Metric.log_pole(LineBundle(p2, 1), coordinate_section(p2, 0), 0.5)
        p, samples, count = 7, 2, 3
    sp = build_section_space(h, p)
    rule = quadrature_nodes(p2, 8,
                            singular_refinement=h.refinement_centers() or None)
    forms = test_form_dictionary(p2, 1, count=count)
    seeds = [(41, i) for i in range(samples)]
    batch = zero_pairings(sp, seeds, forms, rule)
    assert batch.shape == (samples, count)
    for i, seed in enumerate(seeds):
        sec = sample_section(sp, seed)
        for j, f in enumerate(forms):
            single = zero_pairing(divisor_zero_set(sec), f, rule)
            assert abs(batch[i, j] - single) <= 1e-12 * abs(single)
            loop = _loop_divisor_pairing(sec, f, rule)
            assert abs(batch[i, j] - loop) <= 1e-12 * abs(loop)


def test_curve_pairings_keep_the_point_route(p1):
    sp = fs_space(p1, 1, 6)
    forms = test_form_dictionary(p1, 1, count=4)
    seeds = [(43, i) for i in range(5)]
    batch = zero_pairings(sp, seeds, forms)
    loop = [[zero_pairing(zeros_on_curve(sample_section(sp, s)), f)
             for f in forms] for s in seeds]
    assert np.array_equal(batch, np.array(loop))
    # the divisor route on curves, against the loop, over a refined rule
    sec = sample_section(sp, seeds[0])
    rule = quadrature_nodes(
        p1, 12, singular_refinement=[pt for pt, _ in
                                     zeros_on_curve(sec).points])
    for f in forms[:2]:
        single = zero_pairing(divisor_zero_set(sec), f, rule)
        loop = _loop_divisor_pairing(sec, f, rule)
        assert abs(single - loop) <= 1e-12 * abs(loop)


@pytest.mark.parametrize("nbad, raises", [(3, False), (40, True)])
def test_nonfinite_guard_in_single_and_batched_pairings(p2, monkeypatch,
                                                        nbad, raises):
    sp = fs_space(p2, 1, 5)
    rule = quadrature_nodes(p2, 8)
    forms = test_form_dictionary(p2, 1, count=2)
    seeds = [(44, 0), (44, 1)]
    clean = zero_pairings(sp, seeds, forms, rule)
    plain = SectionSpace.monomial_values

    def vanishing(self, chart, Z):
        vals = plain(self, chart, Z)
        vals[:nbad] = 0.0    # every section vanishes at the first nodes
        return vals

    monkeypatch.setattr(SectionSpace, "monomial_values", vanishing)
    div = divisor_zero_set(sample_section(sp, seeds[0]))
    if raises:
        with pytest.raises(ConfigurationError, match="non-finite"):
            zero_pairing(div, forms[1], rule)
        with pytest.raises(ConfigurationError, match="non-finite"):
            zero_pairings(sp, seeds, forms, rule)
        return
    # a few isolated nodes lose their weight and nothing else changes
    batch = zero_pairings(sp, seeds, forms, rule)
    assert np.all(np.isfinite(batch))
    assert np.max(np.abs(batch - clean)) < 1e-3
    assert abs(zero_pairing(div, forms[1], rule) - batch[0, 1]) \
        <= 1e-12 * abs(batch[0, 1])


def test_divisor_pairing_needs_rule_and_section(p1):
    sp = fs_space(p1, 1, 6)
    sec = sample_section(sp, (3, 1))
    with pytest.raises(ConfigurationError):
        zero_pairing(divisor_zero_set(sec), constant_form(p1))
    with pytest.raises(ConfigurationError):
        divisor_zero_set(sec.poly)


# -- expected zero currents ------------------------------------------------------
#
# Averaging the zero pairing over sections drawn from the unit sphere
# reproduces p times the normalized current of the space exactly, so the
# sample mean has to sit within Monte Carlo error of that prediction.


def test_expected_mass_is_exact_on_curves(p1):
    sp = fs_space(p1, 1, 8)
    gap, _ = expected_zero_residual(sp, constant_form(p1), 100, (22,))
    assert gap < 1e-6


def test_expected_pairing_matches_prediction_on_curves(p1):
    sp = fs_space(p1, 1, 8)
    forms = test_form_dictionary(p1, 1, count=4)
    gap, se = expected_zero_residual(sp, forms[1], 400, (21,))
    assert gap < 3 * se
    h = Metric.log_pole(LineBundle(p1, 2), coordinate_section(p1, 0), 0.5)
    splp = build_section_space(h, 5)
    gap, se = expected_zero_residual(splp, forms[2], 400, (23,))
    assert gap < 3 * se


def test_expected_pairing_matches_prediction_on_surfaces(p2):
    sp = fs_space(p2, 1, 5)
    forms = test_form_dictionary(p2, 1, count=4)
    gap, se = expected_zero_residual(sp, forms[1], 100, (31,))
    assert gap < 3 * se
    gap, _ = expected_zero_residual(sp, constant_form(p2, [1.0]), 100, (32,))
    assert gap < 1e-6


def test_sample_budget_is_validated(p1):
    sp = fs_space(p1, 1, 8)
    with pytest.raises(ConfigurationError):
        expected_zero_residual(sp, constant_form(p1), 50, (22,))
