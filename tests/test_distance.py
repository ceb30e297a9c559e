import itertools

import numpy as np
import pytest

from kahlerlab.bundles import (LineBundle, Metric, pair_omega_basis,
                               wedge_descriptors)
from kahlerlab.distance import (approximation_run, diagonal_sequence,
                                ds_distance)
from kahlerlab.errors import (ConfigurationError, GeneralPositionError,
                              UnsupportedMetricError)
from kahlerlab.fscurrents import (descriptor_form_pairing,
                                  descriptor_form_pairings,
                                  descriptor_wedge_pairing, form_values_hom)
from kahlerlab.geometry import build_manifold
from kahlerlab.polynomials import SectionPoly, coordinate_section
from kahlerlab.testforms import test_form_dictionary


@pytest.fixture(scope="module")
def p1():
    return build_manifold("P1")


@pytest.fixture(scope="module")
def p2():
    return build_manifold("P2")


@pytest.fixture(scope="module")
def p1_dict(p1):
    return test_form_dictionary(p1, 1, count=12)


# -- pairing vectors -----------------------------------------------------------


def test_mass_is_the_leading_pairing(p1, p1_dict):
    # the first dictionary form is the unnormalized mass form, so entry 0
    # of a curvature current's vector is the degree of its bundle
    for degree in (1, 3):
        d = Metric.fubini_study(LineBundle(p1, degree)).curvature_descriptor()
        assert abs(descriptor_form_pairings(d, p1_dict)[0] - degree) < 1e-12


def test_vector_shape_and_dictionary_are_checked(p1, p1_dict):
    # vectors over dictionaries of different sizes have different shapes
    small = test_form_dictionary(p1, 1, count=8)
    with pytest.raises(ConfigurationError):
        ds_distance(np.zeros(len(p1_dict)), np.zeros(len(small)))


def test_distance_is_a_pseudometric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (rng.standard_normal(12) for _ in range(3))
        assert ds_distance(a, a) == 0.0
        assert abs(ds_distance(a, b) - ds_distance(b, a)) < 1e-12
        assert (ds_distance(a, c)
                <= ds_distance(a, b) + ds_distance(b, c) + 1e-12)
        assert abs(ds_distance(2 * a, 2 * b)
                   - 2.0 * ds_distance(a, b)) < 1e-12


def test_distance_against_a_point_mass_current(p1, p1_dict):
    # FS curvature vs the half omega plus half point mass curvature: the
    # gap per form is half of |integral - point value|, computable directly
    L = LineBundle(p1, 1)
    d_fs = Metric.fubini_study(L).curvature_descriptor()
    d_lp = Metric.log_pole(L, coordinate_section(p1, 0),
                           0.5).curvature_descriptor()
    d = ds_distance(descriptor_form_pairings(d_fs, p1_dict),
                    descriptor_form_pairings(d_lp, p1_dict))
    pole = np.zeros((1, 2), dtype=complex)
    pole[0, 1] = 1.0
    oracle = max(0.5 * abs(pair_omega_basis(0, f)
                           - float(form_values_hom(p1, [f], pole)[0, 0]))
                 for f in p1_dict)
    assert abs(d - oracle) < 1e-12


def test_distance_never_shrinks_when_the_dictionary_grows(p1, p1_dict):
    L = LineBundle(p1, 1)
    d_fs = Metric.fubini_study(L).curvature_descriptor()
    d_lp = Metric.log_pole(L, coordinate_section(p1, 0),
                           0.5).curvature_descriptor()
    small = test_form_dictionary(p1, 1, count=8)
    d_small = ds_distance(descriptor_form_pairings(d_fs, small),
                          descriptor_form_pairings(d_lp, small))
    d_large = ds_distance(descriptor_form_pairings(d_fs, p1_dict),
                          descriptor_form_pairings(d_lp, p1_dict))
    assert d_small <= d_large + 1e-15


# -- interpolation expansion ------------------------------------------------------


def multilinear_expansion_residual(h_list, g_list, eps, form):
    """Two-route check of the interpolated-curvature wedge.

    Route one pairs the wedge of the curvatures of the interpolated metrics
    with the test form.  Route two expands that wedge over all subsets J of
    the one or two factors, weighting each term by eps^(m-|J|) / (1+eps)^m,
    with the h-curvatures on J and the g-curvatures off it.  Returns the
    absolute difference, which isolates bookkeeping errors in the descriptor
    algebra (the two routes are algebraically identical).
    """
    m = len(h_list)
    manifold = h_list[0].manifold
    dh = [h.curvature_descriptor() for h in h_list]
    dg = [g.curvature_descriptor() for g in g_list]

    interp = [Metric.interpolate(h, g, eps).curvature_descriptor()
              for h, g in zip(h_list, g_list)]
    if m == 1:
        direct = descriptor_form_pairing(interp[0], form)
    else:
        direct = descriptor_wedge_pairing(
            manifold, wedge_descriptors(interp[0], interp[1]), form)

    expansion = 0.0
    weight0 = (1.0 + eps) ** (-m)
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(m), r) for r in range(m + 1)):
        picked = [dh[k] if k in subset else dg[k] for k in range(m)]
        w = weight0 * eps ** (m - len(subset))
        if w == 0.0:
            continue
        if m == 1:
            expansion += w * descriptor_form_pairing(picked[0], form)
        else:
            expansion += w * descriptor_wedge_pairing(
                manifold, wedge_descriptors(picked[0], picked[1]), form)
    return abs(direct - expansion)


def test_expansion_is_exact_for_one_factor(p2):
    L = LineBundle(p2, 1)
    h = Metric.log_pole(L, coordinate_section(p2, 0), 0.5)
    g = Metric.fubini_study(L)
    chi = test_form_dictionary(p2, 1, count=2)[1]
    assert multilinear_expansion_residual([h], [g], 0.3, chi) < 1e-12


def test_expansion_residual_on_surface_pairs(p2):
    L = LineBundle(p2, 1)
    h1 = Metric.log_pole(L, coordinate_section(p2, 0), 0.5)
    h2 = Metric.log_pole(L, coordinate_section(p2, 1), 0.25)
    g = Metric.fubini_study(L)
    chis = test_form_dictionary(p2, 2, count=3)
    for eps in (0.5, 0.25, 0.1):
        for chi in chis:
            assert multilinear_expansion_residual(
                [h1, h2], [g, g], eps, chi) < 1e-8
    # identity case: both routes are the plain wedge
    assert multilinear_expansion_residual(
        [h1, h2], [g, g], 0.0, chis[1]) < 1e-12


def test_expansion_preconditions(p2):
    L = LineBundle(p2, 1)
    g = Metric.fubini_study(L)
    chi = test_form_dictionary(p2, 2, count=2)[1]
    ha = Metric.log_pole(L, SectionPoly.from_coeff_map(
        p2, 1, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}), 0.5)
    hb = Metric.log_pole(L, SectionPoly.from_coeff_map(
        p2, 1, {(1, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 1): 2.0}), 0.5)
    with pytest.raises(GeneralPositionError):
        multilinear_expansion_residual([ha, hb], [g, g], 0.3, chi)
    sm = Metric.smoothed_max(L, coordinate_section(p2, 0),
                             coordinate_section(p2, 1), 1.0, 0.5)
    with pytest.raises(UnsupportedMetricError):
        multilinear_expansion_residual([sm, g], [g, g], 0.3, chi)


# -- diagonal selection --------------------------------------------------------------


def test_selection_forces_strict_increase():
    sel = diagonal_sequence([[0, 0, 0]] * 3, [4, 8, 16])
    assert [(s["j"], s["p"]) for s in sel] == [(1, 4), (2, 8), (3, 16)]
    assert all(s["resolved"] for s in sel)


def test_selection_threshold_arithmetic():
    grid = list(range(1, 9))
    sel = diagonal_sequence([[1.0 / p for p in grid]] * 4, grid)
    assert [(s["j"], s["p"]) for s in sel] == [(1, 1), (2, 2), (3, 3), (4, 4)]


def test_unresolved_rows_are_flagged_and_skipped():
    sel = diagonal_sequence([[0.9, 0.9], [0.9, 0.9], [0.0, 0.0]], [4, 8])
    assert sel[0]["resolved"] and sel[0]["p"] == 4
    assert not sel[1]["resolved"] and sel[1]["p"] is None
    # the floor stays at 4, so row three may still pick 8
    assert sel[2]["resolved"] and sel[2]["p"] == 8
    sel = diagonal_sequence([[None, 0.0]], [4, 8])
    assert sel[0]["p"] == 8


# -- the end-to-end run -------------------------------------------------------------


def _curve_run(p1, h, g, eps_list, p_grid, **kw):
    return approximation_run([h], [g], eps_list, p_grid,
                             test_form_dictionary(p1, 1), False, **kw)


def test_approximation_run_on_the_reference_family(p1):
    fs = Metric.fubini_study(LineBundle(p1, 1))
    rep = _curve_run(p1, fs, fs, [0.5, 0.25], [4, 8, 16], seed=(41,))
    assert rep["resolved"]
    assert all(r["status"] == "ok" for r in rep["rows"])
    # trivial twist keeps the zero count at p, so every mass is exactly one
    assert all(r["mass"] == 1.0 for r in rep["rows"])
    for s in rep["selected"]:
        assert s["distance"] <= s["threshold"]
    again = _curve_run(p1, fs, fs, [0.5, 0.25], [4, 8, 16], seed=(41,))
    assert again == rep


def test_approximation_masses_follow_the_twist_deficit(p2):
    L = LineBundle(p2, 1)
    h1 = Metric.log_pole(L, coordinate_section(p2, 0), 0.5)
    h2 = Metric.log_pole(L, coordinate_section(p2, 1), 0.5)
    g = Metric.fubini_study(L)
    rep = approximation_run([h1, h2], [g, g], [0.5], [6, 8],
                            test_form_dictionary(p2, 2), True, seed=(42,))
    assert abs(rep["target"][0] - 1.0) < 1e-9
    for r in rep["rows"]:
        assert r["status"] == "ok"
        assert abs(r["mass"] - ((r["p"] - 3.0) / r["p"]) ** 2) < 1e-5


def test_one_factor_per_complex_dimension(p2):
    # the cells pair their zero sets as points: one section per dimension
    fs = Metric.fubini_study(LineBundle(p2, 1))
    with pytest.raises(ConfigurationError):
        approximation_run([fs], [fs], [0.5], [4],
                          test_form_dictionary(p2, 1, 2), True)


def test_smoothing_metrics_must_be_positive(p1):
    L = LineBundle(p1, 1)
    fs = Metric.fubini_study(L)
    flat = Metric.log_pole(L, coordinate_section(p1, 0), 1.0)
    with pytest.raises(ConfigurationError):
        _curve_run(p1, fs, flat, [0.5], [4], seed=(43,))


def test_one_threshold_per_eps_step(p1):
    fs = Metric.fubini_study(LineBundle(p1, 1))
    with pytest.raises(ConfigurationError):
        _curve_run(p1, fs, fs, [0.5], [4, 8], thresholds=[1.0, 0.5])
