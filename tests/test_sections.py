"""Section spaces: filtered bases, Gram assembly, Bergman kernels.

Expected values are closed forms: reference-metric Gram matrices are exactly
the identity in the scaled monomial basis, the reference Bergman function is
exactly the dimension, and dimensions follow the degree-counting formulas.
"""

import tracemalloc

import numpy as np
import pytest

from kahlerlab import sections
from kahlerlab.bundles import (LineBundle, LogPoleAtom, MaxLogAtom, Metric,
                               SmoothedMaxAtom)
from kahlerlab.errors import (ConfigurationError, EmptySpaceError,
                              IllConditionedError, NumericalError,
                              UnsupportedMetricError)
from kahlerlab.geometry import (Axis, Block, QuadratureRule, build_manifold,
                                quadrature_nodes)
from kahlerlab.polynomials import ChartPoly, SectionPoly, coordinate_section
from kahlerlab.sections import (SectionSpace, build_section_space,
                                log_bergman_sup, section_degree,
                                space_dimension, vanishing_order_required)

P1 = build_manifold("P1")
P2 = build_manifold("P2")
P11 = build_manifold("P1xP1")


def _generic_pair():
    Q1 = SectionPoly.from_coeff_map(P1, 2, {(2, 0): 1.0, (0, 2): -0.5})
    Q2 = SectionPoly.from_coeff_map(P1, 2, {(1, 1): 1.0, (2, 0): 0.3})
    return Q1, Q2


def _off_axis_q(scale=1.0):
    return SectionPoly.from_coeff_map(
        P1, 1, {(1, 0): scale, (0, 1): scale * (0.6 + 0.3j)})


def _off_axis_pole(t=0.5):
    # the pole of the benchmark's p1-zeros workload
    return Metric.log_pole(LineBundle(P1, 2), _off_axis_q(), t)


def _scaled_copies():
    # two log poles on one divisor, given by proportional polynomials
    return Metric(LineBundle(P1, 2), [(1.0, LogPoleAtom(_off_axis_q(), 0.3)),
                                      (1.0, LogPoleAtom(_off_axis_q(1.5),
                                                        0.3))])


# -- degrees and dimensions ----------------------------------------------------


def test_section_degrees():
    assert section_degree(P1, 1, 16, adjoint=True) == (14,)
    assert section_degree(P1, 1, 16, adjoint=False) == (16,)
    assert section_degree(P2, 1, 8, adjoint=True) == (5,)
    assert section_degree(P11, (1, 1), 6, adjoint=True) == (4, 4)
    assert section_degree(P11, (2, 1), 6, adjoint=False) == (12, 6)


@pytest.mark.parametrize("p", [4, 8, 16])
def test_reference_dimensions(p):
    fs1 = Metric.fubini_study(LineBundle(P1, 1))
    fs2 = Metric.fubini_study(LineBundle(P2, 1))
    fs11 = Metric.fubini_study(LineBundle(P11, (1, 1)))
    assert space_dimension(fs1, p, adjoint=True) == p - 1
    assert space_dimension(fs1, p, adjoint=False) == p + 1
    assert space_dimension(fs2, p, adjoint=True) == (p - 1) * (p - 2) // 2
    assert space_dimension(fs2, p, adjoint=False) == (p + 1) * (p + 2) // 2
    assert space_dimension(fs11, p, adjoint=True) == (p - 1) ** 2
    assert space_dimension(fs11, p, adjoint=False) == (p + 1) ** 2


# -- integrability filter ------------------------------------------------------


def test_vanishing_order_threshold():
    # square integrability needs order k > p nu - 1, strictly
    assert vanishing_order_required(4, 0.5) == 2
    assert vanishing_order_required(16, 0.35) == 5
    assert vanishing_order_required(10, 0.5) == 5
    assert vanishing_order_required(3, 0.1) == 0


def test_coordinate_pole_filter():
    L = LineBundle(P1, 1)
    h = Metric.log_pole(L, coordinate_section(P1, 1), 0.5)
    sp = SectionSpace(h, 10)
    assert sp.dim == 4  # degree 8, forced order 5 along z1
    assert sp.base_divisors == [(("coord", 1), 5)]
    assert all(e[1] >= 5 for e in sp.exponents)


def test_two_pole_filter_on_p2():
    L = LineBundle(P2, 1)
    h = Metric(L, [(1.0, a) for _, a in
                   (Metric.log_pole(L, coordinate_section(P2, 0), 0.25).atoms
                    + Metric.log_pole(L, coordinate_section(P2, 1),
                                      0.25).atoms)])
    sp = SectionSpace(h, 12)
    # degree 9, order 3 forced along each of two coordinate lines
    assert sp.dim == 10
    assert sorted(k for _, k in sp.base_divisors) == [3, 3]


def test_empty_space():
    L = LineBundle(P1, 1)
    h = Metric.log_pole(L, coordinate_section(P1, 1), 1.0)
    with pytest.raises(EmptySpaceError):
        build_section_space(h, 10, adjoint=True)  # forced order 10 > degree 8
    assert space_dimension(h, 10, adjoint=True) == 0
    assert space_dimension(h, 10, adjoint=False) == 1


def test_generic_pole_filter():
    L = LineBundle(P1, 1)
    Q1, _ = _generic_pair()
    h = Metric.log_pole(L, Q1, 0.7)
    sp = SectionSpace(h, 16)
    assert sp.dim == 5  # degree 14, order 5 along a conic pair of points
    assert sp.base_divisors[0][1] == 5
    assert sp.sigma_polys[0][1] == 5
    assert sp.q_reduced == (4,)


# -- reference metric: exact Gram and constant Bergman function ---------------


@pytest.mark.parametrize("kind,deg,p", [("P1", 1, 16), ("P2", 1, 8),
                                        ("P1xP1", (1, 1), 6)])
@pytest.mark.parametrize("adjoint", [True, False])
def test_reference_gram_is_identity(kind, deg, p, adjoint):
    m = build_manifold(kind)
    h = Metric.fubini_study(LineBundle(m, deg))
    sp = build_section_space(h, p, adjoint=adjoint)
    assert sp.gram_method == "diagonal"
    err = np.max(np.abs(sp.gram() - np.ones(sp.dim)))
    assert err < 1e-12


@pytest.mark.parametrize("kind,deg,p", [("P1", 1, 16), ("P2", 1, 8),
                                        ("P1xP1", (1, 1), 6)])
def test_reference_bergman_is_constant(kind, deg, p):
    m = build_manifold(kind)
    h = Metric.fubini_study(LineBundle(m, deg))
    sp = build_section_space(h, p)
    pts = m.sample_grid(300)
    vals = np.exp(sp.log_bergman_hom(pts))
    assert np.max(np.abs(vals - sp.dim)) / sp.dim < 1e-12


def test_bergman_total_mass_singular_metric():
    # integral of the Bergman function against the unit volume form equals
    # the dimension for any admissible metric, singular ones included
    L = LineBundle(P1, 1)
    h = Metric.log_pole(L, coordinate_section(P1, 1), 0.5)
    sp = build_section_space(h, 10)
    rule = quadrature_nodes(P1, 48, singular_refinement=h.refinement_centers())
    blocks = rule.capped_blocks()
    weights = np.concatenate([b.weights_volume for b in blocks])
    nodes = np.concatenate([P1.from_chart(b.points, b.chart) for b in blocks])
    total = float(weights @ np.exp(sp.log_bergman_hom(nodes)))
    assert abs(total - sp.dim) < 1e-9


def test_log_bergman_sup_reference():
    h = Metric.fubini_study(LineBundle(P1, 1))
    p = 16
    sp = build_section_space(h, p)
    s = log_bergman_sup(sp, grid_count=200)
    assert abs(s - np.log(p - 1.0) / p) < 1e-12


# -- cross-validation of the three Gram strategies -----------------------------


def test_gram_paths_agree_coordinate_pole():
    L = LineBundle(P1, 1)
    h = Metric.log_pole(L, coordinate_section(P1, 1), 0.5)
    grams = {}
    for meth in ("diagonal", "modes", "nodes"):
        sp = build_section_space(h, 10, method=meth, resolution=48)
        grams[meth] = sp.gram()
    diagonal = np.diag(grams["diagonal"])
    assert np.max(np.abs(grams["modes"] - diagonal)) < 1e-10
    assert np.max(np.abs(grams["nodes"] - diagonal)) < 1e-10


def test_gram_paths_agree_smooth_generic():
    L = LineBundle(P1, 1)
    Q1, Q2 = _generic_pair()
    g = Metric.smoothed_max(L, Q1, Q2, 0.7, 0.6)
    spm = build_section_space(g, 8, method="modes", resolution=64)
    spn = build_section_space(g, 8, method="nodes", resolution=64)
    assert spm.gram_method == "modes"
    assert np.max(np.abs(spm.gram() - spn.gram())) < 1e-10
    assert SectionSpace(g, 8)._dispatch() == "modes"


def test_gram_dispatch_and_validation():
    L = LineBundle(P1, 1)
    Q1, Q2 = _generic_pair()
    g = Metric.smoothed_max(L, Q1, Q2, 0.7, 0.6)
    with pytest.raises(ConfigurationError):
        build_section_space(g, 8, method="diagonal")
    h = Metric.log_pole(L, Q1, 0.7)
    assert SectionSpace(h, 8)._dispatch() == "nodes"


def test_generic_pole_gram_unsupported_on_surfaces():
    L = LineBundle(P2, 1)
    Q = SectionPoly.from_coeff_map(
        P2, 2, {(2, 0, 0): 1.0, (0, 2, 0): -0.5, (0, 0, 2): 0.25})
    h = Metric.log_pole(L, Q, 0.5)
    with pytest.raises(UnsupportedMetricError):
        build_section_space(h, 8)


# -- closed-form diagonal Grams against references that share no rule ---------


def _radial_moment(a, b):
    """``int_0^inf u^a (1 + u)^(-b) du`` by ``scipy.integrate.quad``.

    Both ends become algebraic weights on [0, 1] (``v = 1 / u`` past 1),
    which QUADPACK integrates to full precision for any ``a > -1``.
    """
    integrate = pytest.importorskip("scipy.integrate")
    opts = {"weight": "alg", "epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    low = integrate.quad(lambda u: (1.0 + u) ** -b, 0.0, 1.0,
                         wvar=(a, 0.0), **opts)[0]
    high = integrate.quad(lambda v: (1.0 + v) ** -b, 0.0, 1.0,
                          wvar=(b - a - 2.0, 0.0), **opts)[0]
    return low + high


@pytest.mark.parametrize("delta", [0.0, 0.2, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("adjoint", [True, False])
def test_closed_form_diagonal_matches_the_radial_integral(delta, adjoint):
    # a pole of Lelong number t on {z1 = 0} forces order 2 at p = 14 and
    # leaves |z|^(-2 delta) in the row of reduced exponent 0
    p = 14
    t = (2.0 + delta) / p
    h = Metric.log_pole(LineBundle(P1, 1), coordinate_section(P1, 1), t)
    sp = build_section_space(h, p, adjoint=adjoint)
    assert sp.base_divisors == [(("coord", 1), 2)]
    assert sp.gram_method == "diagonal" and sp.rule is None
    G = sp.gram()
    for row, e in enumerate(sp.exponents[:, 1]):
        # in the chart z = z1 / z0 the integrand is |z|^(2 (e - p t))
        # (1 + |z|^2)^(-p (1 - t)), against 2 dA (adjoint) or the
        # unit-mass (1 + |z|^2)^-2 dA / pi; u = |z|^2
        b = p * (1.0 - t) + (0.0 if adjoint else 2.0)
        want = ((2.0 * np.pi if adjoint else 1.0)
                * _radial_moment(e - p * t, b))
        got = G[row] * np.exp(-2.0 * sp.log_scales[row])
        assert abs(got / want - 1.0) <= 1e-10


def _quadrature_diagonal(sp):
    """The diagonal Gram on the torus-reduced rule of the quadrature path."""
    return sp._gram_diagonal(quadrature_nodes(
        sp.manifold, 24, singular_refinement=sp.metric.refinement_centers(),
        radial_min=sp._axis_plan()[0]).torus_reduced())


def _integer_lelong_case(case):
    """A toric pole metric and a power p with p nu an integer."""
    if case == "P1":
        return Metric.log_pole(LineBundle(P1, 1), coordinate_section(P1, 0),
                               0.5), 10
    if case == "P2":
        return Metric.log_pole(LineBundle(P2, 1), coordinate_section(P2, 0),
                               0.25), 8
    if case == "P1xP1":
        return Metric.log_pole(LineBundle(P11, (1, 1)),
                               coordinate_section(P11, 0), 0.5), 6
    if case.startswith("FS "):
        m = {"P1": P1, "P2": P2, "P1xP1": P11}[case[3:]]
        return Metric.fubini_study(LineBundle(m, 1 if m.factors == 1
                                              else (1, 1))), 7
    if case.startswith("scaled "):
        # a monomial pole a z1: the weight carries |a|^(-2 p t)
        a = complex(case[7:])
        return Metric.log_pole(LineBundle(P1, 1), SectionPoly(
            P1, 1, [[0, 1]], [a]), 0.5), 10
    L = LineBundle(P2, 1)
    if case == "two-atoms":
        # merged to nu = 0.5 on {z1 = 0}
        return Metric(L, [(1.0, LogPoleAtom(coordinate_section(P2, 1), 0.25)),
                          (0.5, LogPoleAtom(coordinate_section(P2, 1), 0.5))
                          ]), 8
    assert case == "p2-approx"
    # the p2-approx cell metric at eps = 0.5: nu = 1/6
    h = Metric.log_pole(L, coordinate_section(P2, 0), 0.25)
    return Metric.interpolate(h, Metric.fubini_study(L), 0.5), 6


@pytest.mark.parametrize("case", ["P1", "P2", "P1xP1", "two-atoms",
                                  "p2-approx", "FS P1", "FS P2", "FS P1xP1",
                                  "scaled 2", "scaled 0.5+0.5j"])
@pytest.mark.parametrize("adjoint", [True, False])
def test_closed_form_matches_every_rule_at_integer_lelong(case, adjoint):
    h, p = _integer_lelong_case(case)
    sp = SectionSpace(h, p, adjoint=adjoint)
    exact = sp.gram()
    assert sp.rule is None
    grams = [_quadrature_diagonal(SectionSpace(h, p, adjoint=adjoint))]
    on_p1 = sp.manifold.dim == 1
    for method in ("modes", "nodes") if on_p1 else ("modes",):
        grams.append(SectionSpace(h, p, adjoint=adjoint, method=method).gram())
    inv = exact ** -0.5
    for G in grams:
        if G.ndim == 1:  # the quadrature diagonal
            G = np.diag(G)
        assert np.max(np.abs((G - np.diag(exact)) * np.outer(inv, inv))
                      ) <= 1e-12


def _rotation():
    """The unitary U with (U Z)_0 = Q(Z) / |a| for Q = a . Z of
    _off_axis_q."""
    a = np.array([1.0, 0.6 + 0.3j])
    u = a / np.linalg.norm(a)
    return np.array([u, [-np.conj(u[1]), np.conj(u[0])]])


@pytest.mark.parametrize("p", [4, 5, 7, 8, 9, 33, 129])
def test_off_axis_pole_space_is_the_rotated_coordinate_space(p):
    # U maps the pole {Q = 0} of the nodes space onto {z0 = 0}: (U Z)_0 =
    # Q(Z) / |a|, so the two metrics differ by a constant and FS is
    # U-invariant.  The closed form is exact at every p (3.1e-15 to
    # 1.3e-13 here); the nodes rule missed by 3.7e-9 to 1.6e-8 at odd p.
    off = build_section_space(_off_axis_pole(), p)
    coord = build_section_space(Metric.log_pole(
        LineBundle(P1, 2), coordinate_section(P1, 0), 0.5), p)
    assert (off.gram_method, coord.gram_method) == ("nodes", "diagonal")
    assert off.rule is None
    Z = P1.sample_grid(400)
    err = off.log_bergman_hom(Z) - coord.log_bergman_hom(Z @ _rotation().T)
    assert np.max(np.abs(err)) <= 1e-12


def _linear_pole_case(case):
    """An off-axis metric on linear poles, its coordinate-pole image under
    U (up to a constant, which no Bergman function sees), a power and the
    adjoint flag."""
    L = LineBundle(P1, 2)
    z0 = coordinate_section(P1, 0)
    if case == "adjoint-off":
        return _off_axis_pole(), Metric.log_pole(L, z0, 0.5), 5, False
    if case == "no-forced-factor":  # p t < 1
        return _off_axis_pole(0.1), Metric.log_pole(L, z0, 0.1), 7, True
    if case == "scaled-copies":
        return (_scaled_copies(), Metric(L, [(1.0, LogPoleAtom(z0, 0.3)),
                                             (1.0, LogPoleAtom(z0, 0.3))]),
                7, True)
    assert case == "interpolate-fs"
    fs = Metric.fubini_study(L)
    return (Metric.interpolate(_off_axis_pole(), fs, 0.4),
            Metric.interpolate(Metric.log_pole(L, z0, 0.5), fs, 0.4), 9, True)


@pytest.mark.parametrize("case", ["adjoint-off", "no-forced-factor",
                                  "scaled-copies", "interpolate-fs"])
def test_linear_pole_spaces_are_rotated_coordinate_spaces(case, monkeypatch):
    def no_rule(*args, **kwargs):
        raise AssertionError("a closed-form Gram built a quadrature rule")

    monkeypatch.setattr(sections, "quadrature_nodes", no_rule)
    h, g, p, adjoint = _linear_pole_case(case)
    off = build_section_space(h, p, adjoint=adjoint)
    coord = build_section_space(g, p, adjoint=adjoint)
    assert off.gram_method == "nodes" and off.rule is None
    assert bool(off.sigma_polys) == (case != "no-forced-factor")
    Z = P1.sample_grid(400)
    err = off.log_bergman_hom(Z) - coord.log_bergman_hom(Z @ _rotation().T)
    assert np.max(np.abs(err)) <= 1e-12


@pytest.mark.parametrize("case,p,adjoint", [
    ("off-axis", 4, True), ("off-axis", 8, True), ("adjoint-off", 4, False),
    ("adjoint-off", 6, False), ("scaled-copies", 5, True)])
def test_linear_pole_closed_form_matches_the_rule_at_integer_lelong(
        case, p, adjoint):
    # delta_p = 0: the rule is exact to rounding as well
    h = _scaled_copies() if case == "scaled-copies" else _off_axis_pole()
    exact = SectionSpace(h, p, adjoint=adjoint)
    rule = SectionSpace(h, p, adjoint=adjoint, method="nodes")
    assert exact._gram is None and exact.gram_plan() == ("nodes", None)
    assert np.max(np.abs(exact.gram() - rule.gram())) <= 1e-13
    assert exact.rule is None and rule.rule is not None


def test_toric_log_pole_grams_build_no_rule(monkeypatch):
    def no_rule(*args, **kwargs):
        raise AssertionError("a closed-form Gram built a quadrature rule")

    monkeypatch.setattr(sections, "quadrature_nodes", no_rule)
    metrics = []
    for m, deg in ((P1, 1), (P2, 1), (P11, (1, 1))):
        L = LineBundle(m, deg)
        metrics += [(Metric.fubini_study(L), 6),
                    (Metric.log_pole(L, coordinate_section(m, 0), 0.3), 7)]
    metrics.append((_integer_lelong_case("p2-approx")[0], 8))
    for h, p in metrics:
        sp = build_section_space(h, p)
        assert sp.gram_method == "diagonal" and sp.rule is None
        assert np.all(np.isfinite(sp.coeff_matrix()))
    with pytest.raises(AssertionError, match="built a quadrature rule"):
        build_section_space(Metric.max_log(LineBundle(P1, 1), 0.5), 6)
    # a degree-2 pole and a log pole beside another atom keep the rule
    for case in ("degree-2-pole", "pole+max_log"):
        with pytest.raises(AssertionError, match="built a quadrature rule"):
            build_section_space(_nodes_case(case), 5)


@pytest.mark.parametrize("adjoint", [True, False])
def test_fubini_study_gram_is_exactly_the_identity(adjoint):
    # the closed form subtracts nothing from the reference moments, whose
    # negated halves are the log scales
    for m, deg, p in ((P1, 1, 9), (P2, 1, 7), (P11, (1, 1), 5)):
        sp = SectionSpace(Metric.fubini_study(LineBundle(m, deg)), p,
                          adjoint=adjoint)
        assert np.array_equal(sp.gram(), np.ones(sp.dim))


# -- the separable nodes Gram against the node-wise formula ---------------------


def _nodewise_gram(space, rule):
    """sum over nodes of w E conj(E), E = exp(log|B| - p phi) B / |B|.

    Nodes where the basis vanishes contribute nothing.
    """
    G = np.zeros((space.dim, space.dim), dtype=complex)
    for block in rule.blocks:
        w_all = (block.weights_lebesgue if space.adjoint
                 else block.weights_volume)
        for lo in range(0, block.num_nodes, 50_000):
            sl = slice(lo, lo + 50_000)
            Z = block.points[sl]
            B = space.basis_values(block.chart, Z)
            absB = np.abs(B)
            with np.errstate(divide="ignore", invalid="ignore"):
                L = (np.log(absB)
                     - space.p * space.metric.weight(block.chart, Z)[:, None])
            E = np.zeros_like(B)
            nz = absB > 0.0
            E[nz] = np.exp(L[nz]) * (B[nz] / absB[nz])
            G += (E * w_all[sl, None]).T @ np.conj(E)
    return G


def _nodes_case(case):
    """The metric of one node-wise reference case."""
    if case in ("off-axis", "adjoint-off"):
        return _off_axis_pole()
    if case == "sigma-filtered":
        return Metric.log_pole(LineBundle(P1, 1), _generic_pair()[0], 0.7)
    if case == "point-centers":
        return _off_axis_pole(t=0.1)  # p t < 1: no forced vanishing
    if case == "pole+max_log":
        return Metric(LineBundle(P1, 2),
                      [(1.0, LogPoleAtom(_off_axis_q(), 0.5)),
                       (0.6, MaxLogAtom(0.5))])
    if case == "interpolate-smoothed":
        Q1, Q2 = _generic_pair()
        g = Metric.smoothed_max(LineBundle(P1, 2), Q1, Q2, 0.7, 0.6)
        return Metric.interpolate(_off_axis_pole(), g, 0.5)
    if case == "degree-2-pole":
        # kappa_Q = -0.5 at p = 5, -1 at p = 6.  Below -1 the nodes nearest
        # a root (|Q| ~ 1e-8) carry the eps / |Q| rounding of Q into the
        # Gram, at 2e-11 for kappa_Q = -1.6 by either evaluation of Q
        return Metric.log_pole(LineBundle(P1, 3), _generic_pair()[0], 0.5)
    assert case == "scaled-copies"
    return _scaled_copies()


@pytest.mark.parametrize("case,p,forced", [
    ("off-axis", 4, True), ("off-axis", 8, True),
    ("sigma-filtered", 16, True), ("point-centers", 4, False),
    ("pole+max_log", 5, True), ("pole+max_log", 6, True),
    ("interpolate-smoothed", 5, True), ("interpolate-smoothed", 6, True),
    ("adjoint-off", 5, True), ("adjoint-off", 6, True),
    ("degree-2-pole", 5, True), ("degree-2-pole", 6, True),
    ("scaled-copies", 5, True)])
def test_nodes_gram_matches_the_nodewise_sum(case, p, forced):
    sp = SectionSpace(_nodes_case(case), p, adjoint=case != "adjoint-off",
                      method="nodes")
    G = sp.gram()
    assert sp.gram_method == "nodes"
    assert bool(sp.sigma_polys) == forced
    assert np.max(np.abs(G - _nodewise_gram(sp, sp.rule))) <= 1e-13


@pytest.mark.parametrize("case,p", [
    ("off-axis", 4), ("off-axis", 8), ("point-centers", 4),
    ("adjoint-off", 5), ("adjoint-off", 6), ("scaled-copies", 5)])
def test_linear_pole_cases_of_the_nodewise_sum_build_no_rule(case, p):
    sp = SectionSpace(_nodes_case(case), p, adjoint=case != "adjoint-off")
    assert sp.gram_plan() == ("nodes", None)
    G = sp.gram()
    assert sp.gram_method == "nodes" and sp.rule is None
    assert np.all(np.isfinite(G)) and np.allclose(G, G.conj().T,
                                                  rtol=0.0, atol=1e-14)


def _rule_through_pole(monkeypatch):
    """A hand-built P1 block with a node at z = 1, the zero of z0 - z1."""
    ax = Axis("p1", np.array([0.25, 0.5]), np.array([0.25, 0.25]),
              np.array([0.0, 0.5, 1.0, 1.5]) * np.pi,
              np.full(4, 0.5 * np.pi), True)
    rule = QuadratureRule(P1, 24, [Block(P1, 0, [ax])])
    monkeypatch.setattr(sections, "quadrature_nodes",
                        lambda *args, **kwargs: rule)
    Q = SectionPoly.from_coeff_map(P1, 1, {(1, 0): 1.0, (0, 1): -1.0})
    assert Q.chart_poly(0).eval(rule.blocks[0].points)[4] == 0.0
    return rule, Q


def test_node_on_forced_pole_contributes_nothing(monkeypatch):
    rule, Q = _rule_through_pole(monkeypatch)
    h = Metric.log_pole(LineBundle(P1, 1), Q, 0.5)
    sp = SectionSpace(h, 8, method="nodes")
    assert sp.sigma_polys[0][1] == 4
    G = sp.gram()
    assert np.all(np.isfinite(G))
    assert np.max(np.abs(G - _nodewise_gram(sp, rule))) <= 1e-13
    # the closed form of this linear pole has no node to skip
    exact = SectionSpace(h, 8)
    assert np.all(np.isfinite(exact.gram())) and exact.rule is None


def test_infinite_node_weight_raises(monkeypatch):
    _, Q = _rule_through_pole(monkeypatch)
    # p t < 1: no forced factor cancels the pole at the node
    h = Metric.log_pole(LineBundle(P1, 1), Q, 0.1)
    sp = SectionSpace(h, 4, method="nodes")
    assert not sp.sigma_polys
    with pytest.raises(NumericalError):
        sp.gram()
    # the closed form integrates the pole exactly, at no node
    exact = SectionSpace(h, 4)
    assert np.all(np.isfinite(exact.gram())) and exact.rule is None


@pytest.mark.parametrize("method", ["nodes", "modes", "closed-form"])
def test_gram_overflow_raises_on_tensor_paths(method):
    if method == "modes":
        Q1, Q2 = _generic_pair()
        h, p = Metric.smoothed_max(LineBundle(P1, 1), Q1, Q2, 0.7, 0.6), 8
    else:
        h, p = _off_axis_pole(), 4
    sp = SectionSpace(h, p, method=None if method == "closed-form" else method)
    assert sp._dispatch() == method.replace("closed-form", "nodes")
    # each profile fits in double range, their products do not
    sp.log_scales = sp.log_scales + 400.0
    sp.scales = np.exp(sp.log_scales)
    with pytest.raises(NumericalError):
        sp.gram()


# -- the slab walk of the tensor Gram paths -----------------------------------


def _smoothed_max(manifold):
    """A smoothed max of two sections off the coordinate axes: modes Gram."""
    if manifold is P1:
        Q1, Q2 = _generic_pair()
        return Metric.smoothed_max(LineBundle(P1, 1), Q1, Q2, 0.7, 0.6), 8
    if manifold is P2:
        Q1 = SectionPoly.from_coeff_map(P2, 1, {(1, 0, 0): 1.0,
                                                (0, 1, 0): 0.5})
        Q2 = SectionPoly.from_coeff_map(P2, 1, {(0, 0, 1): 1.0,
                                                (0, 1, 0): -0.3})
        return Metric.smoothed_max(LineBundle(P2, 1), Q1, Q2, 0.1, 0.5), 8
    Q1 = SectionPoly.from_coeff_map(P11, (1, 1), {(1, 0, 1, 0): 1.0,
                                                  (0, 1, 0, 1): 0.5})
    Q2 = SectionPoly.from_coeff_map(P11, (1, 1), {(1, 0, 0, 1): 1.0,
                                                  (0, 1, 1, 0): -0.3})
    return Metric.smoothed_max(LineBundle(P11, (1, 1)), Q1, Q2, 0.1, 0.5), 6


@pytest.mark.parametrize("case", ["nodes", "modes-P2", "modes-P1xP1",
                                  "closed-form"])
def test_gram_builds_only_slab_meshes(case, monkeypatch):
    method = case.split("-")[0]
    if case in ("nodes", "closed-form"):
        h, p = _off_axis_pole(), 8
    else:
        h, p = _smoothed_max(P2 if case == "modes-P2" else P11)
    built = []
    build = Block._build

    def spy(block):
        built.append(block.num_nodes)
        build(block)

    monkeypatch.setattr(Block, "_build", spy)
    sp = SectionSpace(h, p, method=None if method == "closed" else method)
    sp.gram()
    if method == "closed":
        # no rule, so no block and no node
        assert sp.gram_method == "nodes" and sp.rule is None
        assert built == []
        return
    assert sp.gram_method == method
    if case == "nodes":
        # a log-pole weight comes from per-axis tables: no node is built
        assert built == []
    else:
        assert max(built) <= sections._SLAB_NODES
        # every node is built exactly once, and never by a block of the rule
        assert sum(built) == sp.rule.num_nodes
    assert all(b._mesh is None for b in sp.rule.blocks)


def test_nodes_gram_takes_each_pole_once_per_slab(monkeypatch):
    calls, built = [], []
    pole_on_grid = sections._pole_on_grid

    def spy(*args):
        calls.append(args[2].size)
        return pole_on_grid(*args)

    def no_eval(*args):
        raise AssertionError("a pole polynomial is evaluated at the nodes")

    monkeypatch.setattr(sections, "_pole_on_grid", spy)
    monkeypatch.setattr(ChartPoly, "eval", no_eval)
    monkeypatch.setattr(Block, "_build", lambda block: built.append(block))
    # two atoms and the forced factor share one divisor
    sp = SectionSpace(_scaled_copies(), 5, method="nodes")
    sp.gram()
    slabs = [s for b in sp.rule.blocks for s in b.split(sections._SLAB_NODES)]
    assert len(calls) == len(slabs)
    assert sum(calls) == sum(len(s.axes[0].x) for s in slabs)
    assert built == []
    # the closed form evaluates no pole on any grid
    calls.clear()
    exact = SectionSpace(_scaled_copies(), 5)
    exact.gram()
    assert calls == [] and built == [] and exact.rule is None


@pytest.mark.parametrize("p", [4, 8])
def test_forced_order_at_the_lelong_threshold_gives_the_identity(p):
    # k = p t: the forced factor cancels the pole weight exactly, leaving
    # the reference weight on the cofactor
    sp = SectionSpace(_off_axis_pole(), p)
    _, _, poles, others = sp._node_weight_terms()
    assert [(kappa, forced) for _, kappa, forced in poles] == [(0.0, True)]
    assert others == []
    assert np.max(np.abs(sp.gram() - np.eye(sp.dim))) <= 1e-13


def _traced_gram_peak(space):
    tracemalloc.start()
    try:
        space.gram()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nodes_gram_traced_memory_stays_slab_sized():
    sp = SectionSpace(_off_axis_pole(), 8, method="nodes")
    peak = _traced_gram_peak(sp)
    # the whole-block assembly peaked at 58 MB on this 405k-node rule
    assert sp.rule.num_nodes > 400_000
    assert peak < 24 * 2 ** 20
    # slab meshes peaked at 8.5 MB, the per-axis tables of a log-pole
    # weight at 3.6 MB
    assert peak < 5 * 2 ** 20
    # the closed form holds a few dim x dim matrices
    exact = SectionSpace(_off_axis_pole(), 8)
    assert _traced_gram_peak(exact) < 2 ** 16 and exact.rule is None


def test_tensor_gram_traced_memory_stays_chunk_sized():
    h, _ = _smoothed_max(P11)
    sp = SectionSpace(h, 10)
    tracemalloc.start()
    try:
        sp.gram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.gram_method == "modes" and sp.dim == 81
    # gram_contract's 2e6-entry gather and the einsum temporary of the
    # same size held 61.4 of a 75.5 MB peak
    assert peak < 25 * 2 ** 20


@pytest.mark.parametrize("p", [4, 8])
def test_slab_boundaries_keep_the_nodewise_sum(p, monkeypatch):
    exact = SectionSpace(_off_axis_pole(), p).gram()
    monkeypatch.setattr(sections, "_SLAB_NODES", 30_000)
    sp = SectionSpace(_off_axis_pole(), p, method="nodes")
    G = sp.gram()
    refined = max(sp.rule.blocks, key=lambda b: b.num_nodes)
    assert len(list(refined.split(sections._SLAB_NODES))) >= 10
    assert np.max(np.abs(G - _nodewise_gram(sp, sp.rule))) <= 1e-13
    # the closed form walks no slab, so the budget leaves its bits alone
    again = SectionSpace(_off_axis_pole(), p)
    assert np.array_equal(again.gram(), exact) and again.rule is None


@pytest.mark.parametrize("manifold", [P1, P2, P11], ids=lambda m: m.kind)
def test_modes_gram_is_independent_of_the_slab_size(manifold, monkeypatch):
    h, p = _smoothed_max(manifold)
    grams = []
    for budget in (1 << 40, 1):  # one slab per block, one radial row each
        monkeypatch.setattr(sections, "_SLAB_NODES", budget)
        sp = SectionSpace(h, p, resolution=16)
        grams.append(sp.gram())
        assert sp.gram_method == "modes"
    assert np.array_equal(grams[0], grams[1])


def _unequal_modes_case(manifold):
    """A metric off the torus whose chart blocks take unequal per-axis
    degrees: a coordinate pole and a smoothed max on P2 (forced order on
    ``{z0 = 0}`` caps one affine exponent in the charts of ``z1`` and
    ``z2``), a smoothed max of bidegree (2, 1) on P1xP1."""
    if manifold is P2:
        Q1, Q2 = (SectionPoly.from_coeff_map(P2, 1, c) for c in (
            {(1, 0, 0): 1.0, (0, 1, 0): 0.5},
            {(0, 0, 1): 1.0, (0, 1, 0): -0.3}))
        return Metric(LineBundle(P2, 1), [
            (1.0, LogPoleAtom(coordinate_section(P2, 0), 0.5)),
            (0.5, SmoothedMaxAtom(Q1, Q2, 0.1, 0.5))]), 4, False
    Q1, Q2 = (SectionPoly.from_coeff_map(P11, (2, 1), c) for c in (
        {(2, 0, 1, 0): 1.0, (0, 2, 0, 1): 0.5},
        {(1, 1, 0, 1): 1.0, (0, 2, 1, 0): -0.3}))
    h = Metric.smoothed_max(LineBundle(P11, (2, 1)), Q1, Q2, 0.1, 0.5)
    return h, 4, True


@pytest.mark.parametrize("manifold", [P2, P11], ids=lambda m: m.kind)
def test_modes_gram_matches_the_nodewise_sum(manifold):
    # the same rule summed node by node, with no FFT and no mode index
    h, p, adjoint = _unequal_modes_case(manifold)
    sp = SectionSpace(h, p, adjoint=adjoint, resolution=8)
    G = sp.gram()
    assert sp.gram_method == "modes"
    maxima = {tuple(sp.exponents[:, manifold.chart_columns(b.chart)].max(
        axis=0)) for b in sp.rule.blocks}
    assert any(len(set(q)) > 1 for q in maxima)
    assert np.max(np.abs(G - np.diag(np.diag(G)))) > 1.0
    ref = _nodewise_gram(sp, sp.rule)
    assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(G))


# -- orthonormalization --------------------------------------------------------


def test_orthonormal_against_independent_rule():
    L = LineBundle(P1, 1)
    h = Metric.log_pole(L, coordinate_section(P1, 1), 0.5)
    sp = build_section_space(h, 10)
    rule = quadrature_nodes(P1, 48, singular_refinement=h.refinement_centers())
    G = np.zeros((sp.dim, sp.dim), dtype=complex)
    for b in rule.blocks:
        V = sp.section_values(b.chart, b.points)
        W = np.exp(-2.0 * sp.p * h.weight(b.chart, b.points))
        E = V * np.sqrt(W * b.weights_lebesgue)[:, None]
        G += E.T @ np.conj(E)
    assert np.max(np.abs(G - np.eye(sp.dim))) < 1e-10


@pytest.mark.parametrize("h", [
    Metric.log_pole(LineBundle(P2, 1), coordinate_section(P2, 0), 0.5),
    Metric.max_log(LineBundle(P1, 1), 0.5),
], ids=["closed-form", "rule"])
def test_diagonal_gram_orthonormalizes_entrywise(h):
    sp = build_section_space(h, 8)
    g = sp.gram()
    assert sp.gram_method == "diagonal"
    assert g.shape == (sp.dim,) and g.dtype == float
    np.testing.assert_array_equal(sp.coeff_matrix(), g ** -0.5)
    assert sp.gram_condition == g.max() / g.min()


@pytest.mark.parametrize("m,deg", [(P1, 1), (P2, 1), (P11, (1, 1))],
                         ids=["P1", "P2", "P1xP1"])
def test_vector_frame_applies_as_its_diagonal_matrix(m, deg):
    # a diagonal Gram keeps its frame as a scale vector; applying it must
    # give the bits of the product with the dense diagonal matrix
    h = Metric.log_pole(LineBundle(m, deg), coordinate_section(m, 0), 0.3)
    sp = build_section_space(h, 7)
    assert sp.gram_method == "diagonal"
    assert sp.gram().shape == sp.coeff_matrix().shape == (sp.dim,)
    for chart, _, Z in m.chart_split(m.sample_grid(60)):
        V = sp.basis_values(chart, Z)
        assert np.array_equal(sp.orthonormal(V),
                              V @ np.diag(sp.coeff_matrix()))


def test_paper_scale_toric_space_keeps_a_vector_frame():
    # P2 at p = 200 has 9,591 sections: one dense frame matrix would take
    # 1.5 GB, the scale vector takes 77 kB
    h = Metric.log_pole(LineBundle(P2, 1), coordinate_section(P2, 0), 0.3)
    sp = build_section_space(h, 200)
    assert sp.dim == 9591 and sp.rule is None
    assert sp.gram().shape == sp.coeff_matrix().shape == (sp.dim,)
    assert np.isfinite(log_bergman_sup(sp))


def test_ill_conditioned_basis_rejected():
    # a strongly negative smooth weight concentrates all mass near one point,
    # collapsing the numerical rank of the Gram matrix
    L = LineBundle(P1, 1)
    Q1, Q2 = _generic_pair()
    bad = Metric(L, [(-30.0, SmoothedMaxAtom(Q1, Q2, 1.0, 1.0))])
    with pytest.raises(IllConditionedError):
        build_section_space(bad, 8)


# -- section evaluation ---------------------------------------------------------


def test_section_polynomial_roundtrip():
    L = LineBundle(P1, 1)
    h = Metric.log_pole(L, coordinate_section(P1, 1), 0.5)
    sp = build_section_space(h, 10)
    rng = np.random.default_rng(7)
    c = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
    poly = sp.section_polynomial(c)
    assert poly.degree == sp.q
    pts = P1.sample_grid(50)
    want = poly.eval_hom(pts)
    charts = P1.chart_of(pts)
    got = np.empty_like(want)
    for chart in range(2):
        mask = charts == chart
        Z = P1.to_chart(pts[mask], chart)
        B = sp.basis_values(chart, Z)
        frame = pts[mask, chart] ** sum(sp.q)
        got[mask] = (B @ (c * 1.0)) * frame
    assert np.max(np.abs(want - got)) < 1e-10


def test_section_derivatives_match_finite_differences():
    L = LineBundle(P1, 1)
    Q1, _ = _generic_pair()
    h = Metric.log_pole(L, Q1, 0.7)  # sigma-filtered basis
    sp = build_section_space(h, 16)
    Z = np.array([[0.31 + 0.20j], [-0.55 + 0.41j]])
    V, (V1,) = sp.reduced_section_values(0, Z, derivs=True)
    eps = 1e-6
    for k, step in enumerate((eps, 1j * eps)):
        num = (sp.reduced_section_values(0, Z + step)
               - sp.reduced_section_values(0, Z - step)) / (2 * step)
        err = np.max(np.abs(num - V1))
        assert err < 1e-5


def test_degree_and_power_guards():
    L = LineBundle(P1, 1)
    h = Metric.fubini_study(L)
    with pytest.raises(ConfigurationError):
        build_section_space(h, 0)
    with pytest.raises(ConfigurationError):
        build_section_space(h, 500)
