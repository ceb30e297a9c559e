import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
import sympy as sp

from kahlerlab.errors import ConfigurationError
from kahlerlab.geometry import build_manifold
from kahlerlab.polynomials import (
    ChartPoly,
    SectionPoly,
    coordinate_section,
    monomial_exponents,
)


def test_monomial_counts():
    p1 = build_manifold("P1")
    p2 = build_manifold("P2")
    pp = build_manifold("P1xP1")
    assert len(monomial_exponents(p1, 7)) == 8
    assert len(monomial_exponents(p2, 3)) == 10
    assert len(monomial_exponents(p2, 6)) == 28
    assert len(monomial_exponents(pp, (2, 3))) == 12


def test_monomial_order_deterministic():
    p2 = build_manifold("P2")
    a = monomial_exponents(p2, 4)
    b = monomial_exponents(p2, 4)
    assert np.array_equal(a, b)
    # rows homogeneous of the right degree
    assert np.all(a.sum(axis=1) == 4)
    # the order itself: bases, Grams and cached results are keyed on it
    assert monomial_exponents(build_manifold("P1"), 3).tolist() == [
        [3, 0], [2, 1], [1, 2], [0, 3]]
    assert monomial_exponents(p2, 2).tolist() == [
        [2, 0, 0], [1, 0, 1], [0, 0, 2], [1, 1, 0], [0, 1, 1], [0, 2, 0]]
    assert monomial_exponents(build_manifold("P1xP1"), (1, 2)).tolist() == [
        [1, 0, 2, 0], [1, 0, 1, 1], [1, 0, 0, 2], [0, 1, 2, 0], [0, 1, 1, 1],
        [0, 1, 0, 2]]


def test_chart_columns_of_every_chart():
    cols = {kind: [build_manifold(kind).chart_columns(c)
                   for c in range(build_manifold(kind).num_charts)]
            for kind in ("P1", "P2", "P1xP1")}
    assert cols == {"P1": [[1], [0]],
                    "P2": [[1, 2], [0, 2], [0, 1]],
                    "P1xP1": [[1, 3], [1, 2], [0, 3], [0, 2]]}


@pytest.fixture
def cubic():
    p2 = build_manifold("P2")
    return p2, SectionPoly.from_coeff_map(
        p2, 3, {(2, 1, 0): 1.0, (0, 1, 2): -2.0, (0, 0, 3): 1.0})


def test_chart_derivatives_match_sympy(cubic):
    p2, s = cubic
    cp = s.chart_poly(0)  # variables (z1/z0, z2/z0)
    x, y = sp.symbols("x y")
    ex = x - 2 * x * y ** 2 + y ** 3
    P = np.array([[0.3 + 0.2j, -0.5 + 0.1j]])
    subs = {x: complex(P[0, 0]), y: complex(P[0, 1])}
    assert abs(complex(cp.eval(P)[0]) - complex(ex.subs(subs))) < 1e-12
    for axis, var in ((0, x), (1, y)):
        v = complex(cp.deriv(axis).eval(P)[0])
        vr = complex(sp.diff(ex, var).subs(subs))
        assert abs(v - vr) < 1e-12


def test_multiply_evaluates_consistently(cubic):
    p2, s = cubic
    q = SectionPoly.from_coeff_map(p2, 1, {(1, 0, 0): 1.0, (0, 1, 0): -1.0})
    prod = s.multiply(q)
    assert prod.degree == (4,)
    pt = np.array([[0.7, -0.2, 1.1]])
    assert abs(prod.eval_hom(pt)[0]
               - s.eval_hom(pt)[0] * q.eval_hom(pt)[0]) < 1e-12


def test_vanishing_order_and_division():
    p2 = build_manifold("P2")
    h = SectionPoly.from_coeff_map(p2, 3, {(0, 2, 1): 2.0, (0, 1, 2): 1.0})
    assert h.vanishing_order(0) == 0
    assert h.vanishing_order(1) == 1
    assert h.vanishing_order(2) == 1


def test_coordinate_section_degrees():
    pp = build_manifold("P1xP1")
    assert coordinate_section(pp, 1).degree == (1, 0)
    assert coordinate_section(pp, 3).degree == (0, 1)
    p1 = build_manifold("P1")
    z0 = coordinate_section(p1, 0)
    assert z0.vanishing_order(0) == 1


def test_inhomogeneous_rows_rejected():
    p2 = build_manifold("P2")
    with pytest.raises(ConfigurationError):
        SectionPoly.from_coeff_map(p2, 3, {(1, 1, 0): 1.0})


def test_dense_roundtrip():
    cp = ChartPoly(np.array([[2, 0], [0, 3], [1, 1]]),
                   np.array([1.0, -2.0, 3.0]), 2)
    grid = cp.dense()
    assert grid.shape == (3, 4)
    P = np.array([[0.4 - 0.1j, 1.2 + 0.3j], [0.0, 0.5]])
    assert np.allclose(cp.eval(P), npoly.polyval2d(P[:, 0], P[:, 1], grid))


def test_homogeneous_partials_shift_exponents():
    pp = build_manifold("P1xP1")
    S = SectionPoly.from_coeff_map(pp, (2, 1), {(2, 0, 1, 0): 3.0,
                                                (1, 1, 0, 1): 2.0j})
    d0 = S.partial(0)
    assert d0.degree == (1, 1)
    assert dict(zip(map(tuple, d0.exponents.tolist()), d0.coeffs)) == {
        (1, 0, 1, 0): 6.0, (0, 1, 0, 1): 2.0j}
    d3 = S.partial(3)
    assert d3.degree == (2, 0)
    assert d3.exponents.tolist() == [[1, 1, 0, 0]] and d3.coeffs[0] == 2.0j
    # d/dw_0 keeps the one term that holds w_0
    assert S.partial(2).exponents.tolist() == [[2, 0, 0, 0]]
    # a coordinate no term holds gives the zero section of lower degree
    z = SectionPoly.from_coeff_map(pp, (2, 1), {(2, 0, 1, 0): 1.0}).partial(1)
    assert z.is_zero and z.degree == (1, 1)
