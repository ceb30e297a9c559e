import math

import numpy as np
import pytest

from kahlerlab.errors import ConfigurationError, NumericalError
from kahlerlab.geometry import (
    _PRIMES,
    _halton,
    _ndtri,
    build_manifold,
    integrate,
    quadrature_nodes,
    wedge_density_11,
)
from kahlerlab.testforms import test_form_dictionary

KINDS = ["P1", "P2", "P1xP1"]


def const_one(chart, Z):
    return np.ones(Z.shape[0])


def nodes_homogeneous(rule):
    """The nodes of every capped block, as homogeneous points."""
    return np.concatenate([rule.manifold.from_chart(b.points, b.chart)
                           for b in rule.capped_blocks()], axis=0)


def omega_matrix(m, chart, Z):
    """Hessian-convention matrix of the Kähler form at chart points."""
    acc = None
    for i, c in enumerate(m.omega_coeffs()):
        basis = m.omega_basis_matrix(i, chart, Z)
        acc = c * basis if acc is None else acc + c * basis
    return acc


@pytest.mark.parametrize("kind", KINDS)
def test_total_volume_is_one(kind):
    m = build_manifold(kind)
    rule = quadrature_nodes(m, 16)
    assert abs(integrate(const_one, rule) - 1.0) < 1e-9


def test_bad_manifold_name_rejected():
    with pytest.raises(ConfigurationError):
        build_manifold("P3")


def test_p1_linear_moment_exact():
    # x = |z1|^2/|Z|^2 is Beta(1,1) under the unit FS volume: mean 1/2
    m = build_manifold("P1")
    rule = quadrature_nodes(m, 16)

    def f(c, Z):
        a = np.abs(Z[:, 0]) ** 2
        x = a / (1.0 + a)
        return x if c == 0 else 1.0 - x

    assert abs(integrate(f, rule) - 0.5) < 1e-12


def _log_t(m, i):
    # log(|z_i|^2 / |Z|^2) as a chart field (per-factor norm on products)
    def f(chart, Z):
        pts = m.from_chart(Z, chart)
        return np.log(np.abs(pts[:, i]) ** 2)

    return f


# E[log t_i] under the unit FS volume: Dirichlet(1,..,1) gives -(1+..+1/n)
@pytest.mark.parametrize("kind,i,expected,tol", [
    ("P1", 0, -1.0, 1e-7),
    ("P1", 1, -1.0, 1e-7),
    ("P2", 2, -1.5, 1e-6),
    ("P1xP1", 1, -1.0, 1e-6),
])
def test_log_coordinate_moments(kind, i, expected, tol):
    m = build_manifold(kind)
    rule = quadrature_nodes(m, 32, singular_refinement=[("coord", i)])
    val = integrate(_log_t(m, i), rule, integrable=True)
    assert abs(val - expected) < tol


def test_seamed_log_moment_with_refinement():
    # refinement toward both coordinate divisors puts refined blocks on both
    # sides of the chart seam |z0| = |z1|; E[log t_1] stays -1
    m = build_manifold("P1")
    rule = quadrature_nodes(m, 32,
                            singular_refinement=[("coord", 0), ("coord", 1)])
    val = integrate(_log_t(m, 1), rule, integrable=True)
    assert abs(val + 1.0) < 1e-7


def test_non_finite_field_requires_flag():
    m = build_manifold("P1")
    rule = quadrature_nodes(m, 16)

    def f(c, Z):
        out = np.ones(Z.shape[0])
        out[::7] = np.nan
        return out

    with pytest.raises(NumericalError):
        integrate(f, rule)
    # even with the flag, widespread non-finite values are an error
    with pytest.raises(NumericalError):
        integrate(f, rule, integrable=True)


@pytest.mark.parametrize("kind", KINDS)
def test_chart_roundtrip(kind):
    m = build_manifold(kind)
    pts = m.sample_grid(64)
    charts = m.chart_of(pts)
    for c in range(m.num_charts):
        sel = charts == c
        if not np.any(sel):
            continue
        Z = m.to_chart(pts[sel], c)
        # region property: affine coordinates bounded by 1 on own chart
        assert np.all(np.abs(Z) <= 1.0 + 1e-12)
        back = m.from_chart(Z, c)
        d = m.chordal_distance(pts[sel], back)
        assert np.max(d) < 1e-12


def test_quadrature_nodes_counts_grow():
    m = build_manifold("P1")
    a = quadrature_nodes(m, 8)
    b = quadrature_nodes(m, 32)
    assert b.num_nodes > a.num_nodes
    assert a.num_nodes == sum(bl.num_nodes for bl in a.blocks)
    w = np.concatenate([bl.weights_volume for bl in a.capped_blocks()])
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_refinement_concentrates_nodes():
    # node density inside a small ball around the center must beat the
    # uniform share by a wide margin
    m = build_manifold("P2")
    center = np.array([0.0, 0.0, 1.0])
    rule = quadrature_nodes(m, 16, singular_refinement=[center])
    pts = nodes_homogeneous(rule)
    d = m.chordal_distance(pts, center[None, :])
    s = 0.1
    share = np.mean(d <= s)
    # FS mass of a sine-radius ball on a surface is s^4
    assert share >= 4.0 * s ** 4
    # and no node collides with the center
    assert d.min() > 1e-10


def test_nodes_avoid_coordinate_divisors():
    m = build_manifold("P2")
    rule = quadrature_nodes(m, 16, singular_refinement=[("coord", 0)])
    pts = nodes_homogeneous(rule)
    assert np.min(np.abs(pts[:, 0])) > 0.0


def test_omega_wedge_mass_on_surfaces():
    for kind in ("P2", "P1xP1"):
        m = build_manifold(kind)
        rule = quadrature_nodes(m, 24)
        total = 0.0
        for b in rule.blocks:
            A = omega_matrix(m, b.chart, b.points)
            dens = wedge_density_11(A, A)
            total += float(np.dot(dens, b.weights_lebesgue / 4.0))
        assert abs(total - 1.0) < 1e-8


def test_p1_omega_density_matches_volume():
    m = build_manifold("P1")
    rule = quadrature_nodes(m, 16)
    total = 0.0
    for b in rule.blocks:
        dens = omega_matrix(m, b.chart, b.points)
        total += float(np.dot(np.real(dens[:, 0, 0]), b.weights_lebesgue)
                       / np.pi)
    assert abs(total - 1.0) < 1e-12


def test_canonical_factor_curvature_degree():
    # d dc log of the canonical factor integrates to the anticanonical mass:
    # checked via the closed form int omega = 1 applied per factor
    m = build_manifold("P1")
    rule = quadrature_nodes(m, 24)

    # second radial derivative of rho = (1/2) log(canonical factor) along
    # each chart equals 2 * omega density; check pointwise on a circle
    Z = np.exp(1j * np.linspace(0.1, 2.0, 7))[:, None] * 0.3
    f = m.canonical_factor(0, Z)
    D = 1.0 + np.abs(Z[:, 0]) ** 2
    assert np.allclose(f, 2.0 * np.pi * D ** 2, rtol=1e-13)


def test_sample_grid_deterministic_and_spread():
    for kind in KINDS:
        m = build_manifold(kind)
        a = m.sample_grid(40)
        b = m.sample_grid(40)
        assert np.array_equal(a, b)
        # pairwise separation: no two points nearly identical
        dmin = 1.0
        for i in range(10):
            d = m.chordal_distance(np.repeat(a[i:i + 1], 40, axis=0), a)
            d[i] = 1.0
            dmin = min(dmin, d.min())
        assert dmin > 1e-3


def _sample_grid_columns(count):
    """The clipped Halton columns that ``sample_grid(count)`` feeds to the
    inverse normal CDF on P1, P2 and P1xP1 (its second factor at
    ``base_shift=4``)."""
    idx = np.arange(count)
    cols = []
    for clen, shift in ((2, 0), (3, 0), (2, 4)):
        for j in range(2 * clen):
            u = _halton(idx, _PRIMES[(shift + j) % len(_PRIMES)])
            cols.append(np.clip(u, 1e-12, 1.0 - 1e-12))
    return np.concatenate(cols)


def test_ndtri_port_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    # np.log in place of math.log changes a few of the dense tail points
    tiny = np.logspace(-300, -13, 4001)
    tail = np.linspace(1e-12, math.exp(-2), 20001)
    u = np.concatenate([_sample_grid_columns(400), _sample_grid_columns(600),
                        [1e-12, 1.0 - 1e-12, 0.5], tiny, 1.0 - tiny,
                        tail, 1.0 - tail])
    got, ref = _ndtri(u), special.ndtri(u)
    assert got.tobytes() == ref.tobytes()
    # the central branch and both tails (z = sqrt(-2 log y) below and above
    # 8) ran, on both sides of 1/2
    y = np.minimum(u, 1.0 - u)
    for lo, hi in ((math.exp(-2), 0.5), (math.exp(-32), math.exp(-2)),
                   (0.0, math.exp(-32))):
        sel = (y > lo) & (y <= hi)
        assert np.any(sel & (u < 0.5)) and np.any(sel & (u > 0.5))


# -- the per-block memo of p-independent values ---------------------------------


def _counting_block_values(form, calls):
    block_values = form.block_values

    def counted(block):
        calls.append(block.chart)
        return block_values(block)

    form.block_values = counted


def test_form_values_match_chi_and_keep_their_bits():
    m = build_manifold("P2")
    rule = quadrature_nodes(m, 8)
    for form in test_form_dictionary(m, 2, 4):
        for b in rule.capped_blocks():
            ref = form.chi(b.chart, b.points)
            got = b.form_values(form)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            # the memo's values: the evaluator's bits, on every call
            bits = form.block_values(b).view(np.int64)
            assert np.array_equal(got.view(np.int64), bits)
            again = b.form_values(form)
            assert again is got
            assert np.array_equal(again.view(np.int64), bits)


def test_form_values_evaluate_once_per_block_and_form():
    m = build_manifold("P2")
    rule = quadrature_nodes(m, 8)
    const, form = test_form_dictionary(m, 2, 2)
    assert const.constant and not form.constant
    calls, const_calls = [], []
    _counting_block_values(form, calls)
    _counting_block_values(const, const_calls)
    blocks = rule.capped_blocks()
    for _ in range(3):
        for b in blocks:
            b.form_values(form)
            b.form_values(const)
    assert sorted(calls) == sorted(b.chart for b in blocks)
    assert sorted(const_calls) == sorted(b.chart for b in blocks)
    # a constant form keeps one value, not a node array
    assert all(b.form_values(const).strides == (0,) for b in blocks)
    # a new form (with_scale makes one) is a new key
    scaled = form.with_scale(2.0 * form.scale)
    b = blocks[0]
    assert np.array_equal(b.form_values(scaled), 2.0 * b.form_values(form))


def test_coordinate_lines_name_their_slots_and_factor():
    # the line's two homogeneous columns, in order, and their factor
    assert build_manifold("P2").coordinate_line(1) == ((0, 2), 0)
    pp = build_manifold("P1xP1")
    assert pp.coordinate_line(0) == ((2, 3), 1)
    assert pp.coordinate_line(3) == ((0, 1), 0)
    with pytest.raises(ConfigurationError):
        build_manifold("P1").coordinate_line(0)


def test_form_values_are_read_only():
    m = build_manifold("P1")
    b = quadrature_nodes(m, 8).capped_blocks()[0]
    for form in test_form_dictionary(m, 1, 2):
        vals = b.form_values(form)
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 1.0


def test_memo_keeps_one_array_per_key():
    b = quadrature_nodes(build_manifold("P1"), 8).capped_blocks()[0]
    calls = []

    def compute():
        calls.append(1)
        return np.ones(b.num_nodes)

    first = b.memo("key", compute)
    assert b.memo("key", compute) is first
    assert len(calls) == 1 and not first.flags.writeable
    assert b.memo(("key", 1), compute) is not first


def test_line_rules_are_kept_per_resolution():
    rule = quadrature_nodes(build_manifold("P2"), 8)
    line = rule.line_rule(16)
    assert line.manifold.kind == "P1" and line.resolution == 16
    assert rule.line_rule(16) is line
    assert rule.line_rule(24) is not line


def _meshgrid_points(block):
    # the former Block._build formula: one phase per node of the mesh
    grids = []
    for ax in block.axes:
        grids.extend([ax.radius, ax.theta])
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([(mesh[2 * i] * np.exp(1j * mesh[2 * i + 1])).ravel()
                     for i in range(len(block.axes))], axis=1)


# an off-axis point refines the angles of P1 as well as its radii; on the
# surfaces a point center would make blocks of billions of nodes
_REFINEMENT = {"P1": [("coord", 0), [1.0, 0.6 + 0.3j]],
               "P2": [("coord", 0)], "P1xP1": [("coord", 0), ("coord", 1)]}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("refined", [False, True])
def test_block_points_have_the_bits_of_the_meshgrid_formula(kind, refined):
    m = build_manifold(kind)
    rule = quadrature_nodes(m, 8, singular_refinement=(
        _REFINEMENT[kind] if refined else None))
    if refined:
        assert rule.num_nodes > quadrature_nodes(m, 8).num_nodes
    for b in rule.blocks:
        for block in [b, *b.split(max(1, b.num_nodes // 3))]:
            got = block.points.view(np.float64)
            want = _meshgrid_points(block).view(np.float64)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("refined", [False, True])
def test_torus_reduced_rule_keeps_the_radial_axes(kind, refined):
    m = build_manifold(kind)
    rule = quadrature_nodes(m, 8, singular_refinement=(
        _REFINEMENT[kind] if refined else None))
    reduced = rule.torus_reduced()
    assert rule.torus_reduced() is reduced  # built once, kept with the rule
    assert reduced.manifold == m and reduced.resolution == rule.resolution
    assert len(reduced.blocks) == len(rule.blocks)
    for b, rb in zip(rule.blocks, reduced.blocks):
        assert rb.chart == b.chart and rb.torus_reduced
        assert not b.torus_reduced
        assert rb.num_nodes == math.prod(len(ax.x) for ax in b.axes)
        for ax, rax in zip(b.axes, rb.axes):
            assert rax.style == ax.style
            assert rax.x.tobytes() == ax.x.tobytes()
            assert rax.wx.tobytes() == ax.wx.tobytes()
            # one angle, theta = pi, carrying the full 2 pi weight
            assert rax.theta.tolist() == [math.pi]
            assert rax.wtheta.tolist() == [2.0 * math.pi]
    assert all(b.torus_reduced for b in reduced.capped_blocks())
    assert sum(b.num_nodes for b in reduced.capped_blocks()) == \
        reduced.num_nodes
