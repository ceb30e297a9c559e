import numpy as np
import pytest

from kahlerlab import testforms
from kahlerlab.bundles import form_values_hom
from kahlerlab.errors import ConfigurationError
from kahlerlab.geometry import build_manifold, quadrature_nodes, integrate
from kahlerlab.testforms import (TestForm, _norm_grid, constant_form,
                                 form_chis, form_hessians,
                                 test_form_dictionary as form_dictionary)
from kahlerlab.polynomials import SectionPoly, coordinate_section

KINDS = ["P1", "P2", "P1xP1"]


def fd_hessian(form, chart, z, h=1e-4):
    n = len(z)
    H = np.zeros((n, n), dtype=complex)

    def u(zz):
        return form.chi(chart, np.array([zz]))[0]

    for j in range(n):
        for k in range(n):
            acc = 0.0 + 0j
            for aj, cj in ((1, 1), (-1, -1), (1j, -1j), (-1j, 1j)):
                for bk, dk in ((1, 1), (-1, -1), (1j, 1j), (-1j, -1j)):
                    zz = z.copy()
                    zz[j] += aj * h
                    zz[k] += bk * h
                    acc += cj * dk * u(zz)
            H[j, k] = acc / (16 * h * h)
    return H


@pytest.mark.parametrize("kind", KINDS)
def test_hessians_match_finite_differences(kind):
    m = build_manifold(kind)
    forms = form_dictionary(m, 1, count=8)
    for f in forms:
        for chart in range(m.num_charts):
            z = np.array([0.31 - 0.22j, -0.4 + 0.1j])[:m.dim] + 0.05 * chart
            He = f.hessian(chart, np.array([z]))
            He = np.atleast_2d(np.atleast_1d(He)[0])
            Hf = fd_hessian(f, chart, z.copy())
            assert np.max(np.abs(He - Hf)) < 1e-6


@pytest.mark.parametrize("kind,m_codim", [
    ("P1", 1), ("P2", 1), ("P1xP1", 1), ("P2", 2), ("P1xP1", 2),
])
def test_dictionary_size_and_normalization(kind, m_codim):
    m = build_manifold(kind)
    forms = form_dictionary(m, m_codim, count=12)
    assert len(forms) == 12
    labels = [f.label for f in forms]
    assert len(set(labels)) == 12
    # the lead entry is the exact mass form
    assert forms[0].A is None
    grid_pts = m.sample_grid(100)
    charts = m.chart_of(grid_pts)
    for f in forms[1:]:
        sup = 0.0
        for c in range(m.num_charts):
            sel = charts == c
            if np.any(sel):
                Z = m.to_chart(grid_pts[sel], c)
                sup = max(sup, float(np.max(np.abs(f.chi(c, Z)))))
        assert sup <= 1.0 + 1e-9


def test_m2_requires_surface():
    with pytest.raises(ConfigurationError):
        form_dictionary(build_manifold("P1"), 2)


def test_chi_is_chart_consistent():
    # a test function is a global object: values agree across chart overlaps
    for kind in KINDS:
        m = build_manifold(kind)
        forms = form_dictionary(m, 1, count=6)
        pts = m.sample_grid(25)
        for f in forms:
            vals = []
            for c in range(m.num_charts):
                with np.errstate(divide="ignore", invalid="ignore"):
                    Z = m.to_chart(pts, c)
                ok = np.all(np.isfinite(Z), axis=1)
                v = np.full(len(pts), np.nan)
                v[ok] = f.chi(c, Z[ok])
                vals.append(v)
            V = np.asarray(vals)
            spread = np.nanmax(V, axis=0) - np.nanmin(V, axis=0)
            assert np.nanmax(spread) < 1e-10


def test_constant_form_mass():
    m = build_manifold("P2")
    rule = quadrature_nodes(m, 16)
    one = constant_form(m, m.omega_coeffs())
    assert np.allclose(integrate(lambda c, Z: one.chi(c, Z), rule), 1.0)


def test_beta_moment_against_closed_form():
    # chi = |z0|^2/|Z|^2 on P2 integrates to 1/3 against omega^2
    m = build_manifold("P2")
    A = coordinate_section(m, 0)
    f = TestForm(m, 1.0, A, A, None, "t0")
    rule = quadrature_nodes(m, 24)
    v = integrate(lambda c, Z: f.chi(c, Z), rule)
    assert abs(v - 1.0 / 3.0) < 1e-9


# -- chi on quadrature blocks, from the axes ---------------------------------


def _multi_term_form(m):
    """A form whose A and B have 3 and 2 terms, with a complex ``c``."""
    deg = (1,) * m.factors if m.factors > 1 else 1
    if m.kind == "P1":
        deg = 2
        a = {(2, 0): 1.0, (1, 1): 0.3 - 0.2j, (0, 2): -0.7 + 0.1j}
        b = {(1, 1): 0.5j, (2, 0): 1.2}
    elif m.kind == "P2":
        a = {(1, 0, 0): 1.0, (0, 1, 0): 0.3 - 0.2j, (0, 0, 1): -0.7 + 0.1j}
        b = {(0, 1, 0): 0.5j, (1, 0, 0): 1.2}
    else:
        a = {(1, 0, 1, 0): 1.0, (0, 1, 1, 0): 0.3 - 0.2j,
             (0, 1, 0, 1): -0.7 + 0.1j}
        b = {(0, 1, 0, 1): 0.5j, (1, 0, 1, 0): 1.2}
    return TestForm(m, 0.4 + 0.9j, SectionPoly.from_coeff_map(m, deg, a),
                    SectionPoly.from_coeff_map(m, deg, b), label="multi")


def _evaluator_case(name):
    """(manifold, rule) of one block-evaluator case: P1 refined at an
    off-axis pole (panel angles), P2 refined at ``{z0 = 0}``, P1xP1."""
    if name == "P1-off-axis":
        m = build_manifold("P1")
        pole = np.array([1.0, 0.6 + 0.3j])
        return m, quadrature_nodes(m, 32, singular_refinement=[pole])
    if name == "P2-coord":
        m = build_manifold("P2")
        return m, quadrature_nodes(m, 16, singular_refinement=[("coord", 0)])
    m = build_manifold("P1xP1")
    return m, quadrature_nodes(m, 16)


def _assert_close_per_block(got, ref):
    # within 1e-14 of the block's largest |chi|
    assert got.shape == ref.shape and got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["P1-off-axis", "P2-coord", "P1xP1"])
def test_block_values_match_chi(name):
    m, rule = _evaluator_case(name)
    forms = form_dictionary(m, m.dim, 12) + [_multi_term_form(m)]
    if name == "P1-off-axis":
        # the pole pins an angle: panel angles, not midpoints
        assert not all(ax.theta_uniform for b in rule.blocks
                       for ax in b.axes)
    for f in forms:
        for b in rule.capped_blocks():
            got = f.block_values(b)
            ref = np.asarray(f.chi(b.chart, b.points), dtype=float)
            if f.constant:
                assert got.strides == (0,)
                np.testing.assert_array_equal(got, ref)
                continue
            _assert_close_per_block(got, ref)


def _embedded_line_nodes(m, coord, block):
    """The nodes of a line-rule block as homogeneous points of the
    surface's coordinate line ``{z_coord = 0}``: the line's coordinates at
    its slots, 1 at a coordinate fixed on the line."""
    slots, _ = m.coordinate_line(coord)
    line = build_manifold("P1").from_chart(block.points, block.chart)
    pts = np.zeros((line.shape[0], m.hom_len), dtype=complex)
    fixed = [k for k in range(m.hom_len) if k != coord and k not in slots]
    pts[:, fixed] = 1.0
    pts[:, list(slots)] = line
    return pts


@pytest.mark.parametrize("name", ["P2-coord", "P1xP1"])
def test_restrictions_match_the_form_on_the_line(name):
    m, rule = _evaluator_case(name)
    forms = form_dictionary(m, 2, 12) + [_multi_term_form(m)]
    line_rule = rule.line_rule(48)
    for coord in range(m.hom_len):
        vanish = 0
        for f in forms:
            g = f.restriction(coord)
            assert g is f.restriction(coord)  # kept per coordinate
            assert g.manifold.kind == "P1" and g.omega_part is None
            for b in line_rule.capped_blocks():
                got = g.block_values(b)
                ref = form_values_hom(
                    m, [f], _embedded_line_nodes(m, coord, b))[:, 0]
                if not np.any(ref):
                    vanish += 1
                    np.testing.assert_array_equal(got, 0.0)
                    continue
                _assert_close_per_block(got, ref)
        # some dictionary forms vanish on every coordinate line
        assert vanish


# -- torus averages on torus-reduced blocks ---------------------------------


def _angle_average(values, block):
    """Values at a block's nodes averaged over the angles of each radial
    node tuple with the block's angular weights, in radial node order."""
    vals = np.reshape(values, block.shape)
    for k in reversed(range(len(block.axes))):
        wtheta = block.axes[k].wtheta
        vals = np.moveaxis(vals, 2 * k + 1, -1) @ wtheta / wtheta.sum()
    return vals.ravel()


def _off_diagonal_form(m):
    """A form whose term pairs all have unequal exponents: z0 conj(z1),
    times z2 conj(z3) on P1xP1."""
    a = coordinate_section(m, 0)
    b = coordinate_section(m, 1)
    if m.factors > 1:
        a = a.multiply(coordinate_section(m, 2))
        b = b.multiply(coordinate_section(m, 3))
    return TestForm(m, 0.4 + 0.9j, a, b, label="off-diagonal")


@pytest.mark.parametrize("name", ["P1-off-axis", "P2-coord", "P1xP1",
                                  "P2-line"])
def test_block_values_on_reduced_blocks_are_torus_averages(name):
    m, rule = _evaluator_case("P2-coord" if name == "P2-line" else name)
    forms = form_dictionary(m, m.dim, 12) + [_multi_term_form(m),
                                             _off_diagonal_form(m)]
    if name == "P2-line":
        rule = rule.line_rule(48)
        forms = [f.restriction(2) for f in forms]
    reduced = rule.torus_reduced()
    averaged_out = 0
    for f in forms:
        for b, rb in zip(rule.blocks, reduced.blocks):
            full = f.block_values(b)
            got = f.block_values(rb)
            ref = _angle_average(full, b)
            assert got.shape == (rb.num_nodes,) == ref.shape
            # measured at most 1.4e-15 of the block's largest |chi|
            scale = max(np.max(np.abs(full)), 1e-300)
            assert np.max(np.abs(got - ref)) <= 2e-15 * scale, f.label
            if f.A is not None and not any(
                    np.array_equal(ea, eb) for ea in f.A.exponents
                    for eb in f.B.exponents):
                averaged_out += 1
                np.testing.assert_array_equal(got, 0.0)
    assert averaged_out


# -- exact means -------------------------------------------------------------


def _block_mean(form, rule):
    return sum(float(np.dot(form.block_values(b), b.weights_volume))
               for b in rule.capped_blocks())


@pytest.mark.parametrize("kind, resolution, tol", [
    ("P1", 48, 1e-14), ("P2", 32, 1e-13), ("P1xP1", 32, 1e-13)])
def test_mean_matches_the_block_sums(kind, resolution, tol):
    m = build_manifold(kind)
    rule = quadrature_nodes(m, resolution)
    forms = form_dictionary(m, m.dim, 12) + [_multi_term_form(m)]
    for f in forms:
        assert abs(f.mean() - _block_mean(f, rule)) <= tol, f.label
    # off-diagonal term pairs average out: im[..] forms have mean 0
    assert any(f.mean() == 0.0 and not f.constant for f in forms)


@pytest.mark.parametrize("kind", ["P2", "P1xP1"])
def test_restriction_means_match_the_line_sums(kind):
    # every coordinate line of P2 and both rulings of P1xP1
    m = build_manifold(kind)
    line_rule = quadrature_nodes(build_manifold("P1"), 48)
    forms = form_dictionary(m, 2, 12) + [_multi_term_form(m)]
    factors = set()
    for coord in range(m.hom_len):
        factors.add(m.coordinate_line(coord)[1])
        for f in forms:
            g = f.restriction(coord)
            assert abs(g.mean() - _block_mean(g, line_rule)) <= 1e-14
    assert factors == set(range(m.factors))


# -- stacked evaluation: each form's own bits ---------------------------------
#
# The references are the one-form bodies of ``TestForm.chi`` and
# ``TestForm.hessian`` and the per-form ``_normalize`` of the dictionary as
# they were before the forms were evaluated as one stack, with each chart
# polynomial evaluated by its own ``ChartPoly.eval``.


def _ref_chart(self, chart):
    a = self.A.chart_poly(chart)
    b = self.B.chart_poly(chart)
    n = self.manifold.dim
    return (a, b, [a.deriv(j) for j in range(n)],
            [b.deriv(j) for j in range(n)])


def _ref_chi(self, chart, Z):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    if self.A is None:
        return np.full(Z.shape[0], np.real(self.c) * self.scale)
    a, b, _, _ = _ref_chart(self, chart)
    D = 1.0 + self.manifold.factor_squares(Z)
    E = np.prod(D ** (-np.asarray(self.s, dtype=float)), axis=1)
    S = np.real(self.c * a.eval(Z) * np.conj(b.eval(Z)))
    return self.scale * S * E


def _ref_hessian(self, chart, Z):
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    n = self.manifold.dim
    N = Z.shape[0]
    if self.A is None:
        return np.zeros((N, n, n), dtype=complex)
    a, b, da, db = _ref_chart(self, chart)
    fac = self.manifold.axis_factors
    D = 1.0 + self.manifold.factor_squares(Z)
    svec = np.asarray(self.s, dtype=float)
    E = np.prod(D ** (-svec), axis=1)

    Av = a.eval(Z)
    Bv = b.eval(Z)
    Aj = [da[j].eval(Z) for j in range(n)]
    Bj = [db[j].eval(Z) for j in range(n)]

    # e_j = d_j log E = -s_f conj(z_j) / D_f
    e = [-svec[fac[j]] * np.conj(Z[:, j]) / D[:, fac[j]] for j in range(n)]

    c = self.c
    S = 0.5 * (c * Av * np.conj(Bv) + np.conj(c * Av * np.conj(Bv)))
    Sj = [0.5 * (c * Aj[j] * np.conj(Bv)
                 + np.conj(c) * np.conj(Av) * Bj[j]) for j in range(n)]

    H = np.empty((N, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            Sjk = 0.5 * (c * Aj[j] * np.conj(Bj[k])
                         + np.conj(c) * np.conj(Aj[k]) * Bj[j])
            Sk_bar = np.conj(Sj[k])
            if fac[j] == fac[k]:
                f = fac[j]
                de = -svec[f] * ((1.0 if j == k else 0.0) / D[:, f]
                                 - np.conj(Z[:, j]) * Z[:, k] / D[:, f] ** 2)
            else:
                de = 0.0
            H[:, j, k] = (Sjk * E + Sj[j] * E * np.conj(e[k])
                          + Sk_bar * E * e[j]
                          + S * E * (e[j] * np.conj(e[k]) + de))
    H *= self.scale
    return H


def _ref_normalize(form, grid_charts):
    sup_chi = 0.0
    sup_h = 0.0
    for chart, Z in grid_charts:
        chi = _ref_chi(form, chart, Z)
        sup_chi = max(sup_chi, float(np.max(np.abs(chi))))
        H = _ref_hessian(form, chart, Z)
        ev = np.linalg.eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, 1, 2))))
        sup_h = max(sup_h, float(np.max(np.abs(ev))))
    norm = sup_chi + sup_h / np.pi
    if norm < 1e-12:
        return None
    return form.with_scale(form.scale / norm)


def _stack_case(m):
    """Dictionary forms at count 20 with a second constant form and an
    unnormalized form at scale 2.5 mixed in, and grid points of each chart,
    three of them with a zero chart coordinate."""
    forms = form_dictionary(m, 1, count=20)
    forms.insert(7, constant_form(m, label="two").with_scale(2.0))
    forms.insert(3, forms[5].with_scale(2.5))
    cases = []
    for chart, _, Z in m.chart_split(m.sample_grid(300)):
        Z = Z.copy()
        Z[:3, 0] = 0.0
        if m.dim == 2:
            Z[3:5, 1] = 0.0
        cases.append((chart, Z))
    return forms, cases


@pytest.mark.parametrize("kind", KINDS)
def test_stacks_give_each_form_its_own_bits(kind):
    m = build_manifold(kind)
    forms, cases = _stack_case(m)
    assert any(f.constant for f in forms[1:])
    for chart, Z in cases:
        chis = form_chis(forms, chart, Z)
        hess = form_hessians(forms, chart, Z)
        assert chis.shape == (len(forms), len(Z))
        assert hess.shape == (len(forms), len(Z), m.dim, m.dim)
        for f, chi, H in zip(forms, chis, hess):
            np.testing.assert_array_equal(chi, _ref_chi(f, chart, Z))
            np.testing.assert_array_equal(H, _ref_hessian(f, chart, Z))
        # a form's row does not depend on the other forms of the stack
        f = forms[9]
        np.testing.assert_array_equal(
            form_chis([f], chart, Z)[0], form_chis(forms[:12], chart, Z)[9])
        np.testing.assert_array_equal(
            form_hessians([f], chart, Z)[0],
            form_hessians(forms[:12], chart, Z)[9])
        np.testing.assert_array_equal(f.chi(chart, Z), chis[9])
        np.testing.assert_array_equal(f.hessian(chart, Z), hess[9])


@pytest.mark.parametrize("kind", KINDS)
def test_stacks_of_multi_term_forms_match_their_own_evaluation(kind):
    # several terms per section sum in another order than ChartPoly.eval
    m = build_manifold(kind)
    multi = _multi_term_form(m)
    forms = [multi, form_dictionary(m, 1, 3)[2], multi.with_scale(0.3)]
    for chart, Z in _stack_case(m)[1]:
        chis = form_chis(forms, chart, Z)
        hess = form_hessians(forms, chart, Z)
        for f, chi, H in zip(forms, chis, hess):
            ref = _ref_chi(f, chart, Z)
            assert np.max(np.abs(chi - ref)) <= 1e-15 * np.max(np.abs(ref))
            ref = _ref_hessian(f, chart, Z)
            assert np.max(np.abs(H - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind,m_codim", [
    ("P1", 1), ("P2", 1), ("P1xP1", 1), ("P2", 2), ("P1xP1", 2),
])
def test_dictionary_scales_equal_the_per_form_normalization(kind, m_codim):
    m = build_manifold(kind)
    grid = _norm_grid(m)
    forms = form_dictionary(m, m_codim, count=12)
    for f in forms:
        if f.constant:
            assert f.scale == 1.0
            continue
        ref = _ref_normalize(f.with_scale(1.0), grid)
        assert ref.scale == f.scale, f.label


@pytest.mark.parametrize("kind,m_codim", [
    ("P1", 1), ("P2", 1), ("P1xP1", 1), ("P2", 2), ("P1xP1", 2),
])
def test_dictionary_scales_at_count_30_equal_the_per_form_normalization(
        kind, m_codim):
    # degree-3 generators on surfaces, degree 5 on P1: more sup candidates
    m = build_manifold(kind)
    grid = _norm_grid(m)
    forms = form_dictionary(m, m_codim, count=30)
    assert len(forms) == 30
    for f in forms[1:]:
        ref = _ref_normalize(f.with_scale(1.0), grid)
        assert ref.scale == f.scale, f.label


def _full_sups(H):
    ev = np.linalg.eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, -1, -2))))
    return np.max(np.abs(ev), axis=(1, 2))


@pytest.mark.parametrize("kind", KINDS)
def test_pruned_sups_equal_a_full_eigvalsh(kind):
    # one eigvalsh at the closed-form candidates gives each form's sup with
    # the bits of an eigvalsh at every point, also where points tie: a
    # form whose Hessian vanishes on the whole chart (every point ties at
    # 0), and one whose largest Hessian repeats at several points
    m = build_manifold(kind)
    forms = form_dictionary(m, 1, count=12)[1:]
    for chart, Z in _norm_grid(m):
        H = form_hessians(forms, chart, Z)
        vanished = H.copy()
        vanished[2] = 0.0
        tied = H.copy()
        top = np.argmax(np.abs(H[3, :, 0, 0]))
        tied[3, ::7] = H[3, top]
        for stack in (H, vanished, tied, np.zeros_like(H)):
            got = testforms._sup_spectral_radii(stack)
            np.testing.assert_array_equal(got, _full_sups(stack))
        assert testforms._sup_spectral_radii(vanished)[2] == 0.0


# the P1xP1 codimension-1 dictionary at count 12: each generator's scale,
# once per omega part (the Kahler form, then each factor form)
_P11_GENERATOR_SCALES = [
    ("one", "0x1.0000000000000p+0"),
    ("re[0010|0010]s1", "0x1.85458eb32db7cp-1"),
    ("re[0010|0001]s1", "0x1.818adc47f28d3p+0"),
    ("im[0010|0001]s1", "0x1.818589c4e01c5p+0"),
]


@pytest.mark.parametrize("count", [4, 12])
def test_product_dictionary_normalizes_each_generator_once(count,
                                                           monkeypatch):
    stacked = []
    chis = testforms.form_chis

    def spy(forms, chart, Z):
        stacked.append(len(forms))
        return chis(forms, chart, Z)

    monkeypatch.setattr(testforms, "form_chis", spy)
    m = build_manifold("P1xP1")
    forms = form_dictionary(m, 1, count)
    # labels, order and scales as before each generator was normalized once
    expected = [(f"{gen}*w{op}", float.fromhex(scale))
                for gen, scale in _P11_GENERATOR_SCALES
                for op in ("0.7070.707", "10", "01")][:count]
    assert [(f.label, f.scale) for f in forms] == expected
    # one stacked row per generator on each grid chart
    assert set(stacked) == {1 if count == 4 else 3}
