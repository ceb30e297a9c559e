import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import stats

from kahlerlab import zeros
from kahlerlab.bundles import (LineBundle, Metric, _p1_roots,
                               curvature_pairing, ddc_pairing,
                               form_values_hom, pair_omega_basis)
from kahlerlab.errors import (ConfigurationError, DegenerateSpaceError,
                              EmptySpaceError, GeneralPositionError,
                              RootFindingError)
from kahlerlab.fscurrents import fs_pairing, log_norm_pairings
from kahlerlab.geometry import build_manifold, quadrature_nodes
from kahlerlab.polynomials import SectionPoly, coordinate_section
from kahlerlab.sections import SectionSpace, build_section_space
from kahlerlab.testforms import TestForm, constant_form, test_form_dictionary
from kahlerlab.zeros import (Section, common_zeros, curve_zero_sets,
                             empirical_general_position,
                             expected_zero_residuals, point_pairings,
                             sample_section, sample_tuple, zero_pairing,
                             zero_pairings, zeros_on_curve)


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


def section_of(poly):
    """The `Section` whose polynomial is ``poly`` up to scale: its
    coefficients over the scaled monomial basis of the Fubini-Study space
    of ``poly``'s degree, a space that needs no Gram matrix."""
    sp = SectionSpace(
        Metric.fubini_study(LineBundle(poly.manifold, poly.degree)), 1,
        adjoint=False)
    coeff = dict(zip(map(tuple, poly.exponents.tolist()), poly.coeffs))
    return Section(sp, [coeff.get(tuple(e), 0.0) / scale for e, scale
                        in zip(sp.exponents.tolist(), sp.scales)])


def linear_section(m, coeffs):
    """The degree-one section ``sum_i coeffs[i] z_i`` of a one-factor
    manifold, every coefficient nonzero."""
    return SectionPoly(m, 1, np.eye(m.hom_len, dtype=np.int64),
                       np.asarray(coeffs, dtype=complex))


def total_multiplicity(zs):
    return sum(k for _, k in zs.points)


def divisor_pairing(sec, form, rule):
    """``<[s = 0], form>`` of one section through its log-norm potential."""
    return float(log_norm_pairings(sec.space, [form], rule,
                                   sections=sec.coeffs[:, None])[0, 0])


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


def test_one_draw_gives_the_bits_of_two(p1, p2):
    # the (2, dim) draw of both parts is the real-part draw followed by
    # the imaginary-part one, so sampled sections keep their bits
    spaces = [fs_space(p1, 1, 4), fs_space(p1, 1, 5), fs_space(p2, 1, 5),
              fs_space(p2, 1, 6)]
    assert [sp.dim for sp in spaces] == [3, 4, 6, 10]
    for sp in spaces:
        for seed in (0, (7, 3), (13, 2, 5)):
            rng = zeros._rng(zeros._seed_key(seed))
            v = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
            np.testing.assert_array_equal(sample_section(sp, seed).coeffs,
                                          Section(sp, v).coeffs)


def test_tuple_members_split_the_seed(p1):
    sp = fs_space(p1, 1, 8)
    tup = sample_tuple([sp, sp], (7, 3))
    assert np.array_equal(tup[0].coeffs, sample_section(sp, (7, 3, 0)).coeffs)
    assert np.array_equal(tup[1].coeffs, sample_section(sp, (7, 3, 1)).coeffs)


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
    a = np.stack([t[0].coeffs for t in tups])
    b = np.stack([t[1].coeffs for t in tups])
    cap = 3.0 / np.sqrt(2000)
    assert abs(np.corrcoef(a[:, 0].real, b[:, 0].real)[0, 1]) < cap
    assert abs(np.corrcoef(np.abs(a[:, 1]), np.abs(b[:, 2]))[0, 1]) < cap


# -- zeros of curve sections --------------------------------------------------


def test_roots_of_unity_section(p1):
    k = 5
    s = SectionPoly.from_coeff_map(p1, k, {(0, k): 1.0, (k, 0): -1.0})
    zs = zeros_on_curve(section_of(s))
    assert total_multiplicity(zs) == k and len(zs.points) == k
    assert all(mult == 1 for _, mult in zs.points)
    angles = sorted(np.angle(pt[1] / pt[0]) for pt, _ in zs.points)
    expected = sorted(np.angle(np.exp(2j * np.pi * np.arange(k) / k)))
    assert max(abs(a - b) for a, b in zip(angles, expected)) < 1e-10


def test_coordinate_power_concentrates_at_one_point(p1):
    k = 5
    zs = zeros_on_curve(section_of(
        SectionPoly.from_coeff_map(p1, k, {(k, 0): 1.0})))
    assert [(0.0, 1.0)] == [tuple(np.abs(pt)) for pt, _ in zs.points]
    assert zs.points[0][1] == k
    # a section whose top coefficients are exactly zero vanishes at [0 : 1]
    sp = fs_space(p1, 1, 4)
    c = np.zeros(sp.dim)
    c[0] = 1.0
    zs = zeros_on_curve(Section(sp, c))
    assert [(0.0, 1.0)] == [tuple(np.abs(pt)) for pt, _ in zs.points]
    assert zs.points[0][1] == sp.q[0] == 2


def test_random_section_zeros_are_complete_and_vanish(p1):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    exps = np.stack([8 - np.arange(9), np.arange(9)], axis=1)
    s = SectionPoly(p1, 8, exps, c)
    zs = zeros_on_curve(section_of(s))
    assert total_multiplicity(zs) == 8
    resid = max(abs(s.eval_hom(pt[None])[0]) for pt, _ in zs.points)
    assert resid / np.linalg.norm(c) < 1e-8


def test_zeros_on_curve_rejects_bad_input(p1, p2):
    with pytest.raises(ConfigurationError):
        zeros_on_curve(section_of(SectionPoly.from_coeff_map(p1, 2, {})))
    with pytest.raises(ConfigurationError):
        zeros_on_curve(section_of(coordinate_section(p2, 0)))
    sp = fs_space(p1, 1, 6)
    C = np.ones((sp.dim, 3), dtype=complex)
    with pytest.raises(ConfigurationError):
        curve_zero_sets(fs_space(p2, 1, 4), C)
    with pytest.raises(ConfigurationError):
        curve_zero_sets(sp, C[1:])
    C[:, 1] = 0.0
    with pytest.raises(ConfigurationError):
        curve_zero_sets(sp, C)
    # a non-finite coefficient in any column fails the whole call
    C[:, 1] = 1.0
    C[2, 2] = np.nan
    with pytest.raises(RootFindingError):
        curve_zero_sets(sp, C)


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
    zs = zeros_on_curve(section_of(s))
    assert total_multiplicity(zs) == q
    assert sum(mult for _, mult in zs.points) == q
    if zs.points:
        worst = max(abs(s.eval_hom(pt[None])[0]) for pt, _ in zs.points)
        assert worst / np.linalg.norm(s.coeffs) < 1e-6


def _greedy_clusters(m, raw, radius):
    """Clusters one point at a time: each joins the first cluster whose
    first point is within ``radius``."""
    out = []
    for pt in raw:
        pt = m.normalize(np.asarray(pt, dtype=complex)[None])[0]
        for i, (c, k) in enumerate(out):
            if float(m.chordal_distance(pt[None], c[None])[0]) < radius:
                out[i] = (c, k + 1)
                break
        else:
            out.append((pt, 1))
    return out


@pytest.mark.parametrize("kind", ["P1", "P2", "P1xP1"])
def test_cluster_follows_the_greedy_rule(kind):
    m = build_manifold(kind)
    rng = np.random.default_rng(3)
    far = rng.standard_normal((4, m.hom_len)) \
        + 1j * rng.standard_normal((4, m.hom_len))
    a = m.normalize(far[:1])[0]
    # a chain: a ~ b and b ~ c at 0.6 radius, but a and c 1.2 radii apart
    e = np.zeros(m.hom_len, dtype=complex)
    e[1] = 1.0
    unit = float(m.chordal_distance(a[None], (a + 1e-6 * e)[None])[0]) / 1e-6
    b = a + 0.6e-8 / unit * e
    c = a + 1.2e-8 / unit * e
    assert 0.5e-8 < float(m.chordal_distance(a[None], b[None])[0]) < 1e-8
    assert 0.5e-8 < float(m.chordal_distance(b[None], c[None])[0]) < 1e-8
    assert float(m.chordal_distance(a[None], c[None])[0]) > 1e-8
    double = far[2]
    for raw in ([a, b, c, far[1]],
                [far[1], double, c, b, double, a, far[3]],
                list(far)):
        got = zeros._cluster(m, raw)
        want = _greedy_clusters(m, raw, zeros._CLUSTER_RADIUS)
        assert [k for _, k in got] == [k for _, k in want]
        assert all(np.array_equal(g, w) for (g, _), (w, _) in zip(got, want))
    assert [k for _, k in zeros._cluster(m, [a, b, c, far[1]])] == [2, 1, 1]


# -- batched curve zeros against the per-sample route -------------------------


def _parent_newton_p1(cp, w, steps=3):
    """A few guarded Newton steps on a one-variable chart polynomial."""
    w = np.array(w, dtype=complex)
    dp = cp.deriv(0)
    f = cp.eval(w[:, None])
    for _ in range(steps):
        df = dp.eval(w[:, None])
        ok = df != 0
        cand = np.where(ok, w - f / np.where(ok, df, 1.0), w)
        fc = cp.eval(cand[:, None])
        better = ok & (np.abs(fc) < np.abs(f))
        w = np.where(better, cand, w)
        f = np.where(better, fc, f)
        if not np.any(better):
            break
    return w


def _parent_cluster(m, raw):
    """Greedy clusters of raw zeros from all pairwise distances at once."""
    pts = m.normalize(raw)
    first, second = np.triu_indices(len(pts), 1)
    near = m.chordal_distance(pts[second], pts[first]) < zeros._CLUSTER_RADIUS
    if not near.any():
        return [(pt, 1) for pt in pts]
    heads, counts = zeros._greedy(
        len(pts), set(zip(first[near].tolist(), second[near].tolist())))
    return [(pts[i], k) for i, k in zip(heads, counts)]


def _parent_curve_zeros(sec):
    """One section's zeros the per-sample way: roots of the expanded
    polynomial (forced factors multiplied in), Newton on the far ones in
    the other chart, then clustering."""
    poly = sec.poly
    m, q = poly.manifold, poly.degree[0]
    c = poly.chart_poly(0).dense()
    deg0 = len(c) - 1
    roots = np.roots(c[::-1]) if deg0 > 0 else np.zeros(0, dtype=complex)
    assert roots.size == deg0
    far = np.abs(roots) > 1.0
    if np.any(far):
        roots[far] = 1.0 / _parent_newton_p1(poly.chart_poly(1),
                                              1.0 / roots[far])
    raw = np.zeros((q, 2), dtype=complex)
    raw[:deg0, 0] = 1.0
    raw[:deg0, 1] = roots
    raw[deg0:, 1] = 1.0
    return zeros.ZeroSet(m, _parent_cluster(m, raw))


def _curve_metric(m, kind, degree):
    L = LineBundle(m, degree)
    if kind == "fs":
        return Metric.fubini_study(L)
    if kind == "max_log":
        return Metric.max_log(L, 0.5)
    return Metric.log_pole(L, coordinate_section(m, int(kind[-1])), 0.5)


@pytest.mark.parametrize("kind", ["fs", "max_log", "coord0", "coord1"])
def test_batched_curve_zeros_match_the_per_sample_route(p1, kind):
    forms = test_form_dictionary(p1, 1, count=4)
    checked = 0
    for degree in (1, 2, 3):
        h = _curve_metric(p1, kind, degree)
        for p in range(3, 13):
            for adjoint in (True, False):
                try:
                    sp = SectionSpace(h, p, adjoint=adjoint)
                except EmptySpaceError:
                    continue
                if sp.dim < 2:
                    continue
                secs = [sample_section(sp, (47, p, i)) for i in range(60)]
                got = curve_zero_sets(
                    sp, np.stack([s.coeffs for s in secs], axis=1))
                want = [_parent_curve_zeros(s) for s in secs]
                for g, w in zip(got, want):
                    assert sorted(k for _, k in g.points) == \
                        sorted(k for _, k in w.points)
                    assert total_multiplicity(g) == sp.q[0]
                np.testing.assert_allclose(point_pairings(got, forms),
                                           point_pairings(want, forms),
                                           rtol=0, atol=1e-12)
                checked += 1
    assert checked >= 50


_Q_LINEAR = ((1, 0), 1.0), ((0, 1), 0.6 + 0.3j)
_Q_QUADRATIC = ((2, 0), 1.0), ((1, 1), 0.3 - 0.5j), ((0, 2), 0.8 + 0.1j)


@pytest.mark.parametrize("terms, degree, p, k", [
    (_Q_LINEAR, 2, 8, 4), (_Q_LINEAR, 2, 12, 6), (_Q_QUADRATIC, 3, 12, 3)])
def test_forced_zeros_are_exact(p1, terms, degree, p, k):
    Q = SectionPoly.from_coeff_map(p1, len(terms) - 1, dict(terms))
    sp = SectionSpace(Metric.log_pole(LineBundle(p1, degree), Q, 0.5), p)
    assert [kj for _, kj in sp.sigma_polys] == [k]
    roots = p1.normalize(np.stack(_p1_roots(Q)))
    sets = curve_zero_sets(sp, np.stack(
        [sample_section(sp, (48, i)).coeffs for i in range(20)], axis=1))
    for zs in sets:
        assert total_multiplicity(zs) == sp.q[0]
        pts = np.stack([pt for pt, _ in zs.points])
        for root in roots:
            d = p1.chordal_distance(pts, root[None])
            hit = np.flatnonzero(d < 1e-8)
            assert hit.size == 1 and d[hit[0]] <= 1e-15
            assert zs.points[hit[0]][1] == k


def test_curve_roots_take_one_eigvals_call_per_length(p1, monkeypatch):
    Q = SectionPoly.from_coeff_map(p1, 1, dict(_Q_LINEAR))
    sp = SectionSpace(Metric.log_pole(LineBundle(p1, 2), Q, 0.5), 8)
    seeds = [(49, i) for i in range(40)]
    calls = {"eigvals": 0, "roots": 0}

    def count(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(zeros.np.linalg, "eigvals",
                        count("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(zeros.np, "roots", count("roots", np.roots))
    zero_pairings(sp, seeds, [constant_form(p1)])
    # every sample has the full reduced length; np.roots solves Q once
    assert calls == {"eigvals": 1, "roots": 1}


def test_curve_zero_sets_do_not_depend_on_the_batch(p1, monkeypatch):
    Q = SectionPoly.from_coeff_map(p1, 1, dict(_Q_LINEAR))
    sp = SectionSpace(Metric.log_pole(LineBundle(p1, 2), Q, 0.5), 8)
    secs = [sample_section(sp, (50, i)) for i in range(40)]
    # exact double zeros, which cluster: z^2 divides the reduced polynomial
    # of sample 3, and the top two coefficients of sample 7 vanish
    for i, cut in ((3, slice(0, 2)), (7, slice(-2, None))):
        c = secs[i].coeffs.copy()
        c[cut] = 0.0
        secs[i] = Section(sp, c)
    batch = curve_zero_sets(sp, np.stack([s.coeffs for s in secs], axis=1))
    for i, pole in ((3, (1.0, 0.0)), (7, (0.0, 1.0))):
        assert total_multiplicity(batch[i]) == sp.q[0]
        assert [k for pt, k in batch[i].points
                if tuple(np.abs(pt)) == pole] == [2]
    # chunks of 7 pairs split the pairs of every set at some boundary
    monkeypatch.setattr(zeros, "_CLUSTER_PAIRS", 7)
    chunked = curve_zero_sets(sp, np.stack([s.coeffs for s in secs],
                                           axis=1))
    for sec, b, c in zip(secs, batch, chunked):
        alone = zeros_on_curve(sec)
        for zs in (b, c):
            assert [k for _, k in zs.points] == [k for _, k in alone.points]
            for (pt, _), (ref, _) in zip(zs.points, alone.points):
                np.testing.assert_array_equal(pt, ref)


# -- pairing against point configurations -------------------------------------


def test_pairing_vanishes_on_disjoint_support(p1):
    k = 4
    s = SectionPoly.from_coeff_map(p1, k, {(0, k): 1.0, (k, 0): -1.0})
    chi = TestForm(p1, 1.0, s, s, label="vanishing")
    assert zero_pairing(zeros_on_curve(section_of(s)), chi) == 0.0


def test_mass_pairing_counts_multiplicity(p1):
    k = 4
    s = SectionPoly.from_coeff_map(p1, k, {(0, k): 1.0, (k, 0): -1.0})
    assert zero_pairing(zeros_on_curve(section_of(s)),
                        constant_form(p1)) == 4.0


def test_point_pairing_rejects_omega_forms(p1):
    s = SectionPoly.from_coeff_map(p1, 2, {(0, 2): 1.0, (2, 0): -1.0})
    with pytest.raises(ConfigurationError):
        zero_pairing(zeros_on_curve(section_of(s)),
                     constant_form(p1, [1.0]))
    with pytest.raises(ConfigurationError):
        point_pairings([zeros_on_curve(section_of(s))],
                       [constant_form(p1), constant_form(p1, [1.0])])


def test_point_pairings_match_the_per_set_sum(p1, p2, pp):
    sp = fs_space(p1, 1, 7)
    curve = [zeros_on_curve(sample_section(sp, (19, i))) for i in range(4)]
    # a degree-0 section has no zeros: its row is zero
    curve.insert(2, zeros_on_curve(section_of(SectionPoly.from_coeff_map(
        p1, 0, {(0, 0): 1.0}))))
    # z1^3 vanishes to order 3 at [1 : 0]
    curve.append(zeros_on_curve(section_of(SectionPoly.from_coeff_map(
        p1, 3, {(0, 3): 1.0}))))
    forms = test_form_dictionary(p1, 1, count=6)
    got = point_pairings(curve, forms)
    assert np.array_equal(got, np.array(
        [[_loop_point_pairing(zs, f) for f in forms] for zs in curve]))
    assert not got[2].any()

    sp = fs_space(p2, 1, 5)
    surface = [common_zeros(sample_tuple([sp, sp], (23, i)))
               for i in range(3)]
    # a double point: the line z2 = 0 touches the conic z1^2 = z0 z2
    conic = SectionPoly.from_coeff_map(p2, 2, {(0, 2, 0): 1.0,
                                              (1, 0, 1): -1.0})
    surface.insert(1, common_zeros([conic, coordinate_section(p2, 2)]))
    forms = test_form_dictionary(p2, 2, count=6)
    assert np.array_equal(point_pairings(surface, forms), np.array(
        [[_loop_point_pairing(zs, f) for f in forms] for zs in surface]))

    # the parallel fiber pair of P1xP1 has no common zeros
    s1 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 1.0})
    s3 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0})
    empty = common_zeros([s1, s3])
    assert np.array_equal(
        point_pairings([empty], test_form_dictionary(pp, 2, count=3)),
        np.zeros((1, 3)))


# -- surface intersections ----------------------------------------------------


def test_plane_intersection_matches_linear_algebra(p2):
    z0, z1 = coordinate_section(p2, 0), coordinate_section(p2, 1)
    l1 = linear_section(p2, [1.0, 2.0, -1.0])
    l2 = linear_section(p2, [0.5, -1.0, 3.0])
    zs = common_zeros([z0.multiply(l1), z1.multiply(l2)])
    assert total_multiplicity(zs) == 4 and len(zs.points) == 4
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
    assert total_multiplicity(zs) == 9
    resid = max(abs(s.poly.eval_hom(pt[None])[0]) / np.linalg.norm(s.coeffs)
                for pt, _ in zs.points for s in tup)
    assert resid < 1e-7


def test_equal_sections_fail_general_position(p2):
    s = coordinate_section(p2, 0).multiply(linear_section(p2, [1.0, 2.0, -1.0]))
    with pytest.raises(GeneralPositionError):
        common_zeros([s, s])


def test_split_bidegree_pair_has_a_closed_form_point(pp):
    s1 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 1.0})
    s2 = SectionPoly.from_coeff_map(
        pp, (0, 1), {(0, 0, 1, 0): 1.0, (0, 0, 0, 1): -3.0})
    zs = common_zeros([s1, s2])
    assert total_multiplicity(zs) == 1
    pt = pp.normalize(np.array([1.0, -2.0, 3.0, 1.0], dtype=complex)[None])[0]
    assert float(pp.chordal_distance(pt[None], zs.points[0][0][None])[0]) < 1e-10


def test_parallel_fiber_pair_is_empty(pp):
    s1 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 1.0})
    s3 = SectionPoly.from_coeff_map(
        pp, (1, 0), {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0})
    zs = common_zeros([s1, s3])
    assert total_multiplicity(zs) == 0 and zs.points == []


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
    assert total_multiplicity(zs) == 2
    resid = max(abs(s.poly.eval_hom(pt[None])[0]) / np.linalg.norm(s.coeffs)
                for pt, _ in zs.points for s in tup)
    assert resid < 1e-7


def test_tangential_intersection_carries_multiplicity(p2):
    conic = SectionPoly.from_coeff_map(p2, 2, {(0, 2, 0): 1.0, (1, 0, 1): -1.0})
    zs = common_zeros([conic, coordinate_section(p2, 2)])
    assert total_multiplicity(zs) == 2 and len(zs.points) == 1
    assert zs.points[0][1] == 2
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert float(p2.chordal_distance(e0[None], zs.points[0][0][None])[0]) < 1e-6


def _polish_one(m, polys, pt, steps=30):
    """Damped Newton polish of one point, a step at a time."""
    pt = m.normalize(np.asarray(pt, dtype=complex)[None])[0]
    chart = int(m.chart_of(pt[None])[0])
    cps = [p.chart_poly(chart) for p in polys]
    dps = [[cp.deriv(0), cp.deriv(1)] for cp in cps]
    scales = np.array([np.linalg.norm(p.coeffs) for p in polys])
    z = m.to_chart(pt[None], chart)[0]

    def fval(zz):
        return np.array([cp.eval(zz[None])[0] for cp in cps])

    f = fval(z)
    best = float(np.max(np.abs(f) / scales))
    for _ in range(steps):
        J = np.array([[dps[i][j].eval(z[None])[0] for j in range(2)]
                      for i in range(2)])
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            break
        improved = False
        for _ in range(9):
            fc = fval(z + step)
            rc = float(np.max(np.abs(fc) / scales))
            if rc < best:
                z, f, best = z + step, fc, rc
                improved = True
                break
            step = 0.5 * step
        if not improved or best < 1e-15:
            break
    return m.from_chart(z[None], chart)[0]


@pytest.mark.parametrize("case", ["fs-cubics", "pole-sextics", "bidegree"])
def test_batched_polish_matches_the_per_point_polish(monkeypatch, case):
    calls = []
    batched = zeros._polish_surface

    def record(m, polys, pts):
        out, res = batched(m, polys, pts)
        calls.append((polys, pts, out, res))
        return out, res

    monkeypatch.setattr(zeros, "_polish_surface", record)
    if case == "fs-cubics":
        # the pair of test_random_plane_pair_meets_the_intersection_bound
        m = build_manifold("P2")
        sp = fs_space(m, 1, 6)
        zs = common_zeros(sample_tuple([sp, sp], (11, 0)))
        assert total_multiplicity(zs) == 9
    elif case == "pole-sextics":
        # coordinate poles as in the approximation study, not adjoint
        m = build_manifold("P2")
        spaces = [build_section_space(Metric.log_pole(
            LineBundle(m, 1), coordinate_section(m, i), 0.25), 6,
            adjoint=False) for i in (0, 1)]
        zs = common_zeros(sample_tuple(spaces, (7, 2)))
        assert total_multiplicity(zs) == 36
    else:
        m, polys = _attempt_cases("bidegree")
        zs = common_zeros(polys)
        assert total_multiplicity(zs) == 18
    polys, pts, out, res = calls[-1]
    assert len(pts) == total_multiplicity(zs)
    # one stack holds the points of several charts
    assert len(set(m.chart_of(out).tolist())) >= 2
    for pt, got, r in zip(pts, out, res):
        want = _polish_one(m, polys, pt)
        assert float(m.chordal_distance(got[None], want[None])[0]) <= 1e-12
        assert r <= zeros._RESIDUAL_CAP
    # started further off, points take several steps and step halvings
    rng = np.random.default_rng(1)
    far = pts + 0.1 * (rng.standard_normal(pts.shape)
                       + 1j * rng.standard_normal(pts.shape))
    out, _ = batched(m, polys, far)
    want = np.array([_polish_one(m, polys, pt) for pt in far])
    assert np.all(m.chordal_distance(out, want) <= 1e-12)


def test_singular_jacobian_in_a_mixed_chart_stack_stops_its_own_point(
        p2, monkeypatch):
    # x^2 + y^2 = 4 and x^2 - y^2 = 1 in chart 0: both gradients vanish at
    # [1:0:0], and the four common zeros lie in chart 1
    a = SectionPoly.from_coeff_map(
        p2, 2, {(0, 2, 0): 1.0, (0, 0, 2): 1.0, (2, 0, 0): -4.0})
    b = SectionPoly.from_coeff_map(
        p2, 2, {(0, 2, 0): 1.0, (0, 0, 2): -1.0, (2, 0, 0): -1.0})
    roots = np.array([[1.0, sx * np.sqrt(2.5), sy * np.sqrt(1.5)]
                      for sx in (1, -1) for sy in (1, -1)], dtype=complex)
    rng = np.random.default_rng(4)
    start = np.concatenate([
        roots + 0.05 * (rng.standard_normal(roots.shape)
                        + 1j * rng.standard_normal(roots.shape)),
        [[1.0, 0.0, 0.0], [1.0, 0.4 + 0.1j, 0.2j]]])
    assert set(p2.chart_of(start).tolist()) == {0, 1}
    solves = []
    solve = zeros._solve_stacked

    def record(J, rhs):
        out = solve(J, rhs)
        solves.append(out[1])
        return out

    monkeypatch.setattr(zeros, "_solve_stacked", record)
    out, res = zeros._polish_surface(p2, [a, b], start)
    # the singular point is rejected at its first solve and stays put
    assert solves[0].tolist() == [True] * 4 + [False, True]
    assert np.array_equal(out[4], np.array([1.0, 0.0, 0.0], dtype=complex))
    assert res[4] > 0.1
    for pt, got in zip(start, out):
        want = _polish_one(p2, [a, b], pt)
        assert float(p2.chordal_distance(got[None], want[None])[0]) <= 1e-12
    assert np.all(res[:4] <= 1e-15)
    hits = [float(p2.chordal_distance(out[:4], r[None]).min()) for r in roots]
    assert max(hits) < 1e-12


def test_singular_jacobian_stops_only_its_own_point():
    J = np.array([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)],
                 dtype=complex)
    rhs = np.array([[1, 2], [3, 4], [2, 6]], dtype=complex)
    x, ok = zeros._solve_stacked(J, rhs)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(x[ok], np.array([[1, 2], [1, 3]], dtype=complex))


# -- stacked elimination against the per-sample, per-root loops ---------------


def _ref_sylvester_det(va, vb):
    """One Sylvester determinant and its Hadamard bound, matrix by matrix."""
    m, n = len(va) - 1, len(vb) - 1
    if m < 0 or n < 0:
        return 0.0, 1.0
    if m + n == 0:
        return 1.0, 1.0
    S = np.zeros((m + n, m + n), dtype=complex)
    for i in range(n):
        S[i, i:i + m + 1] = va[::-1]
    for j in range(m):
        S[n + j, j:j + n + 1] = vb[::-1]
    return (complex(np.linalg.det(S)),
            float(np.prod(np.linalg.norm(S, axis=1))))


def _ref_trimmed_length(v):
    """Length of a coefficient row after trimming its top (0 if zero)."""
    top = np.abs(v).max()
    if top == 0.0:
        return 0
    keep = len(v)
    while keep > 1 and abs(v[keep - 1]) <= 1e-12 * top:
        keep -= 1
    return keep


def _ref_fiber_roots(v):
    """``np.roots`` of one coefficient row after trimming its top."""
    keep = _ref_trimmed_length(v)
    return list(np.roots(v[keep - 1::-1])) if keep > 1 else []


def _ref_fiber_scores(m, rots, rows, x, ys):
    """Scores of the fiber roots ``ys`` over ``x``: per rotated section,
    the Horner value of its fiber row times the chart-0 normalization
    ``prod_f |(1, z_f)|^(-d_f)`` over its coefficient norm; the larger."""
    ys = np.asarray(ys, dtype=complex)
    lift = np.sqrt(1.0 + m.factor_squares(
        np.stack([np.full(len(ys), x, dtype=complex), ys], axis=1)))
    res = np.zeros(len(ys))
    for rp, row in zip(rots, rows):
        val = np.zeros(len(ys), dtype=complex)
        for c in row[::-1]:
            val = val * ys + c
        val = val * np.prod(lift ** -np.array(rp.degree, dtype=float), axis=1)
        res = np.maximum(res, np.abs(val) / np.linalg.norm(rp.coeffs))
    return res


def _ref_normalized_scores(m, rots, x, ys):
    """The same scores from ``eval_hom`` at the normalized points."""
    pts = m.from_chart(np.stack([np.full(len(ys), x, dtype=complex),
                                 np.asarray(ys, dtype=complex)], axis=1), 0)
    return np.max([np.abs(rp.eval_hom(pts)) / np.linalg.norm(rp.coeffs)
                   for rp in rots], axis=0)


def _ref_admissible_ys(m, rots, ga, gb, x, g, cap=1e-5):
    rows = [np.atleast_1d(npoly.polyval(x, grid)) for grid in (ga, gb)]
    cands = []
    for row in rows:
        cands.extend(_ref_fiber_roots(row))
    if not cands:
        return []
    res = _ref_fiber_scores(m, rots, rows, x, cands)
    out = []
    for i in np.argsort(res):
        if res[i] > cap:
            break
        y = complex(cands[i])
        if all(abs(y - y0) >= 1e-7 * max(1.0, abs(y0)) for y0 in out):
            out.append(y)
        if len(out) == g:
            break
    return out


def _ref_attempt(m, polys, bez, key):
    """``(dets, xs, rot_pts, group sizes)`` of one elimination attempt,
    one determinant per sample and one fiber solve per root."""
    rots, _ = zeros._rotate_pair(m, polys, key)
    ga = rots[0].chart_poly(0).dense()
    gb = rots[1].chart_poly(0).dense()
    ts = np.exp(2j * np.pi * np.arange(bez + 1) / (bez + 1))
    dets = np.array([_ref_sylvester_det(
        np.atleast_1d(npoly.polyval(t, ga)),
        np.atleast_1d(npoly.polyval(t, gb)))[0] for t in ts])
    rc = np.fft.fft(dets) / (bez + 1)
    xs = np.roots(rc[::-1])
    groups = []
    for x in xs:
        for i, (c, g) in enumerate(groups):
            if abs(x - c) < 1e-7 * max(1.0, abs(c)):
                groups[i] = (c, g + 1)
                break
        else:
            groups.append((x, 1))
    rot_pts = []
    for x, g in groups:
        ys = _ref_admissible_ys(m, rots, ga, gb, x, g)
        for i in range(g):
            rot_pts.append(m.from_chart([[x, ys[min(i, len(ys) - 1)]]], 0)[0])
    return dets, xs, np.array(rot_pts), [g for _, g in groups]


def _attempt_cases(case):
    """``(manifold, polys)`` of the pairs the stacked attempt is held to."""
    if case == "fs-cubics":
        p2 = build_manifold("P2")
        sp = fs_space(p2, 1, 6)
        return p2, [s.poly for s in sample_tuple([sp, sp], (11, 0))]
    if case == "pole-sextics":
        p2 = build_manifold("P2")
        spaces = [build_section_space(Metric.log_pole(
            LineBundle(p2, 1), coordinate_section(p2, i), 0.25), 6,
            adjoint=False) for i in (0, 1)]
        return p2, [s.poly for s in sample_tuple(spaces, (7, 2))]
    if case == "bidegree":
        pp = build_manifold("P1xP1")
        sp = fs_space(pp, (1, 1), 5)
        return pp, [s.poly for s in sample_tuple([sp, sp], (21, 5))]
    p2 = build_manifold("P2")
    conic = SectionPoly.from_coeff_map(p2, 2, {(0, 2, 0): 1.0,
                                               (1, 0, 1): -1.0})
    return p2, [conic, coordinate_section(p2, 2)]


@pytest.mark.parametrize("case", ["fs-cubics", "pole-sextics", "bidegree",
                                  "tangent"])
def test_stacked_attempt_matches_the_per_root_loop(monkeypatch, case):
    m, polys = _attempt_cases(case)
    seen = {}
    stacked_dets, grouped = zeros._sylvester_dets, zeros._grouped
    rotate = zeros._rotate_pair

    def dets(VA, VB):
        out = stacked_dets(VA, VB)
        seen["dets"] = out[0]
        return out

    def groups(xs):
        seen["xs"] = xs
        out = grouped(xs)
        seen["counts"] = out[1]
        return out

    def rotate_pair(m, polys, key):
        rots, unrotate = rotate(m, polys, key)

        def record(pts):
            seen["rot_pts"] = pts
            return unrotate(pts)

        return rots, record

    monkeypatch.setattr(zeros, "_sylvester_dets", dets)
    monkeypatch.setattr(zeros, "_grouped", groups)
    monkeypatch.setattr(zeros, "_rotate_pair", rotate_pair)
    bez = m.intersection_number([polys[0].degree, polys[1].degree])
    assert zeros._intersection_attempt(m, polys, bez, 0, []) is not None
    want_dets, want_xs, want_pts, want_counts = _ref_attempt(m, polys, bez, 0)
    np.testing.assert_array_equal(seen["dets"], want_dets)
    np.testing.assert_array_equal(seen["xs"], want_xs)
    np.testing.assert_array_equal(seen["rot_pts"], want_pts)
    assert seen["counts"].tolist() == want_counts
    assert max(want_counts) == (2 if case == "tangent" else 1)


@pytest.mark.parametrize("case", ["fs-cubics", "pole-sextics", "bidegree",
                                  "tangent"])
def test_fiber_scores_are_the_normalized_values(case):
    """Horner scores against ``eval_hom`` at the normalized points, for the
    fiber roots over every eliminant root.  A score is a relative value,
    at most 1 (Cauchy-Schwarz at a unit point), and a common zero's is
    rounding, so the bound is 1e-12 relative to that scale."""
    m, polys = _attempt_cases(case)
    bez = m.intersection_number([polys[0].degree, polys[1].degree])
    rots, _ = zeros._rotate_pair(m, polys, 0)
    grids = [r.chart_poly(0).dense() for r in rots]
    _, xs, _, _ = _ref_attempt(m, polys, bez, 0)
    fibers, scores = zeros._fiber_candidates(m, rots, grids, xs)
    assert len(fibers) == len(scores) == bez
    for x, ys, got in zip(xs, fibers, scores):
        want = _ref_normalized_scores(m, rots, x, ys)
        assert len(ys) == sum(len(_ref_fiber_roots(np.atleast_1d(
            npoly.polyval(x, g)))) for g in grids)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.all(want <= 1.0 + 1e-12)


def test_stacked_sylvester_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(3)
    for m, n in [(0, 0), (0, 3), (2, 0), (3, 4), (6, 6)]:
        VA = rng.standard_normal((5, m + 1)) + 1j * rng.standard_normal(
            (5, m + 1))
        VB = rng.standard_normal((5, n + 1)) + 1j * rng.standard_normal(
            (5, n + 1))
        dets, had = zeros._sylvester_dets(VA, VB)
        want = [_ref_sylvester_det(a, b) for a, b in zip(VA, VB)]
        np.testing.assert_array_equal(dets, [d for d, _ in want])
        np.testing.assert_array_equal(had, [h for _, h in want])


fiber_row = st.tuples(
    st.integers(1, 7), st.integers(0, 3), st.booleans(), st.booleans(),
    st.booleans(), st.integers(0, 2 ** 32 - 1))


@given(st.lists(fiber_row, min_size=1, max_size=8), st.integers(1, 7))
@settings(deadline=None, max_examples=60)
def test_stacked_fiber_roots_match_np_roots(specs, width):
    """Rows of one width: some trimmed at the top (tiny or zero leading
    coefficients), some with a zero constant or middle term, some all zero,
    and width 1 or rows trimmed to a constant.  The uncut call of curve
    zeros drops only exactly zero top coefficients, as ``np.roots`` does."""
    rows = []
    for live, tiny, zero_const, zero_mid, zero_row, seed in specs:
        rng = np.random.default_rng(seed)
        v = np.zeros(width, dtype=complex)
        live = min(live, width)
        v[:live] = rng.standard_normal(live) + 1j * rng.standard_normal(live)
        v[live:live + tiny] = 1e-14 * (1 + 1j)
        if zero_const:
            v[0] = 0.0
        if zero_mid and live > 2:
            v[live // 2] = 0.0
        if zero_row:
            v[:] = 0.0
        rows.append(v)
    V = np.array(rows)
    got = zeros._fiber_roots(V)
    assert len(got) == len(rows)
    for v, r in zip(V, got):
        np.testing.assert_array_equal(r, _ref_fiber_roots(v))
    nz = V != 0
    lengths = np.where(nz.any(axis=1),
                       width - np.argmax(nz[:, ::-1], axis=1), 0)
    for v, r in zip(V, zeros._companion_roots(V, lengths)):
        np.testing.assert_array_equal(r, np.roots(v[::-1]))


def test_one_attempt_stacks_its_lapack_calls(monkeypatch):
    m, polys = _attempt_cases("fs-cubics")
    bez = m.intersection_number([polys[0].degree, polys[1].degree])
    _, xs, _, counts = _ref_attempt(m, polys, bez, 0)
    assert bez == 9 and counts == [1] * bez
    rots, _ = zeros._rotate_pair(m, polys, 0)
    lengths = {_ref_trimmed_length(np.atleast_1d(npoly.polyval(
        x, r.chart_poly(0).dense()))) for x in xs for r in rots}
    calls = {"det": 0, "eigvals": 0}

    def count(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(zeros.np.linalg, "det",
                        count("det", np.linalg.det))
    monkeypatch.setattr(zeros.np.linalg, "eigvals",
                        count("eigvals", np.linalg.eigvals))
    # np.roots reaches LAPACK through its own import of eigvals
    monkeypatch.setattr(zeros.np, "roots", count("eigvals", np.roots))
    assert zeros._intersection_attempt(m, polys, bez, 0, []) is not None
    assert calls["det"] <= 1
    assert calls["eigvals"] <= 1 + 2 * len(lengths - {0, 1})


# -- empirical general position ------------------------------------------------


def test_general_position_detects_shared_factors(p1, p2):
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
    assert empirical_general_position([l1.multiply(l1), l2.multiply(l2)])
    # a pair cuts in codimension two, which only a surface has
    with pytest.raises(ConfigurationError):
        empirical_general_position([coordinate_section(p1, 0),
                                    coordinate_section(p1, 1)])


# -- divisor pairings ----------------------------------------------------------


def test_divisor_and_point_pairings_agree(p1):
    sp = fs_space(p1, 1, 6)
    sec = sample_section(sp, (3, 1))
    zs = zeros_on_curve(sec)
    plain = quadrature_nodes(p1, 32)
    one = constant_form(p1)
    assert abs(zero_pairing(zs, one) - divisor_pairing(sec, one, plain)) < 1e-5
    refined = quadrature_nodes(
        p1, 32, singular_refinement=[pt for pt, _ in zs.points])
    for f in test_form_dictionary(p1, 1, count=6):
        assert abs(zero_pairing(zs, f) - divisor_pairing(sec, f, refined)) \
            < 1e-8


def test_off_axis_pole_divisor_and_point_pairings_agree(p1):
    # p = 8 forces Q^4 into every section; on nodes refined towards the
    # root of Q the expanded product underflows, its logarithm must not
    Q = linear_section(p1, [1.0, 0.6 + 0.3j])
    h = Metric.log_pole(LineBundle(p1, 2), Q, 0.5)
    sp = build_section_space(h, 8)
    sec = sample_section(sp, (3, 1))
    zs = zeros_on_curve(sec)
    rule = quadrature_nodes(p1, 48, singular_refinement=h.refinement_centers())
    one = constant_form(p1)
    assert abs(zero_pairing(zs, one) - divisor_pairing(sec, one, rule)) < 1e-10
    # the zeros of the section itself are not refined, hence the looser cap
    for f in test_form_dictionary(p1, 1, count=3)[1:]:
        assert abs(zero_pairing(zs, f) - divisor_pairing(sec, f, rule)) < 5e-4


def _expanded_log_norm(sec, chart, Z):
    """``log |s|_h`` from the section's expanded polynomial."""
    sp = sec.space
    with np.errstate(divide="ignore"):
        u = np.log(np.abs(sec.poly.chart_poly(chart).eval(Z)))
    u -= sp.p * sp.metric.weight(chart, Z)
    if sp.adjoint:
        u += 0.5 * np.log(sp.manifold.canonical_factor(chart, Z))
    return u


@pytest.mark.parametrize("kind", ["P1", "P2"])
def test_section_log_norm_is_that_of_the_expanded_section(kind):
    m = build_manifold(kind)
    if kind == "P1":
        # the pole Q is a forced factor: its log enters apart
        h = Metric.log_pole(LineBundle(m, 2),
                            linear_section(m, [1.0, 0.6 + 0.3j]), 0.5)
    else:
        h = Metric.log_pole(LineBundle(m, 1), coordinate_section(m, 0), 0.5)
    sec = sample_section(SectionSpace(h, 8), (6, 0))
    for b in quadrature_nodes(m, 8).capped_blocks():
        np.testing.assert_allclose(sec.log_norm(b.chart, b.points),
                                   _expanded_log_norm(sec, b.chart, b.points),
                                   rtol=0, atol=1e-9)


def _loop_divisor_pairing(sec, form, rule):
    """One section's divisor pairing as one ddc_pairing of the log-norm of
    its expanded polynomial, plus the curvature terms."""
    sp = sec.space
    total = ddc_pairing(lambda chart, Z: _expanded_log_norm(sec, chart, Z),
                        form, rule, integrable=True)
    total += sp.p * curvature_pairing(sp.metric, form, rule)
    if sp.adjoint:
        for i, cdeg in enumerate(sp.manifold.canonical_degree):
            total += cdeg * pair_omega_basis(i, form)
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
            single = divisor_pairing(sec, f, rule)
            assert abs(batch[i, j] - single) <= 1e-12 * abs(single)
            loop = _loop_divisor_pairing(sec, f, rule)
            assert abs(batch[i, j] - loop) <= 1e-12 * abs(loop)


def _loop_point_pairing(zs, form):
    """One set's point pairing: function values times multiplicities,
    summed in point order."""
    if not zs.points:
        return 0.0
    vals = form_values_hom(zs.manifold, [form],
                           np.stack([pt for pt, _ in zs.points]))[:, 0]
    return float(sum(k * v for (_, k), v in zip(zs.points, vals)))


def test_curve_pairings_keep_the_point_route(p1):
    sp = fs_space(p1, 1, 6)
    forms = test_form_dictionary(p1, 1, count=4)
    seeds = [(43, i) for i in range(5)]
    batch = zero_pairings(sp, seeds, forms)
    loop = [[_loop_point_pairing(zeros_on_curve(sample_section(sp, s)), f)
             for f in forms] for s in seeds]
    assert np.array_equal(batch, np.array(loop))
    # the divisor route on curves, against the loop, over a refined rule
    sec = sample_section(sp, seeds[0])
    rule = quadrature_nodes(
        p1, 12, singular_refinement=[pt for pt, _ in
                                     zeros_on_curve(sec).points])
    for f in forms[:2]:
        single = divisor_pairing(sec, f, rule)
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
    sec = sample_section(sp, seeds[0])
    if raises:
        with pytest.raises(ConfigurationError, match="non-finite"):
            divisor_pairing(sec, forms[1], rule)
        with pytest.raises(ConfigurationError, match="non-finite"):
            zero_pairings(sp, seeds, forms, rule)
        return
    # a few isolated nodes lose their weight and nothing else changes
    batch = zero_pairings(sp, seeds, forms, rule)
    assert np.all(np.isfinite(batch))
    assert np.max(np.abs(batch - clean)) < 1e-3
    assert abs(divisor_pairing(sec, forms[1], rule) - batch[0, 1]) \
        <= 1e-12 * abs(batch[0, 1])


def test_divisor_pairing_needs_a_rule(p1):
    sp = fs_space(p1, 1, 6)
    sec = sample_section(sp, (3, 1))
    with pytest.raises(ConfigurationError):
        divisor_pairing(sec, constant_form(p1), None)


# -- expected zero currents ------------------------------------------------------
#
# Averaging the zero pairing over sections drawn from the unit sphere
# reproduces p times the normalized current of the space exactly, so the
# sample mean has to sit within Monte Carlo error of that prediction.


def test_expected_mass_is_exact_on_curves(p1):
    sp = fs_space(p1, 1, 8)
    _, _, gaps, _ = expected_zero_residuals(sp, [constant_form(p1)], 100,
                                            (22,))
    assert gaps[0] < 1e-6


def test_expected_pairing_matches_prediction_on_curves(p1):
    sp = fs_space(p1, 1, 8)
    forms = test_form_dictionary(p1, 1, count=4)
    _, _, gaps, ses = expected_zero_residuals(sp, forms[1:2], 400, (21,))
    assert gaps[0] < 3 * ses[0]
    h = Metric.log_pole(LineBundle(p1, 2), coordinate_section(p1, 0), 0.5)
    splp = build_section_space(h, 5)
    _, _, gaps, ses = expected_zero_residuals(splp, forms[2:3], 400, (23,))
    assert gaps[0] < 3 * ses[0]


def test_expected_pairing_matches_prediction_on_surfaces(p2):
    sp = fs_space(p2, 1, 5)
    forms = test_form_dictionary(p2, 1, count=4)
    _, _, gaps, ses = expected_zero_residuals(sp, forms[1:2], 100, (31,))
    assert gaps[0] < 3 * ses[0]
    _, _, gaps, _ = expected_zero_residuals(sp, [constant_form(p2, [1.0])],
                                            100, (32,))
    assert gaps[0] < 1e-6


@pytest.mark.parametrize("kind", ["P1", "P2"])
def test_expected_residuals_match_the_one_form_call(kind):
    m = build_manifold(kind)
    sp = fs_space(m, 1, 5)
    forms = test_form_dictionary(m, 1, count=3)
    targets, means, gaps, ses = expected_zero_residuals(sp, forms, 100, (41,))
    np.testing.assert_array_equal(gaps, np.abs(means - targets))
    for j, f in enumerate(forms):
        one = expected_zero_residuals(sp, [f], 100, (41,))
        assert (gaps[j], ses[j]) == (one[2][0], one[3][0])


def test_sample_budget_is_validated(p1):
    sp = fs_space(p1, 1, 8)
    with pytest.raises(ConfigurationError):
        expected_zero_residuals(sp, [constant_form(p1)], 50, (22,))
