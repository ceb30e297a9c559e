"""Random sections, their zero sets, and zero-current pairings.

Sampling draws standard complex Gaussian coefficients in the orthonormal
frame of a section space and normalizes, which is the unique unitarily
invariant law on the projective space of sections.  Zero sets on curves are
found for a batch of sections at once: the forced zeros of the space
(coordinate powers and the roots of its pole sections) are read off
exactly, and the reduced polynomials' roots come from stacked companion
matrices with one second-chart Newton pass for roots near infinity.  On
surfaces, pairs of sections are intersected by resultant elimination in a
generically rotated frame, followed by Newton polish in the original
coordinates.  Point totals are checked against the intersection number of
the effective degrees, never inferred.

The point layer works on whole arrays: ``curve_zero_sets`` takes one
companion ``eigvals`` call per polynomial length and clusters the zeros of
all its sections in one pass over their pairwise distances; the raw zeros
of one surface pair are clustered the same way; one elimination attempt
works on stacks (one call for its Sylvester determinants, one per fiber
degree for both sections' companion matrices, Horner scores on the fiber
rows, one Newton iteration on dense chart grids for all its points in all
charts), and ``point_pairings`` pairs many zero sets through
:func:`kahlerlab.bundles.point_mass_pairings`, which evaluates each form
once on their stacked points.  Divisor pairings (``zero_pairings`` on
surfaces) are :func:`kahlerlab.fscurrents.log_norm_pairings` of the
sections' coefficients, which batches their log-norms per quadrature block.

Seed records are integer tuples ``(master, index, ...)``; every derived
stream is spawned from the master entropy through the remaining entries, so
per-sample results do not depend on evaluation order.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bundles import _poly_norm_key, curve_divisor_points, point_mass_pairings
# benchmarks/test_benchmark.py checks that the tracer patches these here
from .bundles import curvature_pairing, ddc_pairing  # noqa: F401
from .errors import (
    ConfigurationError,
    DegenerateSpaceError,
    GeneralPositionError,
    NumericalError,
    RootFindingError,
)
from .fscurrents import _log_modulus, _log_norm_base, log_norm_pairings
from .geometry import quadrature_nodes
from .polynomials import SectionPoly

# Zeros closer than this in chordal distance are one point; random sections
# have simple zeros almost surely, so clusters of size > 1 only appear in
# constructed degenerate inputs.
_CLUSTER_RADIUS = 1e-8

# Point pairs whose distances ``_cluster`` computes at once, which bounds its
# temporaries to a few MB whatever the number of zeros.
_CLUSTER_PAIRS = 1 << 14

# Relative evaluation residual accepted for a computed intersection point.
_RESIDUAL_CAP = 1e-7

# Entropy of the deterministic frame rotations used by the surface solver.
_ROTATION_ENTROPY = 172803

# Fewest samples behind a Monte Carlo mean and its standard error.
MIN_EXPECTED_ZERO_SAMPLES = 100


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    members = tuple(seed)
    if not members:
        raise ConfigurationError("seed record must not be empty")
    if not all(isinstance(x, (int, np.integer)) for x in members):
        raise ConfigurationError(
            f"seed record must hold integers, got {seed!r}")
    return tuple(int(x) for x in members)


def _rng(key):
    return np.random.default_rng(
        np.random.SeedSequence(key[0], spawn_key=key[1:]))


def _as_poly(section):
    return section.poly if isinstance(section, Section) else section


# ---------------------------------------------------------------------------
# sampled sections
# ---------------------------------------------------------------------------


class Section:
    """One element of a section space, with unit coefficient norm."""

    def __init__(self, space, coeffs):
        c = np.asarray(coeffs, dtype=complex).reshape(-1)
        if c.size != space.dim:
            raise ConfigurationError("coefficient length mismatch")
        nrm = np.linalg.norm(c)
        if nrm == 0.0:
            raise ConfigurationError("the zero section has no direction")
        self.space = space
        self.coeffs = c / nrm
        self._poly = None

    @property
    def poly(self):
        if self._poly is None:
            self._poly = self.space.section_polynomial(self.coeffs)
        return self._poly

    @property
    def manifold(self):
        return self.space.manifold

    def log_norm(self, chart, Z):
        """``log |s|_h`` at chart points (``-inf`` on the zero divisor).

        The forced factors of the space enter through ``_log_norm_base``,
        as logarithms, so nodes near an off-axis pole keep finite values;
        the metric perturbation enters as ``-p psi``.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        sp = self.space
        return (_log_modulus(sp.monomial_values(chart, Z) @ self.coeffs)
                + _log_norm_base(sp, chart, Z)
                - sp.p * sp.metric.psi(chart, Z))


def sample_section(space, seed):
    """Draw one section from the unitary-invariant law of the space.

    Coefficients in the orthonormal frame are independent standard complex
    Gaussians, normalized to the unit sphere; the induced law on the
    projective space of sections is the Fubini-Study volume.  Deterministic
    in the seed record.
    """
    if space.dim < 2:
        raise DegenerateSpaceError(
            f"space of dimension {space.dim} is a single projective point; "
            "there is nothing to sample")
    # one draw of both parts: the bits of a real-part draw, then an
    # imaginary-part one, from the same generator
    r = _rng(_seed_key(seed)).standard_normal((2, space.dim))
    return Section(space, r[0] + 1j * r[1])


def sample_tuple(spaces, seed):
    """Independent draws, one per space, under the product measure, as a list.

    Splitting rule: the tuple seed ``(master, i...)`` gives member ``k`` the
    record ``(master, i..., k)``, so member streams are disjoint and a new
    master changes every member.
    """
    key = _seed_key(seed)
    return [sample_section(sp, key + (k,)) for k, sp in enumerate(spaces)]


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------


class ZeroSet:
    """The zero locus of a section (or pair) as ``(homogeneous point,
    multiplicity)`` pairs, whose multiplicities sum to the intersection
    number of the effective degrees."""

    def __init__(self, manifold, points):
        self.manifold = manifold
        self.points = points


def _cluster(manifold, raw):
    """``(point, multiplicity)`` pairs of raw zeros (rows, homogeneous).

    Greedy in input order: a point joins the first cluster whose first
    point lies within ``_CLUSTER_RADIUS`` of it, or else starts a new one.
    This is ``_cluster_sets`` of one set whose rows count once each.
    """
    raw = np.asarray(raw, dtype=complex)
    return _cluster_sets(manifold, raw[None], [1] * len(raw))[0]


def _cluster_sets(manifold, raw, mult):
    """``_cluster`` of each set ``raw[s]`` (sets, rows, homogeneous), whose
    row ``i`` counts ``mult[i]`` times.

    The distances of the pairs within every set are computed together, in
    chunks of ``_CLUSTER_PAIRS``, so the greedy pass runs only for the sets
    where some pair is that close.
    """
    sets, n = raw.shape[:2]
    pts = manifold.normalize(raw.reshape(sets * n, raw.shape[2])).reshape(
        raw.shape)
    first, second = np.triu_indices(n, 1)
    near = np.zeros(sets * first.size, dtype=bool)
    for lo in range(0, near.size, _CLUSTER_PAIRS):
        s, k = np.divmod(np.arange(lo, min(lo + _CLUSTER_PAIRS, near.size)),
                         first.size)
        near[lo:lo + s.size] = manifold.chordal_distance(
            pts[s, second[k]], pts[s, first[k]]) < _CLUSTER_RADIUS
    out = []
    for s, close in enumerate(near.reshape(sets, first.size)):
        if not close.any():
            out.append(list(zip(pts[s], mult)))
            continue
        heads, counts = _greedy(
            n, set(zip(first[close].tolist(), second[close].tolist())), mult)
        out.append([(pts[s, i], k) for i, k in zip(heads, counts)])
    return out


def _greedy(n, close, weights=None):
    """``(heads, counts)`` of the greedy grouping of items ``0..n-1``: item
    j joins the first group whose head i has ``(i, j)`` in ``close``, or
    else heads a new group.  A group counts its items' ``weights`` (one
    each by default)."""
    heads, counts = [], []
    for j in range(n):
        w = 1 if weights is None else weights[j]
        for c, i in enumerate(heads):
            if (i, j) in close:
                counts[c] += w
                break
        else:
            heads.append(j)
            counts.append(w)
    return heads, counts


def zeros_on_curve(section):
    """All zeros of a `Section` on the curve, with multiplicities: the
    one-column call of :func:`curve_zero_sets`."""
    return curve_zero_sets(section.space, section.coeffs[:, None])[0]


def curve_zero_sets(space, C):
    """The zero sets of the sections of a curve space with coefficient
    columns ``C`` (dim, samples), the matrix that
    :func:`fscurrents.log_norm_pairings` takes.

    Every section of the space is ``prod_j Q_j^{k_j}`` times coordinate
    powers times a reduced polynomial, whose dense chart-zero coefficients
    are ``C * scales`` placed at the reduced exponents.  The forced zeros
    are read off exactly, once for all columns: the coordinate shift gives
    ``[0:1]`` and ``[1:0]``, and each root of ``Q_j`` counts ``k_j``
    times.  The reduced polynomials are solved together
    (``_curve_zero_sets``).
    """
    m = space.manifold
    if m.dim != 1:
        raise ConfigurationError("curve zeros are a P1 operation")
    C = np.asarray(C, dtype=complex)
    if C.ndim != 2 or C.shape[0] != space.dim:
        raise ConfigurationError("coefficient length mismatch")
    reduced = (space.exponents - space.coordinate_shift[None, :])[:, 1]
    R = np.zeros((C.shape[1], space.q_reduced[0] + 1), dtype=complex)
    R[:, reduced] = (C * space.scales[:, None]).T
    return _curve_zero_sets(
        m, R, _forced_curve_zeros(space.coordinate_shift, space.sigma_polys))


def _forced_curve_zeros(shift, sigma_polys):
    """``(point, multiplicity)`` pairs of the forced zeros on P1: the
    coordinate powers ``z0^shift[0] z1^shift[1]`` and the factors
    ``Q_j^{k_j}``."""
    comps = [(("coord", i), int(shift[i])) for i in range(2)]
    comps += [(("poly", _poly_norm_key(Q), Q), k) for Q, k in sigma_polys]
    return [(pt, k) for comp, k in comps if k > 0
            for pt in curve_divisor_points(comp)]


def _curve_zero_sets(m, R, forced):
    """Point zero sets of reduced polynomials times forced zeros on P1.

    Row ``i`` of ``R`` holds the ascending chart-zero coefficients of a
    reduced polynomial of degree ``R.shape[1] - 1``; its vanishing order
    at ``[0:1]`` is the number of its top coefficients that are exactly
    zero.  Its finite roots come from ``_companion_roots``, one stacked
    companion solve per length; roots outside the unit disc get a guarded
    Newton pass in the opposite chart (``_newton_far``), all rows at once.
    Each set holds the ``forced`` points with their multiplicities, then
    the row's own zeros, clustered by ``_cluster_sets``, so its total is
    the degree of the reduced polynomial plus the forced multiplicities.
    """
    nz = R != 0
    if not nz.any(axis=1).all():
        raise ConfigurationError("the zero section vanishes everywhere")
    qr = R.shape[1] - 1
    lengths = R.shape[1] - np.argmax(nz[:, ::-1], axis=1)
    try:
        roots = _companion_roots(R, lengths)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"companion eigenvalues failed: {exc}")
    sizes = lengths - 1
    for r, n in zip(roots, sizes.tolist()):
        if r.size != n or not np.all(np.isfinite(r)):
            raise RootFindingError(
                f"degree {n} chart polynomial produced "
                f"{int(np.isfinite(r).sum())} finite roots")
    z = np.concatenate(roots)
    far = np.abs(z) > 1.0
    if far.any():
        owner = np.repeat(np.arange(len(R)), sizes)
        z[far] = 1.0 / _newton_far(R[owner[far]], 1.0 / z[far])
    # own zeros: the finite roots, then [0:1] for each cut top coefficient
    finite = np.arange(qr)[None, :] < sizes[:, None]
    raw = np.zeros((len(R), len(forced) + qr, 2), dtype=complex)
    raw[:, :len(forced)] = np.reshape([pt for pt, _ in forced], (-1, 2))
    raw[:, len(forced):, 0] = finite
    raw[:, len(forced):, 1] = 1.0
    raw[:, len(forced):, 1][finite] = z
    mult = [k for _, k in forced] + [1] * qr
    return [ZeroSet(m, pts) for pts in _cluster_sets(m, raw, mult)]


def _newton_far(A, w, steps=3):
    """Guarded Newton steps on the roots ``w`` of the opposite chart.

    Root ``i`` belongs to the polynomial with ascending chart-zero
    coefficients ``A[i]``, that is ``sum_a A[i, a] w^(n - a)`` with
    ``n = A.shape[1] - 1`` in the chart ``w = z0 / z1``.  A step is taken
    only where it lowers ``|f|``; a rejected step would repeat itself, so
    such a root stays put.
    """

    def horner(w):
        f = np.zeros_like(w)
        df = np.zeros_like(w)
        for col in A.T:
            df = df * w + f
            f = f * w + col
        return f, df

    f, df = horner(w)
    for _ in range(steps):
        ok = df != 0
        cand = np.where(ok, w - f / np.where(ok, df, 1.0), w)
        fc, dfc = horner(cand)
        better = ok & (np.abs(fc) < np.abs(f))
        w = np.where(better, cand, w)
        f = np.where(better, fc, f)
        df = np.where(better, dfc, df)
    return w


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------


def empirical_general_position(members):
    """Whether the members cut each other in the expected codimension.

    Pairs, on a surface, must share no polynomial factor; the test is a
    proportionality check, exact common vanishing along coordinate
    divisors, and sampled resultants in both elimination directions (a
    resultant vanishing identically is the degeneracy signature).
    """
    polys = [_as_poly(s) for s in members]
    if any(p.is_zero for p in polys):
        return False
    if len(polys) == 1:
        return True
    if len(polys) != 2:
        raise ConfigurationError(
            "general position is defined for at most two members here")
    a, b = polys
    if a.manifold.dim != 2:
        raise ConfigurationError(
            "general position of a pair is a surface check")
    ga = _unit_dense(a)
    gb = _unit_dense(b)
    if a.degree == b.degree and _proportional(ga, gb):
        return False
    for coord in range(a.manifold.hom_len):
        if a.vanishing_order(coord) >= 1 and b.vanishing_order(coord) >= 1:
            return False
    bound = 2 * a.manifold.intersection_number([a.degree, b.degree]) + 1
    return not (_resultant_zero(ga, gb, 1, bound)
                or _resultant_zero(ga, gb, 0, bound))


def _proportional(ga, gb):
    """Whether the unit chart-0 grids of two sections of one degree are
    proportional, to rounding."""
    M = _padded([ga, gb]).reshape(2, -1)
    return np.linalg.svd(M, compute_uv=False)[-1] < 1e-12


def _padded(arrays):
    """Arrays with one number of axes, zero-padded to one shape, stacked."""
    out = np.zeros((len(arrays),) + tuple(np.max([a.shape for a in arrays],
                                                 axis=0)), dtype=complex)
    for row, a in zip(out, arrays):
        row[tuple(slice(k) for k in a.shape)] = a
    return out


def _unit_dense(poly):
    g = poly.chart_poly(0).dense()
    return g / np.linalg.norm(g)


def _resultant_zero(ga, gb, axis, count):
    """Whether all ``count`` resultant samples along ``axis`` vanish."""
    ts = 0.91 * np.exp(2j * np.pi * (np.arange(count) + 0.37) / count)
    for t in ts[:, None]:
        det, had = _sylvester_dets(_coeff_slices(ga, t, axis),
                                   _coeff_slices(gb, t, axis))
        if abs(det[0]) > 1e-12 * max(had[0], 1e-60):
            return False
    return True


def _coeff_slices(grid, ts, axis):
    """Coefficient rows along ``axis`` after fixing the other variable at
    each value of ``ts``, one row per value."""
    g = grid if axis == 1 else grid.T
    return npoly.polyval(ts, g).T


def _sylvester_dets(VA, VB):
    """Resultant determinants of stacked coefficient rows (ascending order).

    Row k of ``VA`` and row k of ``VB`` give the k-th Sylvester matrix.
    Returns ``(dets, hadamard)``, where the second holds each matrix's
    product of row norms; determinants below roundoff times that bound are
    indistinguishable from zero.
    """
    m, n = VA.shape[1] - 1, VB.shape[1] - 1
    # two constants (m = n = 0) give empty matrices, of determinant 1
    S = np.zeros((len(VA), m + n, m + n), dtype=complex)
    for i in range(n):
        S[:, i, i:i + m + 1] = VA[:, ::-1]
    for j in range(m):
        S[:, n + j, j:j + n + 1] = VB[:, ::-1]
    had = np.prod(np.linalg.norm(S, axis=2), axis=1)
    return np.linalg.det(S), had


# ---------------------------------------------------------------------------
# surface intersections
# ---------------------------------------------------------------------------


def common_zeros(members):
    """Common zeros of two sections on a surface, with multiplicities.

    An attempt works in a deterministic generic unitary frame, which keeps
    every point affine and separates first coordinates: the eliminant is
    interpolated from Sylvester determinants at ``bez + 1`` unit roots
    (``bez`` the intersection number of the effective degrees), the fiber
    roots of best residual over its grouped roots complete the points, and
    damped Newton polishes them in the original coordinates.  After three
    failed frames ``RootFindingError`` gives each one's reason.
    """
    polys = [_as_poly(s) for s in members]
    if len(polys) != 2:
        raise ConfigurationError("surface intersections take two members")
    m = polys[0].manifold
    if m.dim != 2:
        raise ConfigurationError("common zeros are a surface operation")
    if any(p.is_zero for p in polys):
        raise ConfigurationError("members must be nonzero sections")
    if not empirical_general_position(polys):
        raise GeneralPositionError(
            "members share a component; the common zero set is not zero "
            "dimensional")
    degrees = (polys[0].degree, polys[1].degree)
    bez = m.intersection_number(degrees)
    if bez == 0:
        return ZeroSet(m, [])

    failures = []
    for key in range(3):
        raw = _intersection_attempt(m, polys, bez, key, failures)
        if raw is not None:
            return ZeroSet(m, _cluster(m, raw))
    raise RootFindingError(
        f"could not locate all {bez} intersection points for degrees "
        f"{degrees}: " + "; ".join(failures))


def _intersection_attempt(m, polys, bez, key, failures):
    rots, unrotate = _rotate_pair(m, polys, key)
    ga = rots[0].chart_poly(0).dense()
    gb = rots[1].chart_poly(0).dense()

    ts = np.exp(2j * np.pi * np.arange(bez + 1) / (bez + 1))
    dets, _ = _sylvester_dets(_coeff_slices(ga, ts, 1),
                              _coeff_slices(gb, ts, 1))
    # values at the unit roots w^{jk} invert through the forward transform
    rc = np.fft.fft(dets) / (bez + 1)
    if abs(rc[bez]) <= 1e-9 * np.abs(rc).max():
        failures.append(f"rotation {key}: eliminant degree dropped")
        return None
    xs, counts = _grouped(np.roots(rc[::-1]))
    ys = _admissible_ys(m, rots, (ga, gb), xs, counts)
    if ys is None:
        failures.append(f"rotation {key}: no fiber roots over one "
                        "eliminant root")
        return None
    rot_pts = m.from_chart(np.stack([np.repeat(xs, counts), ys], axis=1), 0)

    raw, res = _polish_surface(m, polys, unrotate(rot_pts))
    worst = float(res.max())
    if worst > _RESIDUAL_CAP:
        failures.append(f"rotation {key}: residual {worst:.2e} after polish")
        return None
    return raw


def _grouped(xs, radius=1e-7):
    """Greedy groups of eliminant roots, as ``(centres, counts)``.

    A root joins the first group whose centre, its first member, lies
    within ``radius * max(1, |centre|)`` of it, or else starts a new group.
    """
    near = np.triu(np.abs(xs[None, :] - xs[:, None])
                   < radius * np.maximum(1.0, np.abs(xs))[:, None], 1)
    if not near.any():
        return xs, np.ones(len(xs), dtype=int)
    first, second = np.nonzero(near)
    heads, counts = _greedy(
        len(xs), set(zip(first.tolist(), second.tolist())))
    return xs[heads], np.array(counts)


def _admissible_ys(m, rots, grids, xs, counts, cap=1e-5):
    """``counts[k]`` second coordinates over each ``xs[k]``, in a row, or
    None when some root has none.

    Candidates and their scores come from ``_fiber_candidates``; per root
    the best within ``cap`` are taken, skipping near-duplicates, the last
    one repeated.
    """
    fibers, scores = _fiber_candidates(m, rots, grids, xs)
    if min(len(f) for f in fibers) == 0:
        return None
    ys = []
    for f, r, g in zip(fibers, scores, counts):
        out = []
        for i in np.argsort(r):
            if r[i] > cap:
                break
            y = complex(f[i])
            if all(abs(y - y0) >= 1e-7 * max(1.0, abs(y0)) for y0 in out):
                out.append(y)
            if len(out) == g:
                break
        if not out:
            return None
        ys.extend(out[min(j, len(out) - 1)] for j in range(g))
    return np.array(ys)


def _fiber_candidates(m, rots, grids, xs):
    """The roots of both rotated sections' fiber rows over each ``xs[k]``
    (one ``_fiber_roots`` call) and their scores, two lists.

    A score is the larger of the sections' ``eval_hom`` values at the
    normalized point over their coefficient norms, computed as the Horner
    value of the fiber row times ``prod_f |(1, z_f)|^(-d_f)``, one factor
    per projective factor.
    """
    rows = [_coeff_slices(g, xs, 1) for g in grids]
    n = len(xs)
    roots = _fiber_roots(_padded(rows).reshape(2 * n, -1))
    fibers = [np.concatenate([roots[k], roots[n + k]]) for k in range(n)]
    sizes = [len(f) for f in fibers]
    owner = np.repeat(np.arange(n), sizes)
    ys = np.concatenate(fibers)
    lift = np.sqrt(1.0 + m.factor_squares(np.stack([xs[owner], ys], axis=1)))
    score = np.zeros(len(ys))
    for rp, r in zip(rots, rows):
        val = np.zeros(len(ys), dtype=complex)
        for col in r[owner].T[::-1]:
            val = val * ys + col
        val = val * np.prod(lift ** -np.array(rp.degree, dtype=float), axis=1)
        score = np.maximum(score, np.abs(val) / np.linalg.norm(rp.coeffs))
    return fibers, np.split(score, np.cumsum(sizes)[:-1])


def _fiber_roots(V):
    """``np.roots`` of each row of ascending coefficients ``V`` once its top
    coefficients of at most 1e-12 times the row's largest are cut (none for
    a zero row or a constant), by ``_companion_roots``."""
    A = np.abs(V)
    top = A.max(axis=1)
    keep = V.shape[1] - np.argmax((A > 1e-12 * top[:, None])[:, ::-1], axis=1)
    return _companion_roots(V, np.where(top != 0.0, keep, 0))


def _companion_roots(V, lengths):
    """``np.roots`` of the first ``lengths[i]`` ascending coefficients of
    each row ``V[i]`` (none below length 2), bit for bit.

    Rows of one length are one stack of companion matrices, built as
    ``np.roots`` builds them; rows with a zero coefficient at either end,
    which ``np.roots`` strips, go to ``np.roots``.
    """
    out = [np.zeros(0, dtype=complex)] * len(V)
    stacks = {}
    for i in np.flatnonzero(lengths > 1).tolist():
        n = int(lengths[i])
        if V[i, 0] != 0 and V[i, n - 1] != 0:
            stacks.setdefault(n, []).append(i)
        else:
            out[i] = np.roots(V[i, n - 1::-1])
    for n, rows in stacks.items():
        P = V[rows, n - 1::-1]
        C = np.zeros((len(rows), n - 1, n - 1), dtype=complex)
        C[:, 0] = -P[:, 1:] / P[:, :1]
        C[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
        for i, r in zip(rows, np.linalg.eigvals(C)):
            out[i] = r
    return out


def _polish_surface(m, polys, pts, steps=30):
    """Damped Newton polish of approximate common zeros (homogeneous rows).

    Each point moves in the chart of its largest coordinate, by its own
    rule: at most ``steps`` Newton steps, each halved up to 9 times until
    the scaled residual drops; a point stops when no halving helps, when
    its Jacobian is singular or once the residual is below 1e-15.  The
    points of all charts step together, each on its chart's dense grids
    (``_newton_stack``).  Returns the polished points and the residual of
    each, the larger of the two sections' ``eval_hom`` values relative to
    their coefficient norms.
    """
    pts = m.normalize(pts)
    scales = np.array([np.linalg.norm(p.coeffs) for p in polys])
    split = list(m.chart_split(pts))
    z = np.empty((len(pts), m.dim), dtype=complex)
    own = np.empty(len(pts), dtype=int)
    for k, (_, sel, Z) in enumerate(split):
        z[sel], own[sel] = Z, k
    z = _newton_stack(_chart_grids(polys, [c for c, _, _ in split]), own, z,
                      scales, steps)
    out = np.empty_like(pts)
    for chart, sel, _ in split:
        out[sel] = m.from_chart(z[sel], chart)
    res = np.max([np.abs(p.eval_hom(out)) / s
                  for p, s in zip(polys, scales)], axis=0)
    return out, res


def _chart_grids(polys, charts):
    """Dense grids ``(charts, sections, 3, X, Y)`` of each section's chart
    polynomial and its two partials (exponent shifts), zero-padded."""
    grids = []
    for chart in charts:
        for p in polys:
            g = p.chart_poly(chart).dense()
            grids += [g, g[1:] * np.arange(1, g.shape[0])[:, None],
                      g[:, 1:] * np.arange(1, g.shape[1])]
    out = _padded(grids)
    return out.reshape(len(charts), len(polys), 3, *out.shape[1:])


def _newton_stack(G, own, z, scales, steps):
    """``_polish_surface``'s Newton iteration, in place, on chart points
    ``z``, point ``i`` on the grids ``G[own[i]]`` of ``_chart_grids``.  The
    full steps are evaluated first, then in one call the eight halvings of
    the points they do not improve; each point takes the first that lowers
    its residual, as a loop over the halvings would."""
    halvings = 0.5 ** np.arange(9)

    def values(zz, k):
        Vx = np.vander(zz[:, 0], G.shape[-2], increasing=True)
        Vy = np.vander(zz[:, 1], G.shape[-1], increasing=True)
        out = np.empty((len(zz),) + G.shape[1:3], dtype=complex)
        for c, grids in enumerate(G):
            sel = k == c
            out[sel] = np.einsum("fdxy,nx,ny->nfd", grids, Vx[sel], Vy[sel])
        return out

    def resid(f):
        return np.max(np.abs(f) / scales, axis=-1)

    v = values(z, own)
    best = resid(v[:, :, 0])
    live = np.arange(len(z))
    for _ in range(steps):
        if not live.size:
            break
        step, solved = _solve_stacked(v[live, :, 1:], -v[live, :, 0])
        live, step = live[solved], step[solved]
        todo = np.arange(live.size)  # the points no step has improved yet
        for h in (halvings[:1], halvings[1:]):
            if not todo.size:
                break
            pts = live[todo]
            zc = z[pts] + h[:, None, None] * step[todo]
            vc = values(zc.reshape(-1, 2), np.tile(own[pts], h.size))
            vc = vc.reshape(h.size, pts.size, *v.shape[1:])
            rc = resid(vc[..., 0])
            ok = rc < best[pts]
            j = np.flatnonzero(ok.any(axis=0))
            k = np.argmax(ok[:, j], axis=0)
            z[pts[j]], v[pts[j]], best[pts[j]] = zc[k, j], vc[k, j], rc[k, j]
            todo = np.delete(todo, j)
        live = np.delete(live, todo)
        live = live[~(best[live] < 1e-15)]
    return z


def _solve_stacked(J, rhs):
    """Solutions of the 2x2 systems ``J[i] x = rhs[i]`` and which exist.

    LAPACK rejects a whole stack for one singular member, so only then are
    the systems solved one by one to find it.
    """
    try:
        return (np.linalg.solve(J, rhs[:, :, None])[:, :, 0],
                np.ones(len(rhs), dtype=bool))
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(rhs)
    ok = np.ones(len(rhs), dtype=bool)
    for i in range(len(rhs)):
        try:
            out[i] = np.linalg.solve(J[i], rhs[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return out, ok


# -- deterministic generic rotations ------------------------------------------


def _generic_unitary(n, key):
    rng = np.random.default_rng(
        np.random.SeedSequence(_ROTATION_ENTROPY, spawn_key=(n,) + key))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def _rotate_pair(m, polys, key):
    """The pair pulled back by one generic unitary frame per factor, and
    the map taking points of the rotated pair back."""
    Us = [_generic_unitary(sl.stop - sl.start,
                           (key,) if m.factors == 1 else (key, f))
          for f, sl in enumerate(m.factor_slices)]
    rots = [_pullback(p, Us) for p in polys]

    def unrotate(pts):
        return np.concatenate([pts[:, sl] @ U.T
                               for sl, U in zip(m.factor_slices, Us)], axis=1)

    return rots, unrotate


def _pullback(poly, Us):
    """The exact pullback ``x -> s(U_f x_f)`` by one unitary per factor,
    via chart-zero values on a DFT grid of ``degree_f + 1`` unit roots per
    axis of factor f."""
    m = poly.manifold
    if not any(poly.degree):
        return poly
    sizes = [poly.degree[f] + 1 for f in m.axis_factors]
    mesh = np.meshgrid(*[np.exp(2j * np.pi * np.arange(K) / K)
                         for K in sizes], indexing="ij")
    ones = np.ones(mesh[0].size, dtype=complex)
    V = np.concatenate([
        np.stack([ones] + [mesh[a].ravel()
                           for a in range(sl.start, sl.stop)], axis=1) @ U.T
        for sl, U in zip(m.axis_slices, Us)], axis=1)
    vals = poly.eval_hom(V).reshape(sizes)
    grid = np.fft.fft2(vals) / vals.size
    cut = 1e-13 * np.abs(grid).max()
    # grid index -> exponent row; a factor's axes sum to at most its degree
    idx = np.indices(sizes).reshape(len(sizes), -1).T
    ok = np.ones(len(idx), dtype=bool)
    parts = []
    for sl, d in zip(m.axis_slices, poly.degree):
        t = idx[:, sl]
        ok &= t.sum(axis=1) <= d
        parts += [d - t.sum(axis=1, keepdims=True), t]
    coeffs = grid.reshape(-1)[ok]
    keep = np.abs(coeffs) > cut
    if not keep.any():
        raise NumericalError("rotation wiped out a nonzero section")
    return SectionPoly(m, poly.degree, np.concatenate(parts, axis=1)[ok][keep],
                       coeffs[keep])


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def zero_pairing(zeroset, form):
    """``<[zero set], form>``: ``point_pairings`` of one set and one form."""
    return float(point_pairings([zeroset], [form])[0, 0])


def point_pairings(zerosets, forms):
    """``<[Z_i], f_j>`` of point zero sets ``Z_i``: the (sets, forms) matrix.

    A point pairs with the form's function value times its multiplicity,
    by :func:`kahlerlab.bundles.point_mass_pairings` of all sets at once,
    so every entry is the same number whatever other sets share the call.
    Forms must be scalar (no omega part).
    """
    zerosets = list(zerosets)
    forms = list(forms)
    if any(f.omega_part is not None for f in forms):
        raise ConfigurationError(
            "point masses pair with scalar test functions")
    manifold = zerosets[0].manifold if zerosets else None
    return point_mass_pairings(manifold, forms,
                               [zs.points for zs in zerosets])


def zero_pairings(space, seeds, forms, rule=None):
    """``<[s_i = 0], f_j>`` for ``s_i = sample_section(space, seeds[i])``.

    Returns the (samples, forms) matrix.  The samples' coefficients are
    the columns of one matrix ``C``.  On curves the zero sets of all
    samples come from one :func:`curve_zero_sets` call and pair as points
    in one ``point_pairings`` call; ``rule`` is not used.  On surfaces the
    zero divisors pair through their log-norm potentials over ``rule``:

        <[s = 0], f> = int log|s|_h dd^c f + p <c1(L, h), f> (+ <c1(K), f>)

    where the last term enters for adjoint spaces.  The metric perturbation
    enters both terms and cancels, so :func:`fscurrents.log_norm_pairings`
    pairs the reference-frame log-norms with the reference class instead.
    The integral is linear in the log-norm, so every form contributes one
    weight vector per quadrature block (``dd^c`` density times quadrature
    weight) and one constant, whatever the number of sections; the
    sections' log-norms fill a (nodes, samples) matrix whose product with
    those weights gives the pairings.
    """
    forms = list(forms)
    C = np.stack([sample_section(space, seed).coeffs for seed in seeds],
                 axis=1)
    if space.manifold.dim == 1:
        return point_pairings(curve_zero_sets(space, C), forms)
    return log_norm_pairings(space, forms, rule, sections=C)


def potential_rule(metric, resolution=None):
    """The quadrature rule of log-norm potentials of ``metric``'s sections.

    Resolution 48 on curves and 8 on surfaces unless ``resolution`` is
    given, refined at the metric's pole centers: potentials are
    log-singular there and plain tensor rules lose their spectral accuracy.
    """
    m = metric.manifold
    res = resolution or (48 if m.dim == 1 else 8)
    centers = metric.refinement_centers()
    return quadrature_nodes(m, res, singular_refinement=centers or None)


def expected_zero_residuals(space, forms, num_samples, seed, rule=None):
    """Monte Carlo gaps between mean zero pairings and the family current.

    Sample ``i`` is ``sample_section(space, seed + (i,))``.  Returns the
    per-form arrays ``(targets, means, gaps, ses)``: ``p`` times the family
    current pairing (the exact expectation under the sampling law), the
    sample mean of the zero pairings, their absolute gap and the standard
    error of the mean.  ``rule`` defaults to the ``potential_rule`` of the
    space's metric.  One walk over it pairs the family and, on surfaces,
    the samples' zero divisors; on curves the zeros pair as points.
    """
    if num_samples < MIN_EXPECTED_ZERO_SAMPLES:
        raise ConfigurationError(
            f"at least {MIN_EXPECTED_ZERO_SAMPLES} samples are needed for a "
            "stable standard error")
    forms = list(forms)
    if rule is None:
        rule = potential_rule(space.metric)
    key = _seed_key(seed)
    C = np.stack([sample_section(space, key + (i,)).coeffs
                  for i in range(num_samples)], axis=1)
    curve = space.manifold.dim == 1
    rows = log_norm_pairings(space, forms, rule, sections=None if curve else C,
                             family=True)
    targets = space.p * (rows[0] / space.p)
    vals = (point_pairings(curve_zero_sets(space, C), forms) if curve
            else rows[1:])
    means = np.array([col.mean() for col in vals.T])
    ses = np.array([col.std(ddof=1) for col in vals.T])
    ses = ses / math.sqrt(num_samples)
    return targets, means, np.abs(means - targets), ses
