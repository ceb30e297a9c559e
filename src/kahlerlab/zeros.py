"""Random sections, their zero sets, and zero-current pairings.

Sampling draws standard complex Gaussian coefficients in the orthonormal
frame of a section space and normalizes, which is the unique unitarily
invariant law on the projective space of sections.  Zero sets on curves come
from companion-matrix roots with a second-chart Newton pass for roots near
infinity; on surfaces, pairs of sections are intersected by resultant
elimination in a generically rotated frame, followed by Newton polish in the
original coordinates.  Point totals are checked against the intersection
number of the effective degrees, never inferred.

Seed records are integer tuples ``(master, index, ...)``; every derived
stream is spawned from the master entropy through the remaining entries, so
per-sample results do not depend on evaluation order.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bundles import (curvature_pairing, ddc_weights, finite_potential,
                      pair_omega_basis)
from .bundles import ddc_pairing  # noqa: F401 - stays importable from here
from .errors import (
    ConfigurationError,
    DegenerateSpaceError,
    GeneralPositionError,
    NumericalError,
    RootFindingError,
)
from .fscurrents import form_values_hom, fs_pairing
from .geometry import quadrature_nodes
from .polynomials import SectionPoly

# Zeros closer than this in chordal distance are one point; random sections
# have simple zeros almost surely, so clusters of size > 1 only appear in
# constructed degenerate inputs.
_CLUSTER_RADIUS = 1e-8

# Relative evaluation residual accepted for a computed intersection point.
_RESIDUAL_CAP = 1e-7

# Entropy of the deterministic frame rotations used by the surface solver.
_ROTATION_ENTROPY = 172803

# Log-norm values (nodes x sections) evaluated per chunk by the batched
# divisor pairing, about 1.5 MB of temporaries; the products are memory
# bound, so larger chunks gain no speed and only raise peak memory.
_LOG_NORM_CHUNK = 1 << 16


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

    def __init__(self, space, coeffs, seed=None):
        c = np.asarray(coeffs, dtype=complex).reshape(-1)
        if c.size != space.dim:
            raise ConfigurationError("coefficient length mismatch")
        nrm = np.linalg.norm(c)
        if nrm == 0.0:
            raise ConfigurationError("the zero section has no direction")
        self.space = space
        self.coeffs = c / nrm
        self.seed = None if seed is None else _seed_key(seed)
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
        as logarithms, so nodes near an off-axis pole keep finite values.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
        sp = self.space
        return (_log_modulus(sp.monomial_values(chart, Z) @ self.coeffs)
                + _log_norm_base(sp, chart, Z))


class SectionTuple:
    """A finite family of sections drawn from the product measure."""

    _STATES = ("unchecked", "verified", "failed")

    def __init__(self, members, seed=None, general_position="unchecked"):
        members = list(members)
        if not members:
            raise ConfigurationError("a section tuple needs members")
        if general_position not in self._STATES:
            raise ConfigurationError(
                f"general_position must be one of {self._STATES}")
        man = _as_poly(members[0]).manifold
        for s in members[1:]:
            if _as_poly(s).manifold != man:
                raise ConfigurationError("members live on one manifold")
        self.members = members
        self.seed = None if seed is None else _seed_key(seed)
        self.general_position = general_position

    @property
    def manifold(self):
        return _as_poly(self.members[0]).manifold

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


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
    rng = _rng(_seed_key(seed))
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return Section(space, v, seed=seed)


def sample_tuple(spaces, seed):
    """Independent draws, one per space, under the product measure.

    Splitting rule: the tuple seed ``(master, i...)`` gives member ``k`` the
    record ``(master, i..., k)``, so member streams are disjoint and a new
    master changes every member.
    """
    key = _seed_key(seed)
    members = [sample_section(sp, key + (k,)) for k, sp in enumerate(spaces)]
    return SectionTuple(members, seed=key)


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------


class ZeroSet:
    """The zero locus of a section (or tuple), as points or as a divisor.

    Points mode stores ``(homogeneous point, multiplicity)`` pairs whose
    multiplicities sum to the intersection number of the effective degrees.
    Divisor mode keeps the section itself; pairings go through its global
    log-norm potential.
    """

    def __init__(self, manifold, mode, points=None, section=None,
                 degrees=None, target=None):
        if mode not in ("points", "divisor"):
            raise ConfigurationError(f"unknown zero set mode {mode!r}")
        self.manifold = manifold
        self.mode = mode
        self.points = points if points is not None else []
        self.section = section
        self.degrees = degrees
        self.target = target

    @property
    def total_multiplicity(self):
        if self.mode != "points":
            raise ConfigurationError("only point configurations have counts")
        return sum(k for _, k in self.points)


def _cluster(manifold, raw):
    points = []
    for pt in raw:
        pt = manifold.normalize(np.asarray(pt, dtype=complex)[None])[0]
        for i, (c, k) in enumerate(points):
            if float(manifold.chordal_distance(pt[None], c[None])[0]) \
                    < _CLUSTER_RADIUS:
                points[i] = (c, k + 1)
                break
        else:
            points.append((pt, 1))
    return points


def zeros_on_curve(section):
    """All zeros of a section on the curve, with multiplicities.

    Companion-matrix roots of the chart-zero polynomial cover the finite
    zeros; roots outside the unit disc get a Newton pass in the opposite
    chart, and the vanishing order at the far pole is read off the exponents
    exactly, so the total always equals the section degree.
    """
    poly = _as_poly(section)
    m = poly.manifold
    if m.kind != "P1":
        raise ConfigurationError("curve zeros are a P1 operation")
    if poly.is_zero:
        raise ConfigurationError("the zero section vanishes everywhere")
    q = poly.degree[0]
    sec = section if isinstance(section, Section) else None
    if q == 0:
        return ZeroSet(m, "points", points=[], section=sec,
                       degrees=(0,), target=0)
    c = poly.chart_poly(0).dense()
    deg0 = len(c) - 1
    try:
        roots = np.roots(c[::-1]) if deg0 > 0 else np.zeros(0, dtype=complex)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RootFindingError(f"companion eigenvalues failed: {exc}")
    if roots.size != deg0 or not np.all(np.isfinite(roots)):
        raise RootFindingError(
            f"degree {deg0} chart polynomial produced {roots.size} finite "
            "roots")
    far = np.abs(roots) > 1.0
    if np.any(far):
        roots[far] = 1.0 / _newton_p1(poly.chart_poly(1), 1.0 / roots[far])
    raw = [np.array([1.0, z]) for z in roots]
    raw += [np.array([0.0, 1.0])] * (q - deg0)
    return ZeroSet(m, "points", points=_cluster(m, raw), section=sec,
                   degrees=(q,), target=q)


def _newton_p1(cp, w, steps=3):
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


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------


def empirical_general_position(members):
    """Whether the members cut each other in the expected codimension.

    Pairs must share no polynomial factor; the test is a proportionality
    check, exact common vanishing along coordinate divisors, and sampled
    resultants in both elimination directions (a resultant vanishing
    identically is the degeneracy signature).  A `SectionTuple` records the
    verdict on its ``general_position`` field.
    """
    tup = members if isinstance(members, SectionTuple) else None
    polys = [_as_poly(s) for s in (members if tup is None else tup.members)]
    ok = _general_position(polys)
    if tup is not None:
        tup.general_position = "verified" if ok else "failed"
    return ok


def _general_position(polys):
    if any(p.is_zero for p in polys):
        return False
    if len(polys) == 1:
        return True
    if len(polys) != 2:
        raise ConfigurationError(
            "general position is defined for at most two members here")
    a, b = polys
    if a.manifold.dim == 1:
        return not _binary_resultant_zero(a, b)
    if _proportional(a, b):
        return False
    for coord in range(a.manifold.hom_len):
        if a.vanishing_order(coord) >= 1 and b.vanishing_order(coord) >= 1:
            return False
    ga = _unit_dense(a)
    gb = _unit_dense(b)
    bound = 2 * _bezout_pair(a.manifold.kind, a.degree, b.degree) + 1
    return not (_resultant_zero(ga, gb, 1, bound)
                or _resultant_zero(ga, gb, 0, bound))


def _proportional(a, b):
    if a.degree != b.degree:
        return False
    keys = {tuple(int(x) for x in e) for e in a.exponents}
    keys |= {tuple(int(x) for x in e) for e in b.exponents}
    keys = sorted(keys)
    idx = {k: i for i, k in enumerate(keys)}
    M = np.zeros((2, len(keys)), dtype=complex)
    for row, p in enumerate((a, b)):
        for e, c in zip(p.exponents, p.coeffs):
            M[row, idx[tuple(int(x) for x in e)]] = c
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] < 1e-12


def _unit_dense(poly):
    g = poly.chart_poly(0).dense()
    return g / np.linalg.norm(g)


def _binary_resultant_zero(a, b):
    # full nominal-length coefficient vectors keep roots at infinity visible
    va = np.zeros(a.degree[0] + 1, dtype=complex)
    vb = np.zeros(b.degree[0] + 1, dtype=complex)
    va[a.exponents[:, 1]] = a.coeffs
    vb[b.exponents[:, 1]] = b.coeffs
    va /= np.linalg.norm(va)
    vb /= np.linalg.norm(vb)
    det, had = _sylvester_det(va, vb)
    return abs(det) <= 1e-12 * max(had, 1e-60)


def _resultant_zero(ga, gb, axis, count):
    ts = 0.91 * np.exp(2j * np.pi * (np.arange(count) + 0.37) / count)
    for t in ts:
        det, had = _sylvester_det(_coeff_slice(ga, t, axis),
                                  _coeff_slice(gb, t, axis))
        if abs(det) > 1e-12 * max(had, 1e-60):
            return False
    return True


def _coeff_slice(grid, t, axis):
    """Coefficients along ``axis`` after fixing the other variable at t."""
    g = grid if axis == 1 else grid.T
    return np.atleast_1d(npoly.polyval(t, g))


def _sylvester_det(va, vb):
    """Resultant determinant of two coefficient vectors (ascending order).

    Returns ``(det, hadamard)`` where the second entry is the product of
    row norms; determinants below roundoff times that bound are
    indistinguishable from zero.
    """
    m = len(va) - 1
    n = len(vb) - 1
    if m < 0 or n < 0:
        return 0.0, 1.0
    if m + n == 0:
        return 1.0, 1.0
    S = np.zeros((m + n, m + n), dtype=complex)
    ra = va[::-1]
    rb = vb[::-1]
    for i in range(n):
        S[i, i:i + m + 1] = ra
    for j in range(m):
        S[n + j, j:j + n + 1] = rb
    had = float(np.prod(np.linalg.norm(S, axis=1)))
    return complex(np.linalg.det(S)), had


# ---------------------------------------------------------------------------
# surface intersections
# ---------------------------------------------------------------------------


def _bezout_pair(kind, da, db):
    if kind == "P2":
        return da[0] * db[0]
    return da[0] * db[1] + da[1] * db[0]


def common_zeros(members):
    """Common zeros of two sections on a surface, with multiplicities.

    One variable is eliminated through sampled Sylvester determinants in a
    deterministic generic unitary frame (which keeps every intersection
    point affine and separates their first coordinates); interpolated
    resultant roots are back-substituted, polished by damped Newton in the
    original coordinates, and clustered.  The total must equal the
    intersection number of the effective degrees.
    """
    tup = members if isinstance(members, SectionTuple) else None
    polys = [_as_poly(s) for s in (members if tup is None else tup.members)]
    if len(polys) != 2:
        raise ConfigurationError("surface intersections take two members")
    m = polys[0].manifold
    if m.dim != 2:
        raise ConfigurationError("common zeros are a surface operation")
    if any(p.is_zero for p in polys):
        raise ConfigurationError("members must be nonzero sections")
    if tup is not None and tup.general_position == "failed":
        raise GeneralPositionError("tuple is on record as degenerate")
    if tup is None or tup.general_position == "unchecked":
        ok = _general_position(polys)
        if tup is not None:
            tup.general_position = "verified" if ok else "failed"
        if not ok:
            raise GeneralPositionError(
                "members share a component; the common zero set is not "
                "zero dimensional")
    degrees = (polys[0].degree, polys[1].degree)
    bez = _bezout_pair(m.kind, *degrees)
    if bez == 0:
        return ZeroSet(m, "points", points=[], degrees=degrees, target=0)

    failures = []
    for key in range(3):
        raw = _intersection_attempt(m, polys, bez, key, failures)
        if raw is not None:
            return ZeroSet(m, "points", points=_cluster(m, raw),
                           degrees=degrees, target=bez)
    raise RootFindingError(
        f"could not locate all {bez} intersection points for degrees "
        f"{degrees}: " + "; ".join(failures))


def _intersection_attempt(m, polys, bez, key, failures):
    rots, unrotate = _rotate_pair(m, polys, key)
    ga = rots[0].chart_poly(0).dense()
    gb = rots[1].chart_poly(0).dense()

    ts = np.exp(2j * np.pi * np.arange(bez + 1) / (bez + 1))
    dets = np.array([_sylvester_det(_coeff_slice(ga, t, 1),
                                    _coeff_slice(gb, t, 1))[0]
                     for t in ts])
    # values at the unit roots w^{jk} invert through the forward transform
    rc = np.fft.fft(dets) / (bez + 1)
    if abs(rc[bez]) <= 1e-9 * np.abs(rc).max():
        failures.append(f"rotation {key}: eliminant degree dropped")
        return None
    xs = np.roots(rc[::-1])

    rot_pts = []
    for x, g in _grouped(xs):
        ys = _admissible_ys(m, rots, ga, gb, x, g)
        if not ys:
            failures.append(f"rotation {key}: no fiber roots over one "
                            "eliminant root")
            return None
        for i in range(g):
            rot_pts.append(m.from_chart([[x, ys[min(i, len(ys) - 1)]]], 0)[0])

    raw = []
    worst = 0.0
    for pt in unrotate(np.array(rot_pts)):
        polished, res = _polish_surface(m, polys, pt)
        worst = max(worst, res)
        raw.append(polished)
    if worst > _RESIDUAL_CAP:
        failures.append(f"rotation {key}: residual {worst:.2e} after polish")
        return None
    return raw


def _grouped(xs, radius=1e-7):
    groups = []
    for x in xs:
        for i, (c, g) in enumerate(groups):
            if abs(x - c) < radius * max(1.0, abs(c)):
                groups[i] = (c, g + 1)
                break
        else:
            groups.append((x, 1))
    return groups


def _admissible_ys(m, rots, ga, gb, x, g, cap=1e-5):
    cands = []
    for grid in (ga, gb):
        v = _coeff_slice(grid, x, 1)
        top = np.abs(v).max()
        if top == 0.0:
            continue
        keep = len(v)
        while keep > 1 and abs(v[keep - 1]) <= 1e-12 * top:
            keep -= 1
        if keep > 1:
            cands.extend(np.roots(v[keep - 1::-1]))
    if not cands:
        return []
    pts = m.from_chart(np.stack([np.full(len(cands), x, dtype=complex),
                                 np.asarray(cands)], axis=1), 0)
    res = np.zeros(len(cands))
    for rp in rots:
        res = np.maximum(
            res, np.abs(rp.eval_hom(pts)) / np.linalg.norm(rp.coeffs))
    order = np.argsort(res)
    out = []
    for i in order:
        if res[i] > cap:
            break
        y = complex(cands[i])
        if all(abs(y - y0) >= 1e-7 * max(1.0, abs(y0)) for y0 in out):
            out.append(y)
        if len(out) == g:
            break
    return out


def _polish_surface(m, polys, pt, steps=30):
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
            zc = z + step
            fc = fval(zc)
            rc = float(np.max(np.abs(fc) / scales))
            if rc < best:
                z, f, best = zc, fc, rc
                improved = True
                break
            step = 0.5 * step
        if not improved or best < 1e-15:
            break
    hom = m.from_chart(z[None], chart)[0]
    res = float(max(np.abs(p.eval_hom(hom[None])[0])
                    / np.linalg.norm(p.coeffs) for p in polys))
    return hom, res


# -- deterministic generic rotations ------------------------------------------


def _generic_unitary(n, key):
    rng = np.random.default_rng(
        np.random.SeedSequence(_ROTATION_ENTROPY, spawn_key=(n,) + key))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def _rotate_pair(m, polys, key):
    if m.kind == "P2":
        U = _generic_unitary(3, (key,))
        rots = [_compose_p2(p, U) for p in polys]
        return rots, lambda pts: pts @ U.T
    Uz = _generic_unitary(2, (key, 0))
    Uw = _generic_unitary(2, (key, 1))
    rots = [_compose_p1xp1(p, Uz, Uw) for p in polys]

    def unrotate(pts):
        return np.concatenate([pts[:, :2] @ Uz.T, pts[:, 2:] @ Uw.T], axis=1)

    return rots, unrotate


def _compose_p2(poly, U):
    """The exact pullback ``x -> s(U x)`` via chart values on a DFT grid."""
    d = poly.degree[0]
    if d == 0:
        return poly
    K = d + 1
    w = np.exp(2j * np.pi * np.arange(K) / K)
    X, Y = np.meshgrid(w, w, indexing="ij")
    V = np.stack([np.ones(K * K, dtype=complex), X.ravel(), Y.ravel()],
                 axis=1)
    vals = poly.eval_hom(V @ U.T).reshape(K, K)
    grid = np.fft.fft2(vals) / (K * K)
    cut = 1e-13 * np.abs(grid).max()
    items = {}
    for a in range(K):
        for b in range(K - a):
            if abs(grid[a, b]) > cut:
                items[(d - a - b, a, b)] = grid[a, b]
    if not items:
        raise NumericalError("rotation wiped out a nonzero section")
    return SectionPoly.from_coeff_map(poly.manifold, d, items)


def _compose_p1xp1(poly, Uz, Uw):
    d1, d2 = poly.degree
    K1, K2 = d1 + 1, d2 + 1
    wz = np.exp(2j * np.pi * np.arange(K1) / K1)
    ww = np.exp(2j * np.pi * np.arange(K2) / K2)
    Xz, Xw = np.meshgrid(wz, ww, indexing="ij")
    zh = np.stack([np.ones(K1 * K2, dtype=complex), Xz.ravel()], axis=1)
    wh = np.stack([np.ones(K1 * K2, dtype=complex), Xw.ravel()], axis=1)
    V = np.concatenate([zh @ Uz.T, wh @ Uw.T], axis=1)
    vals = poly.eval_hom(V).reshape(K1, K2)
    grid = np.fft.fft2(vals) / (K1 * K2)
    cut = 1e-13 * np.abs(grid).max()
    items = {}
    for a in range(K1):
        for b in range(K2):
            if abs(grid[a, b]) > cut:
                items[(d1 - a, a, d2 - b, b)] = grid[a, b]
    if not items:
        raise NumericalError("rotation wiped out a nonzero section")
    return SectionPoly.from_coeff_map(poly.manifold, (d1, d2), items)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def divisor_zero_set(section):
    """The zero divisor of a section, kept as its log-norm potential."""
    if not isinstance(section, Section):
        raise ConfigurationError(
            "divisor pairings need the metric context of a Section")
    return ZeroSet(section.manifold, "divisor", section=section,
                   degrees=section.space.q)


def zero_pairing(zeroset, form, rule=None):
    """``<[zero set], form>``.

    Point configurations pair with the plain function values.  Divisors pair
    through the global potential: the log-norm integrates against ``dd^c`` of
    the form, and the curvature of the twisted metric restores the closed
    part; the computation is that of ``zero_pairings`` with one section and
    one form.  Singular metrics want a rule refined at their pole centers.
    """
    if zeroset.mode == "points":
        if form.omega_part is not None:
            raise ConfigurationError(
                "point masses pair with scalar test functions")
        if not zeroset.points:
            return 0.0
        vals = form_values_hom(zeroset.manifold, form,
                               np.stack([p for p, _ in zeroset.points]))
        return float(sum(k * v for (_, k), v
                         in zip(zeroset.points, vals)))
    sec = zeroset.section
    return float(_divisor_pairings(sec.space, sec.coeffs[:, None], [form],
                                   rule)[0, 0])


def zero_pairings(space, seeds, forms, rule=None):
    """``<[s_i = 0], f_j>`` for ``s_i = sample_section(space, seeds[i])``.

    Returns the (samples, forms) matrix.  On curves each sample's zeros are
    located and paired as points; ``rule`` is not used.  On surfaces the
    zero divisors pair through their log-norm potentials over ``rule``:

        <[s = 0], f> = int log|s|_h dd^c f + p <c1(L, h), f> (+ <c1(K), f>)

    where the last term enters for adjoint spaces.  The integral is linear
    in ``log|s|_h``, so every form contributes one weight vector per
    quadrature block (``dd^c`` density times quadrature weight) and one
    constant, whatever the number of sections; the sections' log-norms fill
    a (nodes, samples) matrix whose product with those weights gives the
    pairings.
    """
    forms = list(forms)
    if space.manifold.dim == 1:
        out = np.empty((len(seeds), len(forms)))
        for i, seed in enumerate(seeds):
            zs = zeros_on_curve(sample_section(space, seed))
            out[i] = [zero_pairing(zs, f) for f in forms]
        return out
    C = np.stack([sample_section(space, seed).coeffs for seed in seeds],
                 axis=1)
    return _divisor_pairings(space, C, forms, rule)


def _divisor_pairings(space, C, forms, rule):
    """Divisor pairings of the sections with coefficient columns ``C``.

    Per quadrature block the forms' node weights, the scaled monomials and
    the sample-independent part of the log-norm are computed once; the
    sections are evaluated together, in column chunks that keep each
    (nodes, samples) array within ``_LOG_NORM_CHUNK`` entries.  A section
    non-finite at too many nodes of a block raises as in ``ddc_pairing``.
    """
    m = space.manifold
    if rule is None:
        raise ConfigurationError("divisor pairings need a quadrature rule")
    if m.dim == 2 and any(f.omega_part is None for f in forms):
        raise ConfigurationError(
            "divisor currents on surfaces pair with omega-carrying forms")
    out = np.zeros((C.shape[1], len(forms)))
    for b in rule.capped_blocks():
        W = np.stack([ddc_weights(f, b) for f in forms], axis=1)
        M = space.monomial_values(b.chart, b.points)
        base = _log_norm_base(space, b.chart, b.points)
        step = max(1, _LOG_NORM_CHUNK // M.shape[0])
        for lo in range(0, C.shape[1], step):
            U = _log_modulus(M @ C[:, lo:lo + step]) + base[:, None]
            out[lo:lo + step] += finite_potential(U, integrable=True).T @ W
    for j, f in enumerate(forms):
        const = space.p * curvature_pairing(space.metric, f, rule)
        if space.adjoint:
            for i, cdeg in enumerate(m.canonical_degree):
                const += cdeg * pair_omega_basis(i, f, rule)
        out[:, j] += const
    return out


def _log_modulus(values):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


def _log_norm_base(space, chart, Z):
    """The part of ``log |s|_h`` shared by every section of the space.

    Metric weight, adjoint twist and the forced factors ``sum_j k_j
    log|Q_j|``: adding ``log`` of the monomial part of a section gives its
    log-norm.
    """
    u = -space.p * space.metric.weight(chart, Z)
    if space.adjoint:
        u += 0.5 * np.log(space.manifold.canonical_factor(chart, Z))
    for Q, k in space.sigma_polys:
        u += k * _log_modulus(Q.chart_poly(chart).eval(Z))
    return u


def expected_zero_residual(space, form, num_samples, seed, rule=None,
                           route="potential"):
    """Monte Carlo gap between mean zero pairings and the family current.

    Returns ``(gap, standard_error)`` where the gap compares the sample mean
    of ``<[s_i = 0], form>`` with ``p`` times the family current pairing (the
    exact expectation under the sampling law), and the second entry is the
    standard error of that mean.
    """
    if num_samples < 100:
        raise ConfigurationError(
            "at least 100 samples are needed for a stable standard error")
    m = space.manifold
    if rule is None:
        centers = space.metric.refinement_centers() or None
        rule = quadrature_nodes(m, 48 if m.dim == 1 else 8,
                                singular_refinement=centers)
    target = space.p * fs_pairing(space, form, rule, route=route)
    key = _seed_key(seed)
    vals = zero_pairings(space, [key + (i,) for i in range(num_samples)],
                         [form], rule)[:, 0]
    gap = abs(float(vals.mean()) - target)
    se = float(vals.std(ddof=1)) / math.sqrt(num_samples)
    return gap, se
