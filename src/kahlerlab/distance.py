"""Distances between currents over a test-form dictionary.

A current is represented here by its vector of pairings against a fixed
dictionary of normalized test forms.  The distance between two currents is
the max of the pairing gaps over the dictionary; since every dictionary
entry has C^1-size at most one, this is a certified lower bound for the
distance taken over all unit test forms (reported as such, never as the
full distance).

The module also houses the two consistency layers built on top of that
distance: the interpolation expansion check, which verifies that the wedge
of interpolated curvatures expands binomially over subsets, and the
diagonal-sequence selection that extracts, from a matrix of measured
distances indexed by (interpolation step, power), a strictly increasing
sequence of powers meeting the 1/j thresholds.
"""

import itertools
import math

import numpy as np

from .bundles import Metric, wedge_descriptors
from .errors import (ConfigurationError, GeneralPositionError, KahlerlabError,
                     UnsupportedMetricError)
from .fscurrents import descriptor_form_pairing, descriptor_wedge_pairing
from .geometry import quadrature_nodes
from .sections import build_section_space
from .testforms import test_form_dictionary
from .zeros import (_seed_key, common_zeros, sample_tuple, zero_pairing,
                    zero_pairings)


def dictionary_signature(forms):
    """Hashable identity of a dictionary (manifold kind plus form labels)."""
    if not forms:
        raise ConfigurationError("empty test-form dictionary")
    kinds = {f.manifold.kind for f in forms}
    if len(kinds) > 1:
        raise ConfigurationError("dictionary mixes manifolds")
    return (kinds.pop(),) + tuple(f.label for f in forms)


class PairingVector:
    """A current, seen through its pairings against one dictionary.

    The first dictionary entry is always the unnormalized mass form, so the
    mass of the current is the first component; it is exposed as ``mass``
    rather than stored separately, which keeps the two in lockstep by
    construction.
    """

    def __init__(self, ident, values, dictionary, meta=None):
        self.ident = str(ident)
        self.values = np.asarray(values, dtype=float)
        if isinstance(dictionary, tuple):
            self.signature = dictionary
        else:
            self.signature = dictionary_signature(dictionary)
        if self.values.shape != (len(self.signature) - 1,):
            raise ConfigurationError(
                f"{self.values.size} pairings against "
                f"{len(self.signature) - 1} dictionary forms")
        self.meta = dict(meta or {})

    @property
    def mass(self):
        return float(self.values[0])

    def scale(self, c):
        return PairingVector(f"{c:g}*{self.ident}", c * self.values,
                             self.signature, self.meta)

    def __repr__(self):
        return (f"PairingVector({self.ident!r}, mass={self.mass:.6g}, "
                f"len={self.values.size})")


def ds_distance(a, b):
    """Max pairing gap over the shared dictionary."""
    if a.signature != b.signature:
        raise ConfigurationError("pairing vectors use different dictionaries")
    return float(np.max(np.abs(a.values - b.values)))


# -- builders -----------------------------------------------------------------


def descriptor_vector(descriptor, forms, rule, ident="", meta=None,
                      line_resolution=None):
    vals = [descriptor_form_pairing(descriptor, f, rule, line_resolution)
            for f in forms]
    return PairingVector(ident, vals, forms, meta)


def wedge_vector(desc_a, desc_b, forms, rule, ident="", meta=None,
                 line_resolution=None):
    wedge = wedge_descriptors(desc_a, desc_b)
    vals = [descriptor_wedge_pairing(desc_a.manifold, wedge, f, rule,
                                     line_resolution) for f in forms]
    return PairingVector(ident, vals, forms, meta)


# -- interpolation expansion ----------------------------------------------------


def _closed_descriptor(metric):
    d = metric.curvature_descriptor()
    if d is None:
        raise UnsupportedMetricError(
            f"no closed-form curvature decomposition for {metric.label()}")
    return d


def multilinear_expansion_residual(h_list, g_list, eps, form, rule,
                                   line_resolution=None):
    """Two-route check of the interpolated-curvature wedge.

    Route one pairs the wedge of the curvatures of the interpolated metrics
    with the test form.  Route two expands that wedge over all subsets J of
    the factors, weighting each term by eps^(m-|J|) / (1+eps)^m, with the
    h-curvatures on J and the g-curvatures off it.  Returns the absolute
    difference, which isolates bookkeeping errors in the descriptor algebra
    (the two routes are algebraically identical).
    """
    m = len(h_list)
    if len(g_list) != m:
        raise ConfigurationError("metric lists must pair up")
    if m not in (1, 2):
        raise ConfigurationError("only one or two factors are supported")
    manifold = h_list[0].manifold
    if m > manifold.dim:
        raise ConfigurationError("more factors than the dimension carries")
    if eps < 0:
        raise ConfigurationError("interpolation weight must be >= 0")
    dh = [_closed_descriptor(h) for h in h_list]
    dg = [_closed_descriptor(g) for g in g_list]

    interp = [_closed_descriptor(Metric.interpolate(h, g, eps))
              for h, g in zip(h_list, g_list)]
    if m == 1:
        direct = descriptor_form_pairing(interp[0], form, rule,
                                         line_resolution)
    else:
        direct = descriptor_wedge_pairing(
            manifold, wedge_descriptors(interp[0], interp[1]), form, rule,
            line_resolution)

    expansion = 0.0
    weight0 = (1.0 + eps) ** (-m)
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(m), r) for r in range(m + 1)):
        picked = [dh[k] if k in subset else dg[k] for k in range(m)]
        w = weight0 * eps ** (m - len(subset))
        if w == 0.0:
            continue
        if m == 1:
            expansion += w * descriptor_form_pairing(picked[0], form, rule,
                                                     line_resolution)
        else:
            expansion += w * descriptor_wedge_pairing(
                manifold, wedge_descriptors(picked[0], picked[1]), form,
                rule, line_resolution)
    return abs(direct - expansion)


# -- diagonal selection ----------------------------------------------------------


class ApproximationSchedule:
    """Interpolation weights eps_j with a power grid per step.

    ``p_grid`` is either one strictly increasing list shared by every step
    or a list of such lists, one per eps.  Thresholds default to 1/j.
    """

    def __init__(self, eps_list, p_grid, thresholds=None):
        self.eps_list = [float(e) for e in eps_list]
        if not self.eps_list or any(e <= 0 for e in self.eps_list):
            raise ConfigurationError("eps values must be positive")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigurationError("eps values must strictly decrease")
        self._grids = self._normalize_grids(p_grid)
        if thresholds is None:
            self.thresholds = [1.0 / (j + 1) for j in range(len(self.eps_list))]
        else:
            self.thresholds = [float(t) for t in thresholds]
            if len(self.thresholds) != len(self.eps_list):
                raise ConfigurationError("one threshold per eps step")

    def _normalize_grids(self, p_grid):
        grid = list(p_grid)
        if grid and not isinstance(grid[0], (list, tuple)):
            grid = [grid] * len(self.eps_list)
        if len(grid) != len(self.eps_list):
            raise ConfigurationError("one power grid per eps step")
        out = []
        for row in grid:
            row = [int(p) for p in row]
            if not row or any(p <= 0 for p in row):
                raise ConfigurationError("power grids must be positive")
            if not all(b > a for a, b in zip(row, row[1:])):
                raise ConfigurationError("power grids must strictly increase")
            out.append(row)
        return out

    def grid(self, j_index):
        return self._grids[j_index]

    def __len__(self):
        return len(self.eps_list)


def diagonal_sequence(distances, p_grid, thresholds=None):
    """Select p_j increasing with d[j][p_j] below the step threshold.

    ``distances`` holds one row per step j (entries may be None or NaN for
    failed cells); ``p_grid`` is a shared list or one list per row.  Each
    row takes the smallest admissible power that strictly exceeds the
    previous selection; rows with no admissible cell are flagged unresolved
    and do not advance the power floor.
    """
    rows = [list(r) for r in distances]
    grids = list(p_grid)
    if grids and not isinstance(grids[0], (list, tuple)):
        grids = [grids] * len(rows)
    if len(grids) != len(rows):
        raise ConfigurationError("one power grid per distance row")
    out = []
    last_p = 0
    for j0, (row, grid) in enumerate(zip(rows, grids)):
        if len(row) != len(grid):
            raise ConfigurationError(
                f"row {j0} has {len(row)} cells for {len(grid)} powers")
        thr = 1.0 / (j0 + 1) if thresholds is None else float(thresholds[j0])
        pick = None
        for p, d in zip(grid, row):
            if p <= last_p or d is None:
                continue
            d = float(d)
            if math.isfinite(d) and d <= thr:
                pick = (p, d)
                break
        if pick is None:
            out.append({"j": j0 + 1, "threshold": thr, "p": None,
                        "distance": None, "resolved": False})
        else:
            last_p = pick[0]
            out.append({"j": j0 + 1, "threshold": thr, "p": pick[0],
                        "distance": pick[1], "resolved": True})
    return out


# -- the end-to-end approximation experiment --------------------------------------


def _check_target_position(descriptors):
    seen = {}
    for k, d in enumerate(descriptors):
        for comp, _ in d.divisors:
            key = comp[:2] if comp[0] == "poly" else comp
            if key in seen and seen[key] != k:
                raise GeneralPositionError(
                    "target curvatures share a singular component")
            seen[key] = k


def approximation_run(h_list, g_list, schedule, samples=1, seed=0, rule=None,
                      dictionary=None, adjoint=None, line_resolution=None):
    """Measure how fast scaled random zero sets approach a wedge of curvatures.

    For every (eps_j, p) cell the metrics are interpolated, section spaces
    built, ``samples`` tuples drawn, and the mean pairing vector of
    ``p^(-m) [zeros]`` compared to the pairings of the wedge of the
    h-curvatures.  Cells that fail keep an error status and the run
    continues; the diagonal selection is applied to the finished matrix.
    """
    m = len(h_list)
    if len(g_list) != m:
        raise ConfigurationError("metric lists must pair up")
    if m not in (1, 2):
        raise ConfigurationError("only one or two factors are supported")
    manifold = h_list[0].manifold
    if m > manifold.dim:
        raise ConfigurationError("more factors than the dimension carries")
    for h, g in zip(h_list, g_list):
        if h.bundle != g.bundle:
            raise ConfigurationError(
                "each h must share its bundle with its g")
    if samples < 1:
        raise ConfigurationError("need at least one sample per cell")
    if adjoint is None:
        adjoint = m >= 2
    if dictionary is None:
        dictionary = test_form_dictionary(manifold, m)
    if rule is None:
        rule = quadrature_nodes(manifold, 48 if manifold.dim == 1 else 16)

    dg = [_closed_descriptor(g) for g in g_list]
    for d in dg:
        if np.any(d.omega <= 0):
            raise ConfigurationError(
                "the smoothing metrics g must have strictly positive "
                "curvature form part")
    dh = [_closed_descriptor(h) for h in h_list]
    if m == 1:
        target = descriptor_vector(dh[0], dictionary, rule, "target",
                                   line_resolution=line_resolution)
    else:
        _check_target_position(dh)
        target = wedge_vector(dh[0], dh[1], dictionary, rule, "target",
                              line_resolution=line_resolution)

    key = _seed_key(seed)
    signature = dictionary_signature(dictionary)
    rows = []
    matrix = []
    for j0, eps in enumerate(schedule.eps_list):
        interp = [Metric.interpolate(h, g, eps)
                  for h, g in zip(h_list, g_list)]
        row = []
        for p0, p in enumerate(schedule.grid(j0)):
            cell_seed = key + (j0, p0)
            record = {"j": j0 + 1, "eps": eps, "p": p, "samples": samples,
                      "seed": cell_seed}
            try:
                spaces = [build_section_space(hk, p, adjoint=adjoint)
                          for hk in interp]
                seeds = [cell_seed + (i,) for i in range(samples)]
                if m == 1:
                    vecs = zero_pairings(spaces[0], seeds, dictionary, rule)
                else:
                    vecs = np.empty((samples, len(dictionary)))
                    for i, s in enumerate(seeds):
                        zs = common_zeros(sample_tuple(spaces, s))
                        vecs[i] = [zero_pairing(zs, f) for f in dictionary]
                mean = vecs.mean(axis=0) / float(p) ** m
                vec = PairingVector(f"zeros[eps={eps:g},p={p}]", mean,
                                    signature)
                record["distance"] = ds_distance(vec, target)
                record["mass"] = vec.mass
                record["status"] = "ok"
            except KahlerlabError as exc:
                record["distance"] = None
                record["mass"] = None
                record["status"] = type(exc).__name__
            rows.append(record)
            row.append(record["distance"])
        matrix.append(row)

    grids = [schedule.grid(j0) for j0 in range(len(schedule))]
    selected = diagonal_sequence(matrix, grids, schedule.thresholds)
    return {
        "kind": "approximation",
        "m": m,
        "adjoint": bool(adjoint),
        "samples": samples,
        "seed": list(key),
        "dictionary": list(signature[1:]),
        "target": [float(v) for v in target.values],
        "rows": rows,
        "matrix": matrix,
        "selected": selected,
        "resolved": all(s["resolved"] for s in selected),
        "final_distances": [s["distance"] for s in selected
                            if s["resolved"]],
    }
