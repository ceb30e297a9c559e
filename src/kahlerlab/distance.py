"""Distances between currents over a test-form dictionary.

A current is represented here by its vector of pairings against a fixed
dictionary of normalized test forms.  The distance between two currents is
the max of the pairing gaps over the dictionary; since every dictionary
entry has C^1-size at most one, this is a certified lower bound for the
distance taken over all unit test forms (reported as such, never as the
full distance).

The module also houses the diagonal-sequence selection built on top of
that distance, which extracts, from a matrix of measured distances indexed
by (interpolation step, power), a strictly increasing sequence of powers
meeting the 1/j thresholds.
"""

import math

import numpy as np

from .bundles import Metric, component_key, wedge_descriptors
from .errors import ConfigurationError, GeneralPositionError, KahlerlabError
from .fscurrents import descriptor_form_pairings, descriptor_wedge_pairings
from .geometry import quadrature_nodes
from .sections import build_section_space
from .testforms import test_form_dictionary
from .zeros import (_seed_key, common_zeros, point_pairings, sample_tuple,
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

    def __init__(self, ident, values, dictionary):
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

    @property
    def mass(self):
        return float(self.values[0])

    def scale(self, c):
        return PairingVector(f"{c:g}*{self.ident}", c * self.values,
                             self.signature)

    def __repr__(self):
        return (f"PairingVector({self.ident!r}, mass={self.mass:.6g}, "
                f"len={self.values.size})")


def ds_distance(a, b):
    """Max pairing gap over the shared dictionary."""
    if a.signature != b.signature:
        raise ConfigurationError("pairing vectors use different dictionaries")
    return float(np.max(np.abs(a.values - b.values)))


# -- builders -----------------------------------------------------------------


def descriptor_vector(descriptor, forms, rule, ident=""):
    vals = descriptor_form_pairings(descriptor, forms, rule)
    return PairingVector(ident, vals, forms)


def wedge_vector(desc_a, desc_b, forms, rule, ident=""):
    wedge = wedge_descriptors(desc_a, desc_b)
    vals = descriptor_wedge_pairings(desc_a.manifold, wedge, forms, rule)
    return PairingVector(ident, vals, forms)


# -- diagonal selection ----------------------------------------------------------


class ApproximationSchedule:
    """Interpolation weights eps_j and the power grid every step shares.

    ``p_grid`` is one strictly increasing list of positive powers.
    Thresholds default to 1/j.
    """

    def __init__(self, eps_list, p_grid, thresholds=None):
        self.eps_list = [float(e) for e in eps_list]
        if not self.eps_list or any(e <= 0 for e in self.eps_list):
            raise ConfigurationError("eps values must be positive")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigurationError("eps values must strictly decrease")
        self.p_grid = _power_grid(p_grid)
        if thresholds is None:
            self.thresholds = [1.0 / (j + 1) for j in range(len(self.eps_list))]
        else:
            self.thresholds = [float(t) for t in thresholds]
            if len(self.thresholds) != len(self.eps_list):
                raise ConfigurationError("one threshold per eps step")


def _power_grid(p_grid):
    if any(isinstance(p, (list, tuple)) for p in p_grid):
        raise ConfigurationError("one power grid is shared by every eps step")
    grid = [int(p) for p in p_grid]
    if not grid or any(p <= 0 for p in grid):
        raise ConfigurationError("power grids must be positive")
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("power grids must strictly increase")
    return grid


def diagonal_sequence(distances, p_grid, thresholds=None):
    """Select p_j increasing with d[j][p_j] below the step threshold.

    ``distances`` holds one row per step j (entries may be None or NaN for
    failed cells) over the powers of the shared ``p_grid``.  Each row takes
    the smallest admissible power that strictly exceeds the previous
    selection; rows with no admissible cell are flagged unresolved and do
    not advance the power floor.
    """
    rows = [list(r) for r in distances]
    grid = list(p_grid)
    out = []
    last_p = 0
    for j0, row in enumerate(rows):
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
            key = component_key(comp)
            if key in seen and seen[key] != k:
                raise GeneralPositionError(
                    "target curvatures share a singular component")
            seen[key] = k


def approximation_run(h_list, g_list, schedule, samples=1, seed=0, rule=None,
                      dictionary=None, adjoint=None):
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

    dg = [g.curvature_descriptor() for g in g_list]
    for d in dg:
        if np.any(d.omega <= 0):
            raise ConfigurationError(
                "the smoothing metrics g must have strictly positive "
                "curvature form part")
    dh = [h.curvature_descriptor() for h in h_list]
    if m == 1:
        target = descriptor_vector(dh[0], dictionary, rule, "target")
    else:
        _check_target_position(dh)
        target = wedge_vector(dh[0], dh[1], dictionary, rule, "target")
        # point pairings need no rule: free it and its memos for the cells
        rule = None

    key = _seed_key(seed)
    signature = dictionary_signature(dictionary)
    rows = []
    matrix = []
    for j0, eps in enumerate(schedule.eps_list):
        interp = [Metric.interpolate(h, g, eps)
                  for h, g in zip(h_list, g_list)]
        row = []
        for p0, p in enumerate(schedule.p_grid):
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
                    vecs = point_pairings(
                        [common_zeros(sample_tuple(spaces, s))
                         for s in seeds], dictionary)
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

    selected = diagonal_sequence(matrix, schedule.p_grid, schedule.thresholds)
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
