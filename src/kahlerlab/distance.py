"""Distances between currents over a test-form dictionary.

A current is represented here by its pairing vector: a float array holding
its pairings against a fixed dictionary of normalized test forms, in
dictionary order.  The first form is the unnormalized mass form, so entry 0
is the mass.  The distance between two currents is the max of the pairing
gaps over the dictionary; since every dictionary entry has C^1-size at most
one, this is a certified lower bound for the distance taken over all unit
test forms (reported as such, never as the full distance).

The module also houses the diagonal-sequence selection built on top of
that distance, which extracts, from a matrix of measured distances indexed
by (interpolation step, power), a strictly increasing sequence of powers
meeting the step thresholds.
"""

import math

import numpy as np

from .bundles import Metric, component_key, wedge_descriptors
from .errors import ConfigurationError, GeneralPositionError, KahlerlabError
from .fscurrents import descriptor_form_pairings, descriptor_wedge_pairings
# benchmarks/test_benchmark.py checks that the tracer patches this here
from .geometry import quadrature_nodes  # noqa: F401
from .sections import build_section_space
from .zeros import (_seed_key, common_zeros, point_pairings, sample_tuple,
                    zero_pairings)


def ds_distance(a, b):
    """Max pairing gap between two pairing vectors over one dictionary."""
    if np.shape(a) != np.shape(b):
        raise ConfigurationError(
            f"pairing vectors of shapes {np.shape(a)} and {np.shape(b)}")
    return float(np.max(np.abs(a - b)))


# -- diagonal selection ----------------------------------------------------------


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


def approximation_run(h_list, g_list, eps_list, p_grid, dictionary, adjoint,
                      samples=1, seed=0, thresholds=None):
    """Measure how fast scaled random zero sets approach a wedge of curvatures.

    ``eps_list`` holds the interpolation weights eps_j and ``p_grid`` the
    powers every step shares; ``thresholds`` gives one distance threshold
    per step (default 1/j).  The target is the pairing vector of the wedge
    of the h-curvatures against ``dictionary``, paired in closed form.  For
    every (eps_j, p) cell the metrics are interpolated, section spaces
    built (``adjoint`` twists by the canonical bundle), ``samples`` tuples
    drawn, and the mean pairing vector of ``p^(-m) [zeros]`` compared to the
    target by :func:`ds_distance`; its entry 0 is the cell's mass.  ``m``
    is the complex dimension, so the zeros are points and pair as such:
    neither the target nor a cell takes a quadrature rule.  Cells that fail
    keep an error status and the run continues; the diagonal selection is
    applied to the finished matrix.
    """
    m = len(h_list)
    if len(g_list) != m:
        raise ConfigurationError("metric lists must pair up")
    if not m or m != h_list[0].manifold.dim:
        # the cells pair their zero sets as points, which takes one
        # section per complex dimension
        raise ConfigurationError("give one factor per complex dimension")
    for h, g in zip(h_list, g_list):
        if h.bundle != g.bundle:
            raise ConfigurationError(
                "each h must share its bundle with its g")
    if samples < 1:
        raise ConfigurationError("need at least one sample per cell")
    if thresholds is not None and len(thresholds) != len(eps_list):
        raise ConfigurationError("one threshold per eps step")

    dg = [g.curvature_descriptor() for g in g_list]
    for d in dg:
        if np.any(d.omega <= 0):
            raise ConfigurationError(
                "the smoothing metrics g must have strictly positive "
                "curvature form part")
    dh = [h.curvature_descriptor() for h in h_list]
    if m == 1:
        target = descriptor_form_pairings(dh[0], dictionary)
    else:
        _check_target_position(dh)
        target = descriptor_wedge_pairings(
            dh[0].manifold, wedge_descriptors(dh[0], dh[1]), dictionary)

    key = _seed_key(seed)
    rows = []
    matrix = []
    for j0, eps in enumerate(eps_list):
        interp = [Metric.interpolate(h, g, eps)
                  for h, g in zip(h_list, g_list)]
        row = []
        for p0, p in enumerate(p_grid):
            cell_seed = key + (j0, p0)
            record = {"j": j0 + 1, "eps": eps, "p": p, "samples": samples,
                      "seed": cell_seed}
            try:
                spaces = [build_section_space(hk, p, adjoint=adjoint)
                          for hk in interp]
                seeds = [cell_seed + (i,) for i in range(samples)]
                if m == 1:
                    vecs = zero_pairings(spaces[0], seeds, dictionary)
                else:
                    vecs = point_pairings(
                        [common_zeros(sample_tuple(spaces, s))
                         for s in seeds], dictionary)
                mean = vecs.mean(axis=0) / float(p) ** m
                record["distance"] = ds_distance(mean, target)
                record["mass"] = float(mean[0])
                record["status"] = "ok"
            except KahlerlabError as exc:
                record["distance"] = None
                record["mass"] = None
                record["status"] = type(exc).__name__
            rows.append(record)
            row.append(record["distance"])
        matrix.append(row)

    selected = diagonal_sequence(matrix, p_grid, thresholds)
    return {
        "kind": "approximation",
        "m": m,
        "adjoint": bool(adjoint),
        "samples": samples,
        "seed": list(key),
        "dictionary": [f.label for f in dictionary],
        "target": [float(v) for v in target],
        "rows": rows,
        "matrix": matrix,
        "selected": selected,
        "resolved": all(s["resolved"] for s in selected),
        "final_distances": [s["distance"] for s in selected
                            if s["resolved"]],
    }
