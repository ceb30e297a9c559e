"""Study drivers: run a validated configuration, emit deterministic reports.

Six studies share one report shape (columns/rows for the CSV, summary and
flags for the JSON, series for the SVG).  Determinism contract: every byte
of the .csv, .json, and .svg outputs is a function of the config fragment
alone, so re-running a config reproduces them exactly; cache hit counts
and timestamps are quarantined in the .log sidecar.
"""

import math
import os

import numpy as np
from scipy import stats

from . import __version__
from .bundles import CurrentDescriptor, Metric, wedge_descriptors
from .cache import cached_space
from .config import config_fragment, config_hash
from .distance import ApproximationSchedule, approximation_run
from .errors import ConfigurationError, UnsupportedMetricError
from .fscurrents import (descriptor_form_pairing, descriptor_wedge_pairing,
                         fs_pairing, fs_pairings, fs_wedge_pairing)
from .geometry import quadrature_nodes
from .reports import (REPORT_SCHEMA, fit_loglog, svg_chart, write_csv,
                      write_json, write_log)
from .sections import log_bergman_sup, space_dimension
from .testforms import test_form_dictionary
from .zeros import zero_pairings


def _base_report(cfg):
    return {
        "schema": REPORT_SCHEMA,
        "version": {"kahlerlab": __version__, "numpy": np.__version__},
        "study": cfg.study,
        "config": config_fragment(cfg),
        "config_hash": config_hash(cfg),
        "columns": [],
        "rows": [],
        "summary": {},
        "flags": {},
        "tolerances": {},
        "series": [],
        "axes": ["p", "value"],
        "annotation": None,
        "cache": {"hits": 0, "misses": 0},
        "log": [],
    }


def _space(cfg, report, metric, p):
    space, status = cached_space(metric, p, adjoint=cfg.adjoint,
                                 resolution=cfg.resolution,
                                 cache_dir=cfg.cache)
    if status == "hit":
        report["cache"]["hits"] += 1
    elif status == "miss":
        report["cache"]["misses"] += 1
    return space


def _target_rule(cfg):
    res = cfg.resolution or (48 if cfg.manifold.dim == 1 else 16)
    return quadrature_nodes(cfg.manifold, res)


def _potential_rule(cfg, metric, surface_default=8):
    """Refined at the metric's pole centers: potentials are log-singular
    there and plain tensor rules lose their spectral accuracy."""
    res = cfg.resolution or (48 if cfg.manifold.dim == 1
                             else surface_default)
    centers = metric.refinement_centers()
    return quadrature_nodes(cfg.manifold, res,
                            singular_refinement=centers or None)


def _lambda(kind):
    if kind == "log":
        return lambda p: max(math.log(p), 1e-300)
    if kind == "one":
        return lambda p: 1.0
    return lambda p: max(math.log(p) ** 2, 1e-300)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _run_dimension(cfg, report):
    """dim is the space dimension, d_p = dim - 1 the projective dimension
    of the linear system; the growth ratio divides d_p by p^n."""
    n = cfg.manifold.dim
    h = cfg.metrics[0]["h"]
    ratios = []
    for p in cfg.p_grid:
        dim = space_dimension(h, p, adjoint=cfg.adjoint)
        d_p = dim - 1
        ratio = d_p / float(p) ** n
        report["rows"].append({"p": p, "dim": dim, "d_p": d_p,
                               "ratio": ratio})
        ratios.append(ratio)
    positive = [r for r in ratios if r > 0]
    c = 2.0
    report["columns"] = ["p", "dim", "d_p", "ratio"]
    report["summary"] = {
        "metric": h.label(),
        "ratio_min": min(positive) if positive else 0.0,
        "ratio_max": max(ratios),
        "eventually_positive": ratios[-1] > 0,
    }
    report["flags"] = {
        "eventually_positive": ratios[-1] > 0,
        "bracket_ok": (bool(positive) and min(positive) >= 1.0 / c
                       and max(ratios) <= c),
    }
    report["tolerances"] = {"ratio_bracket_c": c}
    report["series"] = [{"label": h.label(), "x": list(cfg.p_grid),
                         "y": ratios}]
    report["axes"] = ["p", "d_p / p^n"]


def _run_bergman(cfg, report):
    summaries = []
    for entry in cfg.metrics:
        h = entry["h"]
        label = h.label()
        sups = []
        for p in cfg.p_grid:
            space = _space(cfg, report, h, p)
            sup = log_bergman_sup(space, exclude=h.refinement_centers(),
                                  exclude_radius=cfg.exclusion)
            report["rows"].append({"metric": label, "p": p, "sup": sup,
                                   "dim": space.dim,
                                   "condition": space.gram_condition})
            sups.append(sup)
        decreasing = all(b < a for a, b in zip(sups, sups[1:]))
        xs = [math.log(p) / p for p in cfg.p_grid]
        if len(set(xs)) > 1:
            fit = stats.linregress(xs, sups)
            slope, r2 = float(fit.slope), float(fit.rvalue) ** 2
        else:
            slope, r2 = None, None
        summaries.append({"metric": label, "decreasing": decreasing,
                          "slope": slope, "r2": r2})
        report["series"].append({"label": label, "x": list(cfg.p_grid),
                                 "y": sups})
    report["columns"] = ["metric", "p", "sup", "dim", "condition"]
    report["summary"] = {"metrics": summaries}
    report["flags"] = {
        "all_decreasing": all(s["decreasing"] for s in summaries),
        "fit_ok": all(s["r2"] is not None and s["r2"] >= 0.8
                      for s in summaries),
    }
    report["tolerances"] = {"r2_min": 0.8}
    report["axes"] = ["p", "sup |log P| / p"]
    report["annotation"] = "model: C log(p)/p"


def _run_equidistribution(cfg, report):
    man = cfg.manifold
    forms = test_form_dictionary(man, 1, cfg.dict_count)
    labels = [f.label for f in forms]
    trule = _target_rule(cfg)
    lam = _lambda(cfg.lambda_kind)
    summaries = []
    series_by_form = {lab: [] for lab in labels}
    for mi, entry in enumerate(cfg.metrics):
        h = entry["h"]
        label = h.label()
        desc = h.curvature_descriptor()
        if desc is None:
            raise UnsupportedMetricError(
                f"the curvature of {label} has no closed form to test "
                "equidistribution against")
        targets = np.array([descriptor_form_pairing(desc, f, trule)
                            for f in forms])
        zrule = _potential_rule(cfg, h) if man.dim == 2 else None
        mean_curve = []
        c_cal = None
        for pi, p in enumerate(cfg.p_grid):
            space = _space(cfg, report, h, p)
            seeds = [cfg.seed + (mi, pi, i) for i in range(cfg.samples)]
            pairs = zero_pairings(space, seeds, forms, zrule)
            errs = np.abs(pairs / p - targets)
            per_sample_max = errs.max(axis=1)
            mean_err = float(per_sample_max.mean())
            if c_cal is None:
                c_cal = mean_err * p / lam(p)
            threshold = c_cal * lam(p) / p
            report["rows"].append({
                "metric": label, "p": p,
                "max_err_mean": mean_err,
                "max_err_max": float(per_sample_max.max()),
                "exceed_freq": float((per_sample_max > threshold).mean()),
                "threshold": threshold,
                "samples": cfg.samples,
            })
            mean_curve.append(mean_err)
            if mi == 0:
                for lab, v in zip(labels, errs.mean(axis=0)):
                    series_by_form[lab].append(float(v))
        fit = fit_loglog(cfg.p_grid, mean_curve)
        summaries.append({
            "metric": label,
            "c": c_cal,
            "slope": fit["slope"] if fit else None,
            "r2": fit["r2"] if fit else None,
            "final_exceed": report["rows"][-1]["exceed_freq"],
        })
    report["columns"] = ["metric", "p", "max_err_mean", "max_err_max",
                         "exceed_freq", "threshold", "samples"]
    report["summary"] = {"metrics": summaries}
    lead = summaries[0]
    report["flags"] = {
        "slope_ok": all(s["slope"] is not None
                        and -1.4 <= s["slope"] <= -0.6 for s in summaries),
        "exceed_ok": all(s["final_exceed"] <= 0.05 for s in summaries),
    }
    report["tolerances"] = {"slope_window": [-1.4, -0.6],
                            "exceed_max": 0.05,
                            "lambda_kind": cfg.lambda_kind}
    report["series"] = [{"label": lab, "x": list(cfg.p_grid),
                         "y": series_by_form[lab]} for lab in labels]
    report["axes"] = ["p", "mean pairing error"]
    if lead["slope"] is not None:
        report["annotation"] = f"slope {lead['slope']:.2f}"


def _closed(metric):
    desc = metric.curvature_descriptor()
    if desc is None:
        raise UnsupportedMetricError(
            f"the curvature of {metric.label()} has no closed form to "
            "converge to")
    return desc


def _run_fs_convergence(cfg, report):
    """Family currents against their curvature limit.

    On curves each metric entry is one convergence column.  On surfaces
    the study follows the wedge of the first two entries (or the square
    of a single entry), since the natural limit object there is the
    product of two curvature currents.
    """
    man = cfg.manifold
    m = man.dim
    forms = test_form_dictionary(man, m, cfg.dict_count)
    trule = _target_rule(cfg)
    if m == 1:
        units = [(e["h"], None) for e in cfg.metrics]
    elif len(cfg.metrics) == 1:
        units = [(cfg.metrics[0]["h"], cfg.metrics[0]["h"])]
    elif len(cfg.metrics) == 2:
        units = [(cfg.metrics[0]["h"], cfg.metrics[1]["h"])]
    else:
        raise ConfigurationError(
            "surface convergence wedges two factors; give 1 or 2 metric "
            "entries")
    summaries = []
    series_by_form = {f.label: [] for f in forms}
    for ui, (ha, hb) in enumerate(units):
        if hb is None:
            label = ha.label()
            targets = [descriptor_form_pairing(_closed(ha), f, trule)
                       for f in forms]
            vrule = _potential_rule(cfg, ha)
        else:
            label = (ha.label() if hb is ha
                     else f"{ha.label()} ^ {hb.label()}")
            wedge = wedge_descriptors(_closed(ha), _closed(hb))
            targets = [descriptor_wedge_pairing(man, wedge, f, trule)
                       for f in forms]
            vrule = quadrature_nodes(man, cfg.resolution or 16)
        err_table = []
        masses = []
        for p in cfg.p_grid:
            if hb is None:
                space = _space(cfg, report, ha, p)
                values = [fs_pairing(space, f, vrule) for f in forms]
                cls = [CurrentDescriptor(
                    man, np.asarray(space.q, dtype=float) / p, [], 0.0)]
            else:
                sa = _space(cfg, report, ha, p)
                sb = sa if hb is ha else _space(cfg, report, hb, p)
                values = [fs_wedge_pairing(sa, sb, f, vrule)
                          for f in forms]
                cls = [CurrentDescriptor(
                    man, np.asarray(s.q, dtype=float) / p, [], 0.0)
                    for s in (sa, sb)]
            errs = [abs(v - t) for v, t in zip(values, targets)]
            for f, v, t, e in zip(forms, values, targets, errs):
                report["rows"].append({"metric": label, "p": p,
                                       "form": f.label, "value": v,
                                       "target": t, "abs_err": e})
            err_table.append(errs)
            if hb is None:
                expected = descriptor_form_pairing(cls[0], forms[0], trule)
            else:
                expected = descriptor_wedge_pairing(
                    man, wedge_descriptors(cls[0], cls[-1]), forms[0],
                    trule)
            masses.append({"p": p, "mass": values[0], "expected": expected,
                           "err": abs(values[0] - expected)})
            if ui == 0:
                for f, e in zip(forms, errs):
                    series_by_form[f.label].append(e)
        monotone = 0
        for fi in range(len(forms)):
            col = [row[fi] for row in err_table]
            if all(b < a for a, b in zip(col, col[1:])):
                monotone += 1
        summaries.append({"metric": label, "monotone_forms": monotone,
                          "total_forms": len(forms), "masses": masses})
    report["columns"] = ["metric", "p", "form", "value", "target",
                         "abs_err"]
    report["summary"] = {"metrics": summaries}
    report["flags"] = {
        "mass_ok": all(mr["err"] <= 1e-5 for s in summaries
                       for mr in s["masses"]),
        "mostly_monotone": all(s["monotone_forms"] * 6
                               >= s["total_forms"] * 5 for s in summaries),
    }
    report["tolerances"] = {"mass_tol": 1e-5, "monotone_fraction": 5 / 6}
    report["series"] = [{"label": lab, "x": list(cfg.p_grid), "y": ys}
                        for lab, ys in series_by_form.items()]
    report["axes"] = ["p", "pairing error"]
    report["annotation"] = (f"monotone forms: "
                            f"{summaries[0]['monotone_forms']}"
                            f"/{summaries[0]['total_forms']}")


def _run_approximation(cfg, report):
    if cfg.eps_list is None:
        raise ConfigurationError("the approximation study needs eps_list")
    man = cfg.manifold
    m = man.dim
    if len(cfg.metrics) == m:
        pairs = cfg.metrics
    elif len(cfg.metrics) == 1:
        pairs = cfg.metrics * m
    else:
        raise ConfigurationError(
            f"{man.kind} wedges {m} factor(s); give 1 or {m} metric "
            "entries")
    h_list = [e["h"] for e in pairs]
    g_list = [e["g"] for e in pairs]
    dictionary = test_form_dictionary(man, m, cfg.dict_count)
    rule = _target_rule(cfg)
    schedule = ApproximationSchedule(cfg.eps_list, cfg.p_grid,
                                     cfg.thresholds)
    result = approximation_run(h_list, g_list, schedule,
                               samples=cfg.samples, seed=cfg.seed,
                               rule=rule, dictionary=dictionary,
                               adjoint=cfg.adjoint)
    for r in result["rows"]:
        report["rows"].append({
            "j": r["j"], "eps": r["eps"], "p": r["p"],
            "distance": r["distance"], "mass": r["mass"],
            "seed": "-".join(str(s) for s in r["seed"]),
            "status": r["status"],
        })
    report["columns"] = ["j", "eps", "p", "distance", "mass", "seed",
                         "status"]
    report["summary"] = {
        "m": result["m"],
        "adjoint": result["adjoint"],
        "dictionary": result["dictionary"],
        "target": result["target"],
        "selected": result["selected"],
        "final_distances": result["final_distances"],
    }
    report["flags"] = {"resolved": result["resolved"]}
    report["tolerances"] = {
        "thresholds": [s["threshold"] for s in result["selected"]]}
    for j0, eps in enumerate(cfg.eps_list):
        report["series"].append({
            "label": f"eps={eps:g}",
            "x": list(schedule.grid(j0)),
            "y": result["matrix"][j0],
        })
    report["axes"] = ["p", "dictionary distance"]
    report["annotation"] = ("diagonal resolved" if result["resolved"]
                            else "diagonal unresolved")


def _run_expected_zero(cfg, report):
    if cfg.samples < 100:
        raise ConfigurationError(
            "at least 100 samples are needed for a stable standard error")
    man = cfg.manifold
    forms = test_form_dictionary(man, 1, cfg.dict_count)
    summaries = []
    for mi, entry in enumerate(cfg.metrics):
        h = entry["h"]
        label = h.label()
        rule = _potential_rule(cfg, h)
        for pi, p in enumerate(cfg.p_grid):
            space = _space(cfg, report, h, p)
            targets = space.p * fs_pairings(space, forms, rule)
            seeds = [cfg.seed + (mi, pi, i) for i in range(cfg.samples)]
            vals = zero_pairings(space, seeds, forms, rule)
            within = 0
            gaps, envelopes = [], []
            for fi, f in enumerate(forms):
                mean = float(vals[:, fi].mean())
                se = float(vals[:, fi].std(ddof=1)) / math.sqrt(cfg.samples)
                gap = abs(mean - float(targets[fi]))
                # zero-variance pairings (the mass is a.s. constant) get an
                # absolute floor instead of a vacuous 3 * 0 band
                ok = gap <= max(3.0 * se, 1e-9)
                within += ok
                gaps.append(gap)
                envelopes.append(3.0 * se)
                report["rows"].append({
                    "metric": label, "p": p, "form": f.label,
                    "target": float(targets[fi]), "mc_mean": mean,
                    "gap": gap, "se": se, "within_3se": bool(ok),
                })
            summaries.append({"metric": label, "p": p,
                              "within_fraction": within / len(forms)})
            if mi == 0:
                idx = list(range(1, len(forms) + 1))
                report["series"].append(
                    {"label": f"gap p={p}", "x": idx, "y": gaps})
                report["series"].append(
                    {"label": f"3se p={p}", "x": idx, "y": envelopes})
    report["columns"] = ["metric", "p", "form", "target", "mc_mean",
                         "gap", "se", "within_3se"]
    report["summary"] = {"cells": summaries}
    report["flags"] = {"all_mostly_within":
                       all(s["within_fraction"] >= 0.95 for s in summaries)}
    report["tolerances"] = {"se_multiple": 3, "exact_floor": 1e-9,
                            "min_within_fraction": 0.95}
    report["axes"] = ["form index", "gap"]


_RUNNERS = {
    "dimension": _run_dimension,
    "bergman": _run_bergman,
    "equidistribution": _run_equidistribution,
    "fs-convergence": _run_fs_convergence,
    "approximation": _run_approximation,
    "expected-zero": _run_expected_zero,
}


def run_study(cfg):
    """Execute a study and return its full report payload."""
    report = _base_report(cfg)
    _RUNNERS[cfg.study](cfg, report)
    report["log"].append(f"rows={len(report['rows'])} "
                         f"flags={sorted(report['flags'].items())}")
    return report


def emit_report(report, outdir):
    """Write the CSV/JSON/SVG triple plus a .log sidecar.

    The first three are byte-deterministic in the config; operational
    metadata (cache counters, timestamps) goes only to the sidecar.
    """
    os.makedirs(outdir, exist_ok=True)
    stem = f"{report['study']}-{report['config_hash']}"
    base = os.path.join(outdir, stem)
    paths = {"csv": base + ".csv", "json": base + ".json",
             "svg": base + ".svg", "log": base + ".log"}
    write_csv(paths["csv"], report["columns"], report["rows"])
    payload = {k: v for k, v in report.items()
               if k not in ("log", "cache")}
    write_json(paths["json"], payload)
    xlabel, ylabel = report.get("axes", ["p", "value"])
    svg = svg_chart(stem, report.get("series", []), xlabel, ylabel,
                    report.get("annotation"))
    with open(paths["svg"], "w", encoding="utf-8") as fh:
        fh.write(svg)
    lines = [f"study {report['study']} config {report['config_hash']}",
             f"cache hits={report['cache']['hits']} "
             f"misses={report['cache']['misses']}"]
    lines += [f"flag {k}={v}" for k, v in sorted(report["flags"].items())]
    lines += report["log"]
    write_log(paths["log"], lines)
    return paths
