import math
import weakref

import numpy as np
import pytest

from kahlerlab import _kernels, experiments, geometry, testforms
from kahlerlab.bundles import form_values_hom
from kahlerlab.config import parse_config
from kahlerlab.errors import (ConfigurationError, EmptySpaceError,
                              UnsupportedMetricError)
from kahlerlab.experiments import emit_report, run_study
from kahlerlab.fscurrents import descriptor_form_pairing, log_norm_pairings
from kahlerlab.geometry import quadrature_nodes
from kahlerlab.sections import build_section_space
from kahlerlab.testforms import test_form_dictionary
from kahlerlab.zeros import sample_section, zeros_on_curve


def _expected_zero_config(cache, samples=100):
    return parse_config({
        "study": "expected-zero", "manifold": "P2",
        "metrics": [{"h": {"kind": "fs"}}], "p_grid": [4],
        "samples": samples, "dict_count": 2, "seed": [5],
        "cache": str(cache),
    })


def _assert_same_bytes(cold, warm, tmp_path):
    a = emit_report(cold, tmp_path / "cold")
    b = emit_report(warm, tmp_path / "warm")
    for kind in ("csv", "json", "svg"):
        with open(a[kind], "rb") as fa, open(b[kind], "rb") as fb:
            assert fa.read() == fb.read()


def test_expected_zero_reports_replay_and_match_the_sample_loop(tmp_path):
    cfg = _expected_zero_config(tmp_path / "cache")
    cold = run_study(cfg)
    warm = run_study(cfg)
    assert (cold["cache"], warm["cache"]) == ({"hits": 0, "misses": 1},
                                              {"hits": 1, "misses": 0})
    _assert_same_bytes(cold, warm, tmp_path)

    # the study seeds sample i as (master..., metric index, p index, i)
    man = cfg.manifold
    space = build_section_space(cfg.metrics[0]["h"], 4, adjoint=cfg.adjoint)
    rule = quadrature_nodes(man, 8)
    forms = test_form_dictionary(man, 1, 2)
    secs = [sample_section(space, cfg.seed + (0, 0, i))
            for i in range(cfg.samples)]
    loop = np.array([
        [float(log_norm_pairings(space, [f], rule,
                                 sections=sec.coeffs[:, None])[0, 0])
         for f in forms] for sec in secs])
    rows = cold["rows"]
    assert [r["form"] for r in rows] == [f.label for f in forms]
    for r, mean in zip(rows, loop.mean(axis=0)):
        assert abs(r["mc_mean"] - mean) <= 1e-12 * abs(mean)


def test_curve_equidistribution_replays_and_matches_the_sample_loop(
        tmp_path):
    cfg = parse_config({
        "study": "equidistribution", "manifold": "P1",
        "metrics": [{"h": {"kind": "fs"}}], "p_grid": [4, 6],
        "samples": 5, "dict_count": 3, "seed": [9],
        "cache": str(tmp_path / "cache"),
    })
    cold = run_study(cfg)
    warm = run_study(cfg)
    assert warm["cache"] == {"hits": 2, "misses": 0}
    _assert_same_bytes(cold, warm, tmp_path)

    # sample i at power index pi is seeded (master..., metric 0, pi, i);
    # each zero pairs with the form's value times its multiplicity
    man, h = cfg.manifold, cfg.metrics[0]["h"]
    forms = test_form_dictionary(man, 1, 3)
    targets = [descriptor_form_pairing(h.curvature_descriptor(), f)
               for f in forms]
    series = {f.label: [] for f in forms}
    for pi, p in enumerate(cfg.p_grid):
        space = build_section_space(h, p, adjoint=cfg.adjoint)
        errs = []
        for i in range(cfg.samples):
            zs = zeros_on_curve(sample_section(space, cfg.seed + (0, pi, i)))
            pts = np.stack([pt for pt, _ in zs.points])
            row = []
            for f, t in zip(forms, targets):
                vals = form_values_hom(man, [f], pts)[:, 0]
                pair = sum(k * v for (_, k), v in zip(zs.points, vals))
                row.append(abs(pair / p - t))
            errs.append(row)
        for f, err in zip(forms, np.mean(errs, axis=0)):
            series[f.label].append(float(err))
    assert [s["label"] for s in cold["series"]] == list(series)
    for s in cold["series"]:
        assert s["x"] == [4, 6] and s["y"] == series[s["label"]]


def _p1_pole_doc(Q):
    return {
        "study": "equidistribution", "manifold": "P1", "degree": 2,
        "metrics": [{"h": {"kind": "log_pole", "t": 0.5, "Q": Q}}],
        "p_grid": [4, 5], "samples": 2, "dict_count": 2, "seed": [3],
    }


def test_each_space_is_logged_to_the_sidecar_only(tmp_path):
    # a degree-2 pole, whose nodes Gram builds a rule
    doc = _p1_pole_doc({"degree": 2, "terms": [[[2, 0], 1.0, 0.0],
                                               [[0, 2], -0.5, 0.0]]})
    reports = {"off": run_study(parse_config(doc))}
    doc["cache"] = str(tmp_path / "cache")
    reports["miss"] = run_study(parse_config(doc))
    reports["hit"] = run_study(parse_config(doc))
    label = parse_config(doc).metrics[0]["h"].label()
    paths = {k: emit_report(r, tmp_path / k) for k, r in reports.items()}
    for status, report in reports.items():
        lines = [ln for ln in report["log"] if ln.startswith("space ")]
        assert len(lines) == 2
        for line, p in zip(lines, (4, 5)):
            assert line.startswith(f"space {label} p={p} dim=")
            assert "gram_method=nodes gram_condition=" in line
            assert line.endswith(f"cache={status}")
            assert ("nodes=-" in line) == (status == "hit")
        with open(paths[status]["log"], encoding="utf-8") as fh:
            sidecar = fh.read()  # each line after a time stamp
        assert all(f" {ln}\n" in sidecar for ln in lines)
    assert "nodes=1263136 cache=miss" in reports["miss"]["log"][0]
    for kind in ("csv", "json", "svg"):
        blobs = set()
        for status in reports:
            with open(paths[status][kind], "rb") as fh:
                blobs.add(fh.read())
        assert len(blobs) == 1
        assert b"gram_condition" not in blobs.pop()


def test_linear_pole_space_logs_no_nodes_on_a_miss(tmp_path):
    # the closed form of a pole on one linear form builds no rule
    doc = _p1_pole_doc({"degree": 1, "terms": [[[1, 0], 1.0, 0.0],
                                               [[0, 1], 0.6, 0.3]]})
    doc["cache"] = str(tmp_path / "cache")
    lines = [ln for ln in run_study(parse_config(doc))["log"]
             if ln.startswith("space ")]
    assert len(lines) == 2
    for line in lines:
        assert "gram_method=nodes" in line
        assert line.endswith("nodes=- cache=miss")


def test_expected_zero_config_needs_100_samples(tmp_path):
    # rejected at parse time, before any space is built or cached
    with pytest.raises(ConfigurationError):
        _expected_zero_config(tmp_path / "cache", samples=99)


def test_dimension_study_reports_the_projective_dimension():
    cfg = parse_config({
        "study": "dimension", "manifold": "P2", "adjoint": False,
        "metrics": [{"h": {"kind": "fs"}}], "p_grid": [4, 8],
    })
    rows = run_study(cfg)["rows"]
    assert rows[0] == {"p": 4, "dim": 15, "d_p": 14, "ratio": 14 / 16}
    assert rows[1]["dim"] == 45


@pytest.mark.parametrize("doc", [
    {"manifold": "P1", "adjoint": True},
    {"manifold": "P1", "adjoint": False},
    {"manifold": "P2", "adjoint": True},
    {"manifold": "P2", "adjoint": False},
    {"manifold": "P1xP1", "degree": [1, 1]},
], ids=["P1-adjoint", "P1", "P2-adjoint", "P2", "P1xP1"])
def test_bergman_study_of_fs_metrics_replays_log_dim_over_p(doc, tmp_path):
    # the Bergman function of a Fubini-Study metric is the constant dim;
    # the flags are not asserted, as rounding decides whether the exact
    # sups of one power grid count as decreasing
    cfg = parse_config(dict(doc, study="bergman", p_grid=[4, 8],
                            cache=str(tmp_path / "cache")))
    cold = run_study(cfg)
    warm = run_study(cfg)
    assert (cold["cache"], warm["cache"]) == ({"hits": 0, "misses": 2},
                                              {"hits": 2, "misses": 0})
    assert [r["p"] for r in cold["rows"]] == [4, 8]
    for r in cold["rows"]:
        assert abs(r["sup"] - math.log(r["dim"]) / r["p"]) <= 1e-14
    _assert_same_bytes(cold, warm, tmp_path)


_SMOOTHED_MAX = {"kind": "smoothed_max", "t": 0.5, "c": 0.1,
                 "Q1": {"coord": 0}, "Q2": {"coord": 1}}


@pytest.mark.parametrize("study", ["equidistribution", "fs-convergence"])
def test_studies_without_a_closed_form_curvature_are_refused(study,
                                                              tmp_path):
    cfg = parse_config({
        "study": study, "manifold": "P1",
        "metrics": [{"h": _SMOOTHED_MAX}], "p_grid": [4],
        "samples": 2, "cache": str(tmp_path / "cache"),
    })
    with pytest.raises(UnsupportedMetricError):
        run_study(cfg)


def test_calibration_power_has_no_exceedance(tmp_path):
    # on P1 with an adjoint mass deficit every sample's largest error at
    # the first p is the mass gap, so no sample exceeds the mean there
    report = run_study(parse_config({
        "study": "equidistribution", "manifold": "P1", "degree": 2,
        "metrics": [{"h": {"kind": "log_pole", "t": 0.5, "Q": {
            "degree": 1, "terms": [[[1, 0], 1.0, 0.0], [[0, 1], 0.6, 0.3]]}}}],
        "p_grid": [4, 8], "samples": 3, "seed": [0],
        "cache": str(tmp_path / "cache")}))
    first = report["rows"][0]
    assert first["max_err_max"] == first["max_err_mean"] == first["threshold"]
    assert first["exceed_freq"] == 0.0


def _surface_convergence_config(cache, p_grid):
    return parse_config({
        "study": "fs-convergence", "manifold": "P2",
        "metrics": [{"h": {"kind": "log_pole", "t": 0.5,
                           "Q": {"coord": 0}}}],
        "p_grid": p_grid, "dict_count": 2, "seed": [0], "cache": str(cache),
    })


def test_surface_convergence_replays_and_checks_the_wedge_mass(tmp_path):
    cfg = _surface_convergence_config(tmp_path / "cache", [6, 10])
    cold = run_study(cfg)
    warm = run_study(cfg)
    assert warm["cache"] == {"hits": 2, "misses": 0}
    _assert_same_bytes(cold, warm, tmp_path)
    # the square of the family current loses (k/p)^2 on its base divisor
    masses = cold["summary"]["metrics"][0]["masses"]
    assert [round(r["expected"], 9) for r in masses] == [0.0, 0.24]
    assert cold["flags"]["mass_ok"]

    cfg = _surface_convergence_config(tmp_path / "cache", [4, 5])
    with pytest.raises(EmptySpaceError):
        run_study(cfg)


def test_forms_at_rounding_count_as_converged(tmp_path, monkeypatch):
    # a form that pairs to its target up to rounding at every p counts as
    # converged, whatever the order of its rounding noise
    targets = []
    noise = iter([1e-14, 3e-14])
    descriptor = experiments.descriptor_wedge_pairings
    wedge = experiments.fs_wedge_pairings

    def recorded(*args):
        targets.append(descriptor(*args))
        return targets[-1]

    def at_rounding(*args):
        out = wedge(*args)
        out[1] = targets[0][1] + next(noise)
        return out

    monkeypatch.setattr(experiments, "descriptor_wedge_pairings", recorded)
    monkeypatch.setattr(experiments, "fs_wedge_pairings", at_rounding)
    report = run_study(_surface_convergence_config(tmp_path / "cache",
                                                   [6, 10]))
    cols = [[r["abs_err"] for r in report["rows"] if r["form"] == s["label"]]
            for s in report["series"]]
    assert 0 < cols[1][0] < cols[1][1] <= experiments.MONOTONE_FLOOR
    mass_falls = cols[0][1] < cols[0][0]
    assert (report["summary"]["metrics"][0]["monotone_forms"]
            == 1 + mass_falls)
    assert report["tolerances"]["monotone_floor"] == 1e-12


def _record_target_rules(monkeypatch):
    # the family wedges' rule is the one rule the study builds itself
    refs = []
    build = experiments.quadrature_nodes

    def recorded(*args, **kwargs):
        rule = build(*args, **kwargs)
        refs.append(weakref.ref(rule))
        return rule

    monkeypatch.setattr(experiments, "quadrature_nodes", recorded)
    return refs


def test_study_frees_its_target_rule(tmp_path, monkeypatch):
    # the rule carries the memo of p-independent values: nothing may keep it
    refs = _record_target_rules(monkeypatch)
    report = run_study(_surface_convergence_config(tmp_path / "cache",
                                                   [5, 6]))
    assert report["flags"]["mass_ok"]
    assert len(refs) == 1 and refs[0]() is None


def test_surface_approximation_builds_no_quadrature_rule(tmp_path,
                                                         monkeypatch):
    # closed-form Grams, a closed-form target and zero sets paired as
    # points: nothing of the study takes a rule
    built = []
    init = geometry.QuadratureRule.__init__

    def recorded(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry.QuadratureRule, "__init__", recorded)
    cfg = parse_config({
        "study": "approximation", "manifold": "P2",
        "metrics": [{"h": {"kind": "log_pole", "t": 0.25,
                           "Q": {"coord": 0}}},
                    {"h": {"kind": "log_pole", "t": 0.25,
                           "Q": {"coord": 1}}}],
        "eps_list": [0.5], "p_grid": [4], "samples": 1, "dict_count": 2,
        "seed": [0], "cache": str(tmp_path / "cache"),
    })
    report = run_study(cfg)
    assert [r["status"] for r in report["rows"]] == ["ok"]
    assert built == []


_LOG_POLE_OFF_AXES = {
    "kind": "log_pole", "t": 0.5,
    "Q": {"degree": 1, "terms": [[[1, 0], 1.0, 0.0], [[0, 1], 0.6, 0.3]]},
}


# Studies whose monomial evaluations reach the power tables: test-form
# Hessians on the blocks (the dd^c weights of the potential route on P1 and
# of the log-norm zero pairings on P2) and section values on those blocks.
# Test-form values take no monomials (TestForm.block_values), and the
# equidistribution of curve zeros and the wedge route on toric P2 spaces
# evaluate none large enough for the tables.
@pytest.mark.parametrize("doc", [
    {"study": "fs-convergence", "manifold": "P1", "degree": 1,
     "metrics": [{"h": _LOG_POLE_OFF_AXES}], "p_grid": [3, 4],
     "dict_count": 3},
    {"study": "equidistribution", "manifold": "P2",
     "metrics": [{"h": {"kind": "fs"}}], "p_grid": [5, 6], "samples": 3,
     "dict_count": 2},
], ids=["P1-fs-convergence", "P2-equidistribution"])
def test_monomial_kernel_strategy_never_reaches_a_report(doc, tmp_path,
                                                         monkeypatch):
    # the same study with power tables and with the broadcast alone, each
    # on a cache of its own, writes the same bytes
    tables = []
    column_products = _kernels._column_products

    def counted(*args):
        tables.append(args[0].shape)
        return column_products(*args)

    monkeypatch.setattr(_kernels, "_column_products", counted)

    def run(name):
        return run_study(parse_config(
            {**doc, "seed": [0], "cache": str(tmp_path / name)}))

    with_tables = run("tables")
    assert tables
    monkeypatch.setattr(_kernels, "_TABLE_MIN_VALUES", 2 ** 62)
    tables.clear()
    broadcast_only = run("broadcast")
    assert not tables
    _assert_same_bytes(with_tables, broadcast_only, tmp_path)


# -- the test-form dictionary from the cache -----------------------------------

# the study kinds of the benchmark's workloads, at small sizes
_DICTIONARY_STUDIES = {
    "fs-convergence": (
        {"study": "fs-convergence", "manifold": "P2",
         "metrics": [{"h": {"kind": "log_pole", "t": 0.5,
                            "Q": {"coord": 0}}}],
         "p_grid": [6, 8], "dict_count": 2}, "P2 m=2 count=2"),
    "equidistribution": (
        {"study": "equidistribution", "manifold": "P1", "degree": 2,
         "metrics": [{"h": _LOG_POLE_OFF_AXES}], "p_grid": [4, 6],
         "samples": 3, "dict_count": 3}, "P1 m=1 count=3"),
    "expected-zero": (
        {"study": "expected-zero", "manifold": "P2",
         "metrics": [{"h": {"kind": "fs"}}], "p_grid": [4],
         "samples": 100, "dict_count": 2}, "P2 m=1 count=2"),
    "approximation": (
        {"study": "approximation", "manifold": "P2",
         "metrics": [{"h": {"kind": "log_pole", "t": 0.25,
                            "Q": {"coord": 0}}},
                     {"h": {"kind": "log_pole", "t": 0.25,
                            "Q": {"coord": 1}}}],
         "eps_list": [0.5], "p_grid": [4],
         "samples": 1, "dict_count": 2}, "P2 m=2 count=2"),
}


def _no_normalization(*args):
    raise AssertionError("the dictionary was normalized")


@pytest.mark.parametrize("study", sorted(_DICTIONARY_STUDIES))
def test_warm_run_replays_the_dictionary(study, tmp_path, monkeypatch):
    doc, key = _DICTIONARY_STUDIES[study]
    cfg = parse_config({**doc, "seed": [0], "cache": str(tmp_path / "c")})
    cold = run_study(cfg)
    monkeypatch.setattr(testforms, "_normalized", _no_normalization)
    warm = run_study(cfg)
    _assert_same_bytes(cold, warm, tmp_path)
    for report, status in ((cold, "miss"), (warm, "hit")):
        lines = [ln for ln in report["log"] if ln.startswith("dictionary ")]
        assert lines == [f"dictionary {key} cache={status}"]
        # after every space line, before the closing rows line
        at = report["log"].index(lines[0])
        assert not any(ln.startswith("space ")
                       for ln in report["log"][at:])
        assert report["log"][-1].startswith("rows=")
    # the cache counters count spaces only
    assert cold["cache"]["misses"] == warm["cache"]["hits"]


def test_another_metric_shares_the_dictionary_entry(tmp_path, monkeypatch):
    doc, key = _DICTIONARY_STUDIES["fs-convergence"]
    run_study(parse_config({**doc, "seed": [0],
                            "cache": str(tmp_path / "c")}))
    monkeypatch.setattr(testforms, "_normalized", _no_normalization)
    other = run_study(parse_config({
        **doc, "metrics": [{"h": {"kind": "fs"}}], "p_grid": [3],
        "seed": [0], "cache": str(tmp_path / "c")}))
    assert f"dictionary {key} cache=hit" in other["log"]
    assert other["cache"] == {"hits": 0, "misses": 1}


def test_uncached_study_logs_its_dictionary_off():
    doc, key = _DICTIONARY_STUDIES["equidistribution"]
    report = run_study(parse_config({**doc, "seed": [0]}))
    assert f"dictionary {key} cache=off" in report["log"]
    assert report["log"][0].startswith("space ")
