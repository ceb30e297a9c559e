import weakref

import numpy as np
import pytest

from kahlerlab import _kernels, distance, experiments
from kahlerlab.bundles import form_values_hom
from kahlerlab.config import parse_config
from kahlerlab.errors import (ConfigurationError, EmptySpaceError,
                              UnsupportedMetricError)
from kahlerlab.experiments import emit_report, run_study
from kahlerlab.fscurrents import descriptor_form_pairing
from kahlerlab.geometry import quadrature_nodes
from kahlerlab.sections import build_section_space
from kahlerlab.testforms import test_form_dictionary
from kahlerlab.zeros import (divisor_zero_set, sample_section, zero_pairing,
                             zeros_on_curve)


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
    loop = np.array([
        [zero_pairing(divisor_zero_set(
            sample_section(space, cfg.seed + (0, 0, i))), f, rule)
         for f in forms] for i in range(cfg.samples)])
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
    rule = quadrature_nodes(man, 48)
    targets = [descriptor_form_pairing(h.curvature_descriptor(), f, rule)
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
                vals = form_values_hom(man, f, pts)
                pair = sum(k * v for (_, k), v in zip(zs.points, vals))
                row.append(abs(pair / p - t))
            errs.append(row)
        for f, err in zip(forms, np.mean(errs, axis=0)):
            series[f.label].append(float(err))
    assert [s["label"] for s in cold["series"]] == list(series)
    for s in cold["series"]:
        assert s["x"] == [4, 6] and s["y"] == series[s["label"]]


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


def _record_target_rules(monkeypatch):
    refs = []
    target_rule = experiments._target_rule

    def recorded(cfg):
        rule = target_rule(cfg)
        refs.append(weakref.ref(rule))
        return rule

    monkeypatch.setattr(experiments, "_target_rule", recorded)
    return refs


def test_study_frees_its_target_rule(tmp_path, monkeypatch):
    # the rule carries the memo of p-independent values: nothing may keep it
    refs = _record_target_rules(monkeypatch)
    report = run_study(_surface_convergence_config(tmp_path / "cache",
                                                   [5, 6]))
    assert report["flags"]["mass_ok"]
    assert len(refs) == 1 and refs[0]() is None


def test_surface_approximation_frees_its_target_rule_before_the_cells(
        tmp_path, monkeypatch):
    refs = _record_target_rules(monkeypatch)
    alive = []
    point_pairings = distance.point_pairings

    def recorded(zero_sets, forms):
        alive.append(refs[0]() is not None)
        return point_pairings(zero_sets, forms)

    monkeypatch.setattr(distance, "point_pairings", recorded)
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
    assert alive == [False]


_LOG_POLE_OFF_AXES = {
    "kind": "log_pole", "t": 0.5,
    "Q": {"degree": 1, "terms": [[[1, 0], 1.0, 0.0], [[0, 1], 0.6, 0.3]]},
}


@pytest.mark.parametrize("doc", [
    {"study": "equidistribution", "manifold": "P1", "degree": 2,
     "metrics": [{"h": _LOG_POLE_OFF_AXES}], "p_grid": [4, 6],
     "samples": 3},
    {"study": "fs-convergence", "manifold": "P2",
     "metrics": [{"h": {"kind": "log_pole", "t": 0.5,
                        "Q": {"coord": 0}}}],
     "p_grid": [5, 6], "dict_count": 2},
], ids=["P1-equidistribution", "P2-fs-convergence"])
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
