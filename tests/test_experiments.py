import numpy as np

from kahlerlab.config import parse_config
from kahlerlab.experiments import emit_report, run_study
from kahlerlab.geometry import quadrature_nodes
from kahlerlab.sections import build_section_space
from kahlerlab.testforms import test_form_dictionary
from kahlerlab.zeros import divisor_zero_set, sample_section, zero_pairing


def _expected_zero_config(cache):
    return parse_config({
        "study": "expected-zero", "manifold": "P2",
        "metrics": [{"h": {"kind": "fs"}}], "p_grid": [4],
        "samples": 100, "dict_count": 2, "seed": [5], "cache": str(cache),
    })


def test_expected_zero_reports_replay_and_match_the_sample_loop(tmp_path):
    cfg = _expected_zero_config(tmp_path / "cache")
    cold = run_study(cfg)
    warm = run_study(cfg)
    assert (cold["cache"], warm["cache"]) == ({"hits": 0, "misses": 1},
                                              {"hits": 1, "misses": 0})
    a = emit_report(cold, tmp_path / "cold")
    b = emit_report(warm, tmp_path / "warm")
    for kind in ("csv", "json", "svg"):
        with open(a[kind], "rb") as fa, open(b[kind], "rb") as fb:
            assert fa.read() == fb.read()

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
