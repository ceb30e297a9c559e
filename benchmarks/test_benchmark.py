"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest benchmarks
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kahlerlab.config import parse_config  # noqa: E402

# a call of the layer each workload is chosen to stress
STRESSED = {
    "p2-wedge": "fscurrents.reduced_hessian.calls",
    "p1-zeros": "sections.gram.nodes",
    "p2-divisor": "zeros.log_norm.calls",
    "p2-approx": "zeros.common_zeros.calls",
}


def _bindings():
    """Every function-valued attribute of the package's modules and
    classes, by identity."""
    out = {}
    for mod in tracer._package_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_tracer_patches_every_binding_and_restores_it():
    importlib.import_module("kahlerlab.experiments")
    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        import kahlerlab
        from kahlerlab import (_kernels, bundles, distance, experiments,
                               fscurrents, polynomials, sections, zeros)
        from kahlerlab.fscurrents import ReducedHessianField
        from kahlerlab.zeros import Section
        for mod in (_kernels, sections, fscurrents, polynomials):
            assert mod.eval_monomials.__traced__ is \
                before[("kahlerlab._kernels", "eval_monomials")]
        for mod in (experiments, sections, fscurrents, zeros, distance,
                    kahlerlab):
            assert hasattr(mod.quadrature_nodes, "__traced__")
        for mod in (zeros, fscurrents):
            assert hasattr(mod.curvature_pairing, "__traced__")
        assert hasattr(zeros.ddc_pairing, "__traced__")
        assert hasattr(bundles.pair_omega_basis, "__traced__")
        assert hasattr(vars(ReducedHessianField)["__call__"], "__traced__")
        assert hasattr(vars(Section)["log_norm"], "__traced__")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not any(hasattr(v, "__traced__") for v in after.values())


def test_self_time_excludes_nested_spans():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        wrapped_inner()
        time.sleep(0.01)

    wrapped_inner = t._wrap("zeros.log_norm", inner)
    t._wrap("zeros.zero_pairing", outer)()
    m = t.metrics()
    assert m["zeros.log_norm.calls"] == 1
    assert m["zeros.zero_pairing.calls"] == 1
    assert m["zeros.log_norm.self_s"] >= 0.02
    assert 0.01 <= m["zeros.zero_pairing.self_s"] < 0.02
    assert [s[1] for s in t.spans] == [-1, 0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_runs_in_seconds(name, tmp_path):
    t0 = time.perf_counter()
    raw = worker.measure(name, 3, 0, True, tmp_path, smoke=True,
                         min_pairs=1)
    assert time.perf_counter() - t0 < 15
    assert raw["failed"] == 0 and raw["replay_identical"]
    assert raw["attempted"] == 3
    assert raw["layers"][STRESSED[name]] > 0
    assert raw["layers"]["config.parse_config.calls"] == 1
    assert raw["layers"]["experiments.run_study.calls"] == 2


def test_printed_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        raw = worker.measure("p2-approx", 0, 0, trace, tmp_path,
                             smoke=True, min_pairs=1)
        printed = run.metrics(raw, [1.0, 1.1], trace)
        assert {n: m["unit"] for n, m in printed.items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


def test_pairs_after_the_first_draw_other_sections(tmp_path):
    raw = worker.measure("p1-zeros", 0, 0, False, tmp_path, smoke=True,
                         min_pairs=3)
    assert raw["pairs"] == 3 and raw["replay_identical"]
    assert raw["fail_frac"] == 0.0
    cfg = parse_config(workloads.study_config("p1-zeros", 0, tmp_path, True))
    runs = worker.Runs(tmp_path / "out")
    runs.run(cfg)
    runs.run(parse_config(dict(workloads.study_config(
        "p1-zeros", 0, tmp_path, True), seed=[0, 1])))
    assert not runs.identical


def test_host_speed_kernel_runs_on_request_and_ends():
    with worker.HostSpeed() as speed:
        assert 0 < speed.time() < 5
        proc = speed._proc
    assert proc.poll() is not None


def test_seed_fills_the_config(tmp_path):
    doc = workloads.study_config("p1-zeros", 7, tmp_path)
    assert doc["seed"] == [7] and doc["cache"] == str(tmp_path)
    assert "seed" not in workloads.WORKLOADS["p1-zeros"][1]


def test_a_raising_study_counts_as_fully_failed(tmp_path):
    cfg = parse_config(dict(workloads.study_config("p2-wedge", 0, tmp_path),
                            p_grid=[4, 5]))
    runs = worker.Runs(tmp_path / "out")
    runs.run(cfg)
    assert (runs.attempted, runs.failed) == (1, 1)
    assert runs.fail_frac == 1.0
    assert runs.errors == {"EmptySpaceError"}


def test_csv_mismatches_compare_numeric_columns_within_tolerance():
    ref = "metric,p,value,status\nh,8,1.0,ok\nh,10,,RootFindingError\n"
    assert worker.csv_mismatches(ref, ref) == []
    near = "metric,p,value,status\ng,8,1.0000001,bad\nh,10,,RootFindingError\n"
    assert worker.csv_mismatches(near, ref) == []
    far = "metric,p,value,status\nh,8,1.01,ok\nh,10,0.5,ok\n"
    assert len(worker.csv_mismatches(far, ref)) == 2
    assert worker.csv_mismatches(ref.splitlines()[0], ref)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "p2-wedge",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
