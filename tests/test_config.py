"""Config documents: validation and the identity hash of a run.

The normalized form of a parsed config must parse to the same run: its
hash names every report file, so a round trip through ``config_fragment``
may not change it, while output locations and key order never enter it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerlab.config import (LAMBDA_KINDS, STUDIES, config_fragment,
                              config_hash, load_config, parse_config)
from kahlerlab.errors import ConfigurationError
from kahlerlab.zeros import MIN_EXPECTED_ZERO_SAMPLES

strength = st.sampled_from([0.1, 0.25, 0.5, 1.0])


@st.composite
def metric_entries(draw):
    t = draw(strength)
    h = draw(st.sampled_from([
        {"kind": "fs"},
        {"kind": "log_pole", "t": t, "Q": {"coord": 0}},
        {"kind": "log_pole", "terms": [{"coord": 0, "t": t},
                                       {"coord": 1, "t": 0.25}]},
        {"kind": "smoothed_max", "t": t, "c": 0.1,
         "Q1": {"coord": 0}, "Q2": {"coord": 1}},
    ]))
    entry = {"h": h}
    if draw(st.booleans()):
        entry["g"] = {"kind": "fs"}
    return entry


@st.composite
def documents(draw):
    manifold = draw(st.sampled_from(["P1", "P2", "P1xP1"]))
    study = draw(st.sampled_from(STUDIES))
    if manifold == "P1xP1":
        degree = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
    else:
        degree = draw(st.integers(1, 3))
    doc = {
        "study": study, "manifold": manifold, "degree": degree,
        "metrics": draw(st.lists(metric_entries(), min_size=1, max_size=3)),
        "p_grid": sorted(draw(st.sets(st.integers(1, 64), min_size=1,
                                      max_size=4))),
    }
    low = MIN_EXPECTED_ZERO_SAMPLES if study == "expected-zero" else 1
    optional = {
        "samples": st.integers(low, 500),
        "seed": st.one_of(st.integers(0, 99),
                          st.lists(st.integers(0, 99), min_size=1,
                                   max_size=3)),
        "resolution": st.one_of(st.none(), st.integers(8, 64)),
        "exclusion": st.floats(0.0, 0.5),
        "adjoint": st.booleans(),
        "eps_list": st.sets(st.floats(0.01, 1.0), min_size=1,
                            max_size=3).map(
            lambda s: sorted(s, reverse=True)),
        "thresholds": st.lists(st.floats(0.0, 2.0), max_size=3),
        "lambda_kind": st.sampled_from(LAMBDA_KINDS),
        "dict_count": st.integers(1, 20),
        "out": st.sampled_from(["out", "elsewhere"]),
        "cache": st.sampled_from([None, "cache"]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


@given(documents())
@settings(deadline=None, max_examples=60)
def test_fragment_parses_to_the_same_run(doc):
    cfg = parse_config(doc)
    fragment = config_fragment(cfg)
    again = parse_config(json.loads(json.dumps(fragment)))
    assert config_fragment(again) == fragment
    assert config_hash(again) == config_hash(cfg)


def test_hash_ignores_output_locations_and_key_order():
    doc = {"study": "bergman", "manifold": "P1", "degree": 1,
           "metrics": [{"h": {"kind": "log_pole", "t": 0.5,
                              "Q": {"coord": 0}}}],
           "p_grid": [4, 8], "seed": [0, 1]}
    moved = {key: doc[key] for key in reversed(list(doc))}
    moved["metrics"] = [{"h": {"Q": {"coord": 0}, "t": 0.5,
                               "kind": "log_pole"}}]
    moved.update(out="elsewhere", cache="cache")
    assert config_hash(parse_config(moved)) == config_hash(parse_config(doc))
    assert config_hash(parse_config(dict(doc, seed=[0, 2]))) \
        != config_hash(parse_config(doc))


_BASE = {"study": "bergman", "manifold": "P1", "p_grid": [4, 8]}


@pytest.mark.parametrize("doc", [
    dict(_BASE, colour="blue"),
    dict(_BASE, p_grid=[8, 8]),
    dict(_BASE, p_grid=[8, 4]),
    dict(_BASE, study="expected-zero",
         samples=MIN_EXPECTED_ZERO_SAMPLES - 1),
    dict(_BASE, study="approximation", eps_list=[0.5, 0.5]),
    dict(_BASE, study="approximation", eps_list=[0.25, 0.5]),
    dict(_BASE, study="approximation", p_grid=[[4, 8], [8, 16]]),
    dict(_BASE, manifold="P1xP1"),
    dict(_BASE, manifold="P1xP1", degree=[1, 2, 3]),
    dict(_BASE, degree=[1, 2]),
    dict(_BASE, degree="x"),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "t": 0.5,
                                "Q": {"coord": 5}}}]),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "t": 0.5, "Q": {
        "degree": 1, "terms": [[[1, 0]]]}}}]),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "Q": {"coord": 0}}}]),
    dict(_BASE, samples="many"),
    dict(_BASE, study="approximation", eps_list=["a"]),
    dict(_BASE, p_grid=[4.7, 8]),
    dict(_BASE, degree=2.5),
    dict(_BASE, samples=3.9),
    dict(_BASE, dict_count=2.2),
    dict(_BASE, resolution=16.7),
    dict(_BASE, dict_count=True),
    dict(_BASE, samples=True),
    dict(_BASE, p_grid=[True, 8]),
    dict(_BASE, degree=True),
    dict(_BASE, seed=True),
    dict(_BASE, resolution="16"),
    dict(_BASE, p_grid="48"),
    dict(_BASE, adjoint="no"),
    dict(_BASE, adjoint=1),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "t": 0.5,
                                "Q": {"coord": 0.5}}}]),
    dict(_BASE, exclusion=True),
    dict(_BASE, exclusion="0.1"),
    dict(_BASE, exclusion=float("nan")),
    dict(_BASE, study="approximation", eps_list=[True, 0.5]),
    dict(_BASE, study="approximation", eps_list=["0.5"]),
    dict(_BASE, study="approximation", eps_list=[float("inf"), 0.5]),
    dict(_BASE, thresholds=[True, 0.5]),
    dict(_BASE, thresholds=["0.5"]),
    dict(_BASE, thresholds=[0.5, float("nan")]),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "t": True,
                                "Q": {"coord": 0}}}]),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "t": "0.5",
                                "Q": {"coord": 0}}}]),
    dict(_BASE, metrics=[{"h": {"kind": "log_pole", "terms": [
        {"coord": 0, "t": "0.5"}]}}]),
    dict(_BASE, metrics=[{"h": {"kind": "max_log", "t": True}}]),
    dict(_BASE, metrics=[{"h": {"kind": "smoothed_max", "t": 0.5,
                                "c": "0.1", "Q1": {"coord": 0},
                                "Q2": {"coord": 1}}}]),
    dict(_BASE, metrics=[{"h": {"kind": "smoothed_max", "t": 0.5,
                                "c": float("inf"), "Q1": {"coord": 0},
                                "Q2": {"coord": 1}}}]),
], ids=["unknown-key", "repeated-p", "decreasing-p", "few-samples",
        "repeated-eps", "increasing-eps", "nested-p-grid",
        "product-without-degree", "three-degrees", "two-degrees-on-a-line",
        "text-degree", "no-such-coordinate", "term-without-coefficient",
        "pole-without-strength", "text-samples", "text-eps",
        "fractional-p", "fractional-degree", "fractional-samples",
        "fractional-dict-count", "fractional-resolution", "bool-dict-count",
        "bool-samples", "bool-p", "bool-degree", "bool-seed",
        "text-resolution", "text-p-grid", "text-adjoint", "number-adjoint",
        "fractional-coordinate", "bool-exclusion", "text-exclusion",
        "nan-exclusion", "bool-eps", "text-eps-number", "inf-eps",
        "bool-threshold", "text-threshold", "nan-threshold", "bool-t",
        "text-t", "text-term-t", "bool-max-log-t", "text-c", "inf-c"])
def test_invalid_documents_raise(doc):
    with pytest.raises(ConfigurationError):
        parse_config(doc)


def test_integral_numbers_keep_the_hash_of_their_integers():
    # JSON may spell an integer 4.0; it names the same run as 4
    doc = dict(_BASE, degree=2, samples=3, dict_count=2, resolution=16,
               adjoint=False)
    spelled = dict(doc, p_grid=[4.0, 8.0], degree=2.0, samples=3.0,
                   dict_count=2.0, resolution=16.0)
    assert config_hash(parse_config(spelled)) \
        == config_hash(parse_config(doc))


def test_float_keys_keep_the_hash_of_their_numbers():
    # the hash of this document before its float keys were checked
    doc = {"study": "approximation", "manifold": "P2", "p_grid": [4, 8],
           "metrics": [
               {"h": {"kind": "log_pole", "t": 0.25, "Q": {"coord": 0}}},
               {"h": {"kind": "log_pole", "terms": [{"coord": 0, "t": 0.5},
                                                    {"coord": 1, "t": 1}]},
                "g": {"kind": "max_log", "t": 0.5}},
               {"h": {"kind": "smoothed_max", "t": 0.5, "c": 0.1,
                      "Q1": {"coord": 0}, "Q2": {"coord": 1}}}],
           "exclusion": 0.1, "eps_list": [1, 0.5, 0.25],
           "thresholds": [0, 0.5, 2]}
    assert config_hash(parse_config(doc)) == "0b35fefcc5b1"


def test_expected_zero_accepts_the_minimum_sample_count():
    parse_config(dict(_BASE, study="expected-zero",
                      samples=MIN_EXPECTED_ZERO_SAMPLES))


def test_load_config_reads_the_document_parse_config_takes(tmp_path):
    doc = {"study": "equidistribution", "manifold": "P1", "degree": 2,
           "metrics": [{"h": {"kind": "log_pole", "t": 0.5,
                              "Q": {"coord": 0}}}],
           "p_grid": [4, 8], "samples": 3, "seed": [0, 1]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert config_hash(load_config(path)) == config_hash(parse_config(doc))
    path.write_text('{"study": "bergman",', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(path)
