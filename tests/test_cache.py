"""Cache keys carry the numerics; damaged entries are recomputed.

An orthonormalization cached by code with other Gram numerics (a bumped
``sections.NUMERICS_VERSION`` or another quadrature plan) or in another
payload layout (``cache.SCHEMA``) must miss and be recomputed; an entry
written by the same numerics must still hit and replay the frame's bits, in
the form the space holds it: a diagonal Gram's scale vector, O(dim), or a
dense matrix.  A test-form dictionary is keyed by its manifold, codimension,
count and ``NUMERICS_VERSION``, and a hit replays its forms with no
normalization.  An unreadable, malformed or mismatched entry warns and is
rewritten, and a failed write leaves no temporary file behind.
"""

import os

import numpy as np
import pytest

from kahlerlab import cache, sections, testforms
from kahlerlab.bundles import LineBundle, Metric
from kahlerlab.cache import (cache_get, cache_key, cache_path, cache_put,
                             cached_dictionary, cached_space,
                             dictionary_fragment, space_fragment, space_payload)
from kahlerlab.geometry import build_manifold
from kahlerlab.polynomials import SectionPoly, coordinate_section
from kahlerlab.sections import SectionSpace
from kahlerlab.testforms import test_form_dictionary

P1 = build_manifold("P1")
P2 = build_manifold("P2")


def _off_axis_pole():
    Q = SectionPoly.from_coeff_map(P1, 1, {(1, 0): 1.0, (0, 1): 0.6 + 0.3j})
    return Metric.log_pole(LineBundle(P1, 2), Q, 0.5)


def _degree_two_pole():
    # the nodes Gram of a pole of degree 2 keeps its rule
    Q = SectionPoly.from_coeff_map(P1, 2, {(2, 0): 1.0, (0, 2): -0.5})
    return Metric.log_pole(LineBundle(P1, 3), Q, 0.5)


def _toric_pole():
    return Metric.log_pole(LineBundle(P1, 1), coordinate_section(P1, 1), 0.3)


def _entries(cache_dir):
    return sorted(os.listdir(cache_dir))


def test_key_is_computed_without_quadrature_nodes(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("the cache key built quadrature nodes")

    monkeypatch.setattr(sections, "quadrature_nodes", no_nodes)
    sp = SectionSpace(_off_axis_pole(), 4, method="nodes")
    gram = space_fragment(sp)["gram"]
    assert gram["numerics"] == sections.NUMERICS_VERSION
    assert gram["method"] == "nodes"
    assert gram["rule"] == {"radial_min": 24, "angular_min": 83}
    # the closed form of the same pole keys no rule
    sp = SectionSpace(_off_axis_pole(), 4)
    assert space_fragment(sp)["gram"] == {
        "numerics": sections.NUMERICS_VERSION, "method": "nodes",
        "resolution": None, "rule": None}


def test_entry_under_other_numerics_misses_and_is_rewritten(tmp_path,
                                                           monkeypatch):
    h = _off_axis_pole()
    cache_dir = str(tmp_path)
    monkeypatch.setattr(sections, "NUMERICS_VERSION",
                        sections.NUMERICS_VERSION - 1)
    _, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "miss"
    old = _entries(cache_dir)
    monkeypatch.undo()

    space, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "miss"
    new = [e for e in _entries(cache_dir) if e not in old]
    assert new == [cache_key(space_fragment(space)) + ".json.gz"]

    again, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "hit"
    assert np.array_equal(again.coeff_matrix(), space.coeff_matrix())


def test_closed_form_key_has_no_rule_and_misses_older_numerics(tmp_path,
                                                              monkeypatch):
    h = _toric_pole()
    sp = SectionSpace(h, 7)
    gram = space_fragment(sp)["gram"]
    assert sections.NUMERICS_VERSION >= 6
    assert gram == {"numerics": sections.NUMERICS_VERSION,
                    "method": "diagonal", "resolution": None, "rule": None}
    cache_dir = str(tmp_path)
    # version 5 integrated toric diagonals on a quadrature rule
    monkeypatch.setattr(sections, "NUMERICS_VERSION", 5)
    assert cached_space(h, 7, cache_dir=cache_dir)[1] == "miss"
    monkeypatch.undo()
    assert cached_space(h, 7, cache_dir=cache_dir)[1] == "miss"
    space, status = cached_space(h, 7, resolution=48, cache_dir=cache_dir)
    # the resolution keys only a rule, and a closed form has none
    assert status == "hit" and space.rule is None
    assert len(_entries(cache_dir)) == 2


def test_other_rule_plan_misses(tmp_path):
    h = _degree_two_pole()
    cache_dir = str(tmp_path)
    assert cached_space(h, 4, cache_dir=cache_dir)[1] == "miss"
    assert cached_space(h, 4, cache_dir=cache_dir)[1] == "hit"
    # resolution 48 raises the nodes plan's radial_min from 24 to 48
    assert cached_space(h, 4, resolution=48, cache_dir=cache_dir)[1] == "miss"
    assert len(_entries(cache_dir)) == 2


def test_linear_pole_closed_form_hits_at_any_resolution(tmp_path):
    cache_dir = str(tmp_path)
    h = _off_axis_pole()
    assert cached_space(h, 4, cache_dir=cache_dir)[1] == "miss"
    space, status = cached_space(h, 4, resolution=48, cache_dir=cache_dir)
    # the resolution keys only a rule, and the closed form has none
    assert status == "hit" and space.rule is None
    assert len(_entries(cache_dir)) == 1


def test_entry_of_an_older_schema_misses_and_is_rewritten(tmp_path):
    h = _off_axis_pole()
    cache_dir = str(tmp_path)
    space, _ = cached_space(h, 4, cache_dir=cache_dir)
    key = cache_key(space_fragment(space))
    # schema 1 stored every frame as a dense complex matrix
    cache_put(cache_dir, key, dict(cache_get(cache_dir, key),
                                   schema="kahlerlab-space/1"))

    assert cached_space(h, 4, cache_dir=cache_dir)[1] == "miss"
    assert cache_get(cache_dir, key)["schema"] == cache.SCHEMA
    assert cached_space(h, 4, cache_dir=cache_dir)[1] == "hit"


def test_diagonal_entry_holds_one_number_per_section(tmp_path):
    cache_dir = str(tmp_path)
    space, _ = cached_space(_toric_pole(), 30, cache_dir=cache_dir)
    payload = cache_get(cache_dir, cache_key(space_fragment(space)))
    assert payload["method"] == "diagonal" and space.dim > 1
    assert np.shape(payload["coeff_re"]) == (space.dim,)
    assert "coeff_im" not in payload


@pytest.mark.parametrize("metric,method", [(_toric_pole, "diagonal"),
                                           (_off_axis_pole, "nodes")])
def test_hit_replays_the_frame_bit_for_bit(tmp_path, metric, method):
    # the nodes space is the benchmark's p1-zeros space
    h = metric()
    cache_dir = str(tmp_path)
    space, status = cached_space(h, 8, cache_dir=cache_dir)
    assert status == "miss"
    replay, status = cached_space(h, 8, cache_dir=cache_dir)
    assert status == "hit"
    assert replay.gram_method == space.gram_method == method
    frame = space.coeff_matrix()
    got = replay.coeff_matrix()
    assert got.dtype == frame.dtype and np.array_equal(got, frame)
    assert replay.gram_condition == space.gram_condition
    Z = P1.sample_grid(50)
    assert np.array_equal(replay.log_bergman_hom(Z), space.log_bergman_hom(Z))


# -- damaged entries and failed writes -----------------------------------------


def test_truncated_entry_warns_and_is_rewritten(tmp_path):
    h = _off_axis_pole()
    cache_dir = str(tmp_path)
    space, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "miss"
    path = cache_path(cache_dir, cache_key(space_fragment(space)))
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])

    with pytest.warns(UserWarning, match="unreadable cache entry"):
        again, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "miss"
    assert cache_get(cache_dir, cache_key(space_fragment(again))) is not None
    replay, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "hit"
    assert np.array_equal(replay.coeff_matrix(), space.coeff_matrix())


def test_entry_of_wrong_dimension_warns_and_is_recomputed(tmp_path):
    h = _off_axis_pole()
    cache_dir = str(tmp_path)
    space, _ = cached_space(h, 4, cache_dir=cache_dir)
    key = cache_key(space_fragment(space))
    payload = cache_get(cache_dir, key)
    cache_put(cache_dir, key, dict(payload, dim=space.dim + 1))

    with pytest.warns(UserWarning, match="dimension mismatch"):
        again, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "miss"
    assert cache_get(cache_dir, key)["dim"] == space.dim
    assert cached_space(h, 4, cache_dir=cache_dir)[1] == "hit"


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cache.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cache_put(str(tmp_path), "k", {"x": 1})
    assert _entries(str(tmp_path)) == []


def _short_frame(payload):
    return dict(payload, coeff_re=payload["coeff_re"][:-1])


def _nan_frame(payload):
    return dict(payload, coeff_re=[float("nan")] + payload["coeff_re"][1:])


@pytest.mark.parametrize("damage", [
    lambda payload: list(payload),
    lambda payload: {k: v for k, v in payload.items() if k != "coeff_re"},
    _short_frame,
    _nan_frame,
], ids=["list", "no-coeff_re", "short-frame", "nan-frame"])
def test_malformed_space_entry_warns_and_is_rewritten(tmp_path, damage):
    h = Metric.fubini_study(LineBundle(P1, 1))
    cache_dir = str(tmp_path)
    space, _ = cached_space(h, 4, cache_dir=cache_dir)
    key = cache_key(space_fragment(space))
    good = cache_get(cache_dir, key)
    cache_put(cache_dir, key, damage(good))

    with pytest.warns(UserWarning, match="malformed cache entry"):
        again, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "miss"
    assert np.array_equal(again.coeff_matrix(), space.coeff_matrix())
    assert cache_get(cache_dir, key) == good == space_payload(again)
    replay, status = cached_space(h, 4, cache_dir=cache_dir)
    assert status == "hit"
    assert np.array_equal(replay.coeff_matrix(), space.coeff_matrix())


# -- test-form dictionaries ----------------------------------------------------


def _identity(form):
    """Everything that tells two test forms apart."""
    polys = (None if form.constant else
             (form.A.exponents.tolist(), form.A.coeffs.tolist(),
              form.B.exponents.tolist(), form.B.coeffs.tolist()))
    part = None if form.omega_part is None else form.omega_part.tolist()
    return (form.label, form.c, form.scale, part, polys)


def _dictionary_key(m=2, count=4):
    return cache_key(dictionary_fragment(P2, m, count))


def test_dictionary_off_the_cache_is_the_computed_one():
    forms, status = cached_dictionary(P2, 1, 6)
    assert status == "off"
    assert ([_identity(f) for f in forms]
            == [_identity(f) for f in test_form_dictionary(P2, 1, 6)])


@pytest.mark.parametrize("kind,m", [("P1", 1), ("P2", 1), ("P1xP1", 1),
                                    ("P2", 2), ("P1xP1", 2)])
def test_dictionary_hit_replays_the_forms_without_normalizing(
        kind, m, tmp_path, monkeypatch):
    manifold = build_manifold(kind)
    cache_dir = str(tmp_path)
    normalized = []
    normalize = testforms._normalized

    def counted(forms, grid):
        normalized.append(len(forms))
        return normalize(forms, grid)

    # a fresh cache directory pays the full build
    monkeypatch.setattr(testforms, "_normalized", counted)
    cold, status = cached_dictionary(manifold, m, 12, cache_dir)
    assert status == "miss" and normalized == [12]
    assert len(_entries(cache_dir)) == 1

    def refused(forms, grid):
        raise AssertionError("a hit normalized the dictionary")

    monkeypatch.setattr(testforms, "_normalized", refused)
    warm, status = cached_dictionary(manifold, m, 12, cache_dir)
    assert status == "hit"
    assert [_identity(f) for f in warm] == [_identity(f) for f in cold]
    assert warm[0].constant and warm[0].scale == 1.0


def test_dictionary_key_has_no_metric_and_carries_the_numerics():
    assert dictionary_fragment(P2, 2, 4) == {
        "what": "test-form-dictionary", "manifold": "P2", "m": 2,
        "count": 4, "numerics": sections.NUMERICS_VERSION}
    # other counts and codimensions are other entries
    keys = {_dictionary_key(m, count) for m in (1, 2) for count in (4, 5)}
    assert len(keys) == 4


def test_dictionary_under_other_numerics_misses_and_is_rewritten(
        tmp_path, monkeypatch):
    cache_dir = str(tmp_path)
    monkeypatch.setattr(sections, "NUMERICS_VERSION",
                        sections.NUMERICS_VERSION - 1)
    assert cached_dictionary(P2, 2, 4, cache_dir)[1] == "miss"
    old = _entries(cache_dir)
    monkeypatch.undo()
    assert cached_dictionary(P2, 2, 4, cache_dir)[1] == "miss"
    new = [e for e in _entries(cache_dir) if e not in old]
    assert new == [_dictionary_key() + ".json.gz"]
    assert cached_dictionary(P2, 2, 4, cache_dir)[1] == "hit"


def test_dictionary_of_another_schema_misses_and_is_rewritten(tmp_path):
    cache_dir = str(tmp_path)
    cached_dictionary(P2, 2, 4, cache_dir)
    key = _dictionary_key()
    good = cache_get(cache_dir, key)
    cache_put(cache_dir, key, dict(good, schema="kahlerlab-dictionary/0"))
    assert cached_dictionary(P2, 2, 4, cache_dir)[1] == "miss"
    assert cache_get(cache_dir, key) == good
    assert cached_dictionary(P2, 2, 4, cache_dir)[1] == "hit"


def _swapped_labels(payload):
    # two forms of the stream, each with the other's scale
    one, a, b, *rest = payload["labels"]
    return dict(payload, labels=[one, b, a, *rest])


@pytest.mark.parametrize("damage", [
    lambda payload: list(payload),
    lambda payload: {k: v for k, v in payload.items() if k != "scales"},
    lambda payload: dict(payload, scales=payload["scales"][:-1]),
    lambda payload: dict(payload, scales=[float("nan")]
                         + payload["scales"][1:]),
    lambda payload: dict(payload, labels=payload["labels"][:-1]),
    _swapped_labels,
], ids=["list", "no-scales", "short-scales", "nan-scale", "short-labels",
        "label-off-the-stream"])
def test_malformed_dictionary_entry_warns_and_is_rewritten(tmp_path, damage):
    cache_dir = str(tmp_path)
    forms, _ = cached_dictionary(P2, 2, 4, cache_dir)
    key = _dictionary_key()
    good = cache_get(cache_dir, key)
    cache_put(cache_dir, key, damage(good))

    with pytest.warns(UserWarning, match="malformed cache entry"):
        again, status = cached_dictionary(P2, 2, 4, cache_dir)
    assert status == "miss"
    assert [_identity(f) for f in again] == [_identity(f) for f in forms]
    assert cache_get(cache_dir, key) == good
    assert cached_dictionary(P2, 2, 4, cache_dir)[1] == "hit"
