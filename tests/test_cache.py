"""Cache keys carry the Gram numerics; damaged entries are recomputed.

An orthonormalization cached by code with other Gram numerics (a bumped
``sections.NUMERICS_VERSION`` or another quadrature plan) or in another
payload layout (``cache.SCHEMA``) must miss and be recomputed; an entry
written by the same numerics must still hit and replay the frame's bits, in
the form the space holds it: a diagonal Gram's scale vector, O(dim), or a
dense matrix.  An unreadable or mismatched entry warns and is rewritten,
and a failed write leaves no temporary file behind.
"""

import os

import numpy as np
import pytest

from kahlerlab import cache, sections
from kahlerlab.bundles import LineBundle, Metric
from kahlerlab.cache import (cache_get, cache_key, cache_path, cache_put,
                             cached_space, space_fragment)
from kahlerlab.geometry import build_manifold
from kahlerlab.polynomials import SectionPoly, coordinate_section
from kahlerlab.sections import build_section_space

P1 = build_manifold("P1")


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
    sp = build_section_space(_off_axis_pole(), 4, method="nodes",
                             orthonormalize=False)
    gram = space_fragment(sp)["gram"]
    assert gram["numerics"] == sections.NUMERICS_VERSION
    assert gram["method"] == "nodes"
    assert gram["rule"] == {"radial_min": 24, "angular_min": 83}
    # the closed form of the same pole keys no rule
    sp = build_section_space(_off_axis_pole(), 4, orthonormalize=False)
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
    sp = build_section_space(h, 7, orthonormalize=False)
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
