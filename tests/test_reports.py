import copy
import math

import numpy as np
import pytest

from kahlerlab.reports import (_cell, fit_loglog, linregress, svg_chart,
                               write_csv)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("x, y", [
    ([0.3, 1.7], [2.0, -1.25]),                           # n == 2
    ([0.1, 0.5, 0.7, 1.3, 2.0], [1.0, 2.1, 2.9, 5.2, 8.3]),
    ([0.1, 0.5, 0.7, 1.3, 2.0], [3.0, -2.1, -2.9, -5.2, -8.3]),
    ([math.log(p) / p for p in (4, 6, 8, 12, 16)],       # a bergman fit
     [0.41, 0.33, 0.27, 0.2, 0.16]),
    ([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]),                   # constant y
    ([1.0, 2.0], [4.0, 4.0]),
], ids=["n2", "positive", "negative", "bergman", "constant", "constant-n2"])
def test_linregress_matches_scipy_bit_for_bit(x, y):
    stats = pytest.importorskip("scipy.stats")
    ref = stats.linregress(x, y)
    got = linregress(x, y)
    assert [_bits(v) for v in got] == [
        _bits(v) for v in (ref.slope, ref.intercept, ref.rvalue, ref.stderr)]


def test_linregress_matches_scipy_on_random_lines():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    for n in range(3, 43):
        x = rng.normal(size=n)
        y = 0.7 * x + rng.normal(size=n)
        ref = stats.linregress(x, y)
        assert [_bits(v) for v in linregress(x, y)] == [
            _bits(v) for v in (ref.slope, ref.intercept, ref.rvalue,
                               ref.stderr)]


def test_fit_loglog_needs_two_positive_pairs_with_distinct_x():
    assert fit_loglog([], []) is None
    assert fit_loglog([2.0], [3.0]) is None
    # non-positive entries are dropped before counting
    assert fit_loglog([2.0, 3.0, -1.0], [3.0, 0.0, 5.0]) is None
    assert fit_loglog([2.0, None, 4.0], [3.0, 1.0, None]) is None
    assert fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None


@pytest.mark.parametrize("power", [2, -2])
def test_fit_loglog_recovers_a_power_law_exactly(power):
    # log(x**2) == 2 * log(x) in floating point when x**2 is exact
    x = [1.0, 2.0, 3.0, 5.0, 8.0]
    fit = fit_loglog(x, [v ** power for v in x])
    assert fit == {"slope": float(power), "intercept": 0.0, "r2": 1.0,
                   "stderr": 0.0, "n": 5}


def test_cell_formats_each_value_kind():
    assert _cell(None) == ""
    assert _cell(True) == "true"
    assert _cell(np.bool_(False)) == "false"
    assert _cell(0.1) == "0.1"
    assert _cell(np.float64(1 / 3)) == "0.3333333333333333"
    assert _cell(1e-20) == "1e-20"
    assert _cell(7) == "7"
    assert _cell(np.int64(-3)) == "-3"
    assert _cell("P2") == "P2"


def test_write_csv_keeps_column_order_and_blanks_missing_keys(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["p", "sup", "ok", "note"],
              [{"p": 4, "sup": 0.25, "ok": True, "extra": 1},
               {"sup": np.float64(2.5e-7), "note": "a,b"}])
    assert path.read_bytes() == (b"p,sup,ok,note\n"
                                 b"4,0.25,true,\n"
                                 b',2.5e-07,,"a,b"\n')


def test_svg_chart_is_a_function_of_its_payload():
    series = [{"label": "fs", "x": [4, 8, 16], "y": [0.5, 0.26, 0.13]},
              {"label": "pole", "x": [4, 8, None], "y": [0.9, -1.0, 0.2]}]
    args = ("sup |log P|", series, "p", "sup")
    a = svg_chart(*args, annotation="model: C log(p)/p")
    b = svg_chart(*copy.deepcopy(args), annotation="model: C log(p)/p")
    assert a == b
    assert a.startswith("<svg ") and a.endswith("</svg>\n")
    assert a.count("<polyline") == 2
    # the pole series keeps one point; non-positive and None pairs drop
    assert a.count("<circle") == 4
    assert svg_chart(*args) != a
    empty = svg_chart("t", [{"label": "z", "x": [1], "y": [0.0]}], "p", "y")
    assert "no positive data" in empty and "<polyline" not in empty
