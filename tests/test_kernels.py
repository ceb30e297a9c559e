"""``eval_monomials`` against the broadcast formula, bit for bit.

The kernel takes per-axis power tables above a size cut-over, on one axis
and on several alike, and the broadcast below it.  Either way every value
must carry the bits of the broadcast formula (``_broadcast`` below, the
kernel's former body): signs of zero included, since callers take
logarithms and arguments of these values.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlerlab import _kernels
from kahlerlab._kernels import eval_monomials

SPECIAL_PARTS = np.array([0.0, -0.0, 1.0, -1.0, 1e-3, -1e-3])


def _broadcast(points, exponents, scales):
    """One power per point, monomial and axis, then ``prod`` over the axes."""
    vals = points[:, None, :] ** exponents[None, :, :]
    out = vals.prod(axis=2)
    out *= scales[None, :]
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    g = got.view(np.float64)
    w = want.view(np.float64)
    assert np.array_equal(g, w)
    assert np.array_equal(np.signbit(g), np.signbit(w))


def _points(rng, n, k, special=0.3):
    # parts in [-2, 2] keep |z|^(99 k) finite for k <= 4; a share of parts
    # is replaced by exact zeros of both signs, units and tiny values
    parts = rng.uniform(-2.0, 2.0, size=(n, k, 2))
    mask = rng.random(parts.shape) < special
    parts[mask] = rng.choice(SPECIAL_PARTS, size=int(mask.sum()))
    return parts.view(np.complex128)[..., 0]


def _with_zero_bases(points):
    # exact zero bases with all four signs of their parts in front
    zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    zeros = np.repeat(zeros[:, None, :], points.shape[1], axis=1)
    return np.concatenate([zeros.view(np.complex128)[..., 0], points])


def _p2_chart_exponents(degree):
    return np.array([(i, j) for i in range(degree + 1)
                     for j in range(degree + 1 - i)], dtype=np.int64)


@st.composite
def monomial_inputs(draw):
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, 40))
    # rows on both sides of the cut-over between the two strategies
    cut = -(-_kernels._TABLE_MIN_VALUES // max(m, 1))
    n = draw(st.integers(0, 2 * cut))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # sparse sets: a few distinct exponents anywhere in 0..99
        pool = rng.choice(100, size=draw(st.integers(1, 4)), replace=False)
        exponents = rng.choice(pool, size=(m, k))
    else:
        exponents = rng.integers(0, draw(st.sampled_from([1, 10, 99])) + 1,
                                 size=(m, k))
    points = _points(rng, n, k, special=draw(st.sampled_from([0, 0.2, 0.6])))
    return points, exponents.astype(np.int64), rng.uniform(-2, 2, size=m)


_RNG = np.random.default_rng(20)


@settings(max_examples=150, deadline=None)
@given(monomial_inputs())
@example((_points(_RNG, 1, 2), _p2_chart_exponents(10), np.ones(66)))
@example((_points(_RNG, 0, 2), _p2_chart_exponents(10), np.ones(66)))
@example((_points(_RNG, 50, 3), np.zeros((0, 3), np.int64), np.ones(0)))
@example((_points(_RNG, 800, 2), np.array([[3, 0], [2, 5], [40, 70]]),
          np.ones(3)))
@example((_points(_RNG, 700, 4), _RNG.integers(0, 100, size=(9, 4)),
          np.ones(9)))
# one axis above the cut-over: exponents 0 and 1 take no power, and a zero
# base to the exponent 1 is +0+0j whatever its signs
@example((_with_zero_bases(_points(_RNG, 1100, 1)), np.array([[0], [1]]),
          np.ones(2)))
@example((_with_zero_bases(_points(_RNG, 700, 1)), np.array([[0], [1], [2]]),
          np.ones(3)))
# a scalar exponent 2 would take numpy's square path, which rounds
# differently from the broadcast's array power
@example((_points(_RNG, 1100, 2, special=0), np.array([[2, 0], [0, 2]]),
          np.ones(2)))
def test_eval_monomials_has_the_bits_of_the_broadcast(inputs):
    points, exponents, scales = inputs
    _assert_same_bits(eval_monomials(points, exponents, scales),
                      _broadcast(points, exponents, scales))


def _cut(n, column, k, tables, id=None):
    # id: n-m-k-tables (and the exponents, where two rows share that)
    return pytest.param(n, column, k, tables,
                        id=id or f"{n}-{len(column)}-{k}-{tables}")


@pytest.mark.parametrize("n, column, k, tables", [
    _cut(1, [1] * 66, 2, False),
    _cut(31, [1] * 66, 2, False),
    _cut(32, [1] * 66, 2, True),
    _cut(2047, [1], 2, False),
    _cut(2048, [1], 2, True),
    _cut(700, [1, 1, 1], 3, True),
    _cut(100_000, [2, 2, 2], 2, True),
    # one axis: the tables run where at most half the monomials take a power
    _cut(682, [1, 1, 1], 1, False),
    _cut(683, [1, 1, 1], 1, True),
    _cut(2047, [0], 1, False),
    _cut(100_000, [2, 2, 2], 1, False),
    _cut(100_000, [0, 1, 2], 1, True),
    _cut(100_000, [0, 2, 3], 1, False, "100000-3-1-False-e023"),
])
def test_cut_over_depends_on_the_input_shape(n, column, k, tables,
                                             monkeypatch):
    ran = _spy_on_strategies(monkeypatch)
    exponents = np.repeat(np.array(column)[:, None], k, axis=1)
    eval_monomials(np.ones((n, k)), exponents, np.ones(len(column)))
    assert ran == ["_column_products" if tables else "_broadcast_products"]


def _spy_on_strategies(monkeypatch):
    """Record the name of each strategy of ``eval_monomials`` that runs."""
    ran = []
    for name in ("_column_products", "_broadcast_products"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name,
            lambda *a, name=name, real=real: (ran.append(name), real(*a)))
    return ran


@pytest.mark.parametrize("k, m, top, tables", [
    pytest.param(1, 66, 2, True, id="1-66"),
    pytest.param(2, 66, 10, True, id="2-66"),
    pytest.param(3, 10, 10, True, id="3-10"),
    pytest.param(1, 66, 10, False, id="1-66-broadcast"),
])
def test_chunk_boundaries_leave_the_bits_alone(k, m, top, tables,
                                              monkeypatch):
    # two full chunks of rows and one more, at the budget of the strategy
    # that runs: the tables, and on one axis with most exponents above 1,
    # the broadcast.  Exponents cycle through 0..top on the first axis, so
    # that each row takes the strategy it names.
    if tables:
        chunk = _kernels._TABLE_ENTRIES // m
    else:
        chunk = _kernels._WORK_ENTRIES // m
    rng = np.random.default_rng(k)
    points = _points(rng, 2 * chunk + 1, k)
    exponents = rng.integers(0, top + 1, size=(m, k))
    exponents[:, 0] = np.arange(m) % (top + 1)
    scales = rng.uniform(-2, 2, size=m)
    ran = _spy_on_strategies(monkeypatch)
    values = eval_monomials(points, exponents, scales)
    assert ran == ["_column_products" if tables else "_broadcast_products"]
    _assert_same_bits(values, _broadcast(points, exponents, scales))


def test_large_block_peaks_no_higher_than_the_broadcast():
    # a 250,000-row block of the P2 degree-10 chart basis (m = 66)
    rng = np.random.default_rng(0)
    points = _points(rng, 250_000, 2, special=0)
    exponents = _p2_chart_exponents(10)
    tracemalloc.start()
    try:
        out = eval_monomials(points, exponents, np.ones(len(exponents)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the broadcast peaked 32 MB above its 252 MB output (a 16 MB power
    # array, its product and the copy into the output); tables take ~2 MB
    assert peak - out.nbytes < 8 * 2 ** 20


@pytest.mark.parametrize("exponents", [
    np.arange(15)[:, None],      # the P1 degree-14 chart basis
    np.array([[0], [1]]),        # a 2-term pole polynomial Q
], ids=["basis", "Q"])
def test_large_one_axis_block_peaks_no_higher_than_the_broadcast(exponents):
    # the one-axis twin of the test above, on 250,000 rows
    rng = np.random.default_rng(1)
    points = _points(rng, 250_000, 1, special=0)
    tracemalloc.start()
    try:
        out = eval_monomials(points, exponents, np.ones(len(exponents)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the broadcast in chunks of 2^20 entries peaked 16 MB (Q) and 32 MB
    # (basis) above its output; Q now takes the tables (~1.5 MB) and the
    # basis, where most monomials take a power, the broadcast in chunks of
    # 2^17 entries (~4 MB)
    assert peak - out.nbytes < 8 * 2 ** 20
