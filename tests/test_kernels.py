"""``eval_monomials`` against the broadcast formula, bit for bit.

The kernel takes per-axis power tables on inputs of two or more axes above
a size cut-over and the broadcast below it.  Either way every value must
carry the bits of the broadcast formula (``_broadcast`` below, the kernel's
former body): signs of zero included, since callers take logarithms and
arguments of these values.
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
def test_eval_monomials_has_the_bits_of_the_broadcast(inputs):
    points, exponents, scales = inputs
    _assert_same_bits(eval_monomials(points, exponents, scales),
                      _broadcast(points, exponents, scales))


@pytest.mark.parametrize("n, m, k, tables", [
    (1, 66, 2, False),
    (31, 66, 2, False),
    (32, 66, 2, True),
    (2047, 1, 2, False),
    (2048, 1, 2, True),
    (700, 3, 3, True),
    (100_000, 3, 1, False),
])
def test_cut_over_depends_on_the_input_shape(n, m, k, tables, monkeypatch):
    ran = []
    for name in ("_table_products", "_broadcast_products"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name,
            lambda *a, name=name, real=real: (ran.append(name), real(*a)))
    eval_monomials(np.ones((n, k)), np.ones((m, k), np.int64), np.ones(m))
    assert ran == ["_table_products" if tables else "_broadcast_products"]


@pytest.mark.parametrize("k, m", [(1, 66), (2, 66), (3, 10)])
def test_chunk_boundaries_leave_the_bits_alone(k, m):
    # two full chunks of rows and one more, at the kernel's own budgets
    if k == 1:
        chunk = _kernels._WORK_ENTRIES // m
    else:
        chunk = _kernels._TABLE_ENTRIES // m
    rng = np.random.default_rng(k)
    points = _points(rng, 2 * chunk + 1, k)
    exponents = rng.integers(0, 11, size=(m, k))
    scales = rng.uniform(-2, 2, size=m)
    _assert_same_bits(eval_monomials(points, exponents, scales),
                      _broadcast(points, exponents, scales))


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
