"""Hot numerical kernels, in numpy.

``active_backend()`` names the implementation that runs (always
``"numpy"``).  ``benchmarks/run.py --trace 1`` reports the calls and self
time of ``eval_monomials`` per workload.

Kernels:

* ``eval_monomials``: batched scaled-monomial evaluation (basis x points).
* ``gram_contract``: Gram assembly from radial profiles and angular modes
  of a real weight; both tensor Gram paths use it (``modes`` with FFT
  modes on uniform angles, ``nodes`` with cos/sin moments on refined ones).

``eval_monomials`` has two strategies, chosen by the shape of the input:

* the broadcast ``points[:, None, :] ** exponents[None]`` and ``prod`` over
  the axes, one complex power per point, monomial and axis; it runs on
  small inputs, where its fixed cost is the lower, and on one axis, where a
  table takes as many powers;
* power tables: one power per point, axis and distinct exponent, then a
  product of gathered table columns.  On a P2 chart basis of degree 10 (66
  monomials, 11 distinct exponents per axis) it takes a sixth of the
  powers and is three to four times faster on many points.  Its products
  also cost less than ``prod`` along a short axis, so it is faster even
  where no exponent repeats, as for one monomial on many points.

Both give every value the bits of the broadcast, signs of zero included
(``tests/test_kernels.py``).  That holds because the table keeps numpy's
complex ``**`` (an integer exponent below 100 is binary exponentiation)
and the product repeats what ``prod`` does along an axis: start from
``1+0j`` and multiply the factors in axis order, each by the scalar product
``(ar*br - ai*bi, ar*bi + ai*br)``, here written on the real and imaginary
parts.  Two shortcuts move bits.  numpy's vectorized complex ``*`` rounds
differently from that scalar product, in a last bit of many products.  A
gather followed by ``prod`` keeps the bits only while the gathered array
has the axis innermost; with the axis outermost, numpy reduces it by that
vectorized ``*`` over whole slices.  Either layout also needs the
``(n, m, k)`` complex array that the tables avoid.
"""

import numpy as np


def active_backend():
    return "numpy"


# ---------------------------------------------------------------------------
# eval_monomials
# ---------------------------------------------------------------------------


# Rows are taken in chunks that bound the work arrays: the broadcast's
# complex power array holds at most _WORK_ENTRIES entries, and each real
# factor or product array of the tables (about seven are alive at once) at
# most _TABLE_ENTRIES, which also keeps them in cache.  Powers and products
# are taken per row, so chunking leaves every bit alone.
_WORK_ENTRIES = 1 << 20
_TABLE_ENTRIES = 1 << 15

# Tables pay for their set-up (distinct exponents, gathers) from about this
# many values n * m on, on two and three axes alike (2-5k entries n*m*k).
_TABLE_MIN_VALUES = 2048


def eval_monomials(points, exponents, scales):
    """values[i, j] = scales[j] * prod_a points[i, a] ** exponents[j, a]

    Bit for bit equal to the broadcast
    ``(points[:, None, :] ** exponents[None]).prod(axis=2) * scales``,
    whichever strategy runs (see the module docstring): power tables on
    two or more axes and at least ``_TABLE_MIN_VALUES`` values ``n * m``,
    the broadcast otherwise.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128)
    exponents = np.ascontiguousarray(exponents, dtype=np.int64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    if points.ndim != 2 or exponents.ndim != 2 \
            or points.shape[1] != exponents.shape[1]:
        raise ValueError("points and exponents must agree on the last axis")
    n, k = points.shape
    m = exponents.shape[0]
    out = np.empty((n, m), dtype=np.complex128)
    if k >= 2 and n * m >= _TABLE_MIN_VALUES:
        _table_products(points, exponents, out)
    else:
        _broadcast_products(points, exponents, out)
    out *= scales[None, :]
    return out


def _broadcast_products(points, exponents, out):
    """One power per point, monomial and axis, then ``prod`` over the axes."""
    chunk = max(1, _WORK_ENTRIES // max(exponents.size, 1))
    for lo in range(0, points.shape[0], chunk):
        hi = min(lo + chunk, points.shape[0])
        vals = points[lo:hi, None, :] ** exponents[None, :, :]
        out[lo:hi] = vals.prod(axis=2)


def _table_products(points, exponents, out):
    """One power per point, axis and distinct exponent, then the product of
    the gathered columns, axis by axis, in the arithmetic of ``prod``.

    ``prod`` over an axis starts from ``1+0j`` and multiplies the factors
    in axis order, each by the scalar product ``(ar*br - ai*bi, ar*bi +
    ai*br)``; that is written out here on the real and imaginary parts.
    """
    n, k = points.shape
    m = exponents.shape[0]
    # sorted distinct exponents of each axis (np.unique would load
    # numpy.ma), and the table column of each monomial
    s = np.sort(exponents, axis=0)
    first = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    distinct = [s[first[:, a], a] for a in range(k)]
    cols = [np.searchsorted(u, exponents[:, a])
            for a, u in enumerate(distinct)]
    parts = out.view(np.float64).reshape(n, m, 2)
    chunk = max(1, _TABLE_ENTRIES // m)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # powers of each axis, real and imaginary parts interleaved
        tables = [(points[lo:hi, a, None] ** u).view(np.float64)
                  for a, u in enumerate(distinct)]
        # 1+0j times the first factor, taken on its table
        tr, ti = tables[0][:, 0::2], tables[0][:, 1::2]
        pr = (tr - 0.0 * ti)[:, cols[0]]
        pi = (ti + 0.0 * tr)[:, cols[0]]
        for table, col in zip(tables[1:], cols[1:]):
            tr = table[:, 0::2][:, col]
            ti = table[:, 1::2][:, col]
            pr, pi = pr * tr - pi * ti, pr * ti + pi * tr
        parts[lo:hi, :, 0] = pr
        parts[lo:hi, :, 1] = pi


# ---------------------------------------------------------------------------
# gram_contract
# ---------------------------------------------------------------------------


def gram_contract(rad, what, didx):
    """G[a, b] = sum_r rad[r, a] rad[r, b] what[r, didx[a, b]].

    ``rad`` are real radial profiles (scaled monomial moduli times measure
    and weight factors), ``what`` the angular modes of the weight, ``didx``
    the mode index of each basis pair.  ``didx`` must be
    symmetric up to mode conjugation (the weight is real), so the result is
    Hermitian.
    """
    rad = np.ascontiguousarray(rad, dtype=np.float64)
    what = np.ascontiguousarray(what, dtype=np.complex128)
    didx = np.ascontiguousarray(didx, dtype=np.int64)
    m = rad.shape[1]
    G = np.zeros((m, m), dtype=np.complex128)
    chunk = max(1, int(2e6) // max(m * m, 1))
    for lo in range(0, rad.shape[0], chunk):
        hi = min(lo + chunk, rad.shape[0])
        r = rad[lo:hi]
        w = what[lo:hi][:, didx]  # (c, m, m)
        G += np.einsum("ra,rb,rab->ab", r, r, w, optimize=True)
    return G
