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
  small inputs, where its fixed cost is the lower, and on one axis where
  most monomials take a power, as a P1 chart basis does;
* power tables, on one axis and on several alike: one table row per axis
  and distinct exponent, then the product of each output column, axis by
  axis.  Exponents 0 and 1 take no power at all, which is all of the work
  on the one-monomial sections of the test forms; a P2 chart basis of
  degree 10 (66 monomials, 11 distinct exponents per axis) takes a sixth of
  the broadcast's powers.

Both give every value the bits of the broadcast, signs of zero included
(``tests/test_kernels.py``).  That rests on three facts of numpy:

* ``z ** 0`` is ``1+0j`` for every ``z``, and ``z ** 1`` is ``z``, except
  that a zero base gives ``+0+0j`` whatever the signs of its parts.  The
  tables write these two rows without a power;
* a scalar exponent takes other paths than an array one: ``z ** 2`` is
  numpy's ``square``, which rounds differently.  The tables take every
  other power as ``z ** np.array([e])``;
* ``prod`` along an axis starts from ``1+0j`` and multiplies the factors in
  axis order, each by the scalar product ``(ar*br - ai*bi, ar*bi +
  ai*br)``; the tables write that out on contiguous real and imaginary
  arrays.  numpy's vectorized complex ``*`` rounds differently from that
  scalar product, in a last bit of many products, so it is not used for
  the products.  It is used for the real ``scales``: with a zero imaginary
  part, every way of rounding the complex product gives the same bits.
"""

import numpy as np


def active_backend():
    return "numpy"


# ---------------------------------------------------------------------------
# eval_monomials
# ---------------------------------------------------------------------------


# Rows are taken in chunks that bound the work arrays: the broadcast's
# complex power array holds at most _WORK_ENTRIES entries (2 MB), and each
# real work array of the tables at most _TABLE_ENTRIES, which also keeps
# them in cache.  Powers and products are taken per row, so chunking leaves
# every bit alone.
_WORK_ENTRIES = 1 << 17
_TABLE_ENTRIES = 1 << 15

# Tables pay for their set-up (distinct exponents, gathers) from about this
# many values n * m on.  On one axis they take as many products as ``prod``
# and save only the powers of exponents 0 and 1, so there they run only
# where at most half the monomials take a power (an exponent below 0 or
# above 1).  That boundary is tuned only roughly: on 60,000 points the
# tables take 0.56x the broadcast's time on a P1 basis of degree 2, 0.90x
# on degree 3 and 0.99x on degree 4, but on 5,000 points 1.3x on degree 3.
# The benchmark's one-axis inputs lie far from it, taking no power or nearly
# all (the P1 bases).  On one-monomial sections at 4,608 P1 points, such as
# a test form's at a P1 block's nodes (``TestForm.hessian``), the tables
# take 0.8-1.1x the broadcast's time on exponent 0 and 1.2-1.3x (about
# 10 us more) on exponent 1; exponents {0, 1, 2} there take 0.6-0.7x.
_TABLE_MIN_VALUES = 2048


def eval_monomials(points, exponents, scales):
    """values[i, j] = scales[j] * prod_a points[i, a] ** exponents[j, a]

    Bit for bit equal to the broadcast
    ``(points[:, None, :] ** exponents[None]).prod(axis=2) * scales``,
    whichever strategy runs (see the module docstring): power tables from
    ``_TABLE_MIN_VALUES`` values ``n * m`` on, the broadcast below and on
    one axis where most monomials take a power.
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
    if n * m >= _TABLE_MIN_VALUES \
            and (k > 1 or 2 * np.count_nonzero((exponents < 0)
                                               | (exponents > 1)) <= m):
        _column_products(points, exponents, scales, out)
    else:
        _broadcast_products(points, exponents, scales, out)
    return out


def _broadcast_products(points, exponents, scales, out):
    """One power per point, monomial and axis, then ``prod`` over the axes."""
    chunk = max(1, _WORK_ENTRIES // max(exponents.size, 1))
    for lo in range(0, points.shape[0], chunk):
        hi = min(lo + chunk, points.shape[0])
        vals = points[lo:hi, None, :] ** exponents[None, :, :]
        out[lo:hi] = vals.prod(axis=2)
    out *= scales[None, :]


def _column_products(points, exponents, scales, out):
    """One power per point, axis and distinct exponent, then the product of
    each output column, axis by axis, in the arithmetic of ``prod``, and
    its scale.

    Each output column is a contiguous row of the work arrays, gathered
    from the table rows of its exponents; the first table already carries
    the ``1+0j`` that ``prod`` starts from.  Each chunk of rows is scaled
    while it is in cache.
    """
    n, k = points.shape
    m = exponents.shape[0]
    # sorted distinct exponents of each axis (np.unique would load
    # numpy.ma), and the table row of each monomial
    s = np.sort(exponents, axis=0)
    first = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    distinct = [s[first[:, a], a] for a in range(k)]
    rows = [np.searchsorted(u, exponents[:, a])
            for a, u in enumerate(distinct)]
    parts = out.view(np.float64).reshape(n, m, 2)
    chunk = max(1, _TABLE_ENTRIES // m)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        tables = [_power_table(points[lo:hi, a], u, a == 0)
                  for a, u in enumerate(distinct)]
        pr, pi = tables[0][0][rows[0]], tables[0][1][rows[0]]
        for (tr, ti), row in zip(tables[1:], rows[1:]):
            tr, ti = tr[row], ti[row]
            pr, pi = pr * tr - pi * ti, pr * ti + pi * tr
        parts[lo:hi, :, 0] = pr.T
        parts[lo:hi, :, 1] = pi.T
        out[lo:hi] *= scales[None, :]


def _power_table(z, exps, first):
    """Real and imaginary parts of ``z ** e``, one contiguous row per
    exponent ``e`` of the sorted ``exps``, with the bits of numpy's complex
    ``**``; on the ``first`` axis, times the ``1+0j`` that ``prod`` starts
    from.
    """
    re = np.empty((len(exps), len(z)))
    im = np.empty((len(exps), len(z)))
    # rows of exponents 0 and 1 lie between those of negative exponents
    # and those from 2 on, which take one power each
    lo, hi = np.searchsorted(exps, [0, 2])
    for rows in (slice(0, lo), slice(hi, len(exps))):
        if rows.start < rows.stop:
            # array exponents, as the broadcast takes them
            vals = z ** exps[rows, None]
            _start(vals.real, vals.imag, re[rows], im[rows], first)
    for i in range(lo, hi):
        if exps[i] == 0:
            # 1+0j, and so is 1+0j times 1+0j
            re[i] = 1.0
            im[i] = 0.0
        else:
            _start(z.real, z.imag, re[i], im[i], first)
            if not z.all():
                zero = z == 0
                re[i, zero] = 0.0
                im[i, zero] = 0.0
    return re, im


def _start(vr, vi, re, im, first):
    """re + i im = vr + i vi, times 1+0j on the first axis."""
    if first:
        np.multiply(vi, 0.0, out=im)
        np.subtract(vr, im, out=re)
        np.multiply(vr, 0.0, out=im)
        np.add(vi, im, out=im)
    else:
        re[...] = vr
        im[...] = vi


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

    Each chunk takes the two steps that ``einsum("ra,rb,rab->ab",
    optimize=True)`` takes on m >= 2 members and at least m rows, so there
    it has that call's bits; the first step runs in place.
    """
    rad = np.ascontiguousarray(rad, dtype=np.float64)
    what = np.ascontiguousarray(what, dtype=np.complex128)
    didx = np.ascontiguousarray(didx, dtype=np.int64)
    m = rad.shape[1]
    G = np.zeros((m, m), dtype=np.complex128)
    chunk = max(1, (1 << 18) // max(m * m, 1))  # 4 MB of gathered modes
    for lo in range(0, rad.shape[0], chunk):
        r = rad[lo:lo + chunk]
        w = what[lo:lo + chunk][:, didx]  # (c, m, m)
        w *= r[:, :, None]
        G += np.einsum("abr,rb->ab", w.transpose(1, 2, 0), r, optimize=True)
    return G
