"""Hot numerical kernels, in numpy.

``active_backend()`` names the implementation that runs (always
``"numpy"``).  ``benchmarks/run.py --trace 1`` reports the calls and self
time of ``eval_monomials`` per workload.

Kernels:

* ``eval_monomials``: batched scaled-monomial evaluation (basis x points).
* ``gram_contract``: Gram assembly from radial profiles and angular modes
  of a real weight; both tensor Gram paths use it (``modes`` with FFT
  modes on uniform angles, ``nodes`` with cos/sin moments on refined ones).
"""

import numpy as np


def active_backend():
    return "numpy"


# ---------------------------------------------------------------------------
# eval_monomials
# ---------------------------------------------------------------------------


def eval_monomials(points, exponents, scales):
    """values[i, j] = scales[j] * prod_a points[i, a] ** exponents[j, a]"""
    points = np.ascontiguousarray(points, dtype=np.complex128)
    exponents = np.ascontiguousarray(exponents, dtype=np.int64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    if points.ndim != 2 or exponents.ndim != 2 \
            or points.shape[1] != exponents.shape[1]:
        raise ValueError("points and exponents must agree on the last axis")
    n = points.shape[0]
    m = exponents.shape[0]
    out = np.empty((n, m), dtype=np.complex128)
    # the power array holds at most 2^20 complex entries (16 MB); powers and
    # products are taken per row, so the chunking leaves every bit alone
    chunk = max(1, (1 << 20) // max(m * points.shape[1], 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # power-broadcast: (c, 1, k) ** (1, M, k) -> product over k
        vals = points[lo:hi, None, :] ** exponents[None, :, :]
        out[lo:hi] = vals.prod(axis=2)
    out *= scales[None, :]
    return out


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
