"""Hot numerical kernels with twin implementations.

Every kernel has a numba ``@njit`` build and a pure-numpy build computing the
same values; ``KAHLERLAB_NO_NUMBA=1`` (or a missing numba) selects numpy.
``active_backend()`` reports which one is live.  ``benchmarks/run.py --trace
1`` reports the calls and self time of ``eval_monomials`` per workload; run
it with and without ``KAHLERLAB_NO_NUMBA=1`` to compare the two.

Kernels:

* ``eval_monomials``: batched scaled-monomial evaluation (basis x points).
* ``gram_contract``: Gram assembly from radial profiles and angular Fourier
  modes of a smooth weight (the separable fast path).
* ``weighted_logsq_dot``: weighted reduction of ``log`` of a nonnegative
  field, with an exact-zero floor for integrable log singularities.
"""

import os

import numpy as np

_DISABLED = os.environ.get("KAHLERLAB_NO_NUMBA", "").strip() not in ("", "0")

if not _DISABLED:
    try:
        import numba
        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        HAS_NUMBA = False
else:
    HAS_NUMBA = False


def active_backend():
    return "numba" if HAS_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# eval_monomials
# ---------------------------------------------------------------------------


def _eval_monomials_py(points, exponents, scales):
    n = points.shape[0]
    m = exponents.shape[0]
    out = np.empty((n, m), dtype=np.complex128)
    chunk = max(1, int(4e6) // max(m * points.shape[1], 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # power-broadcast: (c, 1, k) ** (1, M, k) -> product over k
        vals = points[lo:hi, None, :] ** exponents[None, :, :]
        out[lo:hi] = vals.prod(axis=2)
    out *= scales[None, :]
    return out


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _eval_monomials_nb(points, exponents, scales):  # pragma: no cover
        n, k = points.shape
        m = exponents.shape[0]
        out = np.empty((n, m), dtype=np.complex128)
        for i in range(n):
            for j in range(m):
                acc = 1.0 + 0.0j
                for a in range(k):
                    e = exponents[j, a]
                    base = points[i, a]
                    # exponentiation by squaring keeps big powers exact-ish
                    p = 1.0 + 0.0j
                    b = base
                    ee = e
                    while ee > 0:
                        if ee & 1:
                            p *= b
                        b *= b
                        ee >>= 1
                    acc *= p
                out[i, j] = acc * scales[j]
        return out


def eval_monomials(points, exponents, scales):
    """values[i, j] = scales[j] * prod_a points[i, a] ** exponents[j, a]"""
    points = np.ascontiguousarray(points, dtype=np.complex128)
    exponents = np.ascontiguousarray(exponents, dtype=np.int64)
    scales = np.ascontiguousarray(scales, dtype=np.float64)
    if points.ndim != 2 or exponents.ndim != 2 \
            or points.shape[1] != exponents.shape[1]:
        raise ValueError("points and exponents must agree on the last axis")
    if HAS_NUMBA:
        return _eval_monomials_nb(points, exponents, scales)
    return _eval_monomials_py(points, exponents, scales)


# ---------------------------------------------------------------------------
# gram_contract
# ---------------------------------------------------------------------------


def _gram_contract_py(rad, what, didx):
    m = rad.shape[1]
    G = np.zeros((m, m), dtype=np.complex128)
    chunk = max(1, int(2e6) // max(m * m, 1))
    for lo in range(0, rad.shape[0], chunk):
        hi = min(lo + chunk, rad.shape[0])
        r = rad[lo:hi]
        w = what[lo:hi][:, didx]  # (c, m, m)
        G += np.einsum("ra,rb,rab->ab", r, r, w, optimize=True)
    return G


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _gram_contract_nb(rad, what, didx):  # pragma: no cover
        nr, m = rad.shape
        G = np.zeros((m, m), dtype=np.complex128)
        for a in range(m):
            for b in range(a, m):
                acc = 0.0 + 0.0j
                d = didx[a, b]
                for r in range(nr):
                    acc += rad[r, a] * rad[r, b] * what[r, d]
                G[a, b] = acc
                if b != a:
                    G[b, a] = np.conj(acc)
        return G


def gram_contract(rad, what, didx):
    """G[a, b] = sum_r rad[r, a] rad[r, b] what[r, didx[a, b]].

    ``rad`` are real radial profiles (scaled monomial moduli times measure
    and reference weight factors), ``what`` the angular Fourier modes of the
    weight, ``didx`` the mode index of each basis pair.  ``didx`` must be
    symmetric up to mode conjugation (the weight is real), so the result is
    Hermitian.
    """
    rad = np.ascontiguousarray(rad, dtype=np.float64)
    what = np.ascontiguousarray(what, dtype=np.complex128)
    didx = np.ascontiguousarray(didx, dtype=np.int64)
    if HAS_NUMBA:
        return _gram_contract_nb(rad, what, didx)
    return _gram_contract_py(rad, what, didx)


# ---------------------------------------------------------------------------
# weighted_logsq_dot
# ---------------------------------------------------------------------------

_LOG_FLOOR = -745.0  # log of the smallest positive normal-ish double


def _weighted_logsq_dot_py(sq, weights):
    logv = np.full(sq.shape, _LOG_FLOOR)
    np.log(sq, out=logv, where=sq > 0.0)
    return float(np.dot(logv, weights))


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _weighted_logsq_dot_nb(sq, weights):  # pragma: no cover
        acc = 0.0
        for i in range(sq.shape[0]):
            v = sq[i]
            if v > 0.0:
                acc += np.log(v) * weights[i]
            else:
                acc += _LOG_FLOOR * weights[i]
        return acc


def weighted_logsq_dot(sq_norms, weights):
    """``sum_i weights[i] * log(sq_norms[i])`` with exact zeros floored.

    The floor only fires on exact zeros (quadrature nodes avoid singular
    sets, so zeros mean underflow); callers integrating genuinely singular
    logs must use refined rules and flag integrability upstream.
    """
    sq = np.ascontiguousarray(sq_norms, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if sq.shape != w.shape:
        raise ValueError("shape mismatch")
    if np.any(sq < 0.0):
        raise ValueError("squared norms must be nonnegative")
    if HAS_NUMBA:
        return float(_weighted_logsq_dot_nb(sq, w))
    return _weighted_logsq_dot_py(sq, w)
