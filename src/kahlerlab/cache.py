"""On-disk reuse of orthonormalized section spaces.

The expensive step in every study is the Gram solve behind
:meth:`SectionSpace.coeff_matrix`.  Its result depends only on the metric,
the power, the adjoint flag and the Gram numerics (method, quadrature
plan, resolution and ``sections.NUMERICS_VERSION``), so it can be keyed by
a canonical JSON fingerprint of exactly those inputs and replayed across
runs; an entry written by code with other numerics misses.

An entry stores the orthonormal frame in the form the space holds it (see
:mod:`kahlerlab.sections`): the real scale vector of a diagonal Gram, O(dim)
numbers, or the real and imaginary parts of a dense frame matrix.  ``SCHEMA``
names that layout, so entries written in another layout miss.

Entries are gzip-compressed JSON blobs named by the SHA-256 of their key
fragment.  Writes are atomic (temp file then rename) so interrupted runs
never leave a truncated entry; reads treat any undecodable file as a miss
and fall back to recomputation with a warning.
"""

import gzip
import hashlib
import json
import os
import tempfile
import warnings

import numpy as np

from .sections import build_section_space

# version 2: a diagonal Gram's frame is stored as its scale vector
SCHEMA = "kahlerlab-space/2"


def metric_fingerprint(metric):
    """JSON-ready identity of a metric: bundle plus weighted atom list."""
    bundle = metric.bundle
    return {
        "bundle": [bundle.manifold.kind, list(bundle.degree)],
        "atoms": [dict(atom.fingerprint(), coeff=float(c))
                  for c, atom in metric.atoms],
    }


def cache_key(fragment):
    """Stable hex digest of a JSON-ready fragment.

    Floats are serialized in their shortest round-trip decimal form, so
    equal values always hash alike regardless of how they were produced.
    """
    blob = json.dumps(fragment, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_path(cache_dir, key):
    return os.path.join(cache_dir, key + ".json.gz")


def cache_put(cache_dir, key, payload):
    """Atomically store a JSON payload under ``key``."""
    os.makedirs(cache_dir, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    # mtime=0 keeps the compressed bytes independent of the wall clock
    data = gzip.compress(blob, mtime=0)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, cache_path(cache_dir, key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_get(cache_dir, key):
    """Load a payload, or None on miss or on any unreadable entry."""
    path = cache_path(cache_dir, key)
    if not os.path.exists(path):
        return None
    try:
        with gzip.open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except Exception as exc:
        warnings.warn(f"ignoring unreadable cache entry {path}: {exc}")
        return None


def space_payload(space):
    coeff = space.coeff_matrix()
    payload = {
        "schema": SCHEMA,
        "dim": space.dim,
        "condition": space.gram_condition,
        "method": space.gram_method,
        "coeff_re": coeff.real.tolist(),
    }
    if np.iscomplexobj(coeff):
        payload["coeff_im"] = coeff.imag.tolist()
    return payload


def space_fragment(space):
    """Key fragment of a space's orthonormalization (builds no nodes)."""
    return {
        "what": "section-space",
        "metric": metric_fingerprint(space.metric),
        "p": space.p,
        "adjoint": space.adjoint,
        "gram": space.gram_fingerprint(),
    }


def cached_space(metric, p, adjoint=True, resolution=None, cache_dir=None):
    """Build a section space, replaying the Gram solve from disk when possible.

    Returns ``(space, status)`` with status "hit", "miss", or "off" (no
    cache directory given).  A hit still rebuilds the cheap monomial
    bookkeeping; only the orthonormalization is restored.
    """
    if cache_dir is None:
        return build_section_space(metric, p, adjoint=adjoint,
                                   resolution=resolution), "off"
    space = build_section_space(metric, p, adjoint=adjoint,
                                resolution=resolution, orthonormalize=False)
    key = cache_key(space_fragment(space))
    payload = cache_get(cache_dir, key)
    if payload is not None and payload.get("schema") == SCHEMA:
        if payload["dim"] == space.dim:
            coeff = np.asarray(payload["coeff_re"], dtype=float)
            if "coeff_im" in payload:
                coeff = coeff + 1j * np.asarray(payload["coeff_im"],
                                                dtype=float)
            space.load_orthonormal(coeff, payload["condition"],
                                   payload["method"])
            return space, "hit"
        warnings.warn("cache entry dimension mismatch, recomputing")
    cache_put(cache_dir, key, space_payload(space))
    return space, "miss"
