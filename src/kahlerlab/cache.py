"""On-disk reuse of orthonormalized section spaces and test-form dictionaries.

The cache holds two kinds of entry, each keyed by a canonical JSON
fingerprint of exactly the inputs its result depends on, so it replays
across runs; an entry written by code with other numerics misses.

- A **section space**: the Gram solve behind
  :meth:`SectionSpace.coeff_matrix`, the expensive step of most studies.
  It depends on the metric, the power, the adjoint flag and the Gram
  numerics (method, quadrature plan, resolution and
  ``sections.NUMERICS_VERSION``).  The entry stores the orthonormal frame
  in the form the space holds it (see :mod:`kahlerlab.sections`): the real
  scale vector of a diagonal Gram, O(dim) numbers, or the real and
  imaginary parts of a dense frame matrix.
- A **test-form dictionary** (:func:`testforms.test_form_dictionary`): its
  grid normalization depends on the manifold, the codimension ``m``, the
  count and ``sections.NUMERICS_VERSION`` alone, so every study on the same
  manifold, ``m`` and count shares one entry, whatever its metric or
  powers.  The entry stores the labels and scales in dictionary order; a
  hit takes the forms from the candidate stream
  (:func:`testforms.replay_dictionary`) with no grid and no ``eigvalsh``.
  A change to the dictionary's grid, stream or normalization that moves
  a scale bumps ``NUMERICS_VERSION``.

``SCHEMA`` and ``DICTIONARY_SCHEMA`` name the two payload layouts, so
entries written in another layout miss.

Entries are gzip-compressed JSON blobs named by the SHA-256 of their key
fragment.  Writes are atomic (temp file then rename) so interrupted runs
never leave a truncated entry.  An undecodable file, or a payload that is
not an object of the layout's fields, shapes and finite values (or whose
labels leave the candidate stream), is a miss: it warns, is recomputed and
is rewritten.
"""

import gzip
import hashlib
import json
import os
import tempfile
import warnings

import numpy as np

from . import sections
from .testforms import replay_dictionary, test_form_dictionary

# version 2: a diagonal Gram's frame is stored as its scale vector
SCHEMA = "kahlerlab-space/2"
DICTIONARY_SCHEMA = "kahlerlab-dictionary/1"


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


def _replay(cache_dir, key, schema, load):
    """``load(payload)`` of the entry under ``key``, or None on a miss.

    An entry of another schema misses quietly; one that is not a JSON
    object, or that ``load`` rejects with a ``ValueError``, warns.
    """
    payload = cache_get(cache_dir, key)
    if payload is None:
        return None
    try:
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        if payload.get("schema") != schema:
            return None
        return load(payload)
    except ValueError as exc:
        path = cache_path(cache_dir, key)
        warnings.warn(f"ignoring malformed cache entry {path}: {exc}")
        return None


def _fields(payload, *names):
    missing = [name for name in names if name not in payload]
    if missing:
        raise ValueError(f"missing fields {missing}")
    return [payload[name] for name in names]


def _finite(values, what, shape):
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a numeric array") from None
    if array.shape != shape:
        raise ValueError(f"{what} has shape {array.shape}, not {shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} holds non-finite values")
    return array


def cached_space(metric, p, adjoint=True, resolution=None, cache_dir=None):
    """Build a section space, replaying the Gram solve from disk when possible.

    Returns ``(space, status)`` with status "hit", "miss", or "off" (no
    cache directory given).  A hit still rebuilds the cheap monomial
    bookkeeping; only the orthonormalization is restored.
    """
    if cache_dir is None:
        return sections.build_section_space(metric, p, adjoint=adjoint,
                                            resolution=resolution), "off"
    space = sections.build_section_space(metric, p, adjoint=adjoint,
                                         resolution=resolution,
                                         orthonormalize=False)
    fragment = space_fragment(space)

    def load(payload):
        dim, condition, method, coeff_re = _fields(
            payload, "dim", "condition", "method", "coeff_re")
        if dim != space.dim:
            raise ValueError(f"dimension mismatch: {dim} for {space.dim}")
        if method != fragment["gram"]["method"]:
            raise ValueError(f"method {method!r} under a "
                             f"{fragment['gram']['method']!r} key")
        shape = (dim,) if method == "diagonal" else (dim, dim)
        coeff = _finite(coeff_re, "coeff_re", shape)
        if "coeff_im" in payload:
            coeff = coeff + 1j * _finite(payload["coeff_im"], "coeff_im",
                                         shape)
        space.load_orthonormal(coeff, _finite(condition, "condition", ()),
                               method)
        return space

    key = cache_key(fragment)
    if _replay(cache_dir, key, SCHEMA, load) is not None:
        return space, "hit"
    cache_put(cache_dir, key, space_payload(space))
    return space, "miss"


def dictionary_fragment(manifold, m, count):
    """Key fragment of a test-form dictionary: no metric, no power."""
    return {"what": "test-form-dictionary", "manifold": manifold.kind,
            "m": m, "count": count, "numerics": sections.NUMERICS_VERSION}


def cached_dictionary(manifold, m, count, cache_dir=None):
    """:func:`testforms.test_form_dictionary`, replayed from disk when
    possible.

    Returns ``(forms, status)`` with status "hit", "miss", or "off" (no
    cache directory given, the dictionary is computed).  A hit builds no
    grid and normalizes nothing.
    """
    if cache_dir is None:
        return test_form_dictionary(manifold, m, count), "off"

    def load(payload):
        labels, scales = _fields(payload, "labels", "scales")
        if not (isinstance(labels, list) and len(labels) == count
                and all(isinstance(label, str) for label in labels)):
            raise ValueError(f"labels are not a list of {count} strings")
        forms = replay_dictionary(manifold, m, labels,
                                  _finite(scales, "scales", (count,)))
        if forms is None:
            raise ValueError("labels leave the candidate stream")
        return forms

    key = cache_key(dictionary_fragment(manifold, m, count))
    forms = _replay(cache_dir, key, DICTIONARY_SCHEMA, load)
    if forms is not None:
        return forms, "hit"
    forms = test_form_dictionary(manifold, m, count)
    cache_put(cache_dir, key, {"schema": DICTIONARY_SCHEMA,
                               "labels": [f.label for f in forms],
                               "scales": [f.scale for f in forms]})
    return forms, "miss"
